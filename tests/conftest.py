import functools
import itertools

import numpy as np

from fcic.gf import GfMatrix


def cofactor_det_mod(mat, p: int) -> int:
    """Brute-force determinant mod p by Laplace expansion along the rows.

    Independent of the elimination-based determinant in the package.  The
    minor below row r depends only on which columns rows 0..r-1 used, so it
    is memoized over that column bitmask: O(2^n * n) Python-int steps.
    """
    a = [[int(v) % p for v in row] for row in np.asarray(mat)]
    n = len(a)

    @functools.lru_cache(maxsize=None)
    def minor(used: int) -> int:
        r = bin(used).count("1")
        if r == n:
            return 1
        total, pos = 0, 0
        for j in range(n):
            if used >> j & 1:
                continue
            if a[r][j]:
                total += (-1) ** pos * a[r][j] * minor(used | 1 << j)
            pos += 1
        return total % p

    return minor(0)


def eliminate_augmented(mat, rhs, p: int):
    """X with mat @ X == rhs over GF(p) for a square mat, or None when mat
    is singular, from one elimination of [mat | rhs] by the package's kernel:
    mat is invertible iff each of its columns holds a pivot, and the reduced
    right half is then X."""
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64).reshape(len(mat), -1)
    red, pivots, _ = GfMatrix(np.concatenate([mat, rhs], axis=1), p)._echelon()
    n = mat.shape[1]
    return red[:, n:] if pivots[:n] == list(range(n)) else None


def all_sign_matrices_k3():
    """All 64 valid 3x3 sign matrices (zero diagonal, +-1 elsewhere)."""
    pos = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for bits in itertools.product((1, -1), repeat=6):
        lam = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        for (r, c), s in zip(pos, bits):
            lam[r][c] = s
        yield tuple(tuple(row) for row in lam)
