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


def leibniz_det(mat) -> int:
    """Permutation-sum determinant in Python ints, independent of elimination."""
    size = len(mat)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= int(mat[r][c])
        total += term
    return total


def eliminate_augmented(mat, rhs, p: int):
    """X with mat @ X == rhs over GF(p) for a square mat, or None when mat
    is singular, from one elimination of [mat | rhs] by the package's kernel:
    mat is invertible iff each of its columns holds a pivot, and the right
    half of the reduced rows is then X, as an int64 array."""
    mat = np.asarray(mat, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64).reshape(len(mat), -1)
    red, pivots, _ = GfMatrix(np.concatenate([mat, rhs], axis=1), p)._echelon()
    n = mat.shape[1]
    if pivots[:n] != list(range(n)):
        return None
    return np.array([row[n:] for row in red], dtype=np.int64).reshape(rhs.shape)


def qsym_decode_matrix(params, a: int, b: int, u: int, v: int) -> np.ndarray:
    """One user's two-block decode matrix at its (A, B, U, V), as a 2q x 2q
    int64 array reduced mod p: the oracle the closed-form inverse and the
    Delta property are checked against.

    Rows are the user's block-1 outputs, then its block-2 outputs.  The
    unknowns are its q block-1 symbols, then the q symbols of R (see
    `schemes._two_block_scheme`), whose aligned levels return as
    interference rescaled by U and V.  `own` and `cross` map the two groups
    of unknowns onto the output levels: the weaker of the direct and cross
    links is the shift D^|n-m|, the stronger the identity.
    """
    n, m = params.n, params.m
    eye = np.eye(params.q, dtype=np.int64)
    d = np.eye(params.q, k=-abs(n - m), dtype=np.int64)
    own, cross = (eye, d) if n >= m else (d, eye)
    top = np.concatenate([own, cross], axis=1)
    bot = np.concatenate([a * own + u * cross, b * own + v * cross], axis=1)
    return np.concatenate([top, bot]) % params.p


def all_sign_matrices(k: int):
    """All 2^(K(K-1)) valid K x K sign matrices (zero diagonal, +-1
    elsewhere), as tuples of tuples, the off-diagonal entries in row-major
    order taking +1 before -1."""
    pos = [(r, c) for r in range(k) for c in range(k) if r != c]
    for bits in itertools.product((1, -1), repeat=len(pos)):
        lam = [[0] * k for _ in range(k)]
        for (r, c), s in zip(pos, bits):
            lam[r][c] = s
        yield tuple(tuple(row) for row in lam)


def all_sign_matrices_k3():
    """All 64 valid 3x3 sign matrices, in `all_sign_matrices`' order."""
    return all_sign_matrices(3)
