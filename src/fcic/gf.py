"""Exact dense linear algebra over the prime field GF(p).

Entries are canonical integers in [0, p), held in int64 numpy arrays.  One
kernel, `GfMatrix._echelon`, brings a matrix to reduced row echelon form in
Python ints, exact for any p; `check_dot_length` still rejects the moduli
whose int64 dot products in the feedback replay could reach 2^63.  Matrices
in scope are small (<= ~64 per side) and dense.  `nullspace` reads the
kernel's result for the alignment solver, the only elimination a scheme
build runs (decode matrices are inverted in closed form).  `det`, the
determinant the tests check decode matrices with, reads the same
elimination.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SingularSystem",
    "check_dot_length",
    "is_prime",
    "GfMatrix",
    "nullspace",
]


class SingularSystem(Exception):
    """No decodable scheme over GF(p): a decode matrix is singular, or (the
    subclass `schemes.NoSolution`) the alignment solver finds no point whose
    decode matrices all invert.  gf raises none itself: `schemes` does, and
    the CLI maps it to exit code 3.  It carries only its text, which says
    why (which user's term of Delta is 0 mod p)."""


@functools.lru_cache
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check, memoized: every GF(p)
    matrix of a build checks the same p, and near 2^30 one check divides
    ~16 000 times."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_dot_length(p: int, length: int) -> None:
    """Reject p when a sum of `length` products of residues can reach 2^63.

    Products and dot products are formed in int64 and reduced mod p only
    afterwards, so the longest dot product an algorithm forms bounds the
    usable field size.  Raises ValueError.
    """
    if length * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"p={p} is too large for int64 arithmetic: a length-{length} "
            f"dot product over GF(p) can reach 2^63"
        )


def _require_prime(p: int) -> int:
    p = int(p)
    check_dot_length(p, 1)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


class GfMatrix:
    """Dense matrix over GF(p); rows/cols indexed from 0, top-down."""

    __slots__ = ("data", "p")

    def __init__(self, entries, p: int):
        self.p = _require_prime(p)
        data = np.asarray(entries, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {data.shape}")
        self.data = data % self.p

    def _echelon(self):
        """Forward elimination of data in Python ints (exact for any p), with
        the first nonzero entry of each column as its pivot.

        Returns (red, pivot column list, det): red is data in *reduced* row
        echelon form (pivots normalised to 1, cleared above and below),
        which keeps nullspace extraction trivial.  det is the product of the
        pivots as found, before normalisation, with the sign of the row
        swaps: for a square matrix with a pivot in every column it is the
        determinant.
        """
        p = self.p
        n_rows, n_cols = self.data.shape
        red = self.data.tolist()
        pivots: list[int] = []
        det = 1
        r = 0
        for c in range(n_cols):
            sel = next((i for i in range(r, n_rows) if red[i][c]), -1)
            if sel < 0:
                continue
            if sel != r:
                red[r], red[sel] = red[sel], red[r]
                det = -det % p
            piv = red[r][c]
            det = det * piv % p
            inv = pow(piv, p - 2, p)
            # the pivot row is 0 left of c, so only columns c onwards change
            row = [v * inv % p for v in red[r][c:]]
            red[r][c:] = row
            for i, other in enumerate(red):
                f = other[c]
                if i != r and f:
                    other[c:] = [(v - f * w) % p for v, w in zip(other[c:], row)]
            pivots.append(c)
            r += 1
        return np.array(red, dtype=np.int64).reshape(n_rows, n_cols), pivots, det

    def det(self) -> int:
        """Determinant in [0, p), from one elimination by `_echelon`."""
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {self.data.shape}")
        _, pivots, det = self._echelon()
        return det if len(pivots) == self.data.shape[0] else 0


def nullspace(m: GfMatrix) -> np.ndarray:
    """Basis of {x : m.data @ x == 0} as the rows of a (dim, cols) array, one
    row per free column, ascending.

    Each basis vector has a 1 in its free coordinate and the negated reduced
    echelon entries in the pivot coordinates, so the output is deterministic.
    """
    red, pivots, _ = m._echelon()
    cols = m.data.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red[:len(pivots), free].T % m.p
    return basis
