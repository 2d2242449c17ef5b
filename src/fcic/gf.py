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
import operator

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


def _require_prime(p) -> int:
    """p as a Python int, prime and small enough for int64 products; a
    non-integral p (5.5, "5") raises a ValueError that names it, where
    int() would truncate or parse it."""
    try:
        p = operator.index(p)
    except TypeError:
        raise ValueError(f"p must be an integer, got {p!r}") from None
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
        echelon form (pivots normalised to 1, cleared above and below), as
        a list of Python int rows, which keeps nullspace extraction
        trivial.  det is the product of the pivots as found, before
        normalisation, with the sign of the row swaps: for a square matrix
        with a pivot in every column it is the determinant.  A pivot that
        is already 1 is not normalised (every entry of the alignment
        constraints is -1, 0 or 1), a row update touches only the columns
        where the pivot row is nonzero, and the scan stops once every row
        holds a pivot.
        """
        p = self.p
        n_rows, n_cols = self.data.shape
        red = self.data.tolist()
        pivots: list[int] = []
        det = 1
        for c in range(n_cols):
            r = len(pivots)
            if r == n_rows:
                break
            for sel in range(r, n_rows):
                if red[sel][c]:
                    break
            else:
                continue
            row = red[sel]
            if sel != r:
                red[r], red[sel] = row, red[r]
                det = -det
            piv = row[c]
            if piv != 1:
                det = det * piv % p
                inv = pow(piv, p - 2, p)
                # the pivot row is 0 left of c, so only columns c onwards change
                row[c:] = [v * inv % p for v in row[c:]]
            nonzero = [j for j in range(c + 1, n_cols) if row[j]]
            for other in red:
                f = other[c]
                if f and other is not row:
                    other[c] = 0
                    for j in nonzero:
                        other[j] = (other[j] - f * row[j]) % p
            pivots.append(c)
        return red, pivots, det % p

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
    It is written from the echelon's pivot rows, Python int lists, and
    becomes one array in one constructor.
    """
    red, pivots, _ = m._echelon()
    p, cols = m.p, m.data.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[f] = 1
        for c, row in zip(pivots, red):  # the pivot rows lead
            vec[c] = -row[f] % p
        basis.append(vec)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)
