"""Exact dense linear algebra over the prime field GF(p).

Entries are canonical integers in [0, p).  Everything is carried in int64
numpy arrays with reduction mod p after each arithmetic step, so all results
are exact as long as no unreduced sum reaches 2^63; `check_dot_length`
rejects the moduli for which one could.  Matrices in scope are small
(<= ~64 per side) and dense.  One kernel, `GfMatrix._echelon`, eliminates
[A | rhs] as one array; inverse, solve, rank, det and `nullspace` read its
result.  Scheme builds eliminate only in `nullspace`, for the alignment
solver: they invert their decode matrices in closed form, so `inverse` and
`solve` are off the build path and serve as the tests' reference.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SingularSystem",
    "check_dot_length",
    "is_prime",
    "GfMatrix",
    "shift_matrix",
    "nullspace",
]


class SingularSystem(Exception):
    """Raised when a square system has no unique solution over GF(p).  Args
    (text, matrix) print the matrix below the text, formatted only when read."""

    def __str__(self) -> str:
        return f"{self.args[0]}:\n{self.args[1]}" if len(self.args) == 2 else super().__str__()


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

    def __repr__(self) -> str:
        return f"GfMatrix(p={self.p},\n{self.data})"

    def _echelon(self, rhs: np.ndarray | None = None):
        """Forward elimination of [data | rhs] over data's columns, with the
        first nonzero entry of each column as its pivot.

        Returns (aug, pivot column list, det): aug is [data | rhs] in
        *reduced* row echelon form over data's columns (pivots normalised to
        1, cleared above and below), which keeps nullspace extraction
        trivial; its last columns are the reduced rhs.  rhs must be reduced
        mod p.  det is the product of the pivots as found, before
        normalisation, with the sign of the row swaps: for a square matrix
        with a pivot in every column it is the determinant.
        """
        p = self.p
        n_rows, n_cols = self.data.shape
        aug = self.data.copy() if rhs is None else np.concatenate([self.data, rhs], axis=1)
        pivots: list[int] = []
        det = 1
        r = 0
        for c in range(n_cols):
            sel = -1
            for i in range(r, n_rows):
                if aug[i, c]:
                    sel = i
                    break
            if sel < 0:
                continue
            if sel != r:
                aug[[r, sel]] = aug[[sel, r]]
                det = -det % p
            piv = int(aug[r, c])
            det = det * piv % p
            aug[r] = (aug[r] * pow(piv, p - 2, p)) % p
            for i in range(n_rows):
                f = aug[i, c]
                if i != r and f:
                    aug[i] = (aug[i] - f * aug[r]) % p
            pivots.append(c)
            r += 1
            if r == n_rows:
                break
        return aug, pivots, det

    def _square_solve(self, rhs: np.ndarray) -> np.ndarray:
        """The unique X with data @ X == rhs; raises SingularSystem otherwise."""
        n_rows, n_cols = self.data.shape
        if n_rows != n_cols:
            raise ValueError(f"expected a square matrix, got shape {self.data.shape}")
        aug, pivots, _ = self._echelon(rhs)
        if len(pivots) != n_rows:
            raise SingularSystem(f"matrix of rank {len(pivots)} < {n_rows}")
        return aug[:, n_cols:]

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> int:
        """Determinant in [0, p), from one elimination by `_echelon`."""
        if self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {self.data.shape}")
        _, pivots, det = self._echelon()
        return det if len(pivots) == self.data.shape[0] else 0

    def inverse(self) -> "GfMatrix":
        return GfMatrix(self._square_solve(np.eye(self.data.shape[0], dtype=np.int64)), self.p)

    def solve(self, y) -> np.ndarray:
        """The unique x with data @ x == y for a vector y of length rows."""
        return self._square_solve(np.asarray(y, dtype=np.int64).reshape(-1, 1) % self.p)[:, 0]


def shift_matrix(q: int, k: int, p: int) -> GfMatrix:
    """q x q down-shift to the k-th power: entry (i, j) = 1 iff i = j + k.

    k = 0 gives the identity; k >= q gives the zero matrix (the shift is
    nilpotent).  Index 0 is the top (most significant) signal level.
    """
    if k < 0:
        raise ValueError(f"shift amount must be >= 0, got {k}")
    return GfMatrix(np.eye(q, k=-k, dtype=np.int64), p)


def nullspace(m: GfMatrix) -> np.ndarray:
    """Basis of {x : m.data @ x == 0} as the rows of a (dim, cols) array, one
    row per free column, ascending.

    Each basis vector has a 1 in its free coordinate and the negated reduced
    echelon entries in the pivot coordinates, so the output is deterministic.
    """
    red, pivots, _ = m._echelon()
    cols = m.data.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.eye(cols, dtype=np.int64)[free]
    basis[:, pivots] = -red[:len(pivots), free].T % m.p
    return basis
