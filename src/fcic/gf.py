"""Exact dense linear algebra over the prime field GF(p).

Entries are canonical integers in [0, p).  Everything is carried in int64
numpy arrays with reduction mod p after each arithmetic step, so all results
are exact as long as no unreduced sum reaches 2^63; `check_dot_length`
rejects the moduli for which one could.  Matrices in scope are small
(<= ~64 per side) and dense.
"""

from __future__ import annotations

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


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (moduli here are small)."""
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
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def _as_vector(y, p: int, length: int | None = None) -> np.ndarray:
    v = np.asarray(y, dtype=np.int64) % p
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"vector length {v.shape[0]} != {length}")
    return v


class GfMatrix:
    """Dense matrix over GF(p); rows/cols indexed from 0, top-down."""

    __slots__ = ("data", "p")

    def __init__(self, entries, p: int):
        self.p = _require_prime(p)
        data = np.asarray(entries, dtype=np.int64)
        if data.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got shape {data.shape}")
        self.data = data % self.p

    @classmethod
    def identity(cls, q: int, p: int) -> "GfMatrix":
        return cls(np.eye(q, dtype=np.int64), p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "GfMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GfMatrix):
            return NotImplemented
        return self.p == other.p and self.data.shape == other.data.shape \
            and bool((self.data == other.data).all())

    def __hash__(self):
        return hash((self.p, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"GfMatrix(p={self.p},\n{self.data})"

    def _check_same_field(self, other: "GfMatrix"):
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "GfMatrix") -> "GfMatrix":
        self._check_same_field(other)
        return GfMatrix(self.data + other.data, self.p)

    def __sub__(self, other: "GfMatrix") -> "GfMatrix":
        self._check_same_field(other)
        return GfMatrix(self.data - other.data, self.p)

    def __matmul__(self, other):
        check_dot_length(self.p, self.cols)
        if isinstance(other, GfMatrix):
            self._check_same_field(other)
            return GfMatrix(self.data @ other.data, self.p)
        v = _as_vector(other, self.p, self.cols)
        return (self.data @ v) % self.p

    def transpose(self) -> "GfMatrix":
        return GfMatrix(self.data.T, self.p)

    # -- elimination kernel ------------------------------------------------

    def _echelon(self, rhs: np.ndarray | None = None):
        """Forward elimination with first-nonzero pivot per column.

        Returns (reduced matrix, reduced rhs, pivot column list, det).  The
        result is in *reduced* row echelon form (pivots normalised to 1,
        cleared above and below), which keeps nullspace extraction trivial.
        det is the product of the pivots as found, before normalisation,
        with the sign of the row swaps: for a square matrix with a pivot in
        every column it is the determinant.
        """
        p = self.p
        a = self.data.copy()
        b = None if rhs is None else rhs.copy()
        n_rows, n_cols = a.shape
        pivots: list[int] = []
        det = 1
        r = 0
        for c in range(n_cols):
            sel = -1
            for i in range(r, n_rows):
                if a[i, c]:
                    sel = i
                    break
            if sel < 0:
                continue
            if sel != r:
                a[[r, sel]] = a[[sel, r]]
                if b is not None:
                    b[[r, sel]] = b[[sel, r]]
                det = -det % p
            piv = int(a[r, c])
            det = det * piv % p
            inv = pow(piv, p - 2, p)
            a[r] = (a[r] * inv) % p
            if b is not None:
                b[r] = (b[r] * inv) % p
            for i in range(n_rows):
                f = a[i, c]
                if i != r and f:
                    a[i] = (a[i] - f * a[r]) % p
                    if b is not None:
                        b[i] = (b[i] - f * b[r]) % p
            pivots.append(c)
            r += 1
            if r == n_rows:
                break
        return a, b, pivots, det

    def rank(self) -> int:
        return len(self._echelon()[2])

    def det(self) -> int:
        """Determinant in [0, p), from one elimination by `_echelon`."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, _, pivots, det = self._echelon()
        return det if len(pivots) == self.rows else 0

    def inverse(self) -> "GfMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        rhs = np.eye(self.rows, dtype=np.int64)
        _, inv, pivots, _ = self._echelon(rhs)
        if len(pivots) != self.rows:
            raise SingularSystem(f"matrix of rank {len(pivots)} < {self.rows}")
        return GfMatrix(inv, self.p)

    def solve(self, y) -> np.ndarray:
        """Unique x with self @ x == y; raises SingularSystem otherwise."""
        if self.rows != self.cols:
            raise ValueError("solve requires a square matrix")
        b = _as_vector(y, self.p, self.rows).reshape(-1, 1)
        _, rhs, pivots, _ = self._echelon(b)
        if len(pivots) != self.rows:
            raise SingularSystem(f"matrix of rank {len(pivots)} < {self.rows}")
        return rhs[:, 0] % self.p


def shift_matrix(q: int, k: int, p: int) -> GfMatrix:
    """q x q down-shift to the k-th power: entry (i, j) = 1 iff i = j + k.

    k = 0 gives the identity; k >= q gives the zero matrix (the shift is
    nilpotent).  Index 0 is the top (most significant) signal level.
    """
    if q < 1:
        raise ValueError(f"dimension must be >= 1, got {q}")
    if k < 0:
        raise ValueError(f"shift amount must be >= 0, got {k}")
    d = np.zeros((q, q), dtype=np.int64)
    for i in range(k, q):
        d[i, i - k] = 1
    return GfMatrix(d, p)


def nullspace(m: GfMatrix) -> list[np.ndarray]:
    """Basis of {x : m @ x == 0}, one vector per free column, ascending.

    Each basis vector has a 1 in its free coordinate and the negated reduced
    echelon entries in the pivot coordinates, so the output is deterministic.
    """
    red, _, pivots, _ = m._echelon()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i, f]) % m.p
        basis.append(v)
    return basis
