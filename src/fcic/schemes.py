"""Two-block feedback coding schemes for the deterministic channel.

One construction, cooperative interference alignment, covers every m != n
scheme.  In block 2 user k sends A_k (own symbols) + B_k I_k, where I_k is
the interference its receiver heard in block 1, with per-user diagonal
coefficients chosen so that every receiver sees its block-1 interference
again, only rescaled: the simultaneous-alignment identity
Lambda A + Lambda B Lambda = U + V Lambda.  The fully symmetric channel is
the all-ones Lambda, which aligns at the closed-form point
(A, B, U, V) = (0, 1, K-1, K-2) because Lambda^2 = (K-1) I + (K-2) Lambda;
signed channels get their point from the solver `qsym_solve`, which walks
nullspace coordinates in Python ints, with no array slices: it keeps the
K linear forms of Delta's constant term summed over each prefix of the
coordinates and solves the last coordinate for each user.  At
m = n, `build_scheme` asks `rates` once, before any prime, whether
Lambda + I is singular (always, for the symmetric channel); if so it uses
n/K time sharing instead.  Its prime scan only aligns, and a failed m = n
scan falls back to time sharing only where `rates.det_converse`
establishes no converse.

Every scheme is written out as explicit GF(p) encoder and decoder maps (see
`Scheme`); a map every user shares is passed as one (1, rows, cols) array,
which `Scheme` holds as a read-only zero-stride view.  The builder inverts
each distinct decode matrix once at build time, in closed form: its blocks
are polynomials in one shift, so `_decode_inverse` reads the inverse off a
power series, with no elimination; it and the solver test one condition,
the constant term of `two_block_delta`, the only evidence of
infeasibility: SingularSystem and its subclass NoSolution name the user
whose term is 0 mod p (for NoSolution, on the whole solution space, or
else the candidates searched).
Without p, `build_scheme` returns the first success of its `PRIME_SCAN`
scan, which tries GF(2) last at odd K in the strong regime: there U_k =
S - B_k mod 2 (S the sum of the B_j), and no B makes every U_k nonzero
when K is odd.  `verify_scheme` replays its trials through
`run_feedback_session` in batches of at most `_CHUNK` sessions, so its
memory does not grow with the trial count; its report judges the rate
that its kept session carries against `rates.det_converse`.

Each of these runs once or more per build or replay, so the module calls
no module-level numpy function written in Python (`np.broadcast_to`,
`np.stack`, `np.split`, `np.eye`, `np.diag`, `np.flatnonzero`, ...): on
arrays this small each costs microseconds of interpreter work, where the
ndarray constructor, a method, a slice or one ufunc does the same in C.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .channel import DetParams, Scheme, Transcript, _validate_signs, run_feedback_session
from .gf import GfMatrix, SingularSystem, _require_prime, nullspace
from .rates import RegimeMismatch, det_converse, lambda_plus_i_singular, rate_json

__all__ = [
    "NoSolution",
    "AlignmentSolution",
    "VerifyReport",
    "moderate_scheme",
    "qsym_constraint_matrix",
    "qsym_solve",
    "moderate_margin",
    "two_block_delta",
    "select_prime",
    "build_scheme",
    "verify_scheme",
]

PRIME_SCAN = (2, 3, 5, 7, 11, 13)
ENUM_CAP = 10**6
_CHUNK = 1024  # verify sessions per replay; a bounded batch, so memory stays flat in trials
_REGIME_SIGN = {"weak": 1, "strong": -1, "moderate": 0}  # the sign of n - m
_DELTA_TERM = {1: "B", -1: "-U", 0: "B + V - A - U"}  # Delta's constant term by sign


class NoSolution(SingularSystem):
    """Alignment coefficient search exhausted without a valid point: a
    `SingularSystem`, as no scheme of the regime decodes at that p."""


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------

def moderate_scheme(params: DetParams) -> Scheme:
    """K-block time sharing for m = n: user k alone transmits in block k.

    With equal link strengths every receiver hears the same signal, so the
    decoding budget is shared and each user gets rate n/K.  No feedback is
    used; the scheme also works unchanged on signed channels.
    """
    K, n, m = params.K, params.n, params.m
    if m != n:
        raise RegimeMismatch(f"time sharing applies at m = n, got n={n}, m={m}")
    lvl = range(n)
    encoders = []
    for t in range(K):  # block t: user t sends its message, everyone else is silent
        enc = np.zeros((K, n, (t + 1) * n), dtype=np.int64)
        enc[t, lvl, lvl] = 1
        encoders.append(enc)
    decoders = np.zeros((K, n, K * n), dtype=np.int64)
    decoders.reshape(K * n, K * n).flat[::K * n + 1] = 1  # user k reads block k
    return Scheme(params=params, encoders=tuple(encoders), decoders=decoders, name="moderate")


# ---------------------------------------------------------------------------
# cooperative alignment: every two-block scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentSolution:
    """Diagonal coefficients (A, B, V) over GF(p) and the U they fix, which
    satisfy the simultaneous-alignment identity
    Lambda A + Lambda B Lambda = U + V Lambda.

    U is not stored: `u` reads it off B as the identity's diagonal,
    U_k = sum_j lambda_kj B_j lambda_jk, so the diagonal holds by
    definition.  Construction validates `signs` as `DetParams` does (a K x K
    matrix of +-1 with a zero diagonal), stores it as a tuple of tuples and
    A, B and V as tuples of Python ints, and re-checks the identity's
    off-diagonal entries, which reject a wrong A, B or V, and one that is
    not of integers (0.5 is no residue); each diagonal factor is applied by
    broadcasting (Lambda A scales Lambda's columns, V Lambda its rows).
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    v: tuple[int, ...]
    p: int
    signs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.signs)
        object.__setattr__(self, "signs", _validate_signs(self.signs, k))
        object.__setattr__(self, "p", _require_prime(self.p))
        lam = np.array(self.signs, dtype=np.int64)
        a, b, v = vecs = [np.asarray(getattr(self, name)) for name in "abv"]
        for name, vec in zip("abv", vecs):
            if vec.shape != (k,):
                raise ValueError(f"{name} must have {k} entries")
            object.__setattr__(self, name, tuple(vec.tolist()))  # as Python ints
        # no residue is 0.5 or "1"; else Lambda A + Lambda B Lambda - V Lambda
        # off the diagonal, each factor broadcast
        integral = all(vec.dtype.kind in "iu" for vec in vecs)
        if integral:
            residual = lam * a + (lam * b) @ lam - v[:, None] * lam
            residual.flat[::k + 1] = 0
        if not integral or (residual % self.p).any():
            raise ValueError("alignment identity Lambda A + Lambda B Lambda = U + V Lambda fails")

    @property
    def u(self) -> tuple[int, ...]:
        """U_k = sum_j lambda_kj B_j lambda_jk mod p, in Python ints."""
        return tuple(sum(l_kj * b_j * l_jk for l_kj, b_j, l_jk in zip(row, self.b, col)) % self.p
                     for row, col in zip(self.signs, zip(*self.signs)))

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b),
                "u": list(self.u), "v": list(self.v), "p": self.p}


def qsym_constraint_matrix(signs) -> np.ndarray:
    """Off-diagonal alignment constraints as the K(K-1) integer rows, int64,
    over the 3K unknowns (A_1..A_K, B_1..B_K, V_1..V_K); a caller reduces
    them mod p (`qsym_solve` through `GfMatrix`).

    Row (k, i), k != i, k-major:  lambda_ki A_i + sum_j lambda_kj lambda_ji
    B_j - lambda_ki V_k = 0, where Lambda's zero diagonal drops j in {k, i},
    so the sum has the one term j != k, i per B_j and every entry is -1, 0
    or 1.  The diagonal entries of the identity do not constrain (A, B, V);
    they define U_k = sum_j lambda_kj B_j lambda_jk.
    """
    lam = np.asarray(signs, dtype=np.int64)
    k_users = lam.shape[0]
    diag = np.zeros((k_users, k_users), dtype=bool)
    diag.flat[::k_users + 1] = True
    ks, cs = (~diag).nonzero()  # row (k, i), k-major
    rows = np.arange(ks.size)
    mat = np.zeros((ks.size, 3 * k_users), dtype=np.int64)
    mat[rows, cs] = lam[ks, cs]
    mat[:, k_users:2 * k_users] = lam[ks] * lam.T[cs]
    mat[rows, 2 * k_users + ks] = -lam[ks, cs]
    return mat


def moderate_margin(a: int, b: int, u: int, v: int, p: int) -> int:
    """Per-user decodability margin for the m = n quasi-symmetric scheme.

    The 2x2 block determinant det [[1, 1], [a+u, b+v]] = (b+v) - (a+u) mod p
    of the two-block system; decoding needs it nonzero.  The minus sign on u
    is load-bearing: a +u condition would declare sign matrices with
    duplicated receiver outputs decodable at n/2, above their n/3 capacity.
    Its one caller is `two_block_delta`, at m = n; it works elementwise on
    arrays, as the solver's forms pass through it.
    """
    return (b + v - a - u) % p


def two_block_delta(sign: int, a, b, u, v, p: int) -> tuple:
    """Delta = AE - BC mod p of one user's decode matrix [[A, B], [C, E]]
    (see `_decode_inverse`) as coefficients in D = S^|n-m|, lowest first,
    given any int with the sign of n - m: (b, v-a, -u) for n > m, reversed
    for m > n, and `moderate_margin` b+v-a-u at m = n, where D = I.  The
    matrix is invertible iff the constant term (weak: B, strong: -U) is
    nonzero.  Works elementwise on arrays."""
    if sign == 0:
        return (moderate_margin(a, b, u, v, p),)
    coeffs = (b % p, (v - a) % p, -u % p)
    return coeffs if sign > 0 else coeffs[::-1]


def qsym_solve(signs, regime: str, p: int) -> AlignmentSolution:
    """Find diagonal (A, B, U, V) over GF(p) satisfying the alignment
    identity such that every user's decode matrix in the regime is
    invertible: a nonzero constant term of its `two_block_delta`.

    The off-diagonal constraints, `qsym_constraint_matrix`'s integer rows
    reduced mod p, are linear in (A, B, V) and U = (Lambda o Lambda^T) B,
    so the nullspace basis takes coordinates to (A, B, V), U's rows follow
    from B's, and one (dim, K) matrix `forms` takes them to the K users'
    conditions, Delta's constant term being linear: a zero column fails
    everywhere and is reported at once.  Otherwise the search reads only
    `forms`, in Python ints, over an r**dim grid: coordinates take the
    first r of 1, ..., p-1, 0 (non-degenerate points first) in
    lexicographic order, r the largest radix <= p with r**dim <=
    `ENUM_CAP` (r = p whenever p**dim <= `ENUM_CAP`).  It walks the
    prefixes of all coordinates but the last and solves the last: a user
    whose last form entry is nonzero fails at exactly one last value, which
    counts only among the first r, and a user whose entry is 0 fails at
    every last value or at none, so a prefix costs O(K) and its first last
    value that no user fails at wins.  A coordinate whose forms are all 0
    decides nothing: the walk skips it, the winner keeps its first value,
    and it multiplies every count by r.  The winner's coordinates are
    mapped through the (A, B, V) basis (`AlignmentSolution` reads its U off
    B); else the search reports the r**dim candidates and the user that
    failed first at most of them, with that count.
    """
    if regime not in _REGIME_SIGN:
        raise ValueError(f"unknown regime {regime!r}")
    k_users = len(signs)
    if k_users < 2:
        raise ValueError(f"need K >= 2 users, got {k_users}")
    signs = _validate_signs(signs, k_users)  # before any cast: 1.5 is no sign
    lam = np.array(signs, dtype=np.int64)
    abv = nullspace(GfMatrix(qsym_constraint_matrix(lam), p))
    dim = len(abv)
    a_rows, b_rows, v_rows = abv[:, :k_users], abv[:, k_users:2 * k_users], abv[:, 2 * k_users:]
    sign = _REGIME_SIGN[regime]
    forms = two_block_delta(sign, a_rows, b_rows, b_rows @ (lam * lam.T) % p, v_rows, p)[0]
    dead = (~forms.any(axis=0)).nonzero()[0]  # users whose condition is 0 everywhere
    if dead.size:
        raise NoSolution(f"no {regime}-regime alignment point over GF({p}): user {dead[0]}'s "
                         f"Delta constant term {_DELTA_TERM[sign]} is 0 on the whole "
                         f"{dim}-dimensional solution space")
    radix = p
    if p**dim > ENUM_CAP:  # the largest r with r**dim <= ENUM_CAP
        radix = round(ENUM_CAP ** (1.0 / dim))
        radix -= radix**dim > ENUM_CAP
    # a coordinate whose forms are all 0 decides nothing: it keeps digit 0 in
    # the first winner and stands for radix times the candidates in a count
    rows = forms.tolist()
    used = [j for j, row in enumerate(rows) if any(row)]
    *head, last = (rows[j] for j in used)
    # digit d is the value d + 1 mod p, linear in d.  At prefix sum s_k, user
    # k fails at the last value c with s_k + c f_k = 0, f_k its last form
    # entry: at the one digit -s_k / f_k - 1 if f_k != 0, else at every
    # digit (s_k = 0) or at none.  t holds that digit for each live user
    # (f_k != 0), in user order, then s_k for each flat one (f_k = 0); both
    # move linearly with the prefix digits.
    live = [k for k in range(k_users) if last[k]]
    flat = [k for k in range(k_users) if not last[k]]
    n_live = len(live)
    scale = [p - pow(last[k], -1, p) for k in live] + [1] * len(flat)
    steps = [[row[k] * w % p for k, w in zip(live + flat, scale)] for row in head]
    t = [(sum(col) - (i < n_live)) % p for i, col in enumerate(zip(*steps, [0] * k_users))]
    digits = [0] * len(head)
    level = [t] * len(used)  # level[j]: t at the prefix digits before j, the rest at 0
    fail_counts = [0] * (k_users + 1)  # the last slot stands for no user
    while True:
        live_t = t[:n_live]
        # a flat user at s_k = 0 fails at every digit: the first such is a wall
        wall = flat[t.index(0, n_live) - n_live] if 0 in t[n_live:] else k_users
        hit = {d for d in live_t if d < radix}
        if wall == k_users and len(hit) < radix:  # the first digit no user fails at wins
            d = 0
            while d in hit:
                d += 1
            coords = [1] * dim
            for j, digit in zip(used, (*digits, d)):
                coords[j] = (digit + 1) % p
            x = [sum(map(operator.mul, coords, col)) % p for col in zip(*abv.tolist())]
            point = (tuple(x[j:j + k_users]) for j in range(0, 3 * k_users, k_users))
            return AlignmentSolution(*point, p=p, signs=signs)
        # each digit's first failing user: its first live user, unless the wall is earlier
        for d in hit:
            fail_counts[min(live[live_t.index(d)], wall)] += 1
        fail_counts[wall] += radix - len(hit)
        j = len(head) - 1  # the next prefix: the last prefix digit moves fastest
        while j >= 0 and digits[j] == radix - 1:
            digits[j] = 0
            j -= 1
        if j < 0:
            break
        digits[j] += 1
        t = [(x + y) % p for x, y in zip(level[j + 1], steps[j])]
        level[j + 1:] = [t] * (len(head) - j)
    worst = fail_counts.index(max(fail_counts))
    raise NoSolution(
        f"no {regime}-regime alignment point over GF({p}) after {radix**dim} candidates; "
        f"the {regime} condition failed most often at user {worst} "
        f"({fail_counts[worst] * radix ** (dim - len(used))} times)"
    )


def _decode_inverse(params: DetParams, a: int, b: int, u: int, v: int) -> np.ndarray | None:
    """Inverse of one user's 2q x 2q decode matrix at (A, B, U, V) in closed
    form, or None when it is singular.

    Rows are the block-1 then block-2 outputs, unknowns the q block-1
    symbols then the q of R (see `_two_block_scheme`): [[own, cross],
    [a own + u cross, b own + v cross]] with (own, cross) = (I, D) for
    n >= m, (D, I) otherwise, D = S^|n-m|.  Its blocks [[A, B], [C, E]] are
    polynomials c0 + c1 D, so they commute and the inverse is [[E, -B],
    [-C, A]] Delta^-1 with Delta = AE - BC = d0 + d1 D + d2 D^2 from
    `two_block_delta`.  D^j = 0 once j |n-m| >= q (D = I at m = n), so
    Delta^-1 is the series s_0 = 1/d0, s_j = -(d1 s_(j-1) + d2 s_(j-2))/d0
    cut there; it exists iff d0 != 0 mod p, the condition `qsym_solve`
    enforces.  A block's first column is c0 s + c1 D s, in Python ints
    reduced mod p (exact for every p `DetParams` accepts), and the block is
    the lower-triangular Toeplitz matrix of it, spaced |n-m| apart: entry
    (i, j) reads the column at lag i - j, one strided view of all four
    columns, each behind q - 1 zeros, copied once into the 2q x 2q result.
    """
    n, m, q, p = params.n, params.m, params.q, params.p
    s = abs(n - m)
    terms = -(-q // s) if s else 1  # powers of D below q (at s = 0 every power is I)
    d0, d1, d2 = (*two_block_delta(n - m, a, b, u, v, p), 0, 0)[:3]  # one term at m = n
    if d0 == 0:
        return None
    inv0 = pow(d0, p - 2, p)
    e1, e2 = -inv0 * d1 % p, -inv0 * d2 % p
    series = [inv0, e1 * inv0 % p][:terms]  # Delta^-1, lowest power first
    for _ in range(2, terms):
        series.append((e1 * series[-1] + e2 * series[-2]) % p)
    shifted = [0, *series[:-1]] if s else series  # D Delta^-1
    # E, -B, -C, A as (c0, c1) in D, lag 0 at column q - 1; a negative lag
    # (above the diagonal) reads the zero padding to its left
    blks = ((b, v), (0, -1), (-a, -u), (1, 0)) if n >= m else ((v, b), (-1, 0), (-u, -a), (0, 1))
    cols = np.zeros((4, 2 * q - 1), dtype=np.int64)
    for row, (c0, c1) in enumerate(blks):
        # D^j's coefficient sits j |n-m| rows down; at m = n only j = 0 exists
        cols[row, q - 1::s or q] = [(c0 * x + c1 * y) % p for x, y in zip(series, shifted)]
    # [block row, i, block column, j] reads cols[2 block row + block column,
    # q - 1 + i - j], a lag in [1 - q, q - 1]; numpy checks the view lies in cols
    rows, step = cols.strides
    blocks = np.ndarray((2, q, 2, q), cols.dtype, cols, (q - 1) * step,
                        (2 * rows, step, rows, -step))
    return blocks.reshape(2 * q, 2 * q)


def _two_block_scheme(params: DetParams, coeffs, name: str) -> Scheme:
    """The aligned two-block scheme, written out as encoder/decoder maps.

    Block 1 sends the first q own symbols.  From its block-1 feedback user k
    recovers the interference I_k its receiver heard (its output minus its
    own contribution) and in block 2 sends A_k (first q own symbols) + B_k R,
    where R carries I_k on the aligned levels and, when m < n, the n - m
    remaining fresh symbols below it.  coeffs holds each user's
    (A, B, U, V).  The maps are written by index as residues: A_k on the
    own diagonal, B_k where R adds and -B_k mod p where it subtracts.  Each
    distinct tuple's decode matrix is inverted once, in closed form by
    `_decode_inverse`, and its rows that yield the user's own symbols are
    the decoder.  Block 1's map, and the other two when every user shares
    one tuple, are each passed as one (1, rows, cols) array, which `Scheme`
    shares among the users.
    """
    K, n, m, q, p = params.K, params.n, params.m, params.q, params.p
    L = 2 * n - m if n > m else q  # message symbols
    inverses = {}
    for k, c in enumerate(coeffs):
        if c not in inverses:
            inv = _decode_inverse(params, *c)
            if inv is None:
                raise SingularSystem(
                    f"{name} decode matrix rank-deficient for user {k} at "
                    f"(A, B, U, V) = {c}, K={K}, n={n}, m={m}, p={p}: "
                    f"Delta's constant term {_DELTA_TERM[(n > m) - (n < m)]} is 0 mod {p}"
                )
            # own symbols: the first q unknowns, and for n > m the last n - m
            inverses[c] = np.concatenate((inv[:q], inv[q + m:])) if n > m else inv[:q]
    if len(inverses) == 1:
        coeffs = coeffs[:1]
    lvl = np.arange(q)
    first = np.zeros((q, L), dtype=np.int64)  # the first q own symbols
    first[lvl, lvl] = 1
    # over [own message; block-1 outputs]; each user's (A, B, -B) as residues
    a, b, minus_b = np.array([(c[0] % p, c[1] % p, -c[1] % p) for c in coeffs],
                             dtype=np.int64).T[..., None]
    second = np.zeros((len(coeffs), q, L + q), dtype=np.int64)
    second[:, lvl, lvl] = a
    if n >= m:  # I_k is the bottom m output levels minus own symbols n-m..n-1
        top = lvl[:m]
        second[:, top, L + n - m + top] = b
        second[:, top, n - m + top] = minus_b if n > m else (a + minus_b) % p  # m = n: diagonal
        second[:, lvl[m:], lvl[m:] + n - m] = b  # the fresh symbols n..L-1
    else:  # I_k = Y_k - D^(m-n) S_k
        second[:, lvl, L + lvl] = b
        second[:, lvl[m - n:], lvl[:n]] = minus_b
    return Scheme(
        params=params,
        encoders=(first[None], second),
        decoders=np.array([inverses[c] for c in coeffs]),
        name=name,
    )


# ---------------------------------------------------------------------------
# construction dispatch and verification
# ---------------------------------------------------------------------------

def _aligned_scheme(params: DetParams) -> Scheme:
    """The two-block aligned scheme over GF(params.p): at the all-ones point
    on the symmetric channel, at `qsym_solve`'s on a signed one; raises
    SingularSystem where no scheme of the regime decodes."""
    K, n, m, signs = params.K, params.n, params.m, params.signs
    regime = "weak" if m < n else "strong" if m > n else "moderate"
    if signs is None:
        # the all-ones Lambda aligns at (A, B, U, V) = (0, 1, K-1, K-2)
        return _two_block_scheme(params, [(0, 1, K - 1, K - 2)] * K, regime)
    sol = qsym_solve(signs, regime, params.p)
    return _two_block_scheme(params, list(zip(sol.a, sol.b, sol.u, sol.v)), "qsym")


def build_scheme(K: int, n: int, m: int, p: int | None = None, signs=None) -> Scheme:
    """Construct the regime-appropriate scheme.  At m = n a channel whose
    Lambda + I is singular (the symmetric one included) gets n/K time
    sharing, decided once, before any prime: over the given p, else GF(2),
    the scan's first prime at m = n.  Every other build aligns.  Without p,
    it is built over the smallest prime in `PRIME_SCAN` that aligns, and
    a failed m = n scan falls back to time sharing over GF(2) where
    `det_converse` establishes no rate.  Any other failed scan lists every
    prime's reason, in `PRIME_SCAN` order.

    The scan tries the primes in order, except that an odd-K strong (m > n)
    scan tries GF(2) last, only for its reason: mod 2 every lambda_kj
    lambda_jk is 1, so U_k = S - B_k with S = sum_j B_j, and U_k != 0 for
    every k forces B_k = S + 1, whence S = K (S + 1) = S + 1 at odd K.  No
    sign matrix and no (n, m) escape this (the all-ones Lambda's -U =
    -(K-1) is 0 mod 2), so the chosen prime is the same.  It is the same
    for every (n, m) of a regime anyway: a signed build fails or succeeds
    with `qsym_solve`, which reads only (Lambda, regime, p), and a
    symmetric one with Delta's constant term, 1 (weak) or -(K-1) (strong).
    """
    # GF(2) has no strong point at odd K (see above); a stable sort moves only 2
    scan = sorted(PRIME_SCAN, key=lambda p: p == 2 and m > n and K % 2 == 1)
    params = DetParams(K=K, n=n, m=m, p=scan[0] if p is None else p, signs=signs)
    if n == m and lambda_plus_i_singular(params.signs):
        return moderate_scheme(params)  # n/K time sharing meets the converse
    if p is not None:
        return _aligned_scheme(params)
    reasons = {}  # the messages only: keeping an exception would keep its frames alive
    for p in scan:
        if p != params.p:
            params = replace(params, p=p)
        try:
            return _aligned_scheme(params)
        except SingularSystem as exc:  # NoSolution included
            reasons[p] = str(exc)
    if n == m and det_converse(n, m, K, params.signs) is None:
        return moderate_scheme(replace(params, p=PRIME_SCAN[0]))
    raise SingularSystem(
        f"no prime in {PRIME_SCAN} yields a decodable scheme for K={K}, n={n}, m={m}:"
        + "".join(f"\n  {reasons[p]}" for p in PRIME_SCAN)
    )


def select_prime(K: int, n: int, m: int, signs=None) -> int:
    """Smallest prime in the scan set for which construction succeeds."""
    return build_scheme(K, n, m, signs=signs).params.p


@dataclass
class VerifyReport:
    """Outcome of replaying a scheme against random messages.  It stores the
    counts and `transcript`, the first failing session, else session 0, and
    reads the rest off that session: its `params` are the report's, and
    `declared_rate` is its message symbols per block, so a report cannot
    declare a rate its replayed session did not carry.  `converse_rate` is
    `det_converse`'s at those params, None where no converse is
    established, computed once per report.  `==` compares the counts and
    the transcripts, the latter by identity."""

    trials: int
    successes: int
    transcript: Transcript

    @property
    def params(self) -> DetParams:
        return self.transcript.params

    @property
    def declared_rate(self) -> Fraction:
        return Fraction(self.transcript.messages_in.shape[-1], len(self.transcript.blocks))

    @cached_property
    def converse_rate(self) -> Fraction | None:
        params = self.params
        return det_converse(params.n, params.m, params.K, params.signs)

    @property
    def all_passed(self) -> bool:
        return self.successes == self.trials

    @property
    def matches_converse(self) -> bool | None:
        """None where no converse is established."""
        return None if self.converse_rate is None else self.declared_rate == self.converse_rate

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "declared_rate": rate_json(self.declared_rate),
            "trials": self.trials,
            "successes": self.successes,
            "converse_rate": rate_json(self.converse_rate),
            "matches_converse": self.matches_converse,
        }


def verify_scheme(
    params: DetParams, scheme: Scheme, trials: int, seed: int
) -> VerifyReport:
    """Replay `trials` >= 1 sessions with seeded uniform messages, in
    batches of at most `_CHUNK` sessions drawn one after another from one
    generator (the same messages as one draw of every trial); bit-exactness
    of every user's decode counts as success, failures are data (the first
    failing session's transcript, else session 0's, is attached for
    inspection)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = np.random.default_rng(seed)
    successes, kept = 0, None
    for start in range(0, trials, _CHUNK):
        size = min(_CHUNK, trials - start)
        msgs = rng.integers(0, params.p, size=(size, params.K, scheme.msg_symbols))
        batch = run_feedback_session(params, scheme, msgs)
        failed = (batch.messages_out != batch.messages_in).any(axis=(1, 2)).nonzero()[0]
        if kept is None or failed.size and successes == start:  # no failure kept yet
            kept = batch.trial(failed[0] if failed.size else 0)
        successes += size - failed.size
    return VerifyReport(trials=trials, successes=successes, transcript=kept)
