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
nullspace coordinates in array slices against the K linear forms of
Delta's constant term.  At m = n the symmetric channel, and any signed one
whose Lambda + I is singular, uses n/K time sharing instead; so does a
signed channel with K != 3 that no scanned prime aligns.

Every scheme is written out as explicit GF(p) encoder and decoder maps (see
`Scheme`).  The builder inverts each distinct decode matrix once at build
time, in closed form: its blocks are polynomials in one shift, so
`_decode_inverse` reads the inverse off a power series, with no
elimination; it and the solver test one condition, the constant term of
`two_block_delta`, the only evidence of infeasibility: SingularSystem and
its subclass NoSolution name the user whose term is 0 mod p (for
NoSolution, on the whole solution space, or else the candidates searched).
Without p, `build_scheme` returns the first success of its `PRIME_SCAN`
scan.  `verify_scheme` replays all of its trials as one batch through
`run_feedback_session` and judges the declared rate against
`rates.det_converse`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .channel import DetParams, Scheme, Transcript, _validate_signs, run_feedback_session
from .gf import GfMatrix, SingularSystem, nullspace
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
_SLICE = 256  # solver candidates per array slice; small, so peak memory stays flat
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
    encoders = []
    for t in range(K):  # block t: user t sends its message, everyone else is silent
        enc = np.zeros((K, n, (t + 1) * n), dtype=np.int64)
        enc[t, :, :n] = np.eye(n, dtype=np.int64)
        encoders.append(enc)
    return Scheme(
        params=params,
        encoders=tuple(encoders),
        decoders=np.eye(K * n, dtype=np.int64).reshape(K, n, K * n),  # user k reads block k
        name="moderate",
    )


# ---------------------------------------------------------------------------
# cooperative alignment: every two-block scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentSolution:
    """Diagonal coefficients (A, B, U, V) over GF(p) satisfying the
    simultaneous-alignment identity  Lambda A + Lambda B Lambda = U + V Lambda.

    The identity is re-checked entrywise by direct matrix arithmetic at
    construction, with U pinned to its diagonal consequence
    U_k = sum_j lambda_kj B_j lambda_jk.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    p: int
    signs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lam = np.asarray(self.signs, dtype=np.int64)
        k = lam.shape[0]
        for name, vec in (("a", self.a), ("b", self.b), ("u", self.u), ("v", self.v)):
            if len(vec) != k:
                raise ValueError(f"{name} must have {k} entries")
        p = self.p
        lhs = (lam @ np.diag(self.a) + lam @ np.diag(self.b) @ lam) % p
        rhs = (np.diag(self.u) + np.diag(self.v) @ lam) % p
        if not (lhs == rhs).all():
            raise ValueError("alignment identity Lambda A + Lambda B Lambda = U + V Lambda fails")

    def to_json_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b),
                "u": list(self.u), "v": list(self.v), "p": self.p}


def qsym_constraint_matrix(signs, p: int) -> GfMatrix:
    """Off-diagonal alignment constraints as K(K-1) rows over the 3K
    unknowns (A_1..A_K, B_1..B_K, V_1..V_K).

    Row (k, i), k != i, k-major:  lambda_ki A_i + sum_j lambda_kj lambda_ji
    B_j - lambda_ki V_k = 0, where Lambda's zero diagonal drops j in {k, i}.
    The diagonal entries of the identity do not constrain (A, B, V); they
    define U_k = sum_j lambda_kj B_j lambda_jk.
    """
    lam = np.asarray(signs, dtype=np.int64)
    k_users = lam.shape[0]
    ks, cs = np.nonzero(~np.eye(k_users, dtype=bool))  # row (k, i), k-major
    rows = np.arange(ks.size)
    mat = np.zeros((ks.size, 3 * k_users), dtype=np.int64)
    mat[rows, cs] = lam[ks, cs]
    mat[:, k_users:2 * k_users] = lam[ks] * lam.T[cs]
    mat[rows, 2 * k_users + ks] = -lam[ks, cs]
    return GfMatrix(mat, p)


def moderate_margin(a: int, b: int, u: int, v: int, p: int) -> int:
    """Per-user decodability margin for the m = n quasi-symmetric scheme.

    The 2x2 block determinant det [[1, 1], [a+u, b+v]] = (b+v) - (a+u) mod p
    of the two-block system; decoding needs it nonzero.  The minus sign on u
    is load-bearing: a +u condition would declare sign matrices with
    duplicated receiver outputs decodable at n/2, above their n/3 capacity.
    Works elementwise on arrays, as `qsym_solve` calls it on its forms.
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

    The off-diagonal constraints are linear in (A, B, V) and U = (Lambda o
    Lambda^T) B, so one (dim, 4K) map `coords_map` takes nullspace
    coordinates to (A, B, U, V), and one (dim, K) matrix `forms` to the K
    users' conditions, Delta's constant term being linear: a zero column
    fails everywhere and is reported at once.  Otherwise the search reads
    only `forms`, `_SLICE` candidates per array slice, over an r**dim grid:
    coordinates take the first r of 1, ..., p-1, 0 (non-degenerate points
    first) in lexicographic order, r the largest radix <= p with r**dim <=
    `ENUM_CAP` (r = p whenever p**dim <= `ENUM_CAP`).  The first candidate
    meeting the condition wins, mapped through `coords_map` in Python ints;
    else the search reports the r**dim candidates and per-user failures.
    """
    if regime not in _REGIME_SIGN:
        raise ValueError(f"unknown regime {regime!r}")
    lam = np.asarray(signs, dtype=np.int64)
    k_users = lam.shape[0]
    if k_users < 2:
        raise ValueError(f"need K >= 2 users, got {k_users}")
    signs = _validate_signs(lam, k_users)
    abv = nullspace(qsym_constraint_matrix(lam, p))
    dim = len(abv)
    u_rows = abv[:, k_users:2 * k_users] @ (lam * lam.T) % p
    coords_map = np.concatenate([abv[:, :2 * k_users], u_rows, abv[:, 2 * k_users:]], axis=1)
    sign = _REGIME_SIGN[regime]
    forms = two_block_delta(sign, *np.split(coords_map, 4, axis=1), p)[0]  # (dim, K)
    dead = np.flatnonzero(~forms.any(axis=0))  # users whose condition is 0 everywhere
    if dead.size:
        raise NoSolution(f"no {regime}-regime alignment point over GF({p}): user {dead[0]}'s "
                         f"Delta constant term {_DELTA_TERM[sign]} is 0 on the whole "
                         f"{dim}-dimensional solution space")
    radix = p
    if p**dim > ENUM_CAP:  # the largest r with r**dim <= ENUM_CAP
        radix = round(ENUM_CAP ** (1.0 / dim))
        radix -= radix**dim > ENUM_CAP
    fail_counts = np.zeros(k_users, dtype=np.int64)
    checked = radix**dim
    for start in range(0, checked, _SLICE):
        idx = np.arange(start, min(start + _SLICE, checked), dtype=np.int64)
        conds = np.zeros((idx.size, k_users), dtype=np.int64)
        for form in forms[::-1]:  # the last coordinate varies fastest
            idx, digit = np.divmod(idx, radix)
            conds = (conds + ((digit + 1) % p)[:, None] * form) % p  # digit d -> value (d+1) mod p
        fails = conds == 0
        passing = np.flatnonzero(~fails.any(axis=1))
        if passing.size:  # the winner's coordinates, mapped in Python ints
            digits = np.unravel_index(start + int(passing[0]), (radix,) * dim)
            coords = [(int(d) + 1) % p for d in digits]
            x = [sum(map(operator.mul, coords, col)) % p for col in zip(*coords_map.tolist())]
            point = (tuple(x[j:j + k_users]) for j in range(0, 4 * k_users, k_users))
            return AlignmentSolution(*point, p=p, signs=signs)
        fail_counts += np.bincount(fails.argmax(axis=1), minlength=k_users)
    worst = int(np.argmax(fail_counts))
    raise NoSolution(
        f"no {regime}-regime alignment point over GF({p}) after {checked} candidates; "
        f"the {regime} condition failed most often at user {worst} "
        f"({int(fail_counts[worst])} times)"
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
    the lower-triangular Toeplitz matrix of it, spaced |n-m| apart.
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
    # E, -B, -C, A as (c0, c1) in D; a negative lag (above the diagonal)
    # reads the zero padding of their first columns
    blks = ((b, v), (0, -1), (-a, -u), (1, 0)) if n >= m else ((v, b), (-1, 0), (-u, -a), (0, 1))
    cols = np.zeros((4, 2 * q), dtype=np.int64)
    for row, (c0, c1) in enumerate(blks):
        # D^j's coefficient sits j |n-m| rows down; at m = n only j = 0 exists
        cols[row, :q:s or q] = [(c0 * x + c1 * y) % p for x, y in zip(series, shifted)]
    blocks = cols.take(np.subtract.outer(np.arange(q), np.arange(q)), axis=1)
    return blocks.reshape(2, 2, q, q).transpose(0, 2, 1, 3).reshape(2 * q, 2 * q)


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
    the decoder; when every user shares one tuple, the maps stay single
    broadcast arrays.
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
        encoders=(np.broadcast_to(first, (K, q, L)),
                  np.broadcast_to(second, (K, q, L + q))),
        decoders=np.broadcast_to(np.stack([inverses[c] for c in coeffs]), (K, L, 2 * q)),
        name=name,
    )


# ---------------------------------------------------------------------------
# construction dispatch and verification
# ---------------------------------------------------------------------------

def _try_build(params: DetParams, time_share: bool) -> Scheme:
    if time_share:
        return moderate_scheme(params)  # n/K time sharing meets the converse
    K, n, m, signs = params.K, params.n, params.m, params.signs
    regime = "weak" if m < n else "strong" if m > n else "moderate"
    if signs is None:
        # the all-ones Lambda aligns at (A, B, U, V) = (0, 1, K-1, K-2)
        return _two_block_scheme(params, [(0, 1, K - 1, K - 2)] * K, regime)
    sol = qsym_solve(signs, regime, params.p)
    return _two_block_scheme(params, list(zip(sol.a, sol.b, sol.u, sol.v)), "qsym")


def build_scheme(K: int, n: int, m: int, p: int | None = None, signs=None) -> Scheme:
    """Construct the regime-appropriate scheme.  Without p, it is built over
    the smallest prime in `PRIME_SCAN` for which construction succeeds, and
    the scan returns that build, or n/K time sharing over the smallest prime
    for a channel with no converse that no prime aligns at m = n.  A failed
    scan lists every prime's reason, in scan order."""
    params = DetParams(K=K, n=n, m=m, p=PRIME_SCAN[0] if p is None else p, signs=signs)
    # whatever the prime, m = n time shares unless Lambda + I is invertible
    time_share = n == m and (params.signs is None or lambda_plus_i_singular(params.signs))
    if p is not None:
        return _try_build(params, time_share)
    reasons = []  # the messages only: keeping an exception would keep its frames alive
    for p in PRIME_SCAN:
        if p != params.p:
            params = replace(params, p=p)
        try:
            return _try_build(params, time_share)
        except SingularSystem as exc:  # NoSolution included
            reasons.append(str(exc))
    if n == m and K != 3:  # signed, so `det_converse` establishes no rate here
        return moderate_scheme(replace(params, p=PRIME_SCAN[0]))
    raise SingularSystem(
        f"no prime in {PRIME_SCAN} yields a decodable scheme for K={K}, n={n}, m={m}:"
        + "".join(f"\n  {reason}" for reason in reasons)
    )


def select_prime(K: int, n: int, m: int, signs=None) -> int:
    """Smallest prime in the scan set for which construction succeeds."""
    return build_scheme(K, n, m, signs=signs).params.p


@dataclass
class VerifyReport:
    """Outcome of replaying a scheme against random messages.  `transcript`
    is the first failing session, else session 0, and its `params` are the
    report's; `converse_rate` is None where no converse is established
    (signed channels with K != 3)."""

    declared_rate: Fraction
    trials: int
    successes: int
    converse_rate: Fraction | None
    transcript: Transcript

    @property
    def params(self) -> DetParams:
        return self.transcript.params

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
    """Replay `trials` >= 1 sessions with seeded uniform messages as one
    batch; bit-exactness of every user's decode counts as success, failures
    are data (the first failing session's transcript, else session 0's, is
    attached for inspection)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, params.p, size=(trials, params.K, scheme.msg_symbols))
    batch = run_feedback_session(params, scheme, msgs)
    failed = np.flatnonzero((batch.messages_out != batch.messages_in).any(axis=(1, 2)))
    return VerifyReport(
        declared_rate=scheme.declared_rate,
        trials=trials,
        successes=trials - failed.size,
        converse_rate=det_converse(params.n, params.m, params.K, params.signs),
        transcript=batch.trial(failed[0] if failed.size else 0),
    )
