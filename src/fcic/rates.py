"""Closed-form rate, capacity-bound, GDoF, gap, and secrecy-leakage
expressions for the symmetric K-user fully connected interference channel
with output feedback.

All logs are base 2 and all Gaussian-channel rates are bits per real channel
use (hence the pervasive 1/2 and 1/4 factors).  Deterministic-model rates
are exact `Fraction`s; Gaussian expressions are binary64.

Every Gaussian closed form (regime split, achievable rate, c_tilde, upper
bound and the gap/simplification inequalities) lives once, in the array
kernel `_closed_forms` over SNR and INR arrays and a list of K; it computes
the terms that do not depend on K once per point.  It flags three
inequalities, "gap", "upper" and "strong-simplify", each on a value it
computed, as the runtime check on its floating-point arithmetic.  The weak
split's decodability constraints and the weak simplification read no
kernel value and hold by algebra, so they are proven in the tests, not
flagged.  Two readers run it:
`gap_grid` gives its arrays on an SNR x INR grid for every K of a list in
one call, and `gap_report` gives one `GapFact` per point of a point list
(one kernel call per distinct K, at that K alone); `gauss_achievable` is
`gap_report` on one point.  The kernel's output is bit-for-bit what the
same formulas give in scalar Python floats: numpy runs only +, -, *, /,
sqrt and comparisons, which IEEE 754 rounds correctly either way, while
every log2 and every square goes through `math.log2` and Python's `** 2`
(libm) one element at a time, because `np.log2` and numpy's `x ** 2`
differ from them in the last bit on a few inputs in 10^4 and the CLI
prints these values.

The kernel has one overflow check, `_finite`: each term that can leave
binary64 passes through it and raises OverflowError naming the term and
the first point where it did.  Squares go through `_square`, whose Python
`** 2` overflows exactly where |v| >= 2^512; `gauss_sim` squares the Monte
Carlo's INR - SNR through it too, so both layers share the one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .channel import _validate_signs

__all__ = [
    "RegimeMismatch",
    "GaussParams",
    "ClosedForms",
    "GapFact",
    "SecrecyBound",
    "RATE_TOL",
    "det_converse",
    "lambda_plus_i_singular",
    "rate_json",
    "gdof_fb",
    "gdof_nofb",
    "gauss_achievable",
    "alpha_one_upper",
    "weak_gap_constant",
    "negligible_gap_constant",
    "gap_grid",
    "gap_report",
    "gdof_slope_estimate",
    "secrecy_bound",
]

RATE_TOL = 1e-9  # absolute tolerance on all floating-point rate comparisons


class RegimeMismatch(Exception):
    """Parameters lie outside the regime a result is for: a Gaussian point in
    the uncharacterised band INR/SNR in (1/2, 2) with INR >= 2, a strong-
    regime simulation outside INR >= 2 max(SNR, 1), or time sharing at
    m != n.  The CLI's exit code 4."""


@dataclass(frozen=True)
class GaussParams:
    """Symmetric Gaussian network operating point (linear power ratios)."""

    snr: float
    inr: float
    k: int

    def __post_init__(self):
        if not (self.snr > 0 and math.isfinite(self.snr)):
            raise ValueError(f"snr must be positive and finite, got {self.snr}")
        if not (self.inr >= 0 and math.isfinite(self.inr)):
            raise ValueError(f"inr must be non-negative and finite, got {self.inr}")
        if self.k < 2:
            raise ValueError(f"need k >= 2 users, got {self.k}")


# ---------------------------------------------------------------------------
# deterministic-model converse
# ---------------------------------------------------------------------------

def det_converse(n: int, m: int, k: int, signs=None) -> Fraction | None:
    """Symmetric feedback capacity of the deterministic channel, or None
    where no converse is established.

    n - m/2 in the weak regime (m < n), m/2 in the strong regime (m > n),
    and n/K at the m = n discontinuity, where all receivers see identical
    signals and must share one decoding budget.  A k x k sign matrix
    `signs` whose Lambda + I has rank 1 is lambda_kj = d_k d_j for some d
    in {+-1}^K (a rank-1 matrix with unit diagonal and +-1 entries is
    D J D, D = diag(d)): the all-ones channel after each user k multiplies
    its symbols by d_k, so it has the same values at every K.  Any other
    sign matrix changes only the m = n value, and only for K = 3: n/2 when
    Lambda + I has full rank (else some receivers see duplicated outputs).
    Other signed channels with K != 3 give None.  The rank of Lambda + I
    is taken once, and only where it decides: for a signed channel with
    K != 3, or at m = n.  `signs=None` is the all-ones Lambda, whose
    Lambda + I has rank 1, and a signed K = 3 channel at m != n takes no
    rank.

    For the 20 K = 3 sign matrices with det(Lambda + I) = 4, n/2 at m = n
    is a converse bound that no scheme here reaches (no prime aligns them:
    one user's Delta term is an integer combination of the alignment rows,
    and `build_scheme` raises SingularSystem), not a shown capacity.
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need n, m >= 0 and not both zero")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    signs = None if signs is None else _validate_signs(signs, k)
    # where no rank decides, 1 stands in: the all-ones Lambda + I's rank
    rank = 1 if signs is None or (k == 3 and m != n) else _plus_i_rank(signs)
    if k != 3 and rank != 1:
        return None
    if m < n:
        return Fraction(2 * n - m, 2)
    if m > n:
        return Fraction(m, 2)
    return Fraction(n, k) if rank < k else Fraction(n, 2)


def lambda_plus_i_singular(signs) -> bool:
    """Whether Lambda + I is singular over the rationals, its rank below K;
    at m = n alignment then cannot reach n/2.  None is the all-ones Lambda,
    whose Lambda + I is the rank-1 all-ones matrix, so it is always
    singular.  A non-square `signs` raises ValueError."""
    return signs is None or _plus_i_rank(signs) < len(signs)


def _plus_i_rank(signs) -> int:
    """Rank of Lambda + I over the rationals, for a square integer matrix
    `signs` (Lambda): the one exact kernel behind both sign-matrix rules,
    rank < K (singular) and rank 1 (lambda_kj = d_k d_j).

    Fraction-free (Bareiss) elimination in Python ints, with I added as the
    rows are converted.  Each pivot row leaves the list, and a column with
    no pivot is skipped, so the rank is the number of rows that left.
    Every entry stays a minor of the input, so each division by the
    previous pivot is exact: no rounding and no overflow.
    """
    a = [[int(v) + (i == j) for j, v in enumerate(row)]
         for i, row in enumerate(np.asarray(signs).tolist())]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("Lambda + I of a non-square matrix")
    prev = 1
    for c in range(size):
        pivot = next((i for i, row in enumerate(a) if row[c]), None)
        if pivot is None:
            continue
        top = a.pop(pivot)
        for row in a:
            for j in range(c + 1, size):
                row[j] = (row[j] * top[c] - row[c] * top[j]) // prev
        prev = top[c]
    return size - len(a)


def rate_json(rate: Fraction | None) -> dict | None:
    """A rate as {"num": ..., "den": ...}, or None."""
    return None if rate is None else {"num": rate.numerator, "den": rate.denominator}


# ---------------------------------------------------------------------------
# generalized degrees of freedom
# ---------------------------------------------------------------------------

def gdof_fb(alpha: float) -> float:
    """Per-user GDoF with output feedback: 1 - a/2 below a = 1, a/2 above.

    At a = 1 the limit depends on how INR tracks SNR, so the value is not
    well defined; NaN marks that point.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha < 1:
        return 1 - alpha / 2
    if alpha > 1:
        return alpha / 2
    return math.nan


def gdof_nofb(alpha: float, k: int) -> float:
    """Per-user GDoF without feedback (the classic W-shaped curve)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if alpha <= 0.5:
        return 1 - alpha
    if alpha <= 2 / 3:
        return alpha
    if alpha < 1:
        return 1 - alpha / 2
    if alpha == 1:
        return 1 / k
    if alpha <= 2:
        return alpha / 2
    return 1.0


# ---------------------------------------------------------------------------
# Gaussian-channel expressions
# ---------------------------------------------------------------------------

_REGIMES = np.array(["negligible", "weak", "strong", "excluded"], dtype=object)
_VIOLATIONS = ("gap", "upper", "strong-simplify")


class ClosedForms(NamedTuple):
    """Every Gaussian closed form over a K list, one column per (SNR, INR)
    pair and one row per K.

    `regime` and `c_tilde` do not depend on K and have one entry per pair;
    `rate`, `upper` and `bad` have a leading K axis.  An entry meets the
    gap inequalities where its column of `bad` is all False.  Each flag
    compares a value the kernel computed (the rate, c_tilde or the strong
    regime's argument), so the flags check the floating-point kernel.
    As a NamedTuple it keeps tuple equality: `==` compares its arrays, and
    can raise ValueError, so compare its fields with numpy instead.
    """

    regime: np.ndarray  # regime names (object array), (N,)
    rate: np.ndarray  # achievable rate, NaN where excluded, (len(ks), N)
    c_tilde: np.ndarray  # (N,)
    upper: np.ndarray  # (len(ks), N)
    bad: np.ndarray  # (len(ks), len(_VIOLATIONS), N) violated-inequality flags

    def violations(self, row: int, n: int) -> tuple[str, ...]:
        """Names of the inequalities entry n violates at the K of `row`, in
        a fixed order."""
        return tuple(v for v, b in zip(_VIOLATIONS, self.bad[row, :, n].tolist()) if b)


def _log2(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _finite(x: np.ndarray, term: str, s: np.ndarray, i: np.ndarray) -> np.ndarray:
    """x, unless an element overflowed to inf: then OverflowError naming
    `term` and the first such point (s, i).  The kernel's one overflow
    check: every term that can leave binary64 passes through it, the Monte
    Carlo's square included (through `_square`)."""
    beyond = np.flatnonzero(np.isinf(x)).tolist()
    if beyond:
        n = beyond[0]
        raise OverflowError(f"{term} at SNR = {float(s[n]):.12g}, INR = {float(i[n]):.12g}")
    return x


def _square(x: np.ndarray, term: str, s: np.ndarray, i: np.ndarray) -> np.ndarray:
    """x ** 2 in Python floats, checked by `_finite`: the one overflow rule
    for a square, in the gap kernel and in `gauss_sim`'s predictions alike.
    Python's `v ** 2` raises OverflowError exactly where |v| >= 2^512, so
    those elements square as inf instead, and `_finite` names `term` and
    the first such point (s, i)."""
    values = np.where(np.abs(x) < 2.0 ** 512, x, math.inf).tolist()
    return _finite(np.fromiter((v ** 2 for v in values), dtype=float, count=x.size),
                   term, s, i)


def _closed_forms(s: np.ndarray, i: np.ndarray, ks) -> ClosedForms:
    """Regimes (as in `gauss_achievable`), rates, bounds and the gap
    inequalities of `gap_report` at SNR s and INR i, for each K of `ks`.

    The terms that do not depend on K (regimes, 1 + SNR + INR, c_tilde and
    the strong regime's square) are computed once; only the rest is
    computed per K.  Each K stays a Python int: each K-dependent factor is
    the Python float of its exact integer value, as scalar arithmetic would
    convert it, so any K the scalar formulas accept gives the same bits.

    A point whose (INR - SNR)^2 (strong), 1 + SNR + INR (any regime, the
    excluded band included) or K INR (weak) leaves binary64 raises
    OverflowError through `_finite`, naming the term and the first such
    point, in that order of terms; a strong point's sum cannot overflow
    before its square, nor a negligible point's sum at all.

    The weak rate split meets its five decodability constraints by algebra,
    so none is computed.  R1* = R2* = (1/2) log2(1 + SNR/(K INR)) are their
    own caps.  With INR - 1 common to both sides, R0* =
    (1/2) log2((INR - 1)/(8(K + 1))) lies 1.5 bits below
    (1/2) log2((INR - 1)/(K + 1)), at least (1/2) log2 12 below
    (1/2) log2((INR - 1)(sqrt(SNR) + (K - 1) sqrt(INR))^2 / (SNR + K INR))
    and at least (1/2) log2(12 (3/2 - sqrt 2)) = 0.0209 bits below
    (1/2) log2((INR - 1)(sqrt(SNR) - sqrt(INR))^2 / (SNR + K INR)), tight
    at K = 2 on INR = SNR/2.  The weak simplification
    (INR-1)/(8(K+1)) (1 + SNR/(K INR)) >= (1 + SNR + INR)/(16 K (K+1)) holds
    on every weak point too.  tests/test_rates.py proves all of these with
    sympy.
    """
    with np.errstate(all="ignore"):  # inf and NaN propagate as in Python floats
        neg = i < 2
        weak = ~neg & (i <= s / 2)
        strong = ~neg & ~weak & (i >= 2 * np.maximum(s, 1.0))
        sn, in_ = s[neg], i[neg]
        sw, iw = s[weak], i[weak]
        ss, is_ = s[strong], i[strong]
        strong_sq = _square(is_ - ss, "(INR - SNR)^2", ss, is_)
        total = _finite(1 + s + i, "1 + SNR + INR", s, i)
        c_tilde = 0.25 * _log2(total) + 0.25 * _log2(1 + s / (1 + i))
        ts = total[strong]
        rate = np.full((len(ks), s.size), math.nan)
        upper = np.empty((len(ks), s.size))
        bad = np.zeros((len(ks), len(_VIOLATIONS), s.size), dtype=bool)
        for row, k in enumerate(ks):
            kf, km1 = float(k), float(k - 1)
            r, flags = rate[row], bad[row]
            upper[row] = c_tilde + (k - 1) / 4 + 0.5 * math.log2(k)

            r[neg] = 0.5 * _log2(1 + sn / (1 + km1 * in_))

            r0_arg = (iw - 1) / float(8 * (k + 1))
            r12_arg = 1 + sw / _finite(kf * iw, f"{k} INR", sw, iw)  # inf would make R1* 0
            r0, r12 = 0.5 * _log2(r0_arg), 0.5 * _log2(r12_arg)
            r[weak] = 0.5 * (r0 + 2 * r12)

            strong_arg = 1 + strong_sq / (kf * (kf * is_ + 1))
            r[strong] = 0.25 * _log2(strong_arg)

            # the comparisons are False on the NaN rate of excluded points
            gap_const = np.where(neg, negligible_gap_constant(k), weak_gap_constant(k))
            flags[0] = r < c_tilde - gap_const - RATE_TOL
            flags[1] = r > upper[row] + RATE_TOL
            # 1 + (INR-SNR)^2/(K (K INR + 1)) >= (1 + SNR + INR)/(8 K^2); the
            # strong regime has INR >= 2 max(SNR, 1) >= 2 SNR
            flags[2, strong] = strong_arg < ts / float(8 * k * k) - RATE_TOL
    regime = _REGIMES[np.where(neg, 0, np.where(weak, 1, np.where(strong, 2, 3)))]
    return ClosedForms(regime, rate, c_tilde, upper, bad)


def alpha_one_upper(snr: float, k: int) -> float:
    """Symmetric-rate upper bound on the INR = SNR line:
    (1/(2K)) log2(1 + K^2 SNR) + (K-1)/(2K).

    The chain behind it bounds T K R by (T/2) log2(1 + K^2 SNR) plus
    (K-1) T / 2; dividing by K T gives the 1/(2K) coefficient used here.
    Its high-SNR slope against (1/2) log2 SNR is 1/K.
    """
    if snr <= 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return (1 / (2 * k)) * math.log2(1 + k * k * snr) + (k - 1) / (2 * k)


def weak_gap_constant(k: int) -> float:
    """Gap of the weak/strong schemes below c_tilde: (1/4) log2 16 K^2 (K+1)."""
    return 0.25 * math.log2(16 * k * k * (k + 1))


def negligible_gap_constant(k: int) -> float:
    """Gap of treat-interference-as-noise below c_tilde: (1/4) log2 3 (K-1)^2."""
    return 0.25 * math.log2(3 * (k - 1) ** 2)


@dataclass(frozen=True)
class GapFact:
    """Everything the closed forms say about one operating point.

    `c_tilde` is the approximate symmetric capacity
    (1/4) log2(1 + SNR + INR) + (1/4) log2(1 + SNR / (1 + INR)), and
    `upper` the capacity upper bound c_tilde + (K-1)/4 + (1/2) log2 K.
    `achievable` is NaN in the excluded band.  `violations` names the
    inequalities the point violates, and `gap_ok` holds when it is empty.
    `constraints_ok` says whether the weak rate split (R0*, R1*, R2*) meets
    the five decodability constraints of the lattice scheme: True on every
    weak point, where they hold by algebra (proven in tests/test_rates.py,
    see `_closed_forms`), and None in the other regimes.
    """

    params: GaussParams
    regime: str
    achievable: float
    c_tilde: float
    upper: float
    violations: tuple[str, ...]

    @property
    def gap_ok(self) -> bool:
        return not self.violations

    @property
    def constraints_ok(self) -> bool | None:
        return True if self.regime == "weak" else None


def gap_grid(snrs, inrs, ks) -> ClosedForms:
    """The closed forms and gap inequalities at every point of the grid
    snrs x inrs, for each K of the list `ks` (row r of `rate`, `upper` and
    `bad` is ks[r]), SNR-major: entry a * len(inrs) + b is
    (snrs[a], inrs[b]).  Same values as `gap_report` on the same points.
    """
    s, i = np.asarray(snrs, dtype=float), np.asarray(inrs, dtype=float)
    if not ((s > 0) & np.isfinite(s)).all() or not ((i >= 0) & np.isfinite(i)).all():
        raise ValueError("need positive finite snrs and non-negative finite inrs")
    for k in ks:
        if k < 2:
            raise ValueError(f"need k >= 2 users, got {k}")
    return _closed_forms(np.repeat(s, i.size), np.tile(i, s.size), ks)


def gap_report(points) -> list[GapFact]:
    """Evaluate the gap and simplification inequalities on a point list.

    Excluded-band points are tagged and carry no claim (gap_ok stays True
    there); every other point must satisfy its regime's inequalities at
    tolerance RATE_TOL.  The points are evaluated as arrays, one
    `_closed_forms` call per distinct K, each at that K alone, the K in
    the order they first appear; the facts keep the input order.  A K
    group that overflows names its own first such point, which need not
    be the first in the list, so the points are then evaluated one at a
    time, in input order, and the first to overflow is named.
    """
    points = list(points)
    facts: list[GapFact] = [None] * len(points)
    try:
        for k in dict.fromkeys(params.k for params in points):
            where = [n for n, params in enumerate(points) if params.k == k]
            forms = _closed_forms(np.array([points[n].snr for n in where], dtype=float),
                                  np.array([points[n].inr for n in where], dtype=float), [k])
            for j, n in enumerate(where):
                facts[n] = GapFact(points[n], forms.regime[j], float(forms.rate[0, j]),
                                   float(forms.c_tilde[j]), float(forms.upper[0, j]),
                                   forms.violations(0, j))
    except OverflowError:
        for params in points:
            _closed_forms(np.array([params.snr]), np.array([params.inr]), [params.k])
        raise
    return facts


def gauss_achievable(params: GaussParams) -> GapFact:
    """Best analysed scheme rate for the operating point: its `GapFact`.

    negligible (INR < 2): treat interference as noise, one block.
    weak (2 <= INR <= SNR/2): common-lattice sum decoding plus two private
        Gaussian streams over two blocks, rate (R0* + R1* + R2*)/2.
    strong (INR >= 2 max(SNR, 1)): two-block zero-forcing of the aligned
        interference, rate (1/4) log2(1 + (INR-SNR)^2 / (K (K INR + 1))).
    Anything else (INR/SNR in (1/2, 2) with INR >= 2) is excluded and
    raises `RegimeMismatch`.  Regime boundaries are closed as written; ties
    take the first branch in the order negligible, weak, strong.
    """
    fact = gap_report([params])[0]
    if fact.regime == "excluded":
        raise RegimeMismatch(
            f"INR/SNR = {params.inr / params.snr:.4g} lies in (1/2, 2) with INR >= 2"
        )
    return fact


def gdof_slope_estimate(alpha: float, k: int) -> float:
    """Finite-difference GDoF estimate from the achievable-rate curve.

    Slope of gauss_achievable(SNR, SNR^alpha, k) against (1/2) log2 SNR
    between SNR = 10^8 and 10^10; the additive constants in the rate
    formulas cancel, so this converges to the GDoF orders of magnitude
    sooner than the plain rate / ((1/2) log2 SNR) ratio does.
    """
    lo, hi = 1e8, 1e10
    r_lo = gauss_achievable(GaussParams(snr=lo, inr=lo ** alpha, k=k)).achievable
    r_hi = gauss_achievable(GaussParams(snr=hi, inr=hi ** alpha, k=k)).achievable
    return (r_hi - r_lo) / (0.5 * math.log2(hi) - 0.5 * math.log2(lo))


# ---------------------------------------------------------------------------
# secrecy leakage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecrecyBound:
    """Per-channel-use leakage bound of the weak-regime lattice scheme.

    The common lattice stream leaks nothing for K >= 3 (its term vanishes by
    the crypto lemma: the other users' codewords act as a one-time pad), so
    the bound is carried entirely by the two private Gaussian streams.
    """

    bits_per_use: float
    lattice_term: float
    gaussian_terms: tuple[float, float]


def secrecy_bound(k: int) -> SecrecyBound:
    """Leakage of any unintended message: (1/2) log2(K / (K-1)) per use.

    Per channel use the two Gaussian-stream terms each contribute
    (1/4) log2(1 + 1/(K-1)); they sum to the bound exactly since
    K/(K-1) = 1 + 1/(K-1).  Needs K >= 3 (with K = 2 the masking sum
    contains a single codeword, so the lattice term is not zero).
    """
    if k < 3:
        raise ValueError(f"secrecy bound needs K >= 3, got {k} (math domain error)")
    g = 0.25 * math.log2(1 + 1 / (k - 1))
    return SecrecyBound(
        bits_per_use=0.5 * math.log2(k / (k - 1)),
        lattice_term=0.0,
        gaussian_terms=(g, g),
    )
