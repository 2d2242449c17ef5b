"""Closed-form rate, capacity-bound, GDoF, gap, and secrecy-leakage
expressions for the symmetric K-user fully connected interference channel
with output feedback.

All logs are base 2 and all Gaussian-channel rates are bits per real channel
use (hence the pervasive 1/2 and 1/4 factors).  Deterministic-model rates
are exact `Fraction`s; Gaussian expressions are binary64.

Every Gaussian closed form (regime split, achievable rate, c_tilde, upper
bound and the gap/simplification inequalities) lives once, in the array
kernel `_closed_forms` over SNR and INR arrays at one K.  Two readers run
it: `gap_grid` gives its arrays on an SNR x INR grid, and `gap_report`
gives one `GapFact` per point of a point list (one kernel call per
distinct K); `gauss_achievable` is `gap_report` on one point.  The
kernel's output is bit-for-bit what the same formulas give in scalar
Python floats: numpy runs only +, -, *, /, sqrt and comparisons, which
IEEE 754 rounds correctly either way, while every log2 and every square
goes through `math.log2` and Python's `** 2` (libm) one element at a time,
because `np.log2` and numpy's `x ** 2` differ from them in the last bit on
a few inputs in 10^4 and the CLI prints these values.
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
    "int_det",
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
    `signs` changes only that last value, and only for K = 3: n/2 when
    Lambda + I is invertible over the rationals (else some receivers see
    duplicated outputs).  Signed channels with K != 3 give None.

    For the 20 K = 3 sign matrices with det(Lambda + I) = 4, n/2 at m = n
    is a converse bound that no scheme here reaches (no prime of the scan
    aligns them, and `build_scheme` raises SingularSystem), not a shown
    capacity.
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need n, m >= 0 and not both zero")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if signs is not None:
        signs = _validate_signs(signs, k)
        if k != 3:
            return None
    if m < n:
        return Fraction(2 * n - m, 2)
    if m > n:
        return Fraction(m, 2)
    if signs is None or lambda_plus_i_singular(signs):
        return Fraction(n, k)
    return Fraction(n, 2)


def lambda_plus_i_singular(signs) -> bool:
    """Whether Lambda + I is singular over the rationals (always, for the
    all-ones Lambda); at m = n alignment then cannot reach n/2."""
    rows = np.asarray(signs).tolist()
    return int_det([[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)]) == 0


def rate_json(rate: Fraction | None) -> dict | None:
    """A rate as {"num": ..., "den": ...}, or None."""
    return None if rate is None else {"num": rate.numerator, "den": rate.denominator}


def int_det(mat) -> int:
    """Exact determinant of a square integer matrix of any size.

    Fraction-free (Bareiss) elimination in Python ints: every division is
    exact, so there is no rounding and no overflow.
    """
    a = [[int(v) for v in row] for row in np.asarray(mat).tolist()]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for c in range(size - 1):
        if a[c][c] == 0:
            swap = next((i for i in range(c + 1, size) if a[i][c]), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for i in range(c + 1, size):
            for j in range(c + 1, size):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[-1][-1] if size else 1


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
_VIOLATIONS = ("gap", "upper", "weak-simplify", "constraints", "strong-simplify")


class ClosedForms(NamedTuple):
    """Every Gaussian closed form over one K, one entry per (SNR, INR) pair.

    `regime` and `c_tilde` do not depend on K.  The verdicts are read off
    `bad`: an entry meets the gap inequalities where its column is all
    False, and a weak entry's rate split passes its re-check where the
    "constraints" row is False.
    """

    regime: np.ndarray  # regime names (object array)
    rate: np.ndarray  # achievable rate, NaN where excluded
    c_tilde: np.ndarray
    upper: np.ndarray
    bad: np.ndarray  # (len(_VIOLATIONS), N) violated-inequality flags

    def violations(self, n: int) -> tuple[str, ...]:
        """Names of the inequalities that entry n violates, in a fixed order."""
        return tuple(v for v, b in zip(_VIOLATIONS, self.bad[:, n].tolist()) if b)


def _log2(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _square(x: np.ndarray) -> np.ndarray:
    return np.fromiter((v ** 2 for v in x.tolist()), dtype=float, count=x.size)


def _closed_forms(s: np.ndarray, i: np.ndarray, k: int) -> ClosedForms:
    """Regimes (as in `gauss_achievable`), rates, bounds and the gap
    inequalities of `gap_report` at SNR s and INR i, for one K.

    K stays a Python int: each K-dependent factor is the Python float of
    its exact integer value, as scalar arithmetic would convert it, so any
    K the scalar formulas accept gives the same bits.
    """
    kf, km1, kp1 = float(k), float(k - 1), float(k + 1)
    with np.errstate(all="ignore"):  # inf and NaN propagate as in Python floats
        total = 1 + s + i
        c_tilde = 0.25 * _log2(total) + 0.25 * _log2(1 + s / (1 + i))
        upper = c_tilde + (k - 1) / 4 + 0.5 * math.log2(k)
        neg = i < 2
        weak = ~neg & (i <= s / 2)
        strong = ~neg & ~weak & (i >= 2 * np.maximum(s, 1.0))
        rate = np.full(s.shape, math.nan)
        bad = np.zeros((len(_VIOLATIONS), s.size), dtype=bool)

        rate[neg] = 0.5 * _log2(1 + s[neg] / (1 + km1 * i[neg]))

        sw, iw = s[weak], i[weak]
        r0_arg = (iw - 1) / float(8 * (k + 1))
        r12_arg = 1 + sw / (kf * iw)
        r0, r12 = 0.5 * _log2(r0_arg), 0.5 * _log2(r12_arg)
        rate[weak] = 0.5 * (r0 + 2 * r12)
        # re-check (R0*, R1*, R2*) against the five decodability constraints;
        # R1* = R2* sit at their own cap, so that one fails only on NaN
        root_s, root_i = np.sqrt(sw), np.sqrt(iw)
        r0_caps = (
            0.5 * _log2((iw - 1) / kp1),
            0.5 * _log2((iw - 1) * _square(root_s + km1 * root_i) / (sw + kf * iw)),
            0.5 * _log2((iw - 1) * _square(root_s - root_i) / (sw + kf * iw)),
        )
        split_ok = r12 <= r12 + RATE_TOL
        for cap in r0_caps:
            split_ok &= ~(r0 > cap + RATE_TOL)

        ss, is_ = s[strong], i[strong]
        strong_arg = 1 + _square(is_ - ss) / (kf * (kf * is_ + 1))
        rate[strong] = 0.25 * _log2(strong_arg)

        # the comparisons are False on the NaN rate of excluded points
        gap_const = np.where(neg, negligible_gap_constant(k), weak_gap_constant(k))
        bad[0] = rate < c_tilde - gap_const - RATE_TOL
        bad[1] = rate > upper + RATE_TOL
        # (INR-1)/(8(K+1)) (1 + SNR/(K INR)) >= (1 + SNR + INR)/(16 K (K+1))
        bad[2, weak] = r0_arg * r12_arg < total[weak] / float(16 * k * (k + 1)) - RATE_TOL
        bad[3, weak] = ~split_ok
        # 1 + (INR-SNR)^2/(K (K INR + 1)) >= (1 + SNR + INR)/(8 K^2), for INR >= 2 SNR
        bad[4, strong] = (is_ >= 2 * ss) & (
            strong_arg < total[strong] / float(8 * k * k) - RATE_TOL
        )
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
    inequalities the point violates, and both verdicts are read off it:
    `gap_ok` holds when it is empty, and `constraints_ok`, set only in the
    weak regime, holds when the chosen rate split (R0*, R1*, R2*) passes
    its re-check against all five decodability constraints of the lattice
    scheme ("constraints" is not among them); it is None elsewhere.
    """

    params: GaussParams
    regime: str
    achievable: float
    c_tilde: float
    upper: float
    violations: tuple[str, ...] = ()

    @property
    def gap_ok(self) -> bool:
        return not self.violations

    @property
    def constraints_ok(self) -> bool | None:
        return "constraints" not in self.violations if self.regime == "weak" else None


def gap_grid(snrs, inrs, k: int) -> ClosedForms:
    """The closed forms and gap inequalities at every point of the grid
    snrs x inrs, for one K, SNR-major: entry a * len(inrs) + b is
    (snrs[a], inrs[b]).  Same values as `gap_report` on the same points.
    """
    s, i = np.asarray(snrs, dtype=float), np.asarray(inrs, dtype=float)
    if not ((s > 0) & np.isfinite(s)).all() or not ((i >= 0) & np.isfinite(i)).all():
        raise ValueError("need positive finite snrs and non-negative finite inrs")
    if k < 2:
        raise ValueError(f"need k >= 2 users, got {k}")
    return _closed_forms(np.repeat(s, i.size), np.tile(i, s.size), k)


def gap_report(points) -> list[GapFact]:
    """Evaluate the gap and simplification inequalities on a point list.

    Excluded-band points are tagged and carry no claim (gap_ok stays True
    there); every other point must satisfy its regime's inequalities at
    tolerance RATE_TOL.  The points are evaluated as arrays, one
    `_closed_forms` call per distinct K; the facts keep the input order.
    """
    points = list(points)
    by_k: dict[int, list[int]] = {}
    for n, params in enumerate(points):
        by_k.setdefault(params.k, []).append(n)
    facts: list[GapFact] = [None] * len(points)
    for k, where in by_k.items():
        group = [points[n] for n in where]
        forms = _closed_forms(
            np.array([p.snr for p in group], dtype=float),
            np.array([p.inr for p in group], dtype=float),
            k,
        )
        violations = [()] * len(group)
        for n in np.flatnonzero(forms.bad.any(axis=0)).tolist():
            violations[n] = forms.violations(n)
        group_facts = map(
            GapFact, group, forms.regime.tolist(), forms.rate.tolist(),
            forms.c_tilde.tolist(), forms.upper.tolist(), violations,
        )
        for n, fact in zip(where, group_facts):
            facts[n] = fact
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
