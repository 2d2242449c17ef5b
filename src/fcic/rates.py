"""Closed-form rate, capacity-bound, GDoF, gap, and secrecy-leakage
expressions for the symmetric K-user fully connected interference channel
with output feedback.

All logs are base 2 and all Gaussian-channel rates are bits per real channel
use (hence the pervasive 1/2 and 1/4 factors).  Deterministic-model rates
are exact `Fraction`s; Gaussian expressions are binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ExcludedRegime",
    "GaussParams",
    "Achievable",
    "GapFact",
    "SecrecyBound",
    "RATE_TOL",
    "det_converse",
    "qsym_converse",
    "gdof_fb",
    "gdof_nofb",
    "c_sym_tilde",
    "gauss_achievable",
    "gauss_upper",
    "alpha_one_upper",
    "weak_gap_constant",
    "negligible_gap_constant",
    "gap_report",
    "gdof_slope_estimate",
    "secrecy_bound",
]

RATE_TOL = 1e-9  # absolute tolerance on all floating-point rate comparisons


class ExcludedRegime(Exception):
    """Parameters fall in the uncharacterised band INR/SNR in (1/2, 2), INR >= 2."""


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
# deterministic-model converses
# ---------------------------------------------------------------------------

def det_converse(n: int, m: int, k: int) -> Fraction:
    """Symmetric feedback capacity of the deterministic channel.

    n - m/2 in the weak regime (m < n), m/2 in the strong regime (m > n),
    and n/K at the m = n discontinuity, where all receivers see identical
    signals and must share one decoding budget.
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need n, m >= 0 and not both zero")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if m < n:
        return Fraction(2 * n - m, 2)
    if m > n:
        return Fraction(m, 2)
    return Fraction(n, k)


def _det3_int(a: np.ndarray) -> int:
    """Exact integer determinant of a 3x3 integer matrix."""
    return int(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def qsym_converse(n: int, m: int, signs) -> Fraction:
    """Symmetric feedback capacity of the signed 3-user channel.

    Away from m = n the signs do not matter.  At m = n the capacity is n/2
    when Lambda + I is invertible over the rationals and collapses to n/3
    when it is singular (some receivers then see duplicated outputs).
    """
    lam = np.asarray(signs, dtype=np.int64)
    if lam.shape != (3, 3):
        raise ValueError(f"sign matrix must be 3x3, got {lam.shape}")
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need n, m >= 0 and not both zero")
    if m < n:
        return Fraction(2 * n - m, 2)
    if m > n:
        return Fraction(m, 2)
    if _det3_int(lam + np.eye(3, dtype=np.int64)) != 0:
        return Fraction(n, 2)
    return Fraction(n, 3)


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

def c_sym_tilde(params: GaussParams) -> float:
    """Approximate symmetric capacity
    (1/4) log2(1 + SNR + INR) + (1/4) log2(1 + SNR / (1 + INR))."""
    s, i = params.snr, params.inr
    return 0.25 * math.log2(1 + s + i) + 0.25 * math.log2(1 + s / (1 + i))


def gauss_upper(params: GaussParams) -> float:
    """Capacity upper bound: c_sym_tilde + (K-1)/4 + (1/2) log2 K."""
    k = params.k
    return c_sym_tilde(params) + (k - 1) / 4 + 0.5 * math.log2(k)


@dataclass(frozen=True)
class Achievable:
    """Achievable symmetric rate with its regime tag.

    `constraints_ok` is set only in the weak regime, where the chosen rate
    split (R0*, R1*, R2*) is re-checked against all five decodability
    constraints of the lattice scheme.
    """

    rate: float
    regime: str
    constraints_ok: bool | None = None


def _weak_constraints_ok(s: float, i: float, k: int) -> bool:
    r0_star = 0.5 * math.log2((i - 1) / (8 * (k + 1)))
    r12_star = 0.5 * math.log2(1 + s / (k * i))
    r0_caps = (
        0.5 * math.log2((i - 1) / (k + 1)),
        0.5 * math.log2((i - 1) * (math.sqrt(s) + (k - 1) * math.sqrt(i)) ** 2 / (s + k * i)),
        0.5 * math.log2((i - 1) * (math.sqrt(s) - math.sqrt(i)) ** 2 / (s + k * i)),
    )
    if any(r0_star > cap + RATE_TOL for cap in r0_caps):
        return False
    r12_cap = 0.5 * math.log2(1 + s / (k * i))
    return r12_star <= r12_cap + RATE_TOL


def gauss_achievable(params: GaussParams) -> Achievable:
    """Best analysed scheme rate for the operating point.

    negligible (INR < 2): treat interference as noise, one block.
    weak (2 <= INR <= SNR/2): common-lattice sum decoding plus two private
        Gaussian streams over two blocks, rate (R0* + R1* + R2*)/2.
    strong (INR >= 2 max(SNR, 1)): two-block zero-forcing of the aligned
        interference, rate (1/4) log2(1 + (INR-SNR)^2 / (K (K INR + 1))).
    Anything else (INR/SNR in (1/2, 2) with INR >= 2) is excluded.
    Regime boundaries are closed as written; ties take the first branch in
    the order negligible, weak, strong.
    """
    s, i, k = params.snr, params.inr, params.k
    if i < 2:
        rate = 0.5 * math.log2(1 + s / (1 + (k - 1) * i))
        return Achievable(rate=rate, regime="negligible")
    if i <= s / 2:
        r0 = 0.5 * math.log2((i - 1) / (8 * (k + 1)))
        r12 = 0.5 * math.log2(1 + s / (k * i))
        return Achievable(
            rate=0.5 * (r0 + 2 * r12),
            regime="weak",
            constraints_ok=_weak_constraints_ok(s, i, k),
        )
    if i >= 2 * max(s, 1.0):
        rate = 0.25 * math.log2(1 + (i - s) ** 2 / (k * (k * i + 1)))
        return Achievable(rate=rate, regime="strong")
    raise ExcludedRegime(f"INR/SNR = {i / s:.4g} lies in (1/2, 2) with INR >= 2")


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
    """Gap of the weak/strong schemes below c_sym_tilde: (1/4) log2 16 K^2 (K+1)."""
    return 0.25 * math.log2(16 * k * k * (k + 1))


def negligible_gap_constant(k: int) -> float:
    """Gap of treat-interference-as-noise below c_sym_tilde: (1/4) log2 3 (K-1)^2."""
    return 0.25 * math.log2(3 * (k - 1) ** 2)


@dataclass(frozen=True)
class GapFact:
    """Per-point outcome of the constant-gap verification sweep."""

    params: GaussParams
    regime: str
    achievable: float
    c_tilde: float
    upper: float
    gap_ok: bool
    violations: tuple[str, ...] = ()


def _gap_checks(
    params: GaussParams, ach: Achievable, tilde: float, upper: float
) -> tuple[str, ...]:
    s, i, k = params.snr, params.inr, params.k
    bad = []
    if ach.regime in ("weak", "strong"):
        if ach.rate < tilde - weak_gap_constant(k) - RATE_TOL:
            bad.append("gap")
    else:
        if ach.rate < tilde - negligible_gap_constant(k) - RATE_TOL:
            bad.append("gap")
    if ach.rate > upper + RATE_TOL:
        bad.append("upper")
    if ach.regime == "weak":
        # (INR-1)/(8(K+1)) (1 + SNR/(K INR)) >= (1 + SNR + INR)/(16 K (K+1))
        lhs = (i - 1) / (8 * (k + 1)) * (1 + s / (k * i))
        rhs = (1 + s + i) / (16 * k * (k + 1))
        if lhs < rhs - RATE_TOL:
            bad.append("weak-simplify")
        if ach.constraints_ok is not True:
            bad.append("constraints")
    if i >= 2 * s and ach.regime == "strong":
        # 1 + (INR-SNR)^2/(K (K INR + 1)) >= (1 + SNR + INR)/(8 K^2)
        lhs = 1 + (i - s) ** 2 / (k * (k * i + 1))
        rhs = (1 + s + i) / (8 * k * k)
        if lhs < rhs - RATE_TOL:
            bad.append("strong-simplify")
    return tuple(bad)


def gap_report(points) -> list[GapFact]:
    """Evaluate the gap and simplification inequalities on a parameter grid.

    Excluded-band points are tagged and carry no claim (gap_ok stays True
    there); every other point must satisfy its regime's inequalities at
    tolerance RATE_TOL.
    """
    facts = []
    for params in points:
        tilde = c_sym_tilde(params)
        upper = gauss_upper(params)
        try:
            ach = gauss_achievable(params)
        except ExcludedRegime:
            facts.append(GapFact(
                params=params, regime="excluded", achievable=math.nan,
                c_tilde=tilde, upper=upper, gap_ok=True,
            ))
            continue
        bad = _gap_checks(params, ach, tilde, upper)
        facts.append(GapFact(
            params=params, regime=ach.regime, achievable=ach.rate,
            c_tilde=tilde, upper=upper, gap_ok=not bad, violations=bad,
        ))
    return facts


def gdof_slope_estimate(alpha: float, k: int, snr_grid=(1e6, 1e8, 1e10)) -> float:
    """Finite-difference GDoF estimate from the achievable-rate curve.

    Slope of gauss_achievable(SNR, SNR^alpha, k) against (1/2) log2 SNR
    across the top of the grid; the additive constants in the rate formulas
    cancel, so this converges to the GDoF orders of magnitude sooner than
    the plain rate / ((1/2) log2 SNR) ratio does.
    """
    lo, hi = snr_grid[-2], snr_grid[-1]
    r_lo = gauss_achievable(GaussParams(snr=lo, inr=lo ** alpha, k=k)).rate
    r_hi = gauss_achievable(GaussParams(snr=hi, inr=hi ** alpha, k=k)).rate
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
