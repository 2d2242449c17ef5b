import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcic.channel import Scheme
from fcic.gauss_sim import EffectiveChannelStats
from fcic.rates import (
    ClosedForms,
    GapFact,
    GaussParams,
    RATE_TOL,
    RegimeMismatch,
    alpha_one_upper,
    det_converse,
    gap_grid,
    gap_report,
    gauss_achievable,
    gdof_fb,
    gdof_nofb,
    gdof_slope_estimate,
    int_det,
    lambda_plus_i_singular,
    negligible_gap_constant,
    secrecy_bound,
    weak_gap_constant,
)
from fcic.schemes import AlignmentSolution, VerifyReport

# sign matrix whose Lambda + I has identical first and third rows
SINGULAR_LAMBDA = ((0, -1, 1), (1, 0, -1), (1, -1, 0))


# ---------------------------------------------------------------------------
# deterministic converses
# ---------------------------------------------------------------------------

def test_det_converse_values():
    assert det_converse(3, 1, 3) == Fraction(5, 2)
    assert det_converse(1, 3, 3) == Fraction(3, 2)
    assert det_converse(4, 4, 8) == Fraction(1, 2)
    assert det_converse(2, 0, 2) == Fraction(2)
    assert det_converse(0, 4, 5) == Fraction(2)



@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 24))
@example(3, 4, 4)
@example(2, 12, 24)
@example(8, 1, 0)
def test_det_converse_per_level_is_the_gdof_curve(k, n, m):
    """The paper's theorem in the deterministic model: per direct level, the
    exact converse is the feedback GDoF curve at alpha = m/n, and at m = n,
    where feedback does not help, the no-feedback value 1/K."""
    per_level = det_converse(n, m, k) / n
    if m != n:
        assert per_level == gdof_fb(Fraction(m, n))
        assert float(per_level) == pytest.approx(gdof_fb(m / n), rel=1e-15)
    else:
        assert per_level == Fraction(1, k)
        assert float(per_level) == gdof_nofb(1, k) == 1 / k

def test_det_converse_discontinuity_at_equal_levels():
    """Approaching m = n from either side gives ~n/2-ish rates, but the
    diagonal itself collapses to n/K for K >= 3."""
    for k in (3, 5, 8):
        n = 4
        below = det_converse(n, n - 1, k)
        at = det_converse(n, n, k)
        above = det_converse(n, n + 1, k)
        assert below == Fraction(n + 1, 2)
        assert above == Fraction(n + 1, 2)
        assert at == Fraction(n, k)
        assert at < min(below, above)


def test_det_converse_validation():
    with pytest.raises(ValueError):
        det_converse(0, 0, 3)
    with pytest.raises(ValueError):
        det_converse(2, 1, 1)


def test_det_converse_signed_needs_k_by_k_and_k_3():
    """A sign matrix must be k x k; no converse is established for signed
    channels with K != 3 other than the sign-switched all-ones ones, in
    any regime."""
    lam4 = ((0, -1, 1, 1), (1, 0, -1, 1), (-1, 1, 0, 1), (1, 1, 1, 0))
    for n, m in ((2, 2), (2, 1), (1, 2)):
        assert det_converse(n, m, 4, lam4) is None
        assert det_converse(n, m, 2, ((0, -1), (1, 0))) is None
    with pytest.raises(ValueError, match="must be 5x5"):
        det_converse(2, 2, 5, SINGULAR_LAMBDA)
    with pytest.raises(ValueError, match="must be 3x3"):
        det_converse(2, 2, 3, lam4)
    with pytest.raises(ValueError):
        det_converse(2, 2, 3, ((1, -1, 1), (1, 0, -1), (1, -1, 0)))  # nonzero diagonal


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_sign_switched_all_ones_channels_have_the_symmetric_converse(k):
    """lambda_kj = d_k d_j is the all-ones channel after user k multiplies
    its symbols by d_k, so it has the symmetric converse in every regime
    and at every K; one flipped entry makes it another signed channel."""
    for d in itertools.product((1, -1), repeat=k):
        lam = [[0 if r == c else d[r] * d[c] for c in range(k)] for r in range(k)]
        for n, m in ((2, 1), (1, 2), (2, 2), (3, 3), (2, 0), (0, 2)):
            assert det_converse(n, m, k, lam) == det_converse(n, m, k), (d, n, m)
        lam[0][1] = -lam[0][1]
        if k != 3:
            assert det_converse(2, 1, k, lam) is None


def test_qsym_converse_singular_example():
    assert det_converse(2, 2, 3, SINGULAR_LAMBDA) == Fraction(2, 3)


def test_qsym_converse_rank_dependent():
    lam = ((0, 1, -1), (-1, 0, 1), (1, 1, 0))
    lam_plus_i = np.array(lam) + np.eye(3)
    expected = Fraction(1) if round(np.linalg.det(lam_plus_i)) != 0 else Fraction(2, 3)
    assert det_converse(2, 2, 3, lam) == expected


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


def test_int_det_matches_permutation_sum():
    rng = np.random.default_rng(3)
    for size in range(7):
        for _ in range(30):
            mat = rng.integers(-3, 4, size=(size, size))
            if size > 1 and rng.random() < 0.5:
                mat[0, 0] = 0  # force a row swap, or a zero column below
                mat[1:, 0] *= rng.integers(0, 2)
            assert int_det(mat) == leibniz_det(mat)
    with pytest.raises(ValueError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_int_det_of_all_ones_lambda():
    """Lambda + I = J is singular for the all-ones Lambda at any K, and
    det(J - I) = (-1)^(K-1) (K-1)."""
    for k in range(2, 25):
        lam = np.ones((k, k), dtype=np.int64) - np.eye(k, dtype=np.int64)
        assert int_det(lam + np.eye(k, dtype=np.int64)) == 0
        assert int_det(lam) == (-1) ** (k - 1) * (k - 1)


def test_lambda_plus_i_singular_reads_none_as_the_all_ones_lambda():
    """None is the symmetric channel's all-ones Lambda, whose Lambda + I is
    the rank-1 all-ones matrix, so det_converse needs no case of its own."""
    assert lambda_plus_i_singular(None)
    assert lambda_plus_i_singular(np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64))
    assert not lambda_plus_i_singular(((0, 1, 1), (1, 0, -1), (1, -1, 0)))


def test_qsym_converse_off_diagonal_regimes_ignore_signs():
    for lam in (SINGULAR_LAMBDA, ((0, 1, 1), (1, 0, 1), (1, 1, 0))):
        assert det_converse(3, 1, 3, lam) == Fraction(5, 2)
        assert det_converse(1, 4, 3, lam) == Fraction(2)


# ---------------------------------------------------------------------------
# GDoF curves
# ---------------------------------------------------------------------------

def test_gdof_fb_values():
    assert gdof_fb(0) == 1
    assert gdof_fb(2) == 1
    assert gdof_fb(0.5) == 0.75
    assert gdof_fb(3) == 1.5
    assert math.isnan(gdof_fb(1))


def test_gdof_nofb_values():
    assert gdof_nofb(0.5, 3) == 0.5
    assert gdof_nofb(1, 5) == pytest.approx(0.2)
    assert gdof_nofb(3, 2) == 1
    assert gdof_nofb(0, 4) == 1
    assert gdof_nofb(0.75, 2) == 1 - 0.375
    assert gdof_nofb(1.5, 3) == 0.75


def test_gdof_nofb_continuous_off_alpha_one():
    for k in (2, 3, 6):
        for a in (0.5, 2 / 3, 2.0):
            left = gdof_nofb(a - 1e-12, k)
            right = gdof_nofb(a + 1e-12, k)
            assert abs(left - right) < 1e-9


@pytest.mark.parametrize("call,message", [
    (lambda: gdof_fb(-0.5), "alpha must be >= 0, got -0.5"),
    (lambda: gdof_nofb(-0.5, 3), "alpha must be >= 0, got -0.5"),
    (lambda: alpha_one_upper(0.0, 3), "snr must be positive, got 0.0"),
    (lambda: alpha_one_upper(1.0, 1), "need k >= 2, got 1"),
], ids=["gdof_fb", "gdof_nofb", "alpha_one_upper-snr", "alpha_one_upper-k"])
def test_curves_reject_arguments_off_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_feedback_never_hurts():
    for k in (2, 3, 5, 9):
        for a in np.linspace(0, 3, 301):
            if abs(a - 1) < 1e-12:
                continue
            assert gdof_fb(float(a)) >= gdof_nofb(float(a), k) - 1e-12


# ---------------------------------------------------------------------------
# Gaussian expressions
# ---------------------------------------------------------------------------

def test_c_sym_tilde_interference_free_reduction():
    for snr in (0.5, 10, 1e6):
        fact = gap_report([GaussParams(snr=snr, inr=0, k=3)])[0]
        assert fact.c_tilde == pytest.approx(0.5 * math.log2(1 + snr), abs=1e-12)


def test_c_sym_tilde_regression_point():
    val = gap_report([GaussParams(snr=15, inr=3, k=2)])[0].c_tilde
    expect = 0.25 * math.log2(19) + 0.25 * math.log2(1 + 15 / 4)
    assert val == pytest.approx(expect, abs=1e-15)
    assert val == pytest.approx(1.6239637567217926, abs=1e-12)


def test_c_sym_tilde_vanishes_at_zero_power():
    fact = gap_report([GaussParams(snr=1e-15, inr=0, k=2)])[0]
    assert fact.c_tilde == pytest.approx(0, abs=1e-12)


def test_achievable_weak_point():
    ach = gauss_achievable(GaussParams(snr=1e4, inr=1e2, k=3))
    assert ach.regime == "weak"
    expect = 0.5 * (
        0.5 * math.log2(99 / 32)
        + 2 * 0.5 * math.log2(1 + 1e4 / (3 * 1e2))
    )
    assert ach.achievable == pytest.approx(expect, abs=1e-12)
    assert ach.constraints_ok is True


def test_achievable_strong_point():
    ach = gauss_achievable(GaussParams(snr=10, inr=1e3, k=3))
    assert ach.regime == "strong"
    expect = 0.25 * math.log2(1 + 990**2 / (3 * 3001))
    assert ach.achievable == pytest.approx(expect, abs=1e-12)
    assert ach.constraints_ok is None


def test_achievable_negligible_point():
    ach = gauss_achievable(GaussParams(snr=50, inr=1.5, k=4))
    assert ach.regime == "negligible"
    assert ach.constraints_ok is None
    assert ach.achievable == pytest.approx(0.5 * math.log2(1 + 50 / (1 + 3 * 1.5)), abs=1e-12)


def test_weak_rate_split_satisfies_all_constraints():
    """Re-derive the five decodability constraints of the weak-regime scheme
    longhand and confirm the chosen split (R0*, R1*, R2*) obeys every one,
    across the whole regime up to K = 10^20 and on its INR = SNR/2 edge (so
    constraints_ok is never False there).  INR - 1 is common to R0* and its
    three caps, so their slacks are closed forms: 1.5 bits,
    (1/2) log2(8(K+1)(sqrt(SNR) + (K-1) sqrt(INR))^2 / (SNR + K INR)) >=
    (1/2) log2(16(K+1)/(K+2)) >= (1/2) log2 12, and
    (1/2) log2(8(K+1)(sqrt(SNR) - sqrt(INR))^2 / (SNR + K INR)) >=
    (1/2) log2(16(K+1)(3/2 - sqrt 2)/(K+2)) >= (1/2) log2(12(3/2 - sqrt 2))
    = 0.0209 bits.  The third's bound in K is met on the INR = SNR/2 edge,
    and at K = 2 it is the 0.0209.  So no cap binds, and the kernel
    computes none of the three."""
    bound2, bound3 = 0.5 * math.log2(12), 0.5 * math.log2(12 * (1.5 - math.sqrt(2)))
    assert round(bound3, 4) == 0.0209
    smallest3 = math.inf
    for s in np.geomspace(4, 1e9, 12):
        for i in [*np.geomspace(2, float(s) / 2, 9)[:-1], float(s) / 2]:
            for k in (2, 3, 5, 8, 1000, 10**20):
                s_, i_ = float(s), float(i)
                r0_star = 0.5 * math.log2((i_ - 1) / (8 * (k + 1)))
                r12_star = 0.5 * math.log2(1 + s_ / (k * i_))
                caps = [
                    0.5 * math.log2((i_ - 1) / (k + 1)),
                    0.5 * math.log2(
                        (i_ - 1) * (math.sqrt(s_) + (k - 1) * math.sqrt(i_)) ** 2
                        / (s_ + k * i_)
                    ),
                    0.5 * math.log2(
                        (i_ - 1) * (math.sqrt(s_) - math.sqrt(i_)) ** 2 / (s_ + k * i_)
                    ),
                ]
                slack1, slack2, slack3 = (cap - r0_star for cap in caps)
                assert slack1 == pytest.approx(1.5, abs=1e-12), (s_, i_, k)
                assert slack2 >= 0.5 * math.log2(16 * (k + 1) / (k + 2)) - 1e-12 >= bound2 - 2e-12
                edge3 = 0.5 * math.log2(16 * (k + 1) * (1.5 - math.sqrt(2)) / (k + 2))
                assert slack3 >= edge3 - 1e-12 >= bound3 - 2e-12, (s_, i_, k)
                if i_ == s_ / 2:
                    assert slack3 == pytest.approx(edge3, abs=1e-12), (s_, k)
                smallest3 = min(smallest3, slack3)
                assert r12_star <= 0.5 * math.log2(1 + s_ / (k * i_)) + RATE_TOL
                ach = gauss_achievable(GaussParams(snr=s_, inr=i_, k=k))
                assert ach.regime == "weak"
                assert ach.constraints_ok is True
                assert ach.achievable == pytest.approx(
                    0.5 * (r0_star + 2 * r12_star), abs=1e-12
                )
    assert smallest3 == pytest.approx(bound3, abs=1e-12)


def test_achievable_excluded_band():
    with pytest.raises(RegimeMismatch):
        gauss_achievable(GaussParams(snr=100, inr=100, k=3))
    with pytest.raises(RegimeMismatch):
        gauss_achievable(GaussParams(snr=10, inr=15, k=2))


def test_achievable_regime_boundaries():
    assert gauss_achievable(GaussParams(snr=4, inr=2, k=3)).regime == "weak"
    assert gauss_achievable(GaussParams(snr=1, inr=2, k=3)).regime == "strong"
    assert gauss_achievable(GaussParams(snr=3, inr=1.999, k=3)).regime == "negligible"


def test_gauss_upper_limit_form():
    val = gap_report([GaussParams(snr=1e-15, inr=0, k=2)])[0].upper
    assert val == pytest.approx(0.25 + 0.5, abs=1e-9)  # (K-1)/4 + log2(K)/2 = 3/4
    fact = gap_report([GaussParams(snr=1e4, inr=1e2, k=3)])[0]
    assert fact.upper == pytest.approx(fact.c_tilde + 0.5 + 0.5 * math.log2(3), abs=1e-12)


def test_monotone_in_snr():
    """c_tilde and the upper bound increase with SNR everywhere; the
    achievable rate increases within the negligible and weak regimes (the
    strong-regime formula is decreasing in SNR since zero-forcing loses
    signal power as SNR approaches INR)."""
    rng = np.random.default_rng(20)
    for _ in range(50):
        inr = float(rng.uniform(0, 1e4))
        k = int(rng.integers(2, 8))
        s1 = float(rng.uniform(0.1, 1e6))
        s2 = s1 * float(rng.uniform(1.0, 10.0))
        p1, p2 = GaussParams(s1, inr, k), GaussParams(s2, inr, k)
        f1, f2 = gap_report([p1, p2])
        assert f2.c_tilde >= f1.c_tilde - 1e-12
        assert f2.upper >= f1.upper - 1e-12
        try:
            a1, a2 = gauss_achievable(p1), gauss_achievable(p2)
        except RegimeMismatch:
            continue
        if a1.regime == a2.regime and a1.regime in ("negligible", "weak"):
            assert a2.achievable >= a1.achievable - 1e-12


def test_alpha_one_upper_values():
    assert alpha_one_upper(1e-15, 3) == pytest.approx(1 / 3, abs=1e-9)
    assert alpha_one_upper(1e6, 2) == pytest.approx(
        0.25 * math.log2(1 + 4e6) + 0.25, abs=1e-12
    )


def test_alpha_one_upper_slope_is_one_over_k():
    for k in (2, 3, 5):
        hi, lo = 1e12, 1e8
        slope = (alpha_one_upper(hi, k) - alpha_one_upper(lo, k)) / (
            0.5 * math.log2(hi) - 0.5 * math.log2(lo)
        )
        assert slope == pytest.approx(1 / k, abs=1e-6)


# ---------------------------------------------------------------------------
# gap sweep
# ---------------------------------------------------------------------------

def test_gap_single_point():
    facts = gap_report([GaussParams(snr=1e4, inr=1e2, k=3)])
    assert len(facts) == 1
    assert facts[0].gap_ok
    assert facts[0].regime == "weak"


def test_gap_excluded_point_carries_no_claim():
    facts = gap_report([GaussParams(snr=100, inr=100, k=3)])
    assert facts[0].regime == "excluded"
    assert math.isnan(facts[0].achievable)
    assert facts[0].gap_ok


@pytest.mark.parametrize("snr", (1e-3, 1.0, 10.0, 1e4, 1e15))
def test_negligible_gap_is_tight_at_two_users_just_below_inr_two(snr):
    """At K = 2 the negligible-regime gap c_tilde - rate is exactly
    (1/4) log2(1 + INR), which reaches `negligible_gap_constant(2)` =
    (1/4) log2 3 as INR -> 2.  One ulp below INR = 2 the measured slack,
    rate - (c_tilde - constant), lies between -8.9e-16 and 3.2e-17 over
    these SNRs: rounding can put it below zero, and it is RATE_TOL that
    keeps gap_ok true at this point."""
    fact = gap_report([GaussParams(snr=snr, inr=float(np.nextafter(2.0, 0.0)), k=2)])[0]
    assert fact.regime == "negligible" and fact.gap_ok
    assert abs(fact.achievable - (fact.c_tilde - negligible_gap_constant(2))) <= 1e-12


def test_gap_small_grid_zero_violations():
    grid = [
        GaussParams(snr=float(s), inr=float(i), k=k)
        for s in np.geomspace(1, 1e6, 7)
        for i in np.geomspace(1, 1e6, 7)
        for k in (2, 4)
    ]
    facts = gap_report(grid)
    assert all(f.gap_ok for f in facts)
    assert any(f.regime == "excluded" for f in facts)


def test_gap_grid_is_gap_report_on_the_grid_points(monkeypatch):
    """Entry a * len(inrs) + b of row r of the grid is the fact at
    (snrs[a], inrs[b], ks[r]), forced violations included, with the same
    violation names."""
    snrs, inrs, ks = [1e4, 1.0, 100.0], [1.0, 100.0, 1e6, 10.0], [2, 3, 10**20]
    monkeypatch.setattr("fcic.rates.RATE_TOL", -1e9)  # every checked inequality fails
    names = set()
    forms = gap_grid(snrs, inrs, ks)
    for row, k in enumerate(ks):
        facts = gap_report([GaussParams(s, i, k) for s in snrs for i in inrs])
        assert forms.regime.tolist() == [f.regime for f in facts]
        for n, fact in enumerate(facts):
            assert same_bits(forms.c_tilde[n], fact.c_tilde)
            assert same_bits(forms.upper[row, n], fact.upper)
            assert same_bits(forms.rate[row, n], fact.achievable)
            assert forms.violations(row, n) == fact.violations
            names.update(fact.violations)
    assert names == {
        "gap", "upper", "weak-simplify", "constraints", "strong-simplify"}


def test_verdicts_read_off_forced_violations(monkeypatch):
    """Under RATE_TOL = -1e9 every weak point's rate split fails its re-check
    and every point outside the excluded band violates an inequality: the
    verdicts read off `violations` say so, as the scalar reference does."""
    monkeypatch.setattr("fcic.rates.RATE_TOL", -1e9)
    monkeypatch.setitem(globals(), "RATE_TOL", -1e9)  # the reference's tolerance
    grid = np.geomspace(1e-2, 1e8, 9).tolist()
    points = [GaussParams(s, i, k) for s in grid for i in grid for k in (2, 3, 8)]
    facts = gap_report(points)
    assert {f.regime for f in facts} == {"negligible", "weak", "strong", "excluded"}
    for params, fact in zip(points, facts):
        s, i, k = params.snr, params.inr, params.k
        ref = ref_gauss_achievable(s, i, k)
        if ref is None:
            assert (fact.gap_ok, fact.constraints_ok, fact.violations) == (True, None, ())
            continue
        rate, regime, constraints_ok = ref
        assert constraints_ok is (False if regime == "weak" else None)
        assert fact.constraints_ok is constraints_ok
        tilde, upper = ref_c_sym_tilde(s, i), ref_gauss_upper(s, i, k)
        bad = ref_gap_checks(s, i, k, rate, regime, constraints_ok, tilde, upper)
        assert fact.violations == bad
        assert fact.gap_ok is False


def test_results_store_only_what_they_cannot_derive():
    """A scheme's size and rate, a report's parameters and rates, a
    solution's U, a point's verdicts and a Monte Carlo run's sample count
    and predictions are read off other fields, not stored beside them."""
    stored = {
        Scheme: ["params", "encoders", "decoders", "name"],
        VerifyReport: ["trials", "successes", "transcript"],
        AlignmentSolution: ["a", "b", "v", "p", "signs"],
        GapFact: ["params", "regime", "achievable", "c_tilde", "upper", "violations"],
        EffectiveChannelStats: [
            "config", "signal_power_hat", "noise_power_hat",
            "signal_se", "noise_se", "tx_power_hat", "tx_se"],
    }
    for cls, names in stored.items():
        assert [f.name for f in dataclasses.fields(cls)] == names
    assert ClosedForms._fields == ("regime", "rate", "c_tilde", "upper", "bad")


@pytest.mark.parametrize("snrs,inrs,k", [
    ([0.0], [1.0], 2), ([1.0], [-1.0], 2), ([math.inf], [1.0], 2),
    ([1.0], [math.nan], 2), ([1.0], [1.0], 1),
])
def test_gap_grid_rejects_what_gauss_params_rejects(snrs, inrs, k):
    with pytest.raises(ValueError):
        gap_grid(snrs, inrs, [k])


def test_gap_report_takes_any_iterable_of_points():
    points = [GaussParams(1e4, 1e2, 3), GaussParams(1.0, 10.0, 2), GaussParams(1e4, 1e2, 2)]
    assert gap_report(iter(points)) == gap_report(tuple(points)) == gap_report(points)


def test_gap_constants():
    assert weak_gap_constant(3) == pytest.approx(0.25 * math.log2(16 * 9 * 4))
    assert negligible_gap_constant(3) == pytest.approx(0.25 * math.log2(12))


def test_achievable_below_upper_on_grid():
    for s in np.geomspace(1, 1e8, 9):
        for i in np.geomspace(1, 1e8, 9):
            for k in (2, 3, 5):
                try:
                    ach = gauss_achievable(GaussParams(float(s), float(i), k))
                except RegimeMismatch:
                    continue
                assert ach.achievable <= ach.upper + RATE_TOL


# ---------------------------------------------------------------------------
# GDoF from the rate curve
# ---------------------------------------------------------------------------

def test_gdof_slope_recovers_feedback_curve():
    for alpha in (0.25, 0.5, 1.5, 2.0):
        est = gdof_slope_estimate(alpha, 3)
        assert abs(est - gdof_fb(alpha)) < 0.05


def test_c_tilde_ratio_recovers_feedback_curve():
    """The approximate-capacity expression itself has the right pre-log:
    its ratio against (1/2) log2 SNR converges to the feedback GDoF."""
    for alpha in (0.25, 0.5, 1.5, 2.0):
        snr = 1e10
        ratio = gap_report([GaussParams(snr=snr, inr=snr**alpha, k=3)])[0].c_tilde / (
            0.5 * math.log2(snr)
        )
        assert abs(ratio - gdof_fb(alpha)) < 0.05


# ---------------------------------------------------------------------------
# secrecy bound
# ---------------------------------------------------------------------------

def test_secrecy_bound_value():
    sb = secrecy_bound(3)
    assert sb.bits_per_use == pytest.approx(0.5 * math.log2(1.5), abs=1e-15)
    assert sb.bits_per_use == pytest.approx(0.2924812503605781, abs=1e-12)


def test_secrecy_bound_component_sum():
    for k in range(3, 11):
        sb = secrecy_bound(k)
        assert sb.lattice_term == 0.0
        assert abs(sum(sb.gaussian_terms) + sb.lattice_term - sb.bits_per_use) < 1e-12


def test_secrecy_bound_monotone_to_zero():
    vals = [secrecy_bound(k).bits_per_use for k in range(3, 60)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.02


def test_secrecy_bound_two_users_rejected():
    with pytest.raises(ValueError):
        secrecy_bound(2)


# ---------------------------------------------------------------------------
# the array kernel against the scalar closed forms it replaced
# ---------------------------------------------------------------------------

def ref_c_sym_tilde(s, i):
    return 0.25 * math.log2(1 + s + i) + 0.25 * math.log2(1 + s / (1 + i))


def ref_gauss_upper(s, i, k):
    return ref_c_sym_tilde(s, i) + (k - 1) / 4 + 0.5 * math.log2(k)


def ref_weak_constraints_ok(s, i, k):
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


def ref_gauss_achievable(s, i, k):
    """(rate, regime, constraints_ok), or None in the excluded band."""
    if i < 2:
        return 0.5 * math.log2(1 + s / (1 + (k - 1) * i)), "negligible", None
    if i <= s / 2:
        r0 = 0.5 * math.log2((i - 1) / (8 * (k + 1)))
        r12 = 0.5 * math.log2(1 + s / (k * i))
        return 0.5 * (r0 + 2 * r12), "weak", ref_weak_constraints_ok(s, i, k)
    if i >= 2 * max(s, 1.0):
        return 0.25 * math.log2(1 + (i - s) ** 2 / (k * (k * i + 1))), "strong", None
    return None


def ref_gap_checks(s, i, k, rate, regime, constraints_ok, tilde, upper):
    bad = []
    if regime in ("weak", "strong"):
        if rate < tilde - weak_gap_constant(k) - RATE_TOL:
            bad.append("gap")
    else:
        if rate < tilde - negligible_gap_constant(k) - RATE_TOL:
            bad.append("gap")
    if rate > upper + RATE_TOL:
        bad.append("upper")
    if regime == "weak":
        lhs = (i - 1) / (8 * (k + 1)) * (1 + s / (k * i))
        rhs = (1 + s + i) / (16 * k * (k + 1))
        if lhs < rhs - RATE_TOL:
            bad.append("weak-simplify")
        if constraints_ok is not True:
            bad.append("constraints")
    if i >= 2 * s and regime == "strong":
        lhs = 1 + (i - s) ** 2 / (k * (k * i + 1))
        rhs = (1 + s + i) / (8 * k * k)
        if lhs < rhs - RATE_TOL:
            bad.append("strong-simplify")
    return tuple(bad)


# INR drawn on its own, or snapped onto a regime tie
INR_TIES = {
    "free": None,
    "inr=2": lambda snr: 2.0,
    "inr=snr/2": lambda snr: snr / 2,
    "inr=2max(snr,1)": lambda snr: 2 * max(snr, 1.0),
}


def operating_point(draw):
    snr_exp, inr_exp, tie, k = draw
    snr = 10.0 ** snr_exp
    inr = 10.0 ** inr_exp if INR_TIES[tie] is None else INR_TIES[tie](snr)
    return GaussParams(snr=snr, inr=inr, k=k)


# SNR and INR log-uniform on 1e-3..1e12, INR on a regime tie half of the
# time; K in 2..10, 2^53 or 10^20
OPERATING_POINTS = st.tuples(
    st.floats(-3, 12), st.floats(-3, 12),
    st.sampled_from(["free", "free", "free", "inr=2", "inr=snr/2", "inr=2max(snr,1)"]),
    st.integers(2, 10) | st.sampled_from([2**53, 10**20]),
).map(operating_point)


def same_bits(x, y):
    return float(x).hex() == float(y).hex()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(points=st.lists(OPERATING_POINTS, min_size=1, max_size=12))
@example(points=[  # rates whose last bit numpy's x * x or np.log2 would change
    GaussParams(snr=0.003701105530068967, inr=112742675.74947986, k=2),
    GaussParams(snr=2.7676540652383075, inr=9126884.345404226, k=3),
    GaussParams(snr=0.0399171227148778, inr=0.0010920512378056963, k=2),
    GaussParams(snr=346.8254241337069, inr=47.3851486015336, k=3),
])
def test_kernel_matches_scalar_reference(points):
    """gap_report (one kernel call per distinct K) and its one-point form
    gauss_achievable give the scalar formulas' exact bits, regimes,
    rate-split re-checks and violation tuples, in input order."""
    facts = gap_report(points)
    assert [f.params for f in facts] == points
    for params, fact in zip(points, facts):
        s, i, k = params.snr, params.inr, params.k
        tilde, upper = ref_c_sym_tilde(s, i), ref_gauss_upper(s, i, k)
        assert same_bits(fact.c_tilde, tilde) and same_bits(fact.upper, upper)
        ref = ref_gauss_achievable(s, i, k)
        if ref is None:
            assert (fact.regime, fact.gap_ok, fact.violations) == ("excluded", True, ())
            assert fact.constraints_ok is None
            assert math.isnan(fact.achievable)
            with pytest.raises(RegimeMismatch):
                gauss_achievable(params)
            continue
        rate, regime, constraints_ok = ref
        ach = gauss_achievable(params)
        assert (ach.regime, ach.constraints_ok) == (regime, constraints_ok)
        assert fact.constraints_ok is constraints_ok
        assert same_bits(ach.c_tilde, tilde) and same_bits(ach.upper, upper)
        assert same_bits(ach.achievable, rate) and same_bits(fact.achievable, rate)
        bad = ref_gap_checks(s, i, k, rate, regime, constraints_ok, tilde, upper)
        assert (fact.regime, fact.violations, fact.gap_ok) == (regime, bad, not bad)
