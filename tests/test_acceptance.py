"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are pinned in the assertions.
"""

import functools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fcic.channel import DetParams, run_feedback_session
from fcic.cli import main as cli_main
from fcic.gauss_sim import (
    MCConfig,
    gaussian_tail,
    make_lattice,
    mod_lattice,
    simulate_strong_two_block,
    sum_decode_check,
)
from fcic.gf import SingularSystem
from fcic.rates import (
    GaussParams,
    RATE_TOL,
    det_converse,
    gap_report,
    gdof_fb,
    gdof_slope_estimate,
    secrecy_bound,
)
from fcic.schemes import build_scheme, qsym_solve, verify_scheme

from conftest import all_sign_matrices_k3, leibniz_det

# sign matrix whose Lambda + I has identical first and third rows
SINGULAR_LAMBDA = ((0, -1, 1), (1, 0, -1), (1, -1, 0))


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return run
    return wrap


@criterion("criterion 1 (deterministic achievability = converse)")
def test_criterion_1_det_achievability_meets_converse():
    start = time.perf_counter()
    configs = 0
    for k in (2, 3, 4, 5):
        for n in range(0, 7):
            for m in range(0, 7):
                if n + m == 0:
                    continue
                scheme = build_scheme(k, n, m)  # auto-selected prime
                report = verify_scheme(scheme.params, scheme, 100, seed=1000 + configs)
                assert report.successes == 100, (k, n, m)
                assert scheme.declared_rate == det_converse(n, m, k), (k, n, m)
                configs += 1
    elapsed = time.perf_counter() - start
    assert configs == 4 * 48
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


@criterion("criterion 2 (worked-example transcripts)")
def test_criterion_2_worked_examples():
    weak = build_scheme(3, 3, 1, p=5)
    assert weak.declared_rate == Fraction(5, 2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        msgs = rng.integers(0, 5, size=(3, 5))
        tr = run_feedback_session(weak.params, weak, msgs)
        assert (tr.messages_out == msgs).all()

    for p in (3, 5, 7):
        strong = build_scheme(3, 1, 3, p=p)
        assert strong.declared_rate == Fraction(3, 2)
        msgs = rng.integers(0, p, size=(3, 3))
        tr = run_feedback_session(strong.params, strong, msgs)
        assert (tr.messages_out == msgs).all()

    with pytest.raises(SingularSystem):
        build_scheme(3, 1, 3, p=2)


@criterion("criterion 3 (quasi-symmetric feasibility, all 64 sign matrices)")
def test_criterion_3_qsym_feasibility():
    p = 5
    count = 0
    for lam in all_sign_matrices_k3():
        lam_np = np.asarray(lam, dtype=np.int64)
        for regime, (n, m) in (("weak", (2, 1)), ("strong", (1, 2))):
            sol = qsym_solve(lam, regime, p)
            # entrywise identity check, independent of the solver internals
            lhs = (lam_np @ np.diag(sol.a) + lam_np @ np.diag(sol.b) @ lam_np) % p
            rhs = (np.diag(sol.u) + np.diag(sol.v) @ lam_np) % p
            assert (lhs == rhs).all()
            params = DetParams(K=3, n=n, m=m, p=p, signs=lam)
            scheme = build_scheme(3, n, m, p=p, signs=lam)  # from this same (deterministic) solve
            assert scheme.declared_rate == det_converse(n, m, 3)
            report = verify_scheme(params, scheme, 100, seed=3000 + count)
            assert report.successes == 100, (lam, regime)
            count += 1
    assert count == 128
    # the worked singular example collapses to n/3 at m = n
    assert det_converse(2, 2, 3, SINGULAR_LAMBDA) == Fraction(2, 3)
    assert det_converse(3, 3, 3, SINGULAR_LAMBDA) == Fraction(1)


@criterion("signed K = 3 census (64 sign matrices x 48 (n, m), auto p)")
def test_signed_k3_census_proves_each_build_and_lists_each_failure():
    """Every (Lambda, n, m) with n, m <= 6 either builds at `det_converse`'s
    rate and replays its K*L unit messages to the identity, which proves
    decoding for every message, or is one of the 120 known failures: the 20
    matrices with det(Lambda + I) = 4 at n = m = 1..6, where n/2 is a
    converse bound that no prime of the scan reaches."""
    built, failed = 0, set()
    for lam in all_sign_matrices_k3():
        for n in range(7):
            for m in range(7):
                if n + m == 0:
                    continue
                try:
                    scheme = build_scheme(3, n, m, signs=lam)
                except SingularSystem as exc:
                    assert str(exc).startswith("no prime in (2, 3, 5, 7, 11, 13)"), exc
                    failed.add((lam, n, m))
                    continue
                assert scheme.declared_rate == det_converse(n, m, 3, lam), (lam, n, m)
                size = 3 * scheme.msg_symbols
                units = np.eye(size, dtype=np.int64).reshape(size, 3, scheme.msg_symbols)
                out = run_feedback_session(scheme.params, scheme, units).messages_out
                assert np.array_equal(out, units), (lam, n, m)
                built += 1
    det4 = [lam for lam in all_sign_matrices_k3()
            if leibniz_det(np.asarray(lam) + np.eye(3, dtype=np.int64)) == 4]
    assert len(det4) == 20
    assert failed == {(lam, n, n) for lam in det4 for n in range(1, 7)}
    assert built == 64 * 48 - 120 == 2952


@criterion("criterion 4 (Gaussian constant-gap sweep)")
def test_criterion_4_gauss_gap_sweep():
    start = time.perf_counter()
    grid = [
        GaussParams(snr=float(s), inr=float(i), k=k)
        for s in np.geomspace(1.0, 1e8, 15)
        for i in np.geomspace(1.0, 1e8, 15)
        for k in (2, 3, 5, 8)
    ]
    facts = gap_report(grid)
    assert len(facts) == 15 * 15 * 4
    violations = [f for f in facts if not f.gap_ok]
    assert violations == []
    for f in facts:
        if f.regime != "excluded":
            assert f.achievable <= f.upper + RATE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sweep took {elapsed:.1f}s"


@criterion("criterion 5 (GDoF convergence and the alpha = 1 row)")
def test_criterion_5_gdof_convergence(capsys):
    for alpha in (0.25, 0.5, 1.5, 2.0):
        est = gdof_slope_estimate(alpha, 3)
        assert abs(est - gdof_fb(alpha)) < 0.05, alpha
    code = cli_main(["gdof", "--alpha-min", "0", "--alpha-max", "2",
                     "--steps", "9", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("1,")][0]
    assert row.split(",")[1] == "NaN"
    assert float(row.split(",")[2]) == pytest.approx(1 / 3, abs=1e-9)


@criterion("criterion 6 (strong-regime Monte Carlo)")
def test_criterion_6_strong_monte_carlo():
    start = time.perf_counter()
    cfg = MCConfig(params=GaussParams(snr=1.0, inr=10.0, k=2),
                   block_len=10_000, trials=10, seed=6)
    stats = simulate_strong_two_block(cfg)
    assert stats.predicted_noise_power == pytest.approx(41 / 21, abs=1e-15)
    assert abs(stats.noise_power_hat - 41 / 21) <= 3 * stats.noise_se
    assert stats.tx_power_hat <= 1.0 + 3 * stats.tx_se
    again = simulate_strong_two_block(cfg)
    assert json.dumps(again.to_json_dict()) == json.dumps(stats.to_json_dict())
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"simulation took {elapsed:.1f}s"


@criterion("criterion 7 (lattice structural suite)")
def test_criterion_7_lattice_suite():
    for m in (2, 4, 8):
        lat = make_lattice(1.0, m)
        book = set(lat.codebook.tolist())
        for a in lat.codebook:
            for b in lat.codebook:
                assert float(mod_lattice(a + b, lat)) in book
    lat = make_lattice(1.0, 8)
    for k in (2, 3, 5):
        assert sum_decode_check(k, lat, 0.0, 10_000, seed=70 + k) == 1.0
    sigma = 1.0 / (3 * 8)
    trials = 20_000
    rate = sum_decode_check(3, lat, sigma, trials, seed=77)
    p_fail = 2 * gaussian_tail((1.0 / 16) / sigma)
    se = math.sqrt(p_fail * (1 - p_fail) / trials)
    assert abs((1 - rate) - p_fail) <= 3 * se


@criterion("criterion 8 (secrecy leakage bound)")
def test_criterion_8_secrecy_bound():
    values = []
    for k in range(3, 11):
        sb = secrecy_bound(k)
        assert sb.bits_per_use == pytest.approx(0.5 * math.log2(k / (k - 1)), abs=1e-15)
        assert abs(sb.bits_per_use - (sum(sb.gaussian_terms) + sb.lattice_term)) < 1e-12
        values.append(sb.bits_per_use)
    assert all(a > b for a, b in zip(values, values[1:]))
