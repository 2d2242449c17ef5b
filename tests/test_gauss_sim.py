import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

from fcic import gauss_sim
from fcic.cli import main
from fcic.gauss_sim import (
    EffectiveChannelStats,
    MCConfig,
    gaussian_tail,
    make_lattice,
    mod_lattice,
    quantize_fine,
    simulate_strong_two_block,
    sum_decode_check,
    zero_forcing_signal_coef,
)
from fcic.rates import GaussParams
from fcic.schemes import RegimeMismatch


def strong_cfg(snr=1.0, inr=10.0, k=2, block=10_000, trials=10, seed=1):
    return MCConfig(
        params=GaussParams(snr=snr, inr=inr, k=k),
        block_len=block, trials=trials, seed=seed,
    )


# ---------------------------------------------------------------------------
# strong-regime Monte Carlo
# ---------------------------------------------------------------------------

def test_noise_power_matches_closed_form():
    stats = simulate_strong_two_block(strong_cfg())
    assert stats.predicted_noise_power == pytest.approx(41 / 21, abs=1e-15)
    assert abs(stats.noise_power_hat - 41 / 21) <= 3 * stats.noise_se
    assert stats.samples == 100_000


def test_signal_power_meets_lower_bound():
    stats = simulate_strong_two_block(strong_cfg(snr=5, inr=10, k=3, seed=2))
    assert stats.signal_power_hat >= stats.predicted_signal_lb - 3 * stats.signal_se


def test_transmit_power_constraint():
    stats = simulate_strong_two_block(strong_cfg(seed=3))
    assert stats.tx_power_hat <= 1.0 + 3 * stats.tx_se


def test_regime_mismatch_rejected():
    with pytest.raises(RegimeMismatch):
        simulate_strong_two_block(strong_cfg(snr=100, inr=100))
    with pytest.raises(RegimeMismatch):
        simulate_strong_two_block(strong_cfg(snr=1, inr=1.5))


def test_zero_forcing_coef_vanishes_at_equal_powers():
    assert zero_forcing_signal_coef(7.0, 7.0, 4) == 0.0
    assert zero_forcing_signal_coef(1.0, 10.0, 2) > 0


def test_predicted_noise_power_below_k():
    for k in (2, 3, 5, 8):
        for inr in np.geomspace(2, 1e8, 12):
            pred = (k * k * inr + 1) / (k * inr + 1)
            assert pred < k


def test_simulation_is_deterministic():
    a = simulate_strong_two_block(strong_cfg(seed=42))
    b = simulate_strong_two_block(strong_cfg(seed=42))
    assert a.noise_power_hat == b.noise_power_hat
    assert a.signal_power_hat == b.signal_power_hat
    c = simulate_strong_two_block(strong_cfg(seed=43))
    assert c.noise_power_hat != a.noise_power_hat


def test_noise_estimate_unbiased_across_seeds():
    """The 3-sigma gate should hold in nearly every fresh-seed rerun."""
    hits = 0
    runs = 12
    for seed in range(runs):
        stats = simulate_strong_two_block(strong_cfg(block=2000, trials=4, seed=seed))
        if abs(stats.noise_power_hat - stats.predicted_noise_power) <= 3 * stats.noise_se:
            hits += 1
    assert hits >= runs - 1


def test_stats_json_keys():
    stats = simulate_strong_two_block(strong_cfg(seed=5))
    doc = stats.to_json_dict()
    assert list(doc) == [
        "config", "signal_power_hat", "noise_power_hat",
        "predicted_noise_power", "predicted_signal_lb", "samples", "rng",
    ]
    assert doc["rng"] == "philox/5"


# ---------------------------------------------------------------------------
# bit identity against independent references
# ---------------------------------------------------------------------------

def reference_mc(cfg: MCConfig) -> EffectiveChannelStats:
    """The all-users loop: every row of y1, y2 and z2, per-trial lists joined
    by np.concatenate.  The fast path must match it bit for bit."""
    s, i, k = cfg.params.snr, cfg.params.inr, cfg.params.k
    t_len = cfg.block_len
    gamma = 1.0 / math.sqrt(k * i + 1.0)
    comb = gamma * (math.sqrt(s) + (k - 1) * math.sqrt(i))
    coef = zero_forcing_signal_coef(s, i, k)
    sig_sq, noise_sq, tx_sq = [], [], []
    for trial in range(cfg.trials):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([trial, cfg.seed & (2**64 - 1)], dtype=np.uint64)))
        c = rng.normal(size=(k, t_len))
        z1 = rng.normal(size=(k, t_len))
        z2 = rng.normal(size=(k, t_len))
        tot = c.sum(axis=0)
        y1 = math.sqrt(s) * c + math.sqrt(i) * (tot - c) + z1
        x2 = gamma * (math.sqrt(i) * tot + z1)
        tot2 = x2.sum(axis=0)
        y2 = math.sqrt(s) * x2 + math.sqrt(i) * (tot2 - x2) + z2
        y_tilde = y2 - comb * y1
        sig = coef * c[0]
        sig_sq.append(sig**2)
        noise_sq.append((y_tilde[0] - sig) ** 2)
        tx_sq.append(x2[0] ** 2)
    sig_sq = np.concatenate(sig_sq)
    noise_sq = np.concatenate(noise_sq)
    tx_sq = np.concatenate(tx_sq)
    n = sig_sq.size
    return EffectiveChannelStats(
        config=cfg,
        signal_power_hat=float(sig_sq.mean()),
        noise_power_hat=float(noise_sq.mean()),
        predicted_noise_power=(k * k * i + 1.0) / (k * i + 1.0),
        predicted_signal_lb=(i - s) ** 2 / (k * i + 1.0),
        samples=n,
        signal_se=float(sig_sq.std(ddof=1) / math.sqrt(n)),
        noise_se=float(noise_sq.std(ddof=1) / math.sqrt(n)),
        tx_power_hat=float(tx_sq.mean()),
        tx_se=float(tx_sq.std(ddof=1) / math.sqrt(n)),
    )


def stats_bits(stats: EffectiveChannelStats) -> dict:
    """Every field, floats as their IEEE bytes (exact, and NaN == NaN when a
    single sample leaves std(ddof=1) undefined)."""
    return {
        f.name: np.float64(v).tobytes() if isinstance(v, float) else v
        for f in dataclasses.fields(stats) for v in [getattr(stats, f.name)]
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("trials", [1, 3, 7])
@pytest.mark.parametrize("block", [1, 17, 1000])
def test_mc_is_bit_identical_to_all_users_reference(k, trials, block):
    for seed in (0, 5, 2**40 + 3):
        cfg = strong_cfg(snr=2.0, inr=30.0, k=k, block=block, trials=trials, seed=seed)
        assert stats_bits(simulate_strong_two_block(cfg)) == stats_bits(reference_mc(cfg))


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_mc_bits_do_not_depend_on_cpu_count(monkeypatch, cpus):
    """The pool is sized from the usable CPUs; with more workers than cores
    and a short switch interval the trials interleave, and each must still
    land in its own slice of the shared buffers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = strong_cfg(k=3, block=257, trials=40, seed=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats = simulate_strong_two_block(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert stats_bits(stats) == stats_bits(reference_mc(cfg))


def test_mc_scaled_noise_exits_1_with_its_json(capsys, monkeypatch):
    """Doubled normals break the unit transmit power: mc-strong reports the
    failed gate through its exit code, with its JSON and no traceback."""
    real = gauss_sim._trial_rng

    class Doubled:
        def __init__(self, rng):
            self.rng = rng

        def normal(self, *args, **kwargs):
            return 2.0 * self.rng.normal(*args, **kwargs)

    monkeypatch.setattr(gauss_sim, "_trial_rng", lambda seed, trial: Doubled(real(seed, trial)))
    code = main(["mc-strong", "--snr", "1", "--inr", "10", "--k", "2",
                 "--block", "2000", "--trials", "3", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["samples"] == 6000
    assert "Traceback" not in err


def reference_sum_decode(k, lat, noise_sigma, trials, seed):
    """The out-of-place lattice check: the same draws, every array kept."""
    c = lat.coarse_step
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    idx = rng.integers(0, lat.refinement, size=(trials, k))
    s = lat.codebook[idx]
    d = rng.uniform(-c / 2, c / 2, size=(trials, k))
    c_tx = mod_lattice(s - d, lat)
    received = c_tx.sum(axis=1)
    if noise_sigma > 0:
        received = received + rng.normal(0.0, noise_sigma, size=trials)
    folded = mod_lattice(received + d.sum(axis=1), lat)
    decoded = mod_lattice(quantize_fine(folded, lat), lat)
    truth = mod_lattice(s.sum(axis=1), lat)
    err = np.abs(mod_lattice(decoded - truth, lat))
    return float(np.mean(err < 0.5 * lat.fine_step))


@pytest.mark.parametrize("k", [2, 3, 8])
def test_sum_decode_is_bit_identical_to_reference(k):
    for c, m in ((1.0, 8), (3.0, 6)):
        lat = make_lattice(c, m)
        for sigma in (0.0, 0.02, 0.3):
            for seed in (0, 11, 2**40 + 3):
                got = sum_decode_check(k, lat, sigma, 5000, seed)
                assert got == reference_sum_decode(k, lat, sigma, 5000, seed)


# stdout sha256 recorded from the list-and-concatenate implementation
# (numpy 2.4.6); Philox streams and these reductions are platform-stable.
PINNED_STDOUT = [
    (("mc-strong", "--snr", "1", "--inr", "10", "--k", "2",
      "--block", "1000", "--trials", "7", "--seed", "1"),
     0, "4dfeedf040e29912aed9f01db29700cb37ea248078d03c86b3761a3ca620b903"),
    (("mc-strong", "--snr", "5", "--inr", "40", "--k", "3",
      "--block", "17", "--trials", "3", "--seed", "9"),
     0, "bd2eefa711e213e84d3bdcbf2941dccb62ea290ae62a2b87b3c4ae126c973d80"),
    (("mc-strong", "--snr", "2", "--inr", "100", "--k", "8",
      "--block", "500", "--trials", "4", "--seed", "123"),
     0, "1a4edf07a880b43fe89336c85a3769eaeb8f0af0d0d7aa2d82f0db534ffab638"),
    (("lattice-demo", "--refinement", "8", "--users", "3",
      "--noise-sigma", "0.02", "--trials", "4000", "--seed", "5"),
     0, "cae4a858f51fb1002247bcc4691291d0301961cbd613661335f1be2c58455595"),
    (("lattice-demo", "--coarse-step", "2", "--refinement", "5", "--users", "4",
      "--noise-sigma", "0.1", "--trials", "999", "--seed", "0"),
     1, "34d7e5a89acbe7ed62023adb5740a4c8fb3ae3aa3e34d1632a1a09ee93c4b71b"),
]


@pytest.mark.parametrize("argv,code,sha256", PINNED_STDOUT)
def test_cli_stdout_matches_pinned_sha256(argv, code, sha256):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# 1-D nested lattice
# ---------------------------------------------------------------------------

def test_make_lattice_codebook():
    lat = make_lattice(1.0, 4)
    assert lat.codebook.tolist() == [-0.5, -0.25, 0.0, 0.25]
    assert np.diff(lat.codebook).tolist() == [0.25, 0.25, 0.25]
    assert lat.second_moment == pytest.approx(1 / 12)


def test_make_lattice_validation():
    with pytest.raises(ValueError):
        make_lattice(0.0, 4)
    with pytest.raises(ValueError):
        make_lattice(1.0, 1)


def test_mod_lattice_arithmetic():
    lat = make_lattice(1.0, 4)
    assert mod_lattice(0.75, lat) == -0.25
    for k in (-3, -1, 0, 2, 5):
        assert mod_lattice(k * 1.0, lat) == 0.0
    assert mod_lattice(0.5, lat) == -0.5  # boundary folds to the lower edge
    assert mod_lattice(-0.5, lat) == -0.5


def test_mod_lattice_idempotent():
    lat = make_lattice(2.0, 8)
    xs = np.linspace(-7, 7, 1001)
    once = mod_lattice(xs, lat)
    assert (mod_lattice(once, lat) == once).all()
    assert (once >= -1.0).all() and (once < 1.0).all()


def test_codewords_are_mod_fixed_points():
    for m in (2, 4, 8):
        lat = make_lattice(1.0, m)
        assert (mod_lattice(lat.codebook, lat) == lat.codebook).all()


def test_mod_sum_closure_exact():
    for m in (2, 4, 8):
        lat = make_lattice(1.0, m)
        book = set(lat.codebook.tolist())
        for a in lat.codebook:
            for b in lat.codebook:
                folded = float(mod_lattice(a + b, lat))
                assert folded in book


def test_quantize_fine_rounds_to_grid():
    lat = make_lattice(1.0, 4)
    assert quantize_fine(0.13, lat) == 0.25
    assert quantize_fine(-0.13, lat) == -0.25
    assert quantize_fine(0.12, lat) == 0.0


# ---------------------------------------------------------------------------
# dithered sum decoding
# ---------------------------------------------------------------------------

def test_noiseless_sum_decode_exact():
    for k in (2, 3, 5):
        for m in (2, 4, 8):
            lat = make_lattice(1.0, m)
            assert sum_decode_check(k, lat, 0.0, 5000, seed=10 + k + m) == 1.0


def test_small_noise_high_success():
    lat = make_lattice(1.0, 8)
    rate = sum_decode_check(3, lat, 1.0 / (100 * 8), 10_000, seed=11)
    assert rate >= 0.99


def test_noisy_success_matches_gaussian_tail():
    """At sigma = c/(3M) misdecodes are common enough to measure; the rate
    must agree with 1 - 2 Q(c/(2 M sigma)) within 3 binomial SEs."""
    m = 8
    lat = make_lattice(1.0, m)
    sigma = 1.0 / (3 * m)
    trials = 20_000
    rate = sum_decode_check(4, lat, sigma, trials, seed=12)
    p_fail = 2 * gaussian_tail((1.0 / (2 * m)) / sigma)
    se = math.sqrt(p_fail * (1 - p_fail) / trials)
    assert abs((1 - rate) - p_fail) <= 3 * se


def test_huge_noise_approaches_uniform_guess():
    m = 4
    lat = make_lattice(1.0, m)
    rate = sum_decode_check(2, lat, 50.0, 20_000, seed=13)
    se = math.sqrt((1 / m) * (1 - 1 / m) / 20_000)
    assert abs(rate - 1 / m) <= 4 * se


def test_dither_makes_transmitted_point_uniform():
    """Kolmogorov-Smirnov check that mod(s - d) is uniform on the coarse
    cell - the masking mechanism behind the leakage bound."""
    lat = make_lattice(1.0, 4)
    rng = np.random.Generator(np.random.Philox(key=99))
    n = 10_000
    s = lat.codebook[rng.integers(0, 4, size=n)]
    d = rng.uniform(-0.5, 0.5, size=n)
    c_tx = np.sort(mod_lattice(s - d, lat))
    u = (c_tx + 0.5)  # uniform on [0, 1) under the null
    grid = (np.arange(1, n + 1)) / n
    ks = max(np.max(grid - u), np.max(u - (grid - 1 / n)))
    assert ks < 1.628 / math.sqrt(n)  # 1% critical value


def test_sum_decode_validation():
    lat = make_lattice(1.0, 4)
    with pytest.raises(ValueError):
        sum_decode_check(1, lat, 0.0, 10, seed=1)
    with pytest.raises(ValueError):
        sum_decode_check(2, lat, -0.1, 10, seed=1)
