import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fcic.rates import GaussParams, RegimeMismatch


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


@pytest.mark.parametrize("snr,inr,k", [(1.0, 10.0, 2), (1.0, 10.0, 8), (100.0, 1e4, 5)])
def test_trial_body_is_the_exact_effective_channel(snr, inr, k):
    """The combiner is linear in (c, z1, z2), so a trial whose 2K+1 columns
    are the unit vectors of those draws returns its coefficients: the
    intended codeword's is the zero-forcing coefficient, every cross
    codeword's is 0, the noise coefficients have power (K^2 INR + 1) /
    (K INR + 1), and user 0's block-2 input has unit power."""
    t_len = 2 * k + 1
    c, z1, z2 = np.zeros((k, t_len)), np.zeros((k, t_len)), np.zeros(t_len)
    for j in range(k):
        c[j, j] = z1[j, k + j] = 1.0
    z2[2 * k] = 1.0
    sig = np.empty(t_len)
    resid, tx = gauss_sim._two_block_trial(c, z1, z2, snr, inr, sig)
    y_tilde = sig + resid
    coef = zero_forcing_signal_coef(snr, inr, k)
    assert sig.tolist() == [coef] + [0.0] * (2 * k)
    assert abs(y_tilde[0] - coef) <= 1e-12
    assert np.abs(y_tilde[1:k]).max() <= 1e-12
    noise_power = float(np.sum(y_tilde[k:] ** 2))
    assert abs(noise_power - (k * k * inr + 1) / (k * inr + 1)) <= 1e-12
    assert abs(float(np.sum(tx**2)) - 1.0) <= 1e-12


def _traced_peak_mib(fn) -> float:
    fn()  # once untraced, so one-time imports and caches are not counted
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_mc_allocates_only_draws_and_buffers():
    """One trial of K = 8, T = 50 000 holds its draws c and z1 (K x T each),
    z2 and one (T,) sum, next to the three (T,) sample buffers: (2K + 5) T
    doubles, 8.01 MiB measured.  The bound allows 10% over that; a
    (K, T) temporary (3.05 MiB) or a (T,) one per buffer in the statistics
    (3 x 0.38 MiB) breaks it, and the out-of-place body peaked at 13.4 MiB."""
    k, t_len = 8, 50_000
    cfg = strong_cfg(k=k, block=t_len, trials=1, seed=4)
    peak = _traced_peak_mib(lambda: simulate_strong_two_block(cfg))
    assert peak <= 1.1 * (2 * k + 5) * t_len * 8 / 2**20


def test_lattice_allocates_only_draws_and_sums():
    """At K = 3 and 200 000 trials the check holds at most the codewords
    and dithers (trials x K each) and two (trials,) sums: 8 * trials
    doubles, 12.2 MiB measured.  The bound allows 10% over that; the
    out-of-place helpers and sums peaked at 16.8 MiB."""
    trials = 200_000
    lat = make_lattice(1.0, 8)
    peak = _traced_peak_mib(lambda: sum_decode_check(3, lat, 0.02, trials, 7))
    assert peak <= 1.1 * 8 * trials * 8 / 2**20


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
        signal_se=float(sig_sq.std(ddof=1) / math.sqrt(n)),
        noise_se=float(noise_sq.std(ddof=1) / math.sqrt(n)),
        tx_power_hat=float(tx_sq.mean()),
        tx_se=float(tx_sq.std(ddof=1) / math.sqrt(n)),
    )


def reference_predictions(cfg: MCConfig) -> dict:
    """The values the stats read off their config, from the formulas."""
    s, i, k = cfg.params.snr, cfg.params.inr, cfg.params.k
    return {
        "predicted_noise_power": (k * k * i + 1.0) / (k * i + 1.0),
        "predicted_signal_lb": (i - s) ** 2 / (k * i + 1.0),
        "samples": cfg.block_len * cfg.trials,
    }


def float_bits(values: dict) -> dict:
    """Floats as their IEEE bytes (exact, and NaN == NaN)."""
    return {name: np.float64(v).tobytes() if isinstance(v, float) else v
            for name, v in values.items()}


def stats_bits(stats: EffectiveChannelStats) -> dict:
    """Every field, and every value read off the config, as `float_bits`."""
    names = [f.name for f in dataclasses.fields(stats)] + list(reference_predictions(stats.config))
    return float_bits({name: getattr(stats, name) for name in names})


@pytest.mark.parametrize("k", [2, 3, 8, 9])
@pytest.mark.parametrize("trials", [1, 3, 7])
@pytest.mark.parametrize("block", [1, 17, 1000, 2 * gauss_sim._BLOCK + 17])
def test_mc_is_bit_identical_to_all_users_reference(k, trials, block):
    if block * trials < 2:  # one sample has no standard error: rejected
        with pytest.raises(ValueError):
            strong_cfg(snr=2.0, inr=30.0, k=k, block=block, trials=trials)
        return
    for seed in (0, 5, 2**40 + 3):
        cfg = strong_cfg(snr=2.0, inr=30.0, k=k, block=block, trials=trials, seed=seed)
        stats = simulate_strong_two_block(cfg)
        assert stats_bits(stats) == stats_bits(reference_mc(cfg))
        # the fast path and the reference share these properties, so they
        # are checked against the formulas themselves
        ref = reference_predictions(cfg)
        assert float_bits({name: getattr(stats, name) for name in ref}) == float_bits(ref)


@pytest.mark.parametrize("k", [8, 9])
@pytest.mark.parametrize("block", [gauss_sim._BLOCK + 1, gauss_sim._BLOCK + 2,
                                   2 * gauss_sim._BLOCK + 1])
def test_mc_block_tails_keep_the_users_sum_order(k, block):
    """From 8 users numpy sums a one-column (K, 1) view pairwise and a wider
    block row by row, as it sums the whole array; a one-column last block
    would change its column's sums in the last bit.  At INR = 10^12 the
    combiner's cancellation carries that bit into the noise estimate."""
    for seed in (0, 5, 2**40 + 3):
        cfg = strong_cfg(snr=2.0, inr=1e12, k=k, block=block, trials=2, seed=seed)
        assert stats_bits(simulate_strong_two_block(cfg)) == stats_bits(reference_mc(cfg))


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_mc_bits_do_not_depend_on_cpu_count(monkeypatch, cpus):
    """The pool is sized from the usable CPUs and each worker runs every
    W-th trial (3 workers do not divide 40 trials); with more workers than
    cores and a short switch interval the trials interleave, and each must
    still land in its own slice of the shared buffers."""
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

        def standard_normal(self, *, out):
            self.rng.standard_normal(out=out)
            out *= 2.0
            return out

    monkeypatch.setattr(gauss_sim, "_trial_rng", lambda seed, trial: Doubled(real(seed, trial)))
    code = main(["mc-strong", "--snr", "1", "--inr", "10", "--k", "2",
                 "--block", "2000", "--trials", "3", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["samples"] == 6000
    assert "Traceback" not in err
    # doubled normals quadruple the noise and transmit powers; the signal
    # lower bound still holds
    failed = err.splitlines()
    assert [line.split()[2] for line in failed] == ["noise", "tx"]
    assert all(" se=" in line and "estimate=" in line for line in failed)


@pytest.mark.parametrize("gate,estimate", [
    ("noise", {"noise_power_hat": 1.0}), ("signal", {"signal_power_hat": 0.0}),
    ("tx", {"tx_power_hat": 2.0}),
])
def test_each_failed_gate_is_one_line(gate, estimate):
    """Estimates on their predictions fail no gate; one estimate three
    standard errors or more off its gate fails that gate alone, in one line."""
    cfg = strong_cfg(block=2, trials=1)
    noise, signal_lb = gauss_sim._predictions(cfg.params)
    ok = EffectiveChannelStats(cfg, signal_power_hat=signal_lb, noise_power_hat=noise,
                               signal_se=0.1, noise_se=0.1, tx_power_hat=1.0, tx_se=0.1)
    assert ok.gate_failures() == []
    failed = dataclasses.replace(ok, **estimate).gate_failures()
    assert [line.split()[:3] for line in failed] == [["gate", "failed:", gate]]


def test_mc_config_needs_a_positive_block_and_trial_count():
    """Two negative counts multiply to enough samples; each is still
    rejected on its own."""
    with pytest.raises(ValueError, match="block_len and trials must be >= 1"):
        strong_cfg(block=-1, trials=-2)


def test_mc_overflow_raises_before_any_draw(capsys, monkeypatch):
    """(INR - SNR)^2 beyond binary64 is found before the first trial's
    stream is made: one error line, exit 2, and no trial drawn."""
    real = gauss_sim._trial_rng
    drawn = []

    def recording(seed, trial):
        drawn.append(trial)
        return real(seed, trial)

    monkeypatch.setattr(gauss_sim, "_trial_rng", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["mc-strong", "--snr", "1", "--inr", "1e200", "--block", "2",
                     "--trials", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: a value is too large for binary64") and err.count("\n") == 1
    assert drawn == []


def test_seeds_outside_the_philox_key_range_are_rejected():
    """Both generators key Philox with the seed as a 64-bit word, so a seed
    outside [0, 2^64) would alias the seed it equals mod 2^64."""
    lat = make_lattice(1.0, 8)
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match="seed must be in"):
            strong_cfg(seed=seed)
        with pytest.raises(ValueError, match="seed must be in"):
            sum_decode_check(3, lat, 0.0, 10, seed)
    strong_cfg(seed=2**64 - 1)
    assert sum_decode_check(3, lat, 0.0, 10, 2**64 - 1) == 1.0


def test_mc_one_sample_is_a_usage_error(capsys):
    """One sample leaves every std(ddof=1) undefined: exit 2, not a NaN run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["mc-strong", "--snr", "1", "--inr", "10",
                     "--block", "1", "--trials", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error:")
        code = main(["mc-strong", "--snr", "1", "--inr", "10",
                     "--block", "2", "--trials", "1"])
        out, err = capsys.readouterr()
    assert code in (0, 1)
    assert json.loads(out)["samples"] == 2
    assert "error" not in err


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


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 12])
def test_sum_decode_is_bit_identical_to_reference(k):
    """Also across row blocks: at 2 _BLOCK + 1 trials and odd K the
    32-bit-buffered `integers` draw ends mid-word, before the dithers."""
    for trials in (5000, 2 * gauss_sim._BLOCK + 1):
        for c, m in ((1.0, 8), (3.0, 6)):
            lat = make_lattice(c, m)
            for sigma in (0.0, 0.02, 0.3):
                for seed in (0, 11, 2**40 + 3):
                    got = sum_decode_check(k, lat, sigma, trials, seed)
                    assert got == reference_sum_decode(k, lat, sigma, trials, seed)


@pytest.mark.parametrize("shape", [(2, 1000), (8, 257), (1000,), (5001, 3)])
def test_in_place_draws_give_the_bytes_of_normal_and_uniform(shape):
    """The kernels draw with standard_normal(out=b) then b += 0.0, and with
    random() * (high - low) + low; on one Philox key these are the bytes of
    normal(size=...) and uniform(low, high), which the pinned outputs were
    recorded with, compared byte for byte so a sign bit shows.  A numpy that
    changes either method fails here first."""
    def rng():
        return np.random.Generator(np.random.Philox(key=np.array([3, 7], dtype=np.uint64)))

    buf = np.empty(shape)
    rng().standard_normal(out=buf)
    buf += 0.0
    assert buf.tobytes() == rng().normal(size=shape).tobytes()
    low, high = -1.5, 1.5
    u = rng().random(size=shape)
    u *= high - low
    u += low
    assert u.tobytes() == rng().uniform(low, high, size=shape).tobytes()


@pytest.mark.parametrize("k", range(2, 13))
def test_sum_users_has_numpy_row_sum_bits(k):
    """Column adds below 8 users, numpy's pairwise row sums from 8 on: the
    bytes of x.sum(axis=1), signed zeros included, over magnitudes 1e-8 to
    1e8 where the summation order shows in the last bits."""
    rng = np.random.default_rng(k)
    x = rng.standard_normal((20_000, k)) * 10.0 ** rng.integers(-8, 9, size=(20_000, k))
    x[:4] = [[-0.0] * k, [0.0] * k, [-0.0] + [0.0] * (k - 1), [1e300] * k]
    assert gauss_sim._sum_users(x).tobytes() == x.sum(axis=1).tobytes()


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
    # a non-dyadic codebook: closed under mod-c addition, so closure_ok is true
    (("lattice-demo", "--coarse-step", "2", "--refinement", "5", "--users", "4",
      "--noise-sigma", "0.1", "--trials", "999", "--seed", "0"),
     0, "009c7212ec87b40abcc1a5d379b18ab030846b535dc8458ba1a5a36a4a0387e7"),
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


def test_make_lattice_codebook_is_read_only():
    """A lattice is a frozen value: its codebook cannot be written either."""
    lat = make_lattice(1.0, 4)
    with pytest.raises(ValueError, match="read-only"):
        lat.codebook[0] = 0.5


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


@st.composite
def _lattice_points(draw):
    """(c, M, x): a finite |x| <= 1e6, a coarse cell edge +-c/2, -0.0, or a
    multiple j s/2 of half a step s in {c, c/M}, where rounding x/s is a tie
    or a last-bit call."""
    c = draw(st.sampled_from((1.0, 0.3)))
    m = draw(st.sampled_from((2, 8, 10)))
    x = draw(st.floats(-1e6, 1e6) | st.sampled_from((c / 2, -c / 2, -0.0))
             | st.builds(lambda j, s: j * s / 2, st.integers(-10**5, 10**5),
                         st.sampled_from((c, c / m))))
    return c, m, x


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_lattice_points())
def test_lattice_maps_of_a_float_keep_the_scalar_bits(point):
    """mod_lattice and quantize_fine take one array path: on a float they
    return a 0-d array whose bytes are those of the scalar formulas
    x - c floor(x/c + 0.5) and f floor(x/f + 0.5), and of that entry of a
    call on an array."""
    c, m, x = point
    lat = make_lattice(c, m)
    f = lat.fine_step
    row = np.array([0.25, x, -x])
    for got, scalar, entry in (
        (mod_lattice(x, lat), x - c * np.floor(x / c + 0.5), mod_lattice(row, lat)[1]),
        (quantize_fine(x, lat), f * np.floor(x / f + 0.5), quantize_fine(row, lat)[1]),
    ):
        assert got.shape == ()
        assert got.tobytes() == np.float64(scalar).tobytes() == entry.tobytes()


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


@pytest.mark.parametrize("k,c,m,sigma,trials,seed", [
    (3, 1.0, 8, 0.02, 200_000, 1),
    (2, 3.0, 6, 0.15, 100_000, 2),  # M = 6 is not a power of two
    (8, 1.0, 8, 0.04, 50_000, 3),   # numpy sums 8 users pairwise
    (5, 1.0, 10, 0.03, 50_000, 4),  # fine step 0.1 is not a binary64 value
    (8, 2.5, 5, 0.2, 50_000, 5),
])
def test_noisy_successes_are_the_noise_draws_inside_the_fine_cell(k, c, m, sigma, trials, seed):
    """Dither cancellation plus codebook closure: a noisy trial decodes
    exactly when its noise, reduced mod the coarse step, lies inside the
    fine cell.  So the success count is the number of noise draws z with
    |mod_lattice(z)| < fine_step / 2, read from the same Philox stream after
    the codeword indices and the dithers."""
    lat = make_lattice(c, m)
    rate = sum_decode_check(k, lat, sigma, trials, seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rng.integers(0, m, size=(trials, k))
    rng.random(size=(trials, k))
    noise = rng.normal(0.0, sigma, size=trials)
    inside = int(np.count_nonzero(np.abs(mod_lattice(noise, lat)) < 0.5 * lat.fine_step))
    assert 0 < inside < trials  # the noise leaves the fine cell on some trials
    assert round(rate * trials) == inside


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
