"""Monte Carlo checks of the Gaussian signal algebra.

Two independent pieces:

* a two-block zero-forcing simulation for the strong-interference regime,
  verifying the effective channel's signal and noise powers against their
  closed forms with i.i.d. Gaussian surrogate codewords;

* a one-dimensional nested-lattice toy (coarse step c, fine step c/M) that
  exercises the structural pipeline behind the weak-regime scheme: mod-sum
  closure of the codebook, dither cancellation, and decoding of a sum of
  codewords in noise.  It deliberately validates the algebra, not the rate
  claims, which rest on high-dimensional lattices that exist but are not
  constructed.

Randomness comes from numpy's counter-based Philox generator; the strong-
regime simulation derives one stream per trial, keyed by the two words
(trial index, seed), so distinct (seed, trial) pairs draw distinct streams,
trials are order-independent, and results for a given seed are
bit-reproducible.  The trials run concurrently on a thread pool sized to the
usable CPUs; each writes only its own slice of preallocated buffers, so the
estimates are the same bits for any CPU count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rates import GaussParams
from .schemes import RegimeMismatch

__all__ = [
    "MCConfig",
    "EffectiveChannelStats",
    "NestedLattice1D",
    "RNG_NAME",
    "zero_forcing_signal_coef",
    "simulate_strong_two_block",
    "make_lattice",
    "mod_lattice",
    "quantize_fine",
    "sum_decode_check",
    "gaussian_tail",
]

RNG_NAME = "philox"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([trial, seed & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_tail(x: float) -> float:
    """Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# strong-regime two-block zero-forcing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run description for the strong-regime simulation."""

    params: GaussParams
    block_len: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.block_len < 1 or self.trials < 1:
            raise ValueError("block_len and trials must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "snr": self.params.snr,
            "inr": self.params.inr,
            "k": self.params.k,
            "block_len": self.block_len,
            "trials": self.trials,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class EffectiveChannelStats:
    """Empirical vs. predicted powers of the zero-forced effective channel."""

    config: MCConfig
    signal_power_hat: float
    noise_power_hat: float
    predicted_noise_power: float
    predicted_signal_lb: float
    samples: int
    signal_se: float
    noise_se: float
    tx_power_hat: float
    tx_se: float

    @property
    def gates_ok(self) -> bool:
        """Three-sigma agreement gates on noise power, signal power, and the
        unit transmit power constraint."""
        return (
            abs(self.noise_power_hat - self.predicted_noise_power) <= 3 * self.noise_se
            and self.signal_power_hat >= self.predicted_signal_lb - 3 * self.signal_se
            and self.tx_power_hat <= 1.0 + 3 * self.tx_se
        )

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "signal_power_hat": self.signal_power_hat,
            "noise_power_hat": self.noise_power_hat,
            "predicted_noise_power": self.predicted_noise_power,
            "predicted_signal_lb": self.predicted_signal_lb,
            "samples": self.samples,
            "rng": f"{RNG_NAME}/{self.config.seed}",
        }


def zero_forcing_signal_coef(snr: float, inr: float, k: int) -> float:
    """Coefficient of the intended codeword after the two-block combiner:
    gamma (sqrt(SNR) + (K-1) sqrt(INR)) (sqrt(INR) - sqrt(SNR)).

    Vanishes exactly at INR = SNR, where the combiner that nulls the
    interference nulls the signal too.
    """
    gamma = 1.0 / math.sqrt(k * inr + 1.0)
    return gamma * (math.sqrt(snr) + (k - 1) * math.sqrt(inr)) * (math.sqrt(inr) - math.sqrt(snr))


def simulate_strong_two_block(cfg: MCConfig) -> EffectiveChannelStats:
    """Monte Carlo replay of the strong-regime two-block scheme.

    Block 1 sends unit-power Gaussian surrogate codewords c_k; block 2
    resends the fed-back residual x_k2 = gamma (sqrt(INR) sum_i c_i + z_k1)
    with gamma = 1/sqrt(K INR + 1); the receiver combines
    y_k2 - gamma (sqrt(SNR) + (K-1) sqrt(INR)) y_k1, which cancels every
    cross codeword.  The residual-noise power must match
    (K^2 INR + 1)/(K INR + 1) and the signal power must not fall below
    (INR - SNR)^2 / (K INR + 1).  Statistics are gathered from user 0
    (users are exchangeable), one Philox stream per trial.

    Only user 0's combiner path (y1, y2 and z2 of row 0) is computed; x2 is
    computed for every user because its row-by-row sum feeds y2.  Each trial
    squares its samples straight into its own slice of three preallocated
    (trials * block_len,) buffers, and the trials run on a thread pool of
    min(trials, usable CPUs) workers.  The estimates are bit-identical to an
    all-users loop that concatenates per-trial arrays, for any CPU count.
    The transmit-power gate is not enforced here: ``gates_ok`` reports it.
    """
    # imported here so that `import fcic` does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    s, i, k = cfg.params.snr, cfg.params.inr, cfg.params.k
    if i < 2 * max(s, 1.0):
        raise RegimeMismatch(
            f"strong regime needs INR >= 2 max(SNR, 1), got SNR={s}, INR={i}"
        )
    t_len = cfg.block_len
    gamma = 1.0 / math.sqrt(k * i + 1.0)
    comb = gamma * (math.sqrt(s) + (k - 1) * math.sqrt(i))
    coef = zero_forcing_signal_coef(s, i, k)

    n = cfg.trials * t_len
    sig_sq = np.empty(n)
    noise_sq = np.empty(n)
    tx_sq = np.empty(n)

    def run_trial(trial: int) -> None:
        rng = _trial_rng(cfg.seed, trial)
        c = rng.normal(size=(k, t_len))
        z1 = rng.normal(size=(k, t_len))
        # the last draw on the stream: row 0 of a (k, t_len) draw
        z2 = rng.normal(size=t_len)
        tot = c.sum(axis=0)
        y1 = math.sqrt(s) * c[0] + math.sqrt(i) * (tot - c[0]) + z1[0]
        # all K rows: tot2 sums x2 row by row, and that order fixes its bits
        x2 = gamma * (math.sqrt(i) * tot + z1)
        tot2 = x2.sum(axis=0)
        y2 = math.sqrt(s) * x2[0] + math.sqrt(i) * (tot2 - x2[0]) + z2
        y_tilde = y2 - comb * y1
        sig = coef * c[0]
        part = slice(trial * t_len, (trial + 1) * t_len)
        np.square(sig, out=sig_sq[part])
        np.square(y_tilde - sig, out=noise_sq[part])
        np.square(x2[0], out=tx_sq[part])

    workers = min(cfg.trials, len(os.sched_getaffinity(0)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_trial, range(cfg.trials)))

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


# ---------------------------------------------------------------------------
# 1-D nested lattice toy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedLattice1D:
    """Nested pair (coarse step c, fine step c/M) with its codebook.

    The codebook is the M fine-lattice points inside the coarse Voronoi cell
    [-c/2, c/2), so it is closed under mod-c addition.  The second moment of
    the coarse cell is c^2/12.
    """

    coarse_step: float
    refinement: int
    codebook: np.ndarray

    @property
    def fine_step(self) -> float:
        return self.coarse_step / self.refinement

    @property
    def second_moment(self) -> float:
        return self.coarse_step**2 / 12.0


def make_lattice(c: float, m: int) -> NestedLattice1D:
    """Build the 1-D nested pair c*Z inside (c/M)*Z with its M-point codebook."""
    if c <= 0:
        raise ValueError(f"coarse step must be positive, got {c}")
    if m < 2:
        raise ValueError(f"refinement must be >= 2, got {m}")
    pts = (c / m) * np.arange(m)
    pts = pts - c * np.floor(pts / c + 0.5)
    lat = NestedLattice1D(coarse_step=float(c), refinement=int(m),
                          codebook=np.sort(pts))
    lat.codebook.setflags(write=False)
    return lat


def mod_lattice(x, lat: NestedLattice1D):
    """x minus its nearest coarse point, canonicalised into [-c/2, c/2).

    A point exactly on a cell boundary maps to the lower edge -c/2 (so the
    canonical window is genuinely half-open).
    """
    c = lat.coarse_step
    return x - c * np.floor(x / c + 0.5)


def quantize_fine(x, lat: NestedLattice1D):
    """Nearest fine-lattice point, with the same boundary rule as mod_lattice."""
    f = lat.fine_step
    return f * np.floor(x / f + 0.5)


def sum_decode_check(
    k: int, lat: NestedLattice1D, noise_sigma: float, trials: int, seed: int
) -> float:
    """Success rate of decoding the mod-c sum of K dithered codewords.

    Each user sends c_i = mod(s_i - d_i) with an independent dither d_i
    uniform on the coarse cell; the receiver sees the sum plus Gaussian
    noise, adds back the dithers, reduces mod c, and quantises to the fine
    lattice.  With zero noise the dithers cancel identically, so success is
    certain; with small noise the decision fails when the noise leaves the
    fine cell (|z| > c/(2M), probability ~ 2 Q(c/(2 M sigma))); with huge
    noise the decision is a uniform guess over the M cosets.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 users, got {k}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    c = lat.coarse_step
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    s = lat.codebook[rng.integers(0, lat.refinement, size=(trials, k))]
    d = rng.uniform(-c / 2, c / 2, size=(trials, k))
    dither_sum = d.sum(axis=1)
    truth = mod_lattice(s.sum(axis=1), lat)
    s -= d  # the transmitted points before reduction mod c
    del d
    received = mod_lattice(s, lat).sum(axis=1)
    del s
    if noise_sigma > 0:
        received = received + rng.normal(0.0, noise_sigma, size=trials)
    folded = mod_lattice(received + dither_sum, lat)
    decoded = mod_lattice(quantize_fine(folded, lat), lat)
    # same fine-lattice coset on the circle; exact for power-of-two M and
    # immune to last-ulp dust from the float dither cancellation otherwise
    err = np.abs(mod_lattice(decoded - truth, lat))
    return float(np.mean(err < 0.5 * lat.fine_step))
