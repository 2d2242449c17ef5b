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

Randomness comes from numpy's counter-based Philox generator, keyed by
64-bit words, so a seed outside [0, 2^64) raises ValueError; the strong-
regime simulation derives one stream per trial, keyed by the two words
(trial index, seed), so distinct (seed, trial) pairs draw distinct streams,
trials are order-independent, and results for a given seed are
bit-reproducible.  The trials run concurrently on a thread pool sized to the
usable CPUs; each writes only its own slice of preallocated buffers, so the
estimates are the same bits for any CPU count.

Both kernels work in place and keep the floating-point operations, and their
association, of the plain out-of-place formulas, so their output bits are
those formulas' bits.  They draw into their own arrays with two identities
that give the bytes of numpy's `normal` and `uniform`, signed zeros included:
`standard_normal(out=b)` then `b += 0.0` is `normal()`'s 0.0 + 1.0 z, and
`random()` times (high - low) plus low is `uniform(low, high)`.  The
arithmetic after the draws runs on blocks of `_BLOCK` columns (Monte Carlo)
or rows (lattice), so each block's working set stays in L2 instead of every
pass streaming whole arrays from memory; no operation crosses a block.
A Monte Carlo trial overwrites its own draws (z1 becomes x2) and allocates
one block-length sum per block; each sample buffer's mean and standard error
follow numpy's `mean`/`std` arithmetic on the buffer itself.  The lattice
check sums over users by adding columns left to right, which is numpy's own
order for a row of fewer than 8 terms; from 8 terms numpy sums a row
pairwise, so there the sum is `x.sum(axis=1)` itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .rates import GaussParams, RegimeMismatch

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

# columns (Monte Carlo) or rows (lattice) per block: a block's working set
# stays in L2, where the whole arrays stream from memory once per pass
_BLOCK = 16_384


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:  # a wider seed would alias the one it equals mod 2^64
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([trial, seed], dtype=np.uint64)
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
        if self.block_len * self.trials < 2:
            raise ValueError("need block_len * trials >= 2 samples for the standard errors")
        _check_seed(self.seed)

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
    """Empirical vs. predicted powers of the zero-forced effective channel.

    `samples`, the number of user-0 samples behind each estimate, is read
    off the configuration: block_len * trials.
    """

    config: MCConfig
    signal_power_hat: float
    noise_power_hat: float
    predicted_noise_power: float
    predicted_signal_lb: float
    signal_se: float
    noise_se: float
    tx_power_hat: float
    tx_se: float

    @property
    def samples(self) -> int:
        return self.config.block_len * self.config.trials

    def gate_failures(self) -> list[str]:
        """One line per failed three-sigma gate (noise power, signal power,
        unit transmit power), with its estimate, bound and standard error."""
        failures = []
        if not abs(self.noise_power_hat - self.predicted_noise_power) <= 3 * self.noise_se:
            failures.append(
                f"gate failed: noise estimate={self.noise_power_hat!r} "
                f"predicted={self.predicted_noise_power!r} se={self.noise_se!r} "
                f"(needs |estimate - predicted| <= 3 se)"
            )
        if not self.signal_power_hat >= self.predicted_signal_lb - 3 * self.signal_se:
            failures.append(
                f"gate failed: signal estimate={self.signal_power_hat!r} "
                f"lower_bound={self.predicted_signal_lb!r} se={self.signal_se!r} "
                f"(needs estimate >= lower_bound - 3 se)"
            )
        if not self.tx_power_hat <= 1.0 + 3 * self.tx_se:
            failures.append(
                f"gate failed: tx estimate={self.tx_power_hat!r} "
                f"bound=1.0 se={self.tx_se!r} (needs estimate <= bound + 3 se)"
            )
        return failures

    @property
    def gates_ok(self) -> bool:
        """Three-sigma agreement gates on noise power, signal power, and the
        unit transmit power constraint."""
        return not self.gate_failures()

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

    Only user 0's combiner path (y1, y2 and z2 of row 0) is computed, in
    place on the trial's draws (`_two_block_trial`); x2 is computed for every
    user because its row-by-row sum feeds y2.  The trials run on a thread
    pool of W = min(trials, usable CPUs) workers; worker w allocates its draw
    buffers c, z1 (K, T) and z2 (T,) once and runs trials w, w + W, ...,
    filling them with `standard_normal(out=...)` and `+= 0.0`, the bytes of
    the `normal()` draws.  The trial body and the squares run on column
    blocks of `_BLOCK`; the sums over users add whole rows in order, the same
    on a block as on the whole array.  No block is one column wide unless
    the whole array is: numpy sums a (K, 1) view pairwise from K = 8 on, so
    a one-column tail joins the block before it.  Each trial writes its
    squared samples into its own slice of three preallocated
    (trials * block_len,) buffers, and the pool then takes each buffer's
    mean and standard error in place (`_mean_and_se`), the three
    concurrently.  The estimates are
    bit-identical to an all-users loop that concatenates per-trial arrays,
    for any CPU count.  The transmit-power gate is not enforced here:
    ``gates_ok`` reports it.
    """
    # imported here so that `import fcic` does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    s, i, k = cfg.params.snr, cfg.params.inr, cfg.params.k
    if i < 2 * max(s, 1.0):
        raise RegimeMismatch(
            f"strong regime needs INR >= 2 max(SNR, 1), got SNR={s}, INR={i}"
        )
    t_len = cfg.block_len
    n = cfg.trials * t_len
    sig_sq = np.empty(n)
    noise_sq = np.empty(n)
    tx_sq = np.empty(n)
    workers = min(cfg.trials, len(os.sched_getaffinity(0)))
    # column blocks [a, b), with no one-column tail (see the docstring)
    ends = [*range(_BLOCK, t_len - 1, _BLOCK), t_len]
    blocks = list(zip([0, *ends], ends))

    def run_worker(first: int) -> None:
        c, z1, z2 = np.empty((k, t_len)), np.empty((k, t_len)), np.empty(t_len)
        for trial in range(first, cfg.trials, workers):
            rng = _trial_rng(cfg.seed, trial)
            # normal() draws in this order (z2 is row 0 of a (k, t_len) draw)
            # and returns 0.0 + 1.0 z: the += 0.0 turns -0.0 into +0.0 as it does
            for buf in (c, z1, z2):
                rng.standard_normal(out=buf)
                buf += 0.0
            base = trial * t_len
            for a, b in blocks:
                part = slice(base + a, base + b)
                sig = sig_sq[part]
                resid, tx = _two_block_trial(c[:, a:b], z1[:, a:b], z2[a:b], s, i, sig)
                np.square(sig, out=sig)
                np.square(resid, out=noise_sq[part])
                np.square(tx, out=tx_sq[part])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_worker, range(workers)))
        # the closed forms first: (INR - SNR)^2 beyond binary64 raises
        # OverflowError before the statistics can warn
        predicted_noise_power = (k * k * i + 1.0) / (k * i + 1.0)
        predicted_signal_lb = (i - s) ** 2 / (k * i + 1.0)
        (signal_power_hat, signal_se), (noise_power_hat, noise_se), (tx_power_hat, tx_se) = (
            pool.map(_mean_and_se, (sig_sq, noise_sq, tx_sq))
        )
    return EffectiveChannelStats(
        config=cfg,
        signal_power_hat=signal_power_hat,
        noise_power_hat=noise_power_hat,
        predicted_noise_power=predicted_noise_power,
        predicted_signal_lb=predicted_signal_lb,
        signal_se=signal_se,
        noise_se=noise_se,
        tx_power_hat=tx_power_hat,
        tx_se=tx_se,
    )


def _two_block_trial(c, z1, z2, snr: float, inr: float, sig: np.ndarray):
    """User 0's two-block combiner on one trial's draws, in place.

    `c` and `z1` are the (K, T) codewords and block-1 noises, `z2` user 0's
    (T,) block-2 noise.  Writes coef * c[0] into `sig` and returns
    (y_tilde - sig, x2[0]): the residual noise and user 0's block-2 input.
    Overwrites `c` (row 1 ends as y1) and `z1` (it becomes x2; the returned
    x2[0] is its row 0), and allocates one (T,) array, `tot`, which ends as
    the residual.  Each step performs the operations of the formula
    in its comment with their association kept; only operands of + and *
    trade places, which IEEE arithmetic allows.  The combiner is linear in the
    draws, so unit-vector columns give its coefficients exactly.
    """
    k = c.shape[0]
    root_s, root_i = math.sqrt(snr), math.sqrt(inr)
    gamma = 1.0 / math.sqrt(k * inr + 1.0)
    comb = gamma * (root_s + (k - 1) * root_i)
    np.multiply(c[0], zero_forcing_signal_coef(snr, inr, k), out=sig)
    tot = c.sum(axis=0)
    # y1 = sqrt(SNR) c0 + sqrt(INR) (tot - c0) + z1[0], built in row 1
    y1 = np.subtract(tot, c[0], out=c[1])
    y1 *= root_i
    c[0] *= root_s
    y1 += c[0]
    y1 += z1[0]
    # x2 = gamma (sqrt(INR) tot + z1) for all K rows: tot2 sums x2 row by
    # row, and that order fixes its bits
    tot *= root_i
    x2 = z1
    x2 += tot
    x2 *= gamma
    # y2 = sqrt(SNR) x2[0] + sqrt(INR) (tot2 - x2[0]) + z2, built in tot
    y2 = np.sum(x2, axis=0, out=tot)
    y2 -= x2[0]
    y2 *= root_i
    y2 += np.multiply(x2[0], root_s, out=c[0])
    y2 += z2
    # y_tilde = y2 - comb y1, then the residual y_tilde - sig
    y1 *= comb
    y2 -= y1
    y2 -= sig
    return y2, x2[0]


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """(x.mean(), x.std(ddof=1) / sqrt(n)) with numpy's own arithmetic
    (`_mean`, `_var`: sum / n, subtract the mean, square, sum / (n - 1),
    sqrt), one sum for both and no temporary.  Overwrites `x`."""
    n = x.size
    mean = float(x.sum() / n)
    x -= mean
    np.square(x, out=x)
    return mean, math.sqrt(float(x.sum() / (n - 1))) / math.sqrt(n)


# ---------------------------------------------------------------------------
# 1-D nested lattice toy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedLattice1D:
    """Nested pair (coarse step c, fine step c/M) with its codebook.

    The codebook is the M fine-lattice points inside the coarse Voronoi cell
    [-c/2, c/2), so it is closed under mod-c addition.
    """

    coarse_step: float
    refinement: int
    codebook: np.ndarray

    @property
    def fine_step(self) -> float:
        return self.coarse_step / self.refinement


def make_lattice(c: float, m: int) -> NestedLattice1D:
    """Build the 1-D nested pair c*Z inside (c/M)*Z with its M-point codebook."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"coarse step must be positive and finite, got {c}")
    if m < 2:
        raise ValueError(f"refinement must be >= 2, got {m}")
    if not c / m > 0:
        raise ValueError(f"coarse step {c} leaves no nonzero fine step c/{m} in binary64")
    pts = (c / m) * np.arange(m)
    pts = pts - _round_to_step(pts, c)
    lat = NestedLattice1D(coarse_step=float(c), refinement=int(m),
                          codebook=np.sort(pts))
    lat.codebook.setflags(write=False)
    return lat


def mod_lattice(x, lat: NestedLattice1D) -> np.ndarray:
    """x - c floor(x/c + 0.5): x minus its nearest coarse point, canonicalised
    into [-c/2, c/2), as one new float64 array of x's shape (0-d for a
    float, with the bits of the same formula in Python floats).

    A point exactly on a cell boundary maps to the lower edge -c/2 (so the
    canonical window is genuinely half-open).
    """
    nearest = _round_to_step(x, lat.coarse_step)
    return np.subtract(x, nearest, out=nearest)


def quantize_fine(x, lat: NestedLattice1D) -> np.ndarray:
    """Nearest fine-lattice point, with the same boundary rule and return
    type as mod_lattice."""
    return _round_to_step(x, lat.fine_step)


def _round_to_step(x, step: float) -> np.ndarray:
    """step * floor(x / step + 0.5), in one new float64 array of x's shape."""
    out = np.divide(x, step, out=np.empty(np.shape(x)))
    out += 0.5
    np.floor(out, out=out)
    out *= step
    return out


def _sum_users(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1) for a (trials, K) array, with numpy's bits.

    Below 8 terms numpy adds a row left to right, starting from +0.0; adding
    whole columns in that order is the same arithmetic and several times
    faster at K = 3, where numpy makes one short reduction per row.  From 8
    terms on numpy sums each row pairwise (8 accumulators), an order that
    column adds would not reproduce, so x.sum(axis=1) runs there.
    """
    if x.shape[1] >= 8:
        return x.sum(axis=1)
    out = np.add(x[:, 0], x[:, 1])
    for j in range(2, x.shape[1]):
        out += x[:, j]
    out += 0.0  # an all -0.0 row sums to +0.0, as numpy's does
    return out


@np.errstate(over="raise", invalid="raise")
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
    noise the decision is a uniform guess over the M cosets.  A sum or noise
    draw beyond the binary64 range raises FloatingPointError.

    All draws come first, in stream order: the codeword indices, the
    dithers (`random()` scaled to [-c/2, c/2), the bytes of `uniform`) and
    the noise.  The decoding then runs on blocks of `_BLOCK` trials and the
    successes are counted as an int, divided once: the value of `np.mean`
    over all trials.  It stays in the calling thread, because the
    `np.errstate` that turns overflow into FloatingPointError does not carry
    into pool threads.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 users, got {k}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not (noise_sigma >= 0 and math.isfinite(noise_sigma)):
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {noise_sigma}")
    _check_seed(seed)
    c = lat.coarse_step
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = rng.integers(0, lat.refinement, size=(trials, k))
    # uniform(low, high) is low + (high - low) u with u = random()
    low, high = -c / 2, c / 2
    d = rng.random(size=(trials, k))
    d *= high - low
    d += low
    noise = rng.normal(0.0, noise_sigma, size=trials) if noise_sigma > 0 else None
    successes = 0
    for a in range(0, trials, _BLOCK):
        rows = slice(a, a + _BLOCK)
        s = lat.codebook[idx[rows]]
        truth = mod_lattice(_sum_users(s), lat)
        dither_sum = _sum_users(d[rows])
        s -= d[rows]  # the transmitted points before reduction mod c
        s = mod_lattice(s, lat)
        received = _sum_users(s)
        if noise is not None:
            received += noise[rows]
        received += dither_sum
        folded = mod_lattice(received, lat)
        decoded = mod_lattice(quantize_fine(folded, lat), lat)
        # same fine-lattice coset on the circle; exact for power-of-two M and
        # immune to last-ulp dust from the float dither cancellation otherwise
        decoded -= truth
        err = np.abs(mod_lattice(decoded, lat))
        successes += int(np.count_nonzero(err < 0.5 * lat.fine_step))
    return successes / trials
