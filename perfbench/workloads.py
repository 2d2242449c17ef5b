"""Inputs, operations and output checks of the four fcic benchmark workloads.

Every call into the package goes through a module attribute looked up at call
time (``schemes.build_scheme``, ``cli.main``, ...), so the spans that
``tracing.py`` rebinds on those modules see the benchmark's calls too.

An operation is one closed-loop request: a det configuration from prime
selection to its verify report, or one step of the Gaussian half.  Each op
returns an ``Outcome``; a wrong output or an untyped exception fails it, and
a typed infeasibility counts as infeasible only where the code the benchmark
was written against was infeasible too (``BASELINE_INFEASIBLE``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from fcic import channel, cli, gauss_sim, rates, schemes
from fcic.gf import SingularSystem

WORKLOADS = ("det-sweep", "det-large", "det-signed", "gauss")
SIZES = ("full", "tiny")

# Off-diagonal positions of a 3x3 sign matrix, row-major.  Sign matrix number
# ``i`` has -1 at position b when bit b of i is set, +1 otherwise.
_OFF_DIAG = [(r, c) for r in range(3) for c in range(3) if r != c]

# det-signed variants: (n, m, p); p None means auto-selected.
SIGNED_VARIANTS = ((2, 1, None), (1, 2, None), (2, 2, 5), (2, 2, 7))

# Sign matrices whose moderate (2, 2) variants at p = 5 and p = 7 raise
# NoSolution in the code this benchmark was written against, although
# qsym_converse says n/2: 20 matrices x 2 variants = 40 infeasible ops.  A later
# fix makes them feasible, which shows as fewer infeasible ops; the reverse move
# is a failure.
_INFEASIBLE_SIGNS = (6, 9, 11, 14, 15, 17, 24, 25, 28, 30,
                     34, 35, 36, 38, 43, 49, 51, 52, 53, 60)
BASELINE_INFEASIBLE = frozenset(
    ("det-signed", s, v) for s in _INFEASIBLE_SIGNS for v in (2, 3)
)

# sha256 of the gauss-gap CSV (stdout) on each size's grid, recorded from the
# code this benchmark was written against; CLI stdout must stay byte-identical.
GAP_GRID = {
    "full": ("logspace:1:1e8:100", "2,3,5,8"),
    "tiny": ("logspace:1:1e8:6", "2,3"),
}
GAP_SHA256 = {
    "full": "ae3198472922beb1616db8845d6be46075a8ad6d6104b318e99f39365b0ea7ba",
    "tiny": "58c0d78e0b0c278d453eab26926ae695afacf50993be76c266ed85291c041561",
}

# Harness gate on Monte Carlo estimates, in standard errors.  The program's own
# gates are 3 sigma, which at two MC ops x three gates fail about 1 seed in 100
# by chance; 5 sigma keeps the check able to catch a biased estimator without
# flaking over the many seeds a benchmark run uses.
MC_GATE_SIGMA = 5.0
LATTICE_GATE_SIGMA = 5.0


def sign_matrix(index: int) -> tuple[tuple[int, ...], ...]:
    lam = [[0] * 3 for _ in range(3)]
    for bit, (r, c) in enumerate(_OFF_DIAG):
        lam[r][c] = -1 if (index >> bit) & 1 else 1
    return tuple(tuple(row) for row in lam)


def det_capacity(K: int, n: int, m: int, signs=None) -> Fraction:
    """Converse rate, written out here so the check does not trust fcic.rates."""
    if m < n:
        return Fraction(2 * n - m, 2)
    if m > n:
        return Fraction(m, 2)
    if signs is None:
        return Fraction(n, K)
    a = [[signs[r][c] + (r == c) for c in range(3)] for r in range(3)]  # Lambda + I
    det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
           - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
           + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    return Fraction(n, 2) if det != 0 else Fraction(n, 3)


@dataclass(frozen=True)
class DetOp:
    key: tuple
    K: int
    n: int
    m: int
    p: int | None
    signs: tuple | None
    trials: int
    seed: int


@dataclass(frozen=True)
class GaussOp:
    key: tuple
    kind: str  # "gap", "mc" or "lattice"
    args: tuple


@dataclass
class Outcome:
    """What one op did.  ``seconds`` covers the program calls, not the checks."""

    ok: bool = True
    infeasible: bool = False
    error: str = ""
    seconds: float | None = None
    sessions: int = 0
    work: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    workload: str
    size: str
    ops: tuple
    cli_args: tuple


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _det_grid(workload: str, size: str):
    tiny = size == "tiny"
    if workload == "det-sweep":
        ks, levels, trials = ((2, 3), range(3), 3) if tiny else ((2, 3, 4, 5), range(7), 100)
        return [((K, n, m), K, n, m, None, None, trials)
                for K in ks for n in levels for m in levels if n + m >= 1]
    if workload == "det-large":
        ks, ns, ms, trials = ((3,), (16,), (32,), 1) if tiny else \
            ((3, 7, 8), (16, 32, 48, 64), (16, 32, 48, 64), 10)
        return [((K, n, m), K, n, m, None, None, trials)
                for K in ks for n in ns for m in sorted(set(ms) | {n - 1}) if m != n]
    indices, trials = ((0, 6), 2) if tiny else (range(64), 20)
    return [(("det-signed", s, v), 3, n, m, p, sign_matrix(s), trials)
            for s in indices for v, (n, m, p) in enumerate(SIGNED_VARIANTS)]


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """The workload's operations and CLI command, drawn from ``seed``.

    The seed shuffles the op order and picks every verify, message and Monte
    Carlo seed; the configurations themselves are fixed by the workload.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}/{seed}")
    tiny = size == "tiny"
    if workload == "gauss":
        snr_grid, k_list = GAP_GRID[size]
        gap = ("gauss-gap", "--snr-grid", snr_grid, "--inr-grid", snr_grid, "--k-list", k_list)
        mc_sizes = ((2, 1000, 2), (8, 500, 2)) if tiny else ((2, 200_000, 25), (8, 100_000, 10))
        ops = [GaussOp(("gap",), "gap", (gap, GAP_SHA256[size]))]
        ops += [GaussOp(("mc", k), "mc", (1.0, 10.0, k, block, trials, rng.randrange(2**31)))
                for k, block, trials in mc_sizes]
        ops.append(GaussOp(("lattice",), "lattice",
                           (3, 0.02, 10_000 if tiny else 1_000_000, rng.randrange(2**31))))
        return Inputs(workload, size, tuple(ops), gap)

    grid = _det_grid(workload, size)
    rng.shuffle(grid)
    ops = tuple(DetOp(key, K, n, m, p, signs, trials, rng.randrange(2**31))
                for key, K, n, m, p, signs, trials in grid)
    cli_seed = str(rng.randrange(2**31))
    if workload == "det-sweep":
        cmd = ("det-verify", "--k", "2", "--n", "2", "--m", "1", "--trials", "100") if tiny else \
            ("det-verify", "--k", "5", "--n", "6", "--m", "1", "--trials", "10000")
    elif workload == "det-large":
        cmd = ("det-verify", "--k", "3", "--n", "16", "--m", "8") if tiny else \
            ("det-verify", "--k", "8", "--n", "64", "--m", "32")
    else:
        # Sign matrix 6 exhausts every scanned prime (exit 3) in the baseline.
        cmd = ("det-verify", "--k", "3", "--n", "2", "--m", "2", "--signs", "{signs_file}")
        if tiny:
            cmd += ("--p", "5")
    return Inputs(workload, size, ops, cmd + ("--seed", cli_seed))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_op(op, memo: dict) -> Outcome:
    """Execute one op and check its outputs.  ``memo`` carries results across
    passes, so a repeated op must reproduce its earlier output exactly."""
    start = time.perf_counter()
    try:
        out = _run_det(op, start) if isinstance(op, DetOp) else _run_gauss(op, memo, start)
    except (SingularSystem, schemes.NoSolution) as exc:
        if op.key in BASELINE_INFEASIBLE:
            out = Outcome(infeasible=True)
        else:
            out = Outcome(ok=False, error=f"newly infeasible: {type(exc).__name__}: {exc}")
    except Exception as exc:  # an untyped exception is a failed op, not a crash
        out = Outcome(ok=False, error=f"{type(exc).__name__}: {exc}")
    if out.seconds is None:
        out.seconds = time.perf_counter() - start
    return out


def _run_det(op: DetOp, start: float) -> Outcome:
    scheme = schemes.build_scheme(op.K, op.n, op.m, p=op.p, signs=op.signs)
    report = schemes.verify_scheme(scheme.params, scheme, op.trials, op.seed)
    out = Outcome(seconds=time.perf_counter() - start, sessions=op.trials)
    expected = det_capacity(op.K, op.n, op.m, op.signs)
    problems = []
    if report.trials != op.trials or report.successes != op.trials:
        problems.append(f"{report.successes}/{op.trials} sessions decoded")
    if report.declared_rate != expected or not report.matches_converse:
        problems.append(f"declared rate {report.declared_rate} != converse {expected}")
    # One more session replayed here, so a decode error is caught even if the
    # verifier's own comparison were wrong.
    msgs = np.random.default_rng(op.seed + 1).integers(
        0, scheme.params.p, size=(op.K, scheme.msg_symbols))
    tr = channel.run_feedback_session(scheme.params, scheme, msgs)
    out.sessions += 1
    if not np.array_equal(np.asarray(tr.messages_out), msgs):
        problems.append("independent session decoded wrongly")
    if problems:
        out.ok, out.error = False, "; ".join(problems)
    return out


def _run_gauss(op: GaussOp, memo: dict, start: float) -> Outcome:
    if op.kind == "gap":
        argv, expected_sha256 = op.args
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(list(argv))
        seconds = time.perf_counter() - start
        csv = stdout.getvalue()
        problems = check_gap(rc, csv, stderr.getvalue(), expected_sha256)
        work = {"gap_points": csv.count("\n") - 1}
    elif op.kind == "mc":
        snr, inr, k, block, trials, seed = op.args
        cfg = gauss_sim.MCConfig(params=rates.GaussParams(snr=snr, inr=inr, k=k),
                                 block_len=block, trials=trials, seed=seed)
        stats = gauss_sim.simulate_strong_two_block(cfg)
        seconds = time.perf_counter() - start
        problems = check_mc(stats)
        if stats.samples != block * trials:
            problems.append(f"{stats.samples} samples, expected {block * trials}")
        result = stats.to_json_dict()
        if memo.setdefault(op.key, result) != result:
            problems.append("same seed gave different JSON")
        work = {"mc_samples": block * trials, "mc_gate3_misses": int(not stats.gates_ok)}
    else:
        users, sigma, trials, seed = op.args
        lat = gauss_sim.make_lattice(1.0, 8)
        rate = gauss_sim.sum_decode_check(users, lat, sigma, trials, seed)
        seconds = time.perf_counter() - start
        edge = lat.coarse_step / (2 * lat.refinement)
        predicted = 1.0 - 2.0 * gauss_sim.gaussian_tail(edge / sigma)
        se = math.sqrt(predicted * (1.0 - predicted) / trials)
        problems = []
        if abs(rate - predicted) > LATTICE_GATE_SIGMA * se:
            problems.append(f"sum-decode rate {rate} vs predicted {predicted}")
        work = {"lattice_trials": trials}
    return Outcome(ok=not problems, error="; ".join(problems), seconds=seconds, work=work)


def check_mc(stats) -> list[str]:
    """The three gates of ``EffectiveChannelStats.gates_ok`` at MC_GATE_SIGMA."""
    z = MC_GATE_SIGMA
    problems = []
    if abs(stats.noise_power_hat - stats.predicted_noise_power) > z * stats.noise_se:
        problems.append("noise power off its closed form")
    if stats.signal_power_hat < stats.predicted_signal_lb - z * stats.signal_se:
        problems.append("signal power below its lower bound")
    if stats.tx_power_hat > 1.0 + z * stats.tx_se:
        problems.append("transmit power above 1")
    return problems


def check_gap(rc: int, csv: str, stderr: str, expected_sha256: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"gauss-gap exit {rc}")
    if "violations=0" not in stderr:
        problems.append("gauss-gap reported gap violations")
    digest = hashlib.sha256(csv.encode()).hexdigest()
    if digest != expected_sha256:
        problems.append(f"gap CSV sha256 {digest} != {expected_sha256}")
    return problems


def check_cli(inputs: Inputs, rc: int, stdout: str, stderr: str) -> list[str]:
    """Exit code and output fields of the workload's ``python -m fcic`` run."""
    if inputs.workload == "gauss":
        return check_gap(rc, stdout, stderr, GAP_SHA256[inputs.size])
    flags = dict(zip(inputs.cli_args[1::2], inputs.cli_args[2::2]))
    if inputs.workload == "det-signed" and rc == 3:
        # the baseline outcome: every scanned prime exhausted, typed and on stderr
        return [] if stdout == "" and "infeasible" in stderr else ["exit 3 without a diagnosis"]
    if rc != 0:
        return [f"exit {rc}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    K, n, m = (int(flags[f]) for f in ("--k", "--n", "--m"))
    signs = sign_matrix(6) if "--signs" in flags else None
    expected = det_capacity(K, n, m, signs)
    trials = int(flags.get("--trials", 100))
    problems = []
    if report.get("trials") != trials or report.get("successes") != trials:
        problems.append(f"{report.get('successes')}/{trials} sessions decoded")
    rate = report.get("declared_rate", {})
    if Fraction(rate.get("num", 0), rate.get("den", 1)) != expected \
            or report.get("matches_converse") is not True:
        problems.append(f"declared rate {rate} != converse {expected}")
    return problems
