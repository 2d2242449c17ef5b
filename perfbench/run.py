#!/usr/bin/env python3
"""Benchmark of fcic, run from the root of a checkout:

    python3 perfbench/run.py --workload det-sweep --seed 1 --seconds 22 --trace 0

The package is imported from ``src/`` as it stands; nothing is installed or
built.  One benchmark process runs the workload as a closed loop with a single
client, one op at a time.  Set-up probes and ``python -m fcic`` subprocesses
run one after another, between passes.  BLAS/OpenMP threads are capped at
the CPUs this process may use.  The last stdout line is the result object; the
line before it is a detail object with the environment stamp, every raw sample
and the per-workload rates.  Files go to ``.bench_out/`` in the checkout.  The
self-test is ``python3 -m pytest perfbench/tests``.

Workloads, and why each was chosen
----------------------------------
det-sweep   K 2..5, 0 <= n, m <= 6: the 192 configurations of the paper's
            headline check, auto prime, 100 verify trials each.  Session replay
            (``run_feedback_session`` -> ``apply_channel``) dominates, so a
            batched linear replay shows here.
det-large   K 3, 7, 8 with n 16..64 and m in {16, 32, 48, 64, n-1}, m != n: 48
            configurations with q up to 64, 10 trials each.  Elimination on
            2q x 2q decode matrices dominates, the prime scan rebuilds the strong
            configurations singular over GF(2) and GF(3), and ``select_prime``
            builds a scheme that ``build_scheme`` builds again.  Replay runs
            with wide, few sessions: a replay change that helps small q and
            hurts large q shows.
det-signed  all 64 K = 3 sign matrices x {weak (2,1) auto p, strong (1,2) auto p,
            moderate (2,2) at p 5, at p 7}: 256 ops, 20 trials each.  The
            alignment solver (``qsym_solve`` and its ``moderate_margin`` ->
            ``GfMatrix.det`` checks) dominates; 40 ops are infeasible (typed
            NoSolution) in the baseline.  No other workload calls the solver.
gauss       the 40 000-point gap sweep through ``cli.main`` in-process (100 x 100
            logspace 1..1e8 x K {2,3,5,8}), strong-regime Monte Carlo at K = 2
            (block 2e5, 25 trials) and K = 8 (block 1e5, 10 trials), and a noisy
            ``sum_decode_check`` with 1e6 trials.  Per-point scalar Python next to
            allocation-heavy numpy; none of the det layers run.

End-to-end metrics (--trace 0, every workload)
----------------------------------------------
A run makes a pass over all ops, then repeats {one set-up probe; one CLI
process; one pass} until --seconds have gone and at least three passes are
done, and reports medians.  Times are in calibrated seconds.  On the shared
2-vCPU VM this was written on, co-tenants change the speed of a pure-Python
loop by up to 2x between 10-second windows: across seeds of det-signed, raw
pass times spread 0.24-0.33 (quartile distance over median), the CLI's 0.30.
So each op is timed between two runs of ``calibrate()``, a fixed ~1.5 ms mix of
interpreter work and small numpy ops, and scaled by CALIBRATION_REF_S over
their mean (spread 0.04).  A subprocess lasts too long for its ends to say how
fast the machine ran; it runs pinned to one CPU beside a calibration loop in
this process, and its CPU seconds are scaled by that loop's median kernel time
(spread of single det-signed CLI runs 0.33 raw, 0.12 scaled).  With both, ten
seeds per workload at --seconds 22 spread at most 0.11 on every end-to-end
time (most below 0.07).  Raw op times are in the detail line.
setup_s      fresh interpreter until ``import fcic``, ``fcic.cli`` and the inputs
             are done; median over the probes, after one untimed probe.
wall_s       one pass of the workload: the sum over its ops of each op's median
             latency in the run.
op_p50_ms    median over the ops of their median latency.  A det op runs from
             prime selection to the verify report; a gauss op is one step's call.
op_tail_ms   the highest of p99.9/99/95/90/75 over the ops' median latencies
             that leaves at least ten ops above it: p90 on det-sweep, p75 on
             det-large, p95 on det-signed; the gauss pass has four ops, so its
             tail is the slowest step.
cli_s        the workload's ``python -m fcic`` command, start to exit; median.
peak_rss_mb  peak resident set of the benchmark process.
The figures a workload has and others lack (configs/s, sessions/s, gap
points/s, MC samples/s, lattice trials/s, failed-op fraction, infeasible ops)
are in the detail line and, from the untraced passes of a --trace 1 run, are
the ``run.*`` per-layer metrics: an end-to-end metric must exist, non-zero, on
every workload.

Per-layer metrics (--trace 1) and the end-to-end metric each should move
------------------------------------------------------------------------
gf.echelon/det/nullspace     wall_s, op_* on det-large (most) and det-signed
                             (moderate_margin -> det); little on det-sweep.
channel.session/apply        wall_s on det-sweep (session self time includes the
                             scheme's encoder and decoder closures); little else.
schemes.select_prime, prime_scan, build, verify
                             wall_s, op_* on det-large and det-signed.
qsym.solve, nullspace_dim, margin_checks
                             wall_s, op_tail_ms, run.infeasible_ops on det-signed.
rates.gap_report, cli.main   wall_s and cli_s on gauss.
gauss_sim.mc, gauss_sim.lattice
                             wall_s and peak_rss_mb on gauss.
Counts are per pass; self times (raw seconds) are the median traced pass.  A
--trace 1 run alternates untraced and traced passes, and ``trace.overhead_frac``
is the calibrated traced pass over the untraced one, minus 1.  Measured on that
VM (two seeds each): det-sweep 0.03-0.05, det-signed 0.07-0.11 (69 200
``det`` spans a pass), det-large and gauss within the noise (-0.05 to 0.0).
Counts that must repeat exactly (qsym.margin_checks, schemes.prime_scan.tries,
qsym.nullspace_dim, run.infeasible_ops) are compared across passes and with
earlier runs of the same source in this checkout; a drift fails the run.

Output checks: a det op must decode every session bit-exactly (the verifier's
count and one more session replayed here) at a declared rate equal to the
converse, written out in ``workloads.det_capacity``.  gauss checks the gap CSV's
sha256 and ``violations=0``, the Monte Carlo gates at 5 sigma, that the same MC
seed gives identical JSON on every pass, and the lattice success rate.  A typed
NoSolution/SingularSystem counts as infeasible only where the baseline was
infeasible; anything else wrong fails the op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# Calibration kernel time that defines the benchmark's second: a measured time t
# is reported as t * CALIBRATION_REF_S / (kernel time measured around it).
CALIBRATION_REF_S = 1.2e-3
CLI_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
GUARDED_COUNTS = ("qsym.margin_checks", "schemes.prime_scan.tries",
                  "qsym.nullspace_dim", "run.infeasible_ops")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cli_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "gf.echelon.calls": "count", "gf.echelon.self_s": "s", "gf.echelon.cells": "count",
    "gf.det.calls": "count", "gf.det.self_s": "s",
    "gf.nullspace.calls": "count", "gf.nullspace.self_s": "s",
    "channel.session.calls": "count", "channel.session.self_s": "s",
    "channel.apply.calls": "count", "channel.apply.self_s": "s",
    "schemes.select_prime.calls": "count", "schemes.select_prime.self_s": "s",
    "schemes.prime_scan.tries": "count", "schemes.prime_scan.hit_ratio": "ratio",
    "schemes.build.calls": "count", "schemes.build.self_s": "s",
    "schemes.verify.calls": "count", "schemes.verify.self_s": "s",
    "schemes.verify.trials": "count",
    "qsym.solve.calls": "count", "qsym.solve.self_s": "s", "qsym.solve.found_ratio": "ratio",
    "qsym.nullspace_dim": "count", "qsym.margin_checks": "count",
    "rates.gap_report.calls": "count", "rates.gap_report.self_s": "s",
    "rates.gap_report.points": "count",
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "gauss_sim.mc.calls": "count", "gauss_sim.mc.self_s": "s", "gauss_sim.mc.samples": "count",
    "gauss_sim.mc.peak_alloc_mb": "MB", "gauss_sim.mc.bytes_computed": "bytes",
    "gauss_sim.lattice.calls": "count", "gauss_sim.lattice.self_s": "s",
    "gauss_sim.lattice.trials": "count",
    "run.configs_per_s": "1/s", "run.sessions_per_s": "1/s", "run.gap_points_per_s": "1/s",
    "run.mc_samples_per_s": "1/s", "run.lattice_trials_per_s": "1/s",
    "run.failed_ops_frac": "frac", "run.infeasible_ops": "count",
    "trace.overhead_frac": "frac",
}
_COUNTS = ("gf.echelon.cells", "schemes.verify.trials", "qsym.nullspace_dim",
           "qsym.margin_checks", "rates.gap_report.points", "gauss_sim.mc.samples",
           "gauss_sim.mc.bytes_computed", "gauss_sim.lattice.trials",
           "schemes.prime_scan.tries")


def thread_caps() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {v: n for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **thread_caps())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fcic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit, "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_caps": thread_caps(), "workload": args.workload, "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
    }


def calibrate(clock=time.perf_counter) -> float:
    """Seconds for a fixed mix of interpreter work and small numpy ops, about
    the mix of a det op.  Measured next to every timed sample so a sample taken
    while co-tenants slow the CPU can be scaled back."""
    import numpy as np

    start = clock()
    total = 0
    for j in range(20_000):
        total += j
    a = np.arange(64)
    for _ in range(60):
        a = (a * 3 + 1) % 7
    return clock() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A measured time in the benchmark's calibrated seconds."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def tail_percentile(n_ops: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n_ops`` above it."""
    return next((q for q in TAIL_LADDER if n_ops * (100 - q) / 100 >= 10), None)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, int(-(-len(ordered) * q // 100))) - 1]


# ---------------------------------------------------------------------------
# subprocess measurements
# ---------------------------------------------------------------------------

def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_run(cmd: list[str], what: str, problems: list[str]):
    """Run ``cmd`` to exit on one CPU, shared with a calibration loop in this
    process; returns (the child's CPU seconds in calibrated seconds, its exit
    code, stdout, stderr), or None on a timeout.

    The loop's CPU time per kernel measures the speed of that CPU over the same
    seconds the child runs, which calibration at the ends of a multi-second
    sample cannot.  The child's output goes to files so it never blocks on a
    full pipe while this process is busy.
    """
    cpus = os.sched_getaffinity(0)
    out_path, err_path = OUT / "child-stdout.txt", OUT / "child-stderr.txt"
    deadline = time.monotonic() + CLI_TIMEOUT_S
    kernels: list[float] = []
    os.sched_setaffinity(0, {min(cpus)})
    try:
        used = children_cpu()
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err) as proc:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    problems.append(f"{what} timed out")
                    return None
                kernels.append(calibrate(time.thread_time))
        cpu = children_cpu() - used
        if not kernels:
            kernels.append(calibrate(time.thread_time))
    finally:
        os.sched_setaffinity(0, cpus)
    seconds = cpu * CALIBRATION_REF_S / statistics.median(kernels)
    return seconds, proc.returncode, out_path.read_text(), err_path.read_text()


def setup_probe(args, problems: list[str]) -> float | None:
    """Calibrated seconds of a fresh interpreter that imports fcic and builds
    the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--size", args.size]
    run = timed_run(cmd, "set-up probe", problems)
    if run is None:
        return None
    seconds, code, _, stderr = run
    if code != 0:
        problems.append(f"set-up probe exit {code}: {stderr.strip()[-300:]}")
    return seconds


class CliCommand:
    """The workload's ``python -m fcic`` command, checked on every run."""

    def __init__(self, inputs):
        import workloads

        signs_file = OUT / "signs-F.txt"
        signs_file.write_text(
            "\n".join(" ".join(map(str, row)) for row in workloads.sign_matrix(6)) + "\n")
        self.inputs = inputs
        self.argv = [a.replace("{signs_file}", str(signs_file.relative_to(ROOT)))
                     for a in inputs.cli_args]
        self.codes: list[int] = []
        self.failures = 0

    def run(self, problems: list[str]) -> float | None:
        """Calibrated seconds from start to exit."""
        import workloads

        shown = f"`fcic {' '.join(self.argv)}`"
        run = timed_run([sys.executable, "-m", "fcic", *self.argv], shown, problems)
        if run is None:
            self.codes.append(-1)
            self.failures += 1
            return None
        seconds, code, stdout, stderr = run
        self.codes.append(code)
        wrong = workloads.check_cli(self.inputs, code, stdout, stderr)
        problems += [f"{shown}: {p}" for p in wrong]
        self.failures += bool(wrong)
        return seconds


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """One full pass over the workload's ops, each timed between two
    calibrations; ``latencies`` are in calibrated seconds."""

    def __init__(self, inputs, memo: dict, tracer=None):
        import workloads

        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.work: dict[str, int] = {}
        self.errors: list[str] = []
        self.failed = self.infeasible = self.sessions = 0
        start = time.perf_counter()
        before = calibrate()
        for index, op in enumerate(inputs.ops):
            if tracer is not None:
                tracer.op = index
                rec = tracer.begin("bench.op")
            out = workloads.run_op(op, memo)
            if tracer is not None:
                tracer.end(rec)
            after = calibrate()
            self.raw_latencies.append(out.seconds)
            self.latencies.append(scaled(out.seconds, before, after))
            before = after
            self.sessions += out.sessions
            for key, value in out.work.items():
                self.work[key] = self.work.get(key, 0) + value
            self.infeasible += out.infeasible
            if not out.ok:
                self.failed += 1
                self.errors.append(f"{op.key}: {out.error}")
        self.wall = time.perf_counter() - start
        self.ops = len(inputs.ops)


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each op's median calibrated latency over the passes."""
    return [statistics.median(column) for column in zip(*(p.latencies for p in passes))]


def workload_rates(inputs, passes: list[Pass]) -> dict[str, float]:
    """Throughputs in the workload's own units, over its ops' median latencies."""
    per_op = op_latencies(passes)
    by_kind: dict[str, float] = {}
    for op, seconds in zip(inputs.ops, per_op):
        kind = getattr(op, "kind", "det")
        by_kind[kind] = by_kind.get(kind, 0.0) + seconds
    work = passes[0].work

    def per(key: str, kind: str) -> float:
        return work[key] / by_kind[kind] if key in work else 0.0

    det = "det" in by_kind
    return {
        "run.configs_per_s": len(per_op) / sum(per_op) if det else 0.0,
        "run.sessions_per_s": passes[0].sessions / sum(per_op) if det else 0.0,
        "run.gap_points_per_s": per("gap_points", "gap"),
        "run.mc_samples_per_s": per("mc_samples", "mc"),
        "run.lattice_trials_per_s": per("lattice_trials", "lattice"),
    }


def check_repeats(name: str, values: list, problems: list[str]) -> None:
    if len(set(values)) > 1:
        problems.append(f"{name} differs between passes: {values}")


def guard_counts(args, counts: dict, problems: list[str]) -> None:
    """Compare exact counts with earlier runs of the same source in this checkout."""
    path = OUT / f"counts-{args.workload}-{args.size}-{source_digest()[:16]}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    for key, value in counts.items():
        if key in seen and seen[key] != value:
            problems.append(f"{key} drifted from {seen[key]} in an earlier run to {value}")
    path.write_text(json.dumps({**seen, **counts}, sort_keys=True))


def layer_metrics(tracer, lo: int, hi: int) -> dict[str, float]:
    import tracing

    self_times = tracer.self_times(lo, hi)
    counts = tracer.counts
    m: dict[str, float] = {}
    for span in tracing.SPAN_NAMES:
        m[f"{span}.calls"], m[f"{span}.self_s"] = self_times.get(span, (0, 0.0))
    for key in _COUNTS:
        m[key] = counts.get(key, 0)
    tries = counts.get("schemes.prime_scan.tries", 0)
    hits = counts.get("schemes.prime_scan.hits", 0)
    m["schemes.prime_scan.hit_ratio"] = hits / tries if tries else 0.0
    solves = m["qsym.solve.calls"]
    m["qsym.solve.found_ratio"] = counts.get("qsym.solve.found", 0) / solves if solves else 0.0
    m["gauss_sim.mc.peak_alloc_mb"] = tracer.peak_alloc / 2**20
    return m


def traced_pass(tracer, inputs, memo: dict) -> tuple[Pass, dict, tuple[int, int]]:
    import tracing

    undo = tracing.install(tracer)
    try:
        tracer.reset_counts()
        lo = len(tracer.spans)
        done = Pass(inputs, memo, tracer)
        hi = len(tracer.spans)
        return done, layer_metrics(tracer, lo, hi), (lo, hi)
    finally:
        tracing.uninstall(undo)


def measure(args) -> tuple[dict, dict]:
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    OUT.mkdir(exist_ok=True)
    detail: dict = {"environment": environment(args)}
    problems: list[str] = []
    memo: dict = {}
    if args.trace == 0:
        setup_probe(args, problems)  # untimed: fills the bytecode and page caches
        cli = CliCommand(inputs)
    else:
        tracer = tracing.Tracer()
    workloads.run_op(inputs.ops[0], memo)  # warm-up, untimed

    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict, tuple[int, int]]] = []
    # set-up probes and CLI runs sit between passes, so they sample the same
    # stretch of machine time as the passes do
    gaps: list[tuple[float | None, float | None]] = []
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if args.trace == 0:
            if untraced:
                gaps.append((setup_probe(args, problems), cli.run(problems)))
            untraced.append(Pass(inputs, memo))
        elif len(untraced) % 2:
            traced.append(traced_pass(tracer, inputs, memo))
            untraced.append(Pass(inputs, memo))
        else:
            untraced.append(Pass(inputs, memo))
            traced.append(traced_pass(tracer, inputs, memo))

    passes = untraced + [t[0] for t in traced]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    check_repeats("run.infeasible_ops", [p.infeasible for p in passes], problems)
    counts = {"run.infeasible_ops": passes[0].infeasible}
    per_op = op_latencies(untraced)

    if args.trace == 0:
        attempted += len(cli.codes)
        failed += cli.failures
        setups = [t for t, _ in gaps if t is not None]
        clis = [t for _, t in gaps if t is not None]
        tail_q = tail_percentile(len(per_op))
        metrics = {
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "wall_s": sum(per_op),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * (percentile(per_op, tail_q) if tail_q else max(per_op)),
            "cli_s": statistics.median(clis) if clis else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail.update(setup_samples_s=setups, cli_samples_s=clis, cli_exit_codes=cli.codes,
                      op_tail_percentile=tail_q or 100.0, op_samples=len(per_op))
    else:
        layers = [t[1] for t in traced]
        metrics = {}
        for name in PER_LAYER:
            if name.startswith(("run.", "trace.")):
                continue
            values = [layer[name] for layer in layers]
            if name.endswith(("self_s", "peak_alloc_mb")):
                metrics[name] = statistics.median(values)
            else:
                check_repeats(name, values, problems)
                metrics[name] = values[0]
        metrics.update(workload_rates(inputs, untraced))
        metrics["run.failed_ops_frac"] = failed / attempted
        metrics["run.infeasible_ops"] = passes[0].infeasible
        metrics["trace.overhead_frac"] = (sum(op_latencies([t[0] for t in traced]))
                                          / sum(per_op) - 1)
        counts.update({k: metrics[k] for k in GUARDED_COUNTS})
        # one file per workload, the latest run's: a det-signed run writes ~15 MB
        spans_path = OUT / f"spans-{args.workload}-{args.size}.tsv"
        tracer.write(spans_path, [t[2] for t in traced])
        detail.update(traced_pass_walls_s=[t[0].wall for t in traced],
                      spans_file=str(spans_path.relative_to(ROOT)))
    guard_counts(args, counts, problems)

    errors = [e for p in passes for e in p.errors]
    detail.update(
        passes=len(passes), untraced_pass_walls_s=[p.wall for p in untraced],
        ops_per_pass=len(inputs.ops), failed_ops_frac=failed / attempted,
        infeasible_ops=passes[0].infeasible, sessions_per_pass=passes[0].sessions,
        work_per_pass=passes[0].work, rates=workload_rates(inputs, untraced),
        raw_op_latencies_s=[p.raw_latencies for p in untraced], errors=errors[:20],
        problems=problems,
    )
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("det-sweep", "det-large", "det-signed", "gauss"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the harness self-test")
    parser.add_argument("--probe", action="store_true",
                        help="only import fcic and build the inputs (times set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fcic" / "__init__.py").is_file():
        print(f"error: no fcic package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(thread_caps())
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.probe:
        workloads.make_inputs(args.workload, args.seed, args.size)
        return 0
    result, detail = measure(args)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
