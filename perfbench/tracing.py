"""Spans and counts at fcic's layer boundaries, installed from outside the package.

``install`` rebinds each traced function on every fcic module that holds it,
because internal calls resolve through module globals: ``verify_scheme`` finds
``run_feedback_session`` in ``fcic.schemes``, ``run_feedback_session`` finds
``apply_channel`` in ``fcic.channel``.  Methods are rebound on ``GfMatrix``.
A span is [name, start, end, parent index, op id]; spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter

import fcic
from fcic import channel, cli, gauss_sim, gf, rates, schemes

_MODULES = (fcic, gf, channel, schemes, rates, gauss_sim, cli)

SPAN_NAMES = (
    "gf.echelon", "gf.det", "gf.nullspace", "channel.session", "channel.apply",
    "schemes.select_prime", "schemes.build", "schemes.verify", "qsym.solve",
    "rates.gap_report", "cli.main", "gauss_sim.mc", "gauss_sim.lattice",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder for one run; a pass is a slice of ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.peak_alloc = 0

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def reset_counts(self) -> None:
        self.counts = Counter()
        self.peak_alloc = 0

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over spans[lo:hi]."""
        child = [0.0] * (hi - lo)
        for rec in self.spans[lo:hi]:
            if rec[3] >= lo:
                child[rec[3] - lo] += rec[2] - rec[1]
        out: dict[str, tuple[int, float]] = {}
        for rec, inner in zip(self.spans[lo:hi], child):
            calls, total = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, total + (rec[2] - rec[1]) - inner)
        return out

    def write(self, path, passes) -> None:
        with open(path, "w") as fh:
            fh.write("pass\tid\tparent\top\tname\tstart_s\tend_s\n")
            for number, (lo, hi) in enumerate(passes):
                fh.writelines(
                    f"{number}\t{i}\t{r[3]}\t{r[4]}\t{r[0]}\t{r[1]:.9f}\t{r[2]:.9f}\n"
                    for i, r in enumerate(self.spans[lo:hi], start=lo)
                )


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        result, ok = None, False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            tracer.end(rec)
            if after is not None:
                after(args, kwargs, result, ok)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _measured_mc(tracer: Tracer, fn):
    """MC span that also takes the tracemalloc peak of the call."""
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def after(args, kwargs, result, ok):
        cfg = _arg(args, kwargs, 0, "cfg")
        samples = cfg.block_len * cfg.trials
        tracer.counts["gauss_sim.mc.samples"] += samples
        # c, z1, z2, y1, x2, y2 and the combined output: K x block float64 each
        tracer.counts["gauss_sim.mc.bytes_computed"] += 7 * cfg.params.k * samples * 8

    return _spanned(tracer, "gauss_sim.mc", wrapper, after)


def install(tracer: Tracer):
    """Rebind every traced function; returns the undo list for ``uninstall``."""
    def cells(args, kwargs, result, ok):
        tracer.counts["gf.echelon.cells"] += args[0].data.size

    def nullspace_dim(args, kwargs, result, ok):
        if ok and tracer.parent_name() == "qsym.solve":
            tracer.counts["qsym.nullspace_dim"] += len(result)

    def prime_scan(args, kwargs, result, ok):
        scan = schemes.PRIME_SCAN
        tracer.counts["schemes.prime_scan.tries"] += scan.index(result) + 1 if ok else len(scan)
        tracer.counts["schemes.prime_scan.hits"] += ok

    def verify_trials(args, kwargs, result, ok):
        tracer.counts["schemes.verify.trials"] += _arg(args, kwargs, 2, "trials")

    def solve_found(args, kwargs, result, ok):
        tracer.counts["qsym.solve.found"] += ok

    def gap_points(args, kwargs, result, ok):
        if ok:
            tracer.counts["rates.gap_report.points"] += len(result)

    def lattice_trials(args, kwargs, result, ok):
        tracer.counts["gauss_sim.lattice.trials"] += _arg(args, kwargs, 3, "trials")

    undo = []
    for method, name, after in (("_echelon", "gf.echelon", cells), ("det", "gf.det", None)):
        original = gf.GfMatrix.__dict__[method]
        setattr(gf.GfMatrix, method, _spanned(tracer, name, original, after))
        undo.append((gf.GfMatrix, method, original))

    functions = (
        (gf.nullspace, _spanned(tracer, "gf.nullspace", gf.nullspace, nullspace_dim)),
        (channel.run_feedback_session,
         _spanned(tracer, "channel.session", channel.run_feedback_session)),
        (channel.apply_channel, _spanned(tracer, "channel.apply", channel.apply_channel)),
        (schemes.select_prime,
         _spanned(tracer, "schemes.select_prime", schemes.select_prime, prime_scan)),
        (schemes.build_scheme, _spanned(tracer, "schemes.build", schemes.build_scheme)),
        (schemes.verify_scheme,
         _spanned(tracer, "schemes.verify", schemes.verify_scheme, verify_trials)),
        (schemes.qsym_solve, _spanned(tracer, "qsym.solve", schemes.qsym_solve, solve_found)),
        (schemes.moderate_margin,
         _counted(tracer, "qsym.margin_checks", schemes.moderate_margin)),
        (rates.gap_report, _spanned(tracer, "rates.gap_report", rates.gap_report, gap_points)),
        (cli.main, _spanned(tracer, "cli.main", cli.main)),
        (gauss_sim.simulate_strong_two_block,
         _measured_mc(tracer, gauss_sim.simulate_strong_two_block)),
        (gauss_sim.sum_decode_check,
         _spanned(tracer, "gauss_sim.lattice", gauss_sim.sum_decode_check, lattice_trials)),
    )
    for original, wrapper in functions:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
