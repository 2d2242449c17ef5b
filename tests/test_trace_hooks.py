"""The benchmark's trace mode (`perfbench/run.py --trace 1`) rebinds fcic
functions and `GfMatrix` methods by name from `perfbench/tracing.py`; a
package change that drops or bypasses one of those names breaks it."""

import importlib.util
import pathlib

from fcic import gf, schemes

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# Lambda + I singular: weak-regime alignment at m < n
WEAK_SIGNS = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
# Lambda + I nonsingular: moderate-regime alignment at m = n, over GF(3)
MODERATE_SIGNS = ((0, 1, 1), (1, 0, -1), (1, -1, 0))
REBOUND = ("build_scheme", "verify_scheme", "qsym_solve", "moderate_margin",
           "select_prime", "nullspace", "run_feedback_session")


def test_trace_install_records_signed_builds_and_uninstall_restores():
    originals = {name: getattr(schemes, name) for name in REBOUND}
    methods = {name: gf.GfMatrix.__dict__[name] for name in ("_echelon", "det")}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert schemes.nullspace is not originals["nullspace"]
        assert schemes.build_scheme(3, 2, 1, p=5, signs=WEAK_SIGNS).name == "qsym"
        assert schemes.build_scheme(3, 2, 2, p=3, signs=MODERATE_SIGNS).name == "qsym"
    finally:
        tracing.uninstall(undo)
    names = [rec[0] for rec in tracer.spans]
    assert names.count("schemes.build") == 2
    assert names.count("qsym.solve") == 2
    assert names.count("gf.nullspace") == 2
    assert "gf.echelon" in names
    # each nullspace span sits inside a solver span
    assert all(tracer.spans[rec[3]][0] == "qsym.solve"
               for rec in tracer.spans if rec[0] == "gf.nullspace")
    assert tracer.counts["qsym.solve.found"] == 2
    assert tracer.counts["qsym.nullspace_dim"] > 0
    assert tracer.counts["qsym.margin_checks"] > 0  # only the m = n build checks margins
    assert {name: getattr(schemes, name) for name in REBOUND} == originals
    assert {name: gf.GfMatrix.__dict__[name] for name in methods} == methods


# K = 4, Lambda + I nonsingular: no prime of PRIME_SCAN aligns it at m = n
UNALIGNED_K4 = ((0, 1, 1, 1), (1, 0, 1, -1), (1, -1, 0, 1), (1, -1, -1, 0))


def test_trace_records_solves_that_end_without_a_search():
    """A solve that a vanishing Delta term ends early still runs inside its
    qsym.solve span, with its nullspace and its margin checks: the auto-p
    scan of an unaligned K = 4 channel solves once per prime, finds nothing,
    and falls back to time sharing."""
    originals = {name: getattr(schemes, name) for name in REBOUND}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert schemes.build_scheme(4, 2, 2, signs=UNALIGNED_K4).name == "moderate"
    finally:
        tracing.uninstall(undo)
    solves = [i for i, rec in enumerate(tracer.spans) if rec[0] == "qsym.solve"]
    assert len(solves) == len(schemes.PRIME_SCAN) == 6
    parents = [rec[3] for rec in tracer.spans if rec[0] == "gf.nullspace"]
    assert parents == solves
    assert tracer.counts["qsym.solve.found"] == 0
    assert tracer.counts["qsym.margin_checks"] > 0
    assert {name: getattr(schemes, name) for name in REBOUND} == originals


def test_traced_verify_holds_one_session_with_one_channel_use_per_block():
    """The replay looks `apply_channel` up through the module global once
    per block, so a traced `verify_scheme` records one channel.session span
    holding `scheme.blocks` channel.apply spans, for a two-block aligned
    scheme and for K-block time sharing."""
    for scheme in (schemes.build_scheme(3, 3, 1, p=5), schemes.build_scheme(4, 2, 2, p=5)):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            report = schemes.verify_scheme(scheme.params, scheme, 7, 1)
        finally:
            tracing.uninstall(undo)
        assert report.all_passed
        names = [rec[0] for rec in tracer.spans]
        assert names.count("schemes.verify") == 1
        sessions = [i for i, name in enumerate(names) if name == "channel.session"]
        assert len(sessions) == 1
        assert tracer.spans[sessions[0]][3] == names.index("schemes.verify")
        applies = [rec for rec in tracer.spans if rec[0] == "channel.apply"]
        assert len(applies) == scheme.blocks
        assert all(rec[3] == sessions[0] for rec in applies)
