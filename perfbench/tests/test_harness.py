"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

It checks that every metric BENCHMARK.json names is emitted with its unit, and
that the output checks are not vacuous: a corrupted program must fail ops.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (str(BENCH), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402
from fcic import gauss_sim, rates, schemes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _pass(workload: str) -> run.Pass:
    return run.Pass(workloads.make_inputs(workload, 3, "tiny"), {})


def _traced_run(workload: str) -> dict:
    args = SimpleNamespace(workload=workload, seed=3, seconds=0.1, trace=1, size="tiny")
    result, _ = run.measure(args)
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        assert trace or metric["value"] > 0


def test_units_in_run_py_match_the_spec():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_clean_tiny_passes_fail_nothing():
    for workload in WORKLOADS:
        done = _pass(workload)
        assert done.failed == 0, done.errors
    assert _pass("det-signed").infeasible == 2  # sign matrix 6 at p = 5 and 7


def test_corrupted_decoder_raises_failed_ops_frac(monkeypatch):
    real = schemes.build_scheme

    def corrupted(*args, **kwargs):
        scheme = real(*args, **kwargs)
        decode = scheme.decode

        def wrong(k, outs):
            z = np.array(decode(k, outs), dtype=np.int64)
            z[0] = (z[0] + 1) % scheme.params.p
            return z

        scheme.decode = wrong
        return scheme

    monkeypatch.setattr(schemes, "build_scheme", corrupted)
    result = _traced_run("det-sweep")
    assert result["metrics"]["run.failed_ops_frac"]["value"] > 0
    assert result["failed"] > 0 and result["correct"] is False


def test_wrong_declared_rate_fails(monkeypatch):
    real = schemes.build_scheme

    def overclaimed(*args, **kwargs):
        scheme = real(*args, **kwargs)
        scheme.declared_rate += Fraction(1, 2)
        return scheme

    monkeypatch.setattr(schemes, "build_scheme", overclaimed)
    assert _pass("det-large").failed == len(workloads.make_inputs("det-large", 3, "tiny").ops)


def test_newly_infeasible_op_fails_but_baseline_infeasible_does_not(monkeypatch):
    def never(*args, **kwargs):
        raise schemes.NoSolution("forced")

    monkeypatch.setattr(schemes, "qsym_solve", never)
    done = _pass("det-signed")
    assert done.infeasible == 2
    assert done.failed > 0


def test_biased_monte_carlo_and_changed_gap_csv_fail(monkeypatch):
    real_mc, real_gap = gauss_sim.simulate_strong_two_block, rates.gap_report

    def biased(cfg):
        stats = real_mc(cfg)
        return dataclasses.replace(stats, noise_power_hat=stats.noise_power_hat * 1.5)

    def shifted(points):
        facts = real_gap(points)
        facts[0] = dataclasses.replace(facts[0], upper=facts[0].upper + 1e-3)
        return facts

    monkeypatch.setattr(gauss_sim, "simulate_strong_two_block", biased)
    monkeypatch.setattr(rates, "gap_report", shifted)
    done = _pass("gauss")
    assert done.failed == 3, done.errors  # the gap sweep and both MC runs


def test_cli_checks():
    signed = workloads.make_inputs("det-signed", 3, "tiny")
    assert workloads.check_cli(signed, 3, "", "infeasible: no prime") == []
    assert workloads.check_cli(signed, 1, "", "") != []
    gauss = workloads.make_inputs("gauss", 3, "tiny")
    assert workloads.check_cli(gauss, 0, "snr\n", "violations=0") != []


def test_count_drift_is_flagged(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = SimpleNamespace(workload="det-signed", size="tiny")
    problems: list[str] = []
    run.guard_counts(args, {"run.infeasible_ops": 40}, problems)
    run.guard_counts(args, {"run.infeasible_ops": 40}, problems)
    assert problems == []
    run.guard_counts(args, {"run.infeasible_ops": 39}, problems)
    assert len(problems) == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("det-sweep", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
