import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcic
from fcic import cli, gauss_sim, gf, rates, schemes
from fcic.cli import main


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gdof
# ---------------------------------------------------------------------------

def test_gdof_csv(capsys):
    code, out, _ = run_cli(
        capsys, "gdof", "--alpha-min", "0", "--alpha-max", "2", "--steps", "9", "--k", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha,d_fb,d_nofb"
    assert len(lines) == 10  # header + 9 rows
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["0.5"] == "0.5,0.75,0.5"
    assert rows["1"].split(",")[1] == "NaN"
    assert rows["1"].split(",")[2] == "0.333333333333"


def test_python_dash_m_fcic_runs_the_cli():
    """`python -m fcic` is `cli.entry`: main's exit code, its stdout, and a
    usage error as one stderr line without a traceback."""
    src = str(pathlib.Path(fcic.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        done = subprocess.run([sys.executable, "-m", "fcic", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert run("gdof", "--steps", "2") == (0, "alpha,d_fb,d_nofb\n0,1,1\n2,1,1\n", "")
    assert run("det-verify", "--k", "1", "--n", "1", "--m", "1") == (
        2, "", "error: need K >= 2 users, got 1\n")


def test_gdof_rejects_single_step(capsys):
    code, _, _ = run_cli(capsys, "gdof", "--steps", "1")
    assert code == 2


def test_gdof_rejects_bad_range(capsys):
    code, _, _ = run_cli(capsys, "gdof", "--alpha-min", "2", "--alpha-max", "1")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "gdof", "--bogus", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# det-converse / det-verify
# ---------------------------------------------------------------------------

def test_det_converse_json(capsys):
    code, out, _ = run_cli(capsys, "det-converse", "--n", "3", "--m", "1", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == {"num": 5, "den": 2}


SINGULAR_SIGNS = "0 -1 1\n1 0 -1\n1 -1 0\n"
ALL_ONES_SIGNS = "0 1 1\n1 0 1\n1 1 0\n"
# Lambda + I nonsingular; builds at p = 3 and decodes at rate n/2 = 1
SIGNS_K4 = "0 -1 1 1\n1 0 -1 1\n-1 1 0 1\n1 1 1 0\n"


@pytest.mark.parametrize("k,rows,rate", [
    ("3", SINGULAR_SIGNS, {"num": 2, "den": 3}),
    ("5", ALL_ONES_SIGNS, None),
    ("3", SIGNS_K4, None),
    ("4", SIGNS_K4, None),
])
def test_det_converse_signs_must_match_k(capsys, tmp_path, k, rows, rate):
    """--signs must be k x k, and a signed channel that is not the all-ones
    one up to sign flips has a converse only for K = 3: anything else is
    one error line and exit 2."""
    signs = tmp_path / "signs.txt"
    signs.write_text(rows)
    code, out, err = run_cli(
        capsys, "det-converse", "--n", "2", "--m", "2", "--k", k, "--signs", str(signs)
    )
    if rate is None:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0
        assert json.loads(out) == {"n": 2, "m": 2, "k": 3, "rate": rate}


@pytest.mark.parametrize("k", [2, 4, 5])
@pytest.mark.parametrize("d_last", [1, -1])
def test_sign_switched_all_ones_channel_has_the_symmetric_converse(capsys, tmp_path,
                                                                   k, d_last):
    """A --signs matrix with lambda_kj = d_k d_j is the symmetric channel
    after sign flips: det-converse prints the symmetric JSON, and det-verify
    judges its scheme against that converse, in every regime."""
    d = [1] * (k - 1) + [d_last]
    rows = [" ".join(str(0 if r == c else d[r] * d[c]) for c in range(k)) for r in range(k)]
    signs = tmp_path / "signs.txt"
    signs.write_text("\n".join(rows) + "\n")
    for n, m in (("2", "1"), ("1", "2"), ("2", "2")):
        plain = ("--k", str(k), "--n", n, "--m", m)
        symmetric = run_cli(capsys, "det-converse", *plain)
        assert run_cli(capsys, "det-converse", *plain, "--signs", str(signs)) == symmetric
        code, out, _ = run_cli(capsys, "det-verify", *plain, "--trials", "10",
                               "--signs", str(signs))
        doc = json.loads(out)
        assert code == 0
        assert doc["converse_rate"] == json.loads(symmetric[1])["rate"]
        assert doc["matches_converse"] is True


def test_det_verify_signed_k4_has_no_converse(capsys, tmp_path):
    """No converse is established for this signed K = 4 channel (not the
    all-ones one up to sign flips), so a scheme that decodes every session
    exits 0 with a null converse_rate and matches_converse."""
    signs = tmp_path / "signs.txt"
    signs.write_text(SIGNS_K4)
    code, out, _ = run_cli(
        capsys, "det-verify", "--k", "4", "--n", "2", "--m", "2", "--signs", str(signs)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["p"] == 3
    assert doc["declared_rate"] == {"num": 1, "den": 1}
    assert (doc["trials"], doc["successes"]) == (100, 100)
    assert out.endswith('"converse_rate": null, "matches_converse": null}\n')


# Lambda + I nonsingular, yet no prime in PRIME_SCAN aligns it at m = n
SIGNS_K4_UNALIGNED = "0 1 1 1\n1 0 1 -1\n1 -1 0 1\n1 -1 -1 0\n"
# differs from it in one entry, and aligns at p = 3
SIGNS_K4_ALIGNED = "0 1 1 1\n1 0 1 -1\n1 -1 0 1\n1 1 -1 0\n"


@pytest.mark.parametrize("rows,p,rate", [
    pytest.param(SIGNS_K4_UNALIGNED, 2, {"num": 1, "den": 2}, id="unaligned"),
    pytest.param(SIGNS_K4_ALIGNED, 3, {"num": 1, "den": 1}, id="aligned"),
])
def test_det_verify_signed_k4_unaligned_falls_back_to_time_sharing(capsys, tmp_path,
                                                                  rows, p, rate):
    """A signed K != 3 channel that no scanned prime aligns at m = n gets
    n/K time sharing over the smallest prime and exits 0; one that aligns
    keeps its alignment scheme.  An explicit --p still exits 3."""
    signs = tmp_path / "signs.txt"
    signs.write_text(rows)
    argv = ["det-verify", "--k", "4", "--n", "2", "--m", "2", "--signs", str(signs)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["params"]["p"] == p
    assert doc["declared_rate"] == rate
    assert (doc["trials"], doc["successes"]) == (100, 100)
    assert out.endswith('"converse_rate": null, "matches_converse": null}\n')
    if rows == SIGNS_K4_UNALIGNED:
        code, out, err = run_cli(capsys, *argv, "--p", "5")
        assert (code, out) == (3, "")
        assert err.startswith("infeasible: no moderate-regime alignment point over GF(5)")


# no prime in PRIME_SCAN aligns this K = 5 matrix in the strong regime
SIGNS_K5_UNALIGNED = "0 1 1 -1 -1\n-1 0 -1 -1 1\n1 1 0 1 1\n1 1 1 0 1\n-1 1 1 -1 0\n"


def test_det_verify_failed_odd_k_strong_scan_lists_primes_in_scan_order(capsys, tmp_path):
    """An odd-K strong scan tries GF(2) last, yet its exit-3 text still
    lists every prime's reason in PRIME_SCAN order, GF(2) first: the text
    is recorded from the tree that scanned GF(2) first."""
    signs = tmp_path / "signs.txt"
    signs.write_text(SIGNS_K5_UNALIGNED)
    code, out, err = run_cli(
        capsys, "det-verify", "--k", "5", "--n", "1", "--m", "2", "--signs", str(signs)
    )
    assert (code, out) == (3, "")
    dead = ("no strong-regime alignment point over GF({}): user 3's Delta constant term "
            "-U is 0 on the whole 2-dimensional solution space")
    assert err == "".join([
        "infeasible: no prime in (2, 3, 5, 7, 11, 13) yields a decodable scheme for "
        "K=5, n=1, m=2:\n",
        "  no strong-regime alignment point over GF(2) after 64 candidates; the strong "
        "condition failed most often at user 0 (32 times)\n",
        *(f"  {dead.format(p)}\n" for p in (3, 5, 7, 11, 13)),
    ])


def test_det_verify_weak_example(capsys):
    code, out, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "3", "--m", "1", "--p", "5",
        "--trials", "100", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["successes"] == 100
    assert doc["declared_rate"] == {"num": 5, "den": 2}
    assert doc["matches_converse"] is True


def test_det_verify_singular_field_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "1", "--m", "3", "--p", "2",
    )
    assert code == 3
    assert err == (  # the user and the term of Delta that vanishes mod p
        "infeasible: strong decode matrix rank-deficient for user 0 at "
        "(A, B, U, V) = (0, 1, 2, 1), K=3, n=1, m=3, p=2: "
        "Delta's constant term -U is 0 mod 2\n"
    )


def test_det_verify_time_sharing(capsys):
    code, out, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "2", "--m", "2", "--p", "3",
        "--trials", "50", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["declared_rate"] == {"num": 2, "den": 3}


def test_det_verify_auto_prime(capsys):
    code, out, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "1", "--m", "3",
        "--trials", "20", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["params"]["p"] == 3


def test_det_verify_dump_and_signs(capsys, tmp_path):
    signs = tmp_path / "signs.txt"
    signs.write_text("0 -1 1\n1 0 -1\n1 -1 0\n")
    dump = tmp_path / "transcript.json"
    code, out, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "2", "--m", "4", "--p", "5",
        "--trials", "40", "--seed", "3", "--signs", str(signs), "--dump", str(dump),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["declared_rate"] == {"num": 2, "den": 1}
    tr = json.loads(dump.read_text())
    assert list(tr) == ["params", "blocks", "messages_in", "messages_out"]
    assert len(tr["blocks"]) == 2
    assert tr["messages_out"] == tr["messages_in"]


def test_det_verify_dump_is_first_failure_else_trial_0(capsys, tmp_path, monkeypatch):
    args = ("det-verify", "--k", "3", "--n", "3", "--m", "1", "--p", "5",
            "--trials", "20", "--seed", "22", "--dump", str(tmp_path / "t.json"))
    msgs = np.random.default_rng(22).integers(0, 5, size=(20, 3, 5))
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads((tmp_path / "t.json").read_text())["messages_in"] == msgs[0].tolist()

    real = schemes.build_scheme

    def corrupted(*a, **kw):
        scheme = real(*a, **kw)
        bad = scheme.decoders.copy()
        # user 1 adds its own first symbol to its first decoded symbol
        bad[1, 0, 0] = (bad[1, 0, 0] + 1) % 5
        return dataclasses.replace(scheme, decoders=bad)

    monkeypatch.setattr(schemes, "build_scheme", corrupted)
    code, _, _ = run_cli(capsys, *args)
    assert code == 1
    first = int(np.flatnonzero(msgs[:, 1, 0] != 0)[0])
    assert first > 0
    tr = json.loads((tmp_path / "t.json").read_text())
    assert tr["messages_in"] == msgs[first].tolist()
    assert tr["messages_out"] != tr["messages_in"]


def test_det_verify_rejects_primes_beyond_int64(capsys):
    """1073741789 and 1073741827 sit either side of the int64 limit for this
    configuration's longest map row (8 columns: 8 (p - 1)^2 < 2^63)."""
    for p, expect in (("1073741789", 0), ("1073741827", 2), ("3037000493", 2),
                      ("4294967291", 2)):
        code, out, err = run_cli(
            capsys, "det-verify", "--k", "3", "--n", "3", "--m", "1", "--p", p,
            "--trials", "20",
        )
        assert code == expect, (p, err)
        assert (out == "") == (expect == 2)


def test_det_verify_stdout_is_deterministic(capsys):
    args = ("det-verify", "--k", "4", "--n", "2", "--m", "3", "--p", "7",
            "--trials", "30", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_det_verify_empty_signs_path_exits_2(capsys):
    """An empty --signs path names no file; it must not fall back to the
    symmetric channel."""
    code, out, err = run_cli(capsys, "det-verify", "--k", "3", "--n", "2", "--m", "1",
                             "--signs", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_det_verify_bad_input_exits_2(capsys):
    code, _, _ = run_cli(capsys, "det-verify", "--k", "1", "--n", "2", "--m", "1")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "2", "--m", "1", "--p", "6"
    )
    assert code == 2


@pytest.mark.parametrize("argv,signs,message", [
    (("qsym", "--regime", "weak"), "0 2 1\n1 0 1\n1 1 0\n",
     "off-diagonal signs must be -1 or +1"),
    (("det-verify", "--k", "3", "--n", "-1", "--m", "1"), None,
     "level counts must be non-negative"),
    (("det-verify", "--k", "3", "--n", "2", "--m", "1"), "0 1 1\n1 0 1\n",
     "is not a square matrix"),
    (("det-converse", "--n", "2", "--m", "2"), "0 1\n1 0 1\n", "is not a square matrix"),
    (("gauss-gap", "--snr-grid", "logspace:1:10", "--inr-grid", "1", "--k-list", "2"), None,
     "bad logspace grid 'logspace:1:10'"),
])
def test_malformed_inputs_exit_2_naming_the_fault(capsys, tmp_path, argv, signs, message):
    """A sign entry outside {-1, +1}, a negative level count, a sign file
    that is not square or a logspace grid without its count is one error
    line naming the fault, and exit 2."""
    if signs is not None:
        path = tmp_path / "signs.txt"
        path.write_text(signs)
        argv += ("--signs", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv,message", [
    (("gdof", "--alpha-min", "2", "--alpha-max", "1"), "need 0 <= alpha-min < alpha-max < inf"),
    (("gdof", "--steps", "1"), "need steps >= 2"),
    (("det-converse", "--n", "2", "--m", "2", "--k", "4", "--signs", "SIGNS_K4"),
     "no converse is established for a signed 4-user channel"),
    (("gauss-gap", "--snr-grid", "logspace:1:10", "--inr-grid", "1", "--k-list", "2"),
     "bad logspace grid 'logspace:1:10'"),
    (("gauss-gap", "--snr-grid", "1", "--inr-grid", "1,-2", "--k-list", "2"),
     "grid values must be positive and finite, got '1,-2'"),
    (("gauss-gap", "--snr-grid", "1", "--inr-grid", "1", "--k-list", "2,x"),
     "invalid literal for int() with base 10: 'x'"),
    (("lattice-demo", f"--seed={2**64 - 1}"),
     f"seed must be in [0, 2^64 - 2], got {2**64 - 1} (the noisy run draws with seed + 1)"),
])
def test_commands_raise_their_usage_errors_for_main_to_report(tmp_path, argv, message):
    """Called directly on the parsed arguments, a command reports a bad
    value by raising ValueError with its text: it neither prints the error
    line nor returns exit code 2, which `main` alone does for every
    command."""
    signs = tmp_path / "signs.txt"
    signs.write_text(SIGNS_K4)
    args = cli._build_parser().parse_args([str(signs) if a == "SIGNS_K4" else a for a in argv])
    assert args.func is getattr(cli, "cmd_" + argv[0].replace("-", "_"))
    with pytest.raises(ValueError) as info:
        args.func(args)
    assert str(info.value) == message


def test_sign_files_may_hold_blank_lines_and_padding(capsys, tmp_path):
    signs = tmp_path / "signs.txt"
    signs.write_text("\n  0 -1 1 \n\n1 0 -1\n\t1 -1 0\n\n")
    assert run_cli(capsys, "det-converse", "--n", "2", "--m", "2", "--signs", str(signs)) == (
        0, '{"n": 2, "m": 2, "k": 3, "rate": {"num": 2, "den": 3}}\n', "")


def _criterion_grid_runs(_signs_dir):
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n + m:
                    yield ("--k", str(k_users), "--n", str(n), "--m", str(m))


def _signed_runs(signs_dir):
    for index in range(64):
        signs = signs_dir / f"signs{index}.txt"
        signs.write_text(_sign_text(index, 3))
        for n, m, p in ((2, 1, None), (1, 2, None), (2, 2, 5), (2, 2, 7)):
            flags = ("--k", "3", "--n", str(n), "--m", str(m), "--signs", str(signs))
            yield flags + (() if p is None else ("--p", str(p)))


# sha256 over every run's flags, exit code, stdout, stderr and --dump file,
# with the temporary directory's path replaced by a placeholder; recorded
# from the parent tree of the change that made a scheme's size and rate
# properties of its maps.
DET_VERIFY_SHA256 = {
    "criterion": (_criterion_grid_runs,
        "2aa2b4eae28ec2105787514a70c25486cdad1cb78d9652f3d06b0df09e2b5635"),
    "signed": (_signed_runs,
        "0a6b5ee62c60a7508981ffbe5891d6e341d93b671894b102029f1ee45a382371"),
}


@pytest.mark.parametrize("runs", list(DET_VERIFY_SHA256))
def test_det_verify_output_matches_pinned_sha256(capsys, tmp_path, runs):
    make_runs, digest = DET_VERIFY_SHA256[runs]
    dump = tmp_path / "transcript.json"
    h = hashlib.sha256()
    for flags in make_runs(tmp_path):
        dump.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, "det-verify", *flags, "--trials", "20",
                                 "--dump", str(dump))
        dumped = dump.read_text() if dump.exists() else "<no dump>"
        text = f"{flags}:{code}\n{out}\n{err}\n{dumped}\n"
        h.update(text.replace(str(tmp_path), "<tmp>").encode())
    assert h.hexdigest() == digest


def test_det_verify_computes_the_converse_once(capsys, monkeypatch):
    """One det_converse call per det-verify process, for its JSON and its
    exit code alike, on a symmetric and a signed-K-4 (no converse) run."""
    calls = []

    def counted(*args):
        calls.append(args)
        return rates.det_converse(*args)

    monkeypatch.setattr(schemes, "det_converse", counted)
    with tempfile.TemporaryDirectory() as tmp:
        signs = pathlib.Path(tmp) / "signs.txt"
        signs.write_text(SIGNS_K4)
        for argv, tail in (
            (("--k", "3", "--n", "2", "--m", "1"), '"matches_converse": true}'),
            (("--k", "4", "--n", "2", "--m", "2", "--signs", str(signs)),
             '"matches_converse": null}'),
        ):
            calls.clear()
            code, out, _ = run_cli(capsys, "det-verify", *argv, "--trials", "5")
            assert (code, len(calls)) == (0, 1)
            assert out.endswith(tail + "\n")


def _large_runs():
    """The benchmark's det-large configurations: K in (3, 7, 8), n up to 64
    and m != n at the other three n values and n - 1 (q up to 64)."""
    levels = (16, 32, 48, 64)
    for k_users in (3, 7, 8):
        for n in levels:
            for m in sorted(set(levels) | {n - 1}):
                if m != n:
                    yield ("--k", str(k_users), "--n", str(n), "--m", str(m))


def test_det_verify_large_output_matches_pinned_sha256(capsys, tmp_path):
    """sha256 over the 48 det-large runs (10 trials each) as in
    `test_det_verify_output_matches_pinned_sha256`, recorded from the
    parent tree of the change that replays in binary32 below 2^24."""
    dump = tmp_path / "transcript.json"
    h = hashlib.sha256()
    runs = list(_large_runs())
    assert len(runs) == 48
    for flags in runs:
        dump.unlink(missing_ok=True)
        code, out, err = run_cli(capsys, "det-verify", *flags, "--trials", "10",
                                 "--dump", str(dump))
        text = f"{flags}:{code}\n{out}\n{err}\n{dump.read_text()}\n"
        h.update(text.replace(str(tmp_path), "<tmp>").encode())
    assert h.hexdigest() == (
        "69e2f07a5b16d44ae570b4ace993175cbc4faea1ca9c14affc53b59783328129")


# ---------------------------------------------------------------------------
# qsym
# ---------------------------------------------------------------------------

def test_qsym_solver_output(capsys, tmp_path):
    signs = tmp_path / "signs.txt"
    signs.write_text("0 1 1\n1 0 1\n1 1 0\n")
    code, out, _ = run_cli(
        capsys, "qsym", "--signs", str(signs), "--regime", "weak", "--p", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(b != 0 for b in doc["solution"]["b"])
    assert doc["identity_ok"] is True


def test_qsym_rejects_a_single_user(capsys, tmp_path):
    signs = tmp_path / "signs.txt"
    signs.write_text("0\n")
    assert run_cli(capsys, "qsym", "--signs", str(signs), "--regime", "weak") == \
        (2, "", "error: need K >= 2 users, got 1\n")


def test_qsym_infeasible_moderate_exits_3(capsys, tmp_path):
    signs = tmp_path / "signs.txt"
    signs.write_text("0 1 1\n1 0 1\n1 1 0\n")
    code, _, err = run_cli(
        capsys, "qsym", "--signs", str(signs), "--regime", "moderate", "--p", "5"
    )
    assert code == 3
    assert "moderate" in err


# ---------------------------------------------------------------------------
# gauss-rates / gauss-gap
# ---------------------------------------------------------------------------

def test_gauss_rates_point(capsys):
    code, out, _ = run_cli(
        capsys, "gauss-rates", "--snr", "1e4", "--inr", "1e2", "--k", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "weak"
    assert doc["constraints_ok"] is True
    assert doc["achievable"] <= doc["upper"]


def test_gauss_rates_excluded_exits_4(capsys):
    code, _, _ = run_cli(capsys, "gauss-rates", "--snr", "100", "--inr", "100")
    assert code == 4


@pytest.mark.parametrize("snr,inr,exit_code", [("1e4", "1e2", 0), ("100", "100", 4)])
def test_gauss_rates_runs_the_kernel_once(capsys, monkeypatch, snr, inr, exit_code):
    """Every field of one gauss-rates point comes from one `_closed_forms` pass."""
    calls = []
    kernel = rates._closed_forms

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rates, "_closed_forms", counted)
    code, _, _ = run_cli(capsys, "gauss-rates", "--snr", snr, "--inr", inr)
    assert (code, len(calls)) == (exit_code, 1)


def test_gauss_gap_sweep(capsys):
    code, out, err = run_cli(
        capsys, "gauss-gap",
        "--snr-grid", "logspace:1:1e6:8",
        "--inr-grid", "logspace:1:1e6:8",
        "--k-list", "2,3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "snr,inr,k,regime,achievable,c_tilde,upper,gap_ok"
    assert len(lines) == 1 + 8 * 8 * 2
    assert err.strip().splitlines()[-1] == "violations=0"
    assert any(",excluded," in line for line in lines[1:])


def test_gauss_gap_weak_point_at_inr_two_and_huge_snr_exits_0(capsys):
    code, out, err = run_cli(capsys, "gauss-gap", "--snr-grid", "1e19",
                             "--inr-grid", "2", "--k-list", "2")
    assert code == 0
    assert out.splitlines()[1].endswith(",weak,29.4120762762,31.1620762762,31.9120762762,true")
    assert err == "violations=0\n"


def test_gauss_gap_reports_each_violation_on_stderr(capsys, monkeypatch):
    """Forced violations name their point and inequality on stderr, in row
    order (SNR, then INR, then K), before the count; stdout keeps its CSV
    and only the gap_ok column changes."""
    args = ("gauss-gap", "--snr-grid", "1,1e4", "--inr-grid", "1,10,1e6", "--k-list", "2,3")
    _, clean, _ = run_cli(capsys, *args)
    # negligible points fail at K = 2, weak and strong points at K = 3
    monkeypatch.setattr(rates, "negligible_gap_constant", lambda k: -100.0 if k == 2 else 100.0)
    monkeypatch.setattr(rates, "weak_gap_constant", lambda k: -100.0 if k == 3 else 100.0)
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    failing = [line.split(",") for line in out.splitlines()[1:] if line.endswith(",false")]
    assert [tuple(row[:3]) for row in failing] == [
        ("1", "1", "2"), ("1", "10", "3"), ("1", "1000000", "3"),
        ("10000", "1", "2"), ("10000", "10", "3"), ("10000", "1000000", "3"),
    ]
    assert out.replace(",false\n", ",true\n") == clean
    assert err.splitlines() == [
        f"gap violated: snr={snr} inr={inr} k={k} violations=gap"
        for snr, inr, k, *_ in failing
    ] + [f"violations={len(failing)}"]


def test_gauss_gap_runs_the_kernel_once_and_c_tilde_once_per_point(capsys, monkeypatch):
    """One gauss-gap run is one `_closed_forms` pass over every K, and c_tilde's
    two log2 inputs are evaluated once per (SNR, INR) point, not once per K.
    Per K, a negligible point takes one more log2, a weak point two (R0* and
    R1* = R2*; the R0 caps hold by algebra and are not computed) and a
    strong point one."""
    calls, logged = [], []
    kernel, log2 = rates._closed_forms, rates._log2

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    def counted_log2(x):
        logged.append(x.size)
        return log2(x)

    monkeypatch.setattr(rates, "_closed_forms", counted)
    monkeypatch.setattr(rates, "_log2", counted_log2)
    ks = (2, 3, 5, 3)
    code, out, _ = run_cli(capsys, "gauss-gap", "--snr-grid", "logspace:1:1e6:8",
                           "--inr-grid", "logspace:1:1e6:8", "--k-list", ",".join(map(str, ks)))
    regimes = [line.split(",")[3] for line in out.splitlines()[1:]]
    per_k = {"negligible": 1, "weak": 2, "strong": 1, "excluded": 0}
    assert {"negligible", "weak", "strong", "excluded"} <= set(regimes)
    assert (code, len(calls), len(regimes)) == (0, 1, 64 * len(ks))
    assert sum(logged) == 2 * 64 + sum(per_k[regime] for regime in regimes)


def _gap_oracle(snrs, inrs, ks):
    """(exit code, CSV, stderr) of `gauss-gap` rendered row by row from the
    per-point `gap_report`: SNR, then INR, then K, each sorted."""
    points = [rates.GaussParams(s, i, k)
              for s in sorted(snrs) for i in sorted(inrs) for k in sorted(ks)]
    rows, violated = ["snr,inr,k,regime,achievable,c_tilde,upper,gap_ok"], []
    for f in rates.gap_report(points):
        snr, inr = f"{f.params.snr:.12g}", f"{f.params.inr:.12g}"
        achievable = "NaN" if f.regime == "excluded" else f"{f.achievable:.12g}"
        rows.append(f"{snr},{inr},{f.params.k},{f.regime},{achievable},{f.c_tilde:.12g},"
                    f"{f.upper:.12g},{str(f.gap_ok).lower()}")
        if not f.gap_ok:
            violated.append(f"gap violated: snr={snr} inr={inr} k={f.params.k} "
                            f"violations={','.join(f.violations)}")
    err = "".join(line + "\n" for line in violated + [f"violations={len(violated)}"])
    return (1 if violated else 0), "".join(row + "\n" for row in rows), err


# monkeypatches that make some or all points violate their inequalities
FORCED = {
    "none": {},
    "gap": {"weak_gap_constant": lambda k: -100.0 if k % 2 else 100.0,
            "negligible_gap_constant": lambda k: -100.0},
    "all": {"RATE_TOL": -1e9},  # flags every inequality a regime checks
}


def _run_gap_and_oracle(snrs, inrs, ks, force):
    """((exit code, stdout, stderr) of `gauss-gap`, the oracle's), under `force`."""
    grid = ",".join
    argv = ["gauss-gap", "--snr-grid", grid(map(repr, snrs)),
            "--inr-grid", grid(map(repr, inrs)), "--k-list", grid(map(str, ks))]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in FORCED[force].items():
            mp.setattr(rates, name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return (code, out.getvalue(), err.getvalue()), _gap_oracle(snrs, inrs, ks)


@pytest.mark.parametrize("snrs,inrs,ks", [
    ((1e4, 1.0, 1e4), (1e4, 1.0, 1e2), (2, 3)),  # unsorted, with duplicates
    ((7.0,), (3.0,), (3,)),  # single values
    ((1.0, 1e4), (10.0, 1e6, 1.5), (5, 2, 2)),
    ((100.0, 10.0, 1.0), (100.0, 40.0, 2.0, 0.5), (3, 4)),  # excluded points
])
@pytest.mark.parametrize("force", ["none", "gap", "all"])
def test_gauss_gap_matches_the_per_point_report(snrs, inrs, ks, force):
    """The grid CSV and stderr equal rows rendered from per-point facts."""
    got, want = _run_gap_and_oracle(snrs, inrs, ks, force)
    assert got == want


GRID_VALUES = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e2, 1e4])
                       | st.floats(1e-3, 1e9), min_size=1, max_size=4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(snrs=GRID_VALUES, inrs=GRID_VALUES,
       ks=st.lists(st.integers(2, 9) | st.just(10**20), min_size=1, max_size=3),
       force=st.sampled_from(["none", "gap", "all"]))
def test_gauss_gap_matches_the_per_point_report_on_random_grids(snrs, inrs, ks, force):
    got, want = _run_gap_and_oracle(snrs, inrs, ks, force)
    assert got == want


# sha256 of the gauss-gap CSV, recorded from the scalar per-point closed forms
# that the array kernel replaced: the criterion-4 grid and the benchmark's
# full and tiny grids.
GAP_CSV_SHA256 = [
    ("logspace:1:1e8:15", "2,3,5,8",
     "610f7d6d2a79dac2fc0975d3dfae63ab76fdaf79f086b26b4336c20fbce6b055"),
    ("logspace:1:1e8:100", "2,3,5,8",
     "ae3198472922beb1616db8845d6be46075a8ad6d6104b318e99f39365b0ea7ba"),
    ("logspace:1:1e8:6", "2,3",
     "58c0d78e0b0c278d453eab26926ae695afacf50993be76c266ed85291c041561"),
]


@pytest.mark.parametrize("grid,k_list,digest", GAP_CSV_SHA256)
def test_gauss_gap_csv_matches_pinned_sha256(capsys, grid, k_list, digest):
    code, out, err = run_cli(
        capsys, "gauss-gap", "--snr-grid", grid, "--inr-grid", grid, "--k-list", k_list
    )
    assert (code, err) == (0, "violations=0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# gauss-rates stdout (full-precision floats) at the regime ties INR = 2,
# INR = SNR/2 and INR = 2 max(SNR, 1), at K = 2^53 and K = 10^20, and in each
# regime; recorded from the scalar closed forms.
GAUSS_RATES_SHA256 = [
    (("4", "2", "3"), 0, "738aa01ce8e619d5a2463c9521c7c67f31232608445b42bc9c82f7e571c74811"),
    (("10", "5", "3"), 0, "5c7d76bd6e97823f06d629c718370ecf7852cfd2f3cdde996501ac8838cbe83d"),
    (("1", "2", "3"), 0, "19c250f0f2f83b373d958d826e0032044b67890f5eb3c6b9de07e77eef652c28"),
    (("0.5", "2", "2"), 0, "7ecea1f9a1b62c78733ddfdae7f57b5f899356216015c01aeb6791eedc51b30e"),
    (("3", "6", "5"), 0, "6c1ed8f641c5e50dea863b5ea9c273a9bdea02056d8eb88c50dd357bc96b0916"),
    (("3", "1.999", "3"), 0, "09f3c5f21af00bdf6a5c1a845a0a8b1fb43fdf9d39caf503e58e864bca91a7a0"),
    (("50", "1.5", "4"), 0, "a2058c6f19a04f9a626f160028cdcd7f25c96b54d7a37b9f873b9026dcaaa12e"),
    (("1e4", "1e2", "3"), 0, "a9601f94fc0ebb282f2137f4eadc5b14f56356e953b61a1ab2f974b061ef9309"),
    (("10", "1e3", "8"), 0, "0aad27cb4593a6dfdad5a47fd308ca9af918b64f98874fed7a8820fb7912dbba"),
    (("4", "2", str(2**53)), 0,
     "d3253468afce302f0a04509915f7ee5be2c45b7e38bc9af8340d91d4348bb256"),
    (("1e4", "1e2", str(10**20)), 0,
     "8c8a9ec812b6c0e9038cc2005cbf83ccabcd094ca07119b00e24f9e63a5e591b"),
    (("10", "1e3", str(10**20)), 0,
     "dc2159ac6fa1ad64a0f6bcafa6bd251dafd25a34ab9f2cc9303cbed5bae40c3c"),
    (("50", "1.5", str(10**20)), 0,
     "193582f1c676a2d838653f473ae793462e91718b20e3f278c8535f805db35dec"),
    (("1e12", "1e-3", "2"), 0, "040d17737284e70a58c2ccfe5c7d269dd5f5cb4a7abe451ae7b772e55bbb7cee"),
    (("1e-3", "1e12", "9"), 0, "79f48fd7d88a702fdcfee408b51a9ff5593403a9ccc1a977d93d47809ad849df"),
    (("100", "100", "3"), 4, hashlib.sha256(b"").hexdigest()),
    # numpy's x * x, then np.log2, would change the last bit of these rates
    (("0.003701105530068967", "112742675.74947986", "2"), 0,
     "74384742a014cb1c62cc92bdcb9ccbe621aeafaf9b00f5b1ef1a4de3e720b6f1"),
    (("0.0399171227148778", "0.0010920512378056963", "2"), 0,
     "d1b7afceda9dca71fbe8303ff801a3c93349775cbcdd107ec051804065c5b331"),
    (("346.8254241337069", "47.3851486015336", "3"), 0,
     "a66c55f48dc417211561c74f007a6e9f8a3c7e98052b0a599e985a0f27a3b91f"),
]


@pytest.mark.parametrize("point,exit_code,digest", GAUSS_RATES_SHA256)
def test_gauss_rates_json_matches_pinned_sha256(capsys, point, exit_code, digest):
    snr, inr, k = point
    code, out, _ = run_cli(capsys, "gauss-rates", "--snr", snr, "--inr", inr, "--k", k)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gauss_gap_k1_rejected(capsys):
    code, _, _ = run_cli(
        capsys, "gauss-gap", "--snr-grid", "1,10", "--inr-grid", "1,10", "--k-list", "1"
    )
    assert code == 2


def test_gauss_gap_malformed_grid(capsys):
    code, _, _ = run_cli(
        capsys, "gauss-gap", "--snr-grid", "logspace:1:x:5",
        "--inr-grid", "1,10", "--k-list", "2",
    )
    assert code == 2


@pytest.mark.parametrize("grid", [
    "logspace:1:1e400:5", "logspace:nan:10:5", "logspace:1:nan:5", "logspace:1:inf:5",
    "1,nan", "inf", "1,1e400", "1,-inf",
])
def test_gauss_gap_rejects_non_finite_grids(capsys, grid):
    """The grid parser itself rejects non-finite values and bounds: one
    error line, exit 2, and no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "gauss-gap", "--snr-grid", grid, "--inr-grid", "1,10", "--k-list", "2"
        )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(grid) in err


@pytest.mark.parametrize("argv,k", [
    (("gdof", "--k", "1"), 1),
    (("gauss-rates", "--snr", "1e4", "--inr", "1e2", "--k", "0"), 0),
    (("gauss-gap", "--snr-grid", "1,10", "--inr-grid", "1,10", "--k-list", "3,-1"), -1),
    (("mc-strong", "--snr", "1", "--inr", "10", "--k", "1", "--block", "2"), 1),
    (("lattice-demo", "--users", "1"), 1),
])
def test_fewer_than_two_users_exit_2(capsys, argv, k):
    """The constructor that needs k >= 2 rejects a smaller k before any
    output: exit 2 and one error line naming the k given."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip("\n").endswith(f"got {k}")


# what numpy raises for `np.empty(10**11)` and friends
OOM = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"


@pytest.mark.parametrize("argv,module,name", [
    (("gdof", "--steps", "100000000000"), np, "linspace"),
    (("gauss-gap", "--snr-grid", "logspace:1:10:100000000000",
      "--inr-grid", "1", "--k-list", "2"), np, "geomspace"),
    (("mc-strong", "--snr", "1", "--inr", "10", "--block", "100000000000"), np, "empty"),
    (("lattice-demo", "--trials", "100000000000"), gauss_sim, "sum_decode_check"),
])
def test_unallocatable_sizes_exit_2(capsys, monkeypatch, argv, module, name):
    """A MemoryError from the allocating call is a usage error with one
    error line, not a traceback.  The allocation is faked, never attempted."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError(OOM)

    monkeypatch.setattr(module, name, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {OOM}\n")


@pytest.mark.parametrize("argv", [
    ("gauss-rates", "--snr", "1", "--inr", "1e200", "--k", "2"),
    ("gauss-gap", "--snr-grid", "1,10", "--inr-grid", "100,1e200", "--k-list", "2,3"),
    ("mc-strong", "--snr", "1", "--inr", "1e200", "--block", "2", "--trials", "1"),
    ("lattice-demo", "--coarse-step", "1e308", "--users", "5", "--trials", "100"),
    ("lattice-demo", "--noise-sigma", "1e308", "--trials", "100"),
])
def test_binary64_overflow_exits_2(capsys, argv):
    """A strong-regime point with (INR - SNR)^2 beyond binary64 overflows in
    the closed forms, and a lattice run's sums or noise leave the binary64
    range: one error line and exit 2, not a traceback or a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a value is too large for binary64") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gauss-rates", "--snr", "1", "--inr", "1e200", "--k", "2"),
    ("mc-strong", "--snr", "1", "--inr", "1e200", "--block", "2", "--trials", "3"),
    ("gauss-gap", "--snr-grid", "1,10", "--inr-grid", "100,1e200", "--k-list", "2,3"),
])
def test_binary64_overflow_names_the_square_and_the_point(capsys, argv):
    """The error line names (INR - SNR)^2 and the first point where it leaves
    binary64 (the grid's (1, 1e200), SNR-major), not the raw OverflowError."""
    assert run_cli(capsys, *argv) == (2, "", (
        "error: a value is too large for binary64 floating point: "
        "(INR - SNR)^2 at SNR = 1, INR = 1e+200\n"))


@pytest.mark.parametrize("argv,term,point", [
    (("gauss-rates", "--snr", "1.5e308", "--inr", "7e307", "--k", "2"),
     "1 + SNR + INR", "SNR = 1.5e+308, INR = 7e+307"),
    (("gauss-gap", "--snr-grid", "1.5e308", "--inr-grid", "2,7e307", "--k-list", "2"),
     "1 + SNR + INR", "SNR = 1.5e+308, INR = 7e+307"),
    # the strong point's square is checked before the weak point's sum
    (("gauss-gap", "--snr-grid", "1,1.5e308", "--inr-grid", "7e307,1e200", "--k-list", "2"),
     "(INR - SNR)^2", "SNR = 1, INR = 1e+200"),
    (("gauss-rates", "--snr", "1e308", "--inr", "1e288", "--k", str(2 * 10**20)),
     f"{2 * 10**20} INR", "SNR = 1e+308, INR = 1e+288"),
])
def test_weak_overflow_names_the_term_and_the_point(capsys, argv, term, point):
    """A weak point whose 1 + SNR + INR, or K INR, is beyond binary64 would
    give c_tilde = inf or R1* = 0: one error line naming the term instead."""
    assert run_cli(capsys, *argv) == (2, "", (
        f"error: a value is too large for binary64 floating point: {term} at {point}\n"))


@pytest.mark.parametrize("argv", [
    ("gauss-gap", "--snr-grid", "1.7e308", "--inr-grid", "1e308", "--k-list", "2"),
    ("gauss-rates", "--snr", "1.7e308", "--inr", "1e308", "--k", "2"),
])
def test_excluded_overflow_names_the_sum_and_the_point(capsys, argv):
    """An excluded point carries no claim, yet with 1 + SNR + INR beyond
    binary64 its c_tilde and upper bound would be inf: the sum is checked
    at every point, before gauss-rates reads the regime (exit 4)."""
    assert run_cli(capsys, *argv) == (2, "", (
        "error: a value is too large for binary64 floating point: "
        "1 + SNR + INR at SNR = 1.7e+308, INR = 1e+308\n"))


@pytest.mark.parametrize("inr,code", [
    ("1.3407807929942596e+154", 0),
    ("1.3407807929942597e+154", 2),
])
def test_the_strong_square_leaves_binary64_at_2_to_the_512(capsys, inr, code):
    """At SNR = 1, INR - SNR rounds to INR here: the largest float below
    2^512 squares to a finite value and 2^512 itself does not, in the gap
    kernel (`gauss-rates`) and in the Monte Carlo's predictions
    (`mc-strong`) alike, since both square through `rates._square`.  Below
    the bound the Monte Carlo's signal standard error is inf, and a gate
    on an infinite statistic fails: mc-strong exits 1, at K = 2 and 3, and
    the gate's line is the one report of it (numpy warns nothing)."""
    assert float(inr) == (math.nextafter(2.0 ** 512, 0) if code == 0 else 2.0 ** 512)
    error = ("error: a value is too large for binary64 floating point: "
             "(INR - SNR)^2 at SNR = 1, INR = 1.34078079299e+154\n")
    got, out, err = run_cli(capsys, "gauss-rates", "--snr", "1", "--inr", inr, "--k", "2")
    assert got == code
    if code == 0:
        assert (json.loads(out)["regime"], err) == ("strong", "")
    else:
        assert (out, err) == ("", error)
    # below the bound the signal samples' squared deviations leave binary64
    # in the standard error: their sum at K = 2, the squares at K = 3
    for k in (2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run_cli(capsys, "mc-strong", "--snr", "1", "--inr", inr,
                                    "--k", str(k), "--block", "2", "--trials", "1")
        assert caught == []
        if code == 0:
            doc = json.loads(out)
            assert doc["predicted_signal_lb"] == float(inr) ** 2 / (k * float(inr) + 1)
            assert (got, err) == (1, (
                f"gate failed: signal estimate={doc['signal_power_hat']!r} "
                f"lower_bound={doc['predicted_signal_lb']!r} se=inf "
                "(needs estimate >= lower_bound - 3 se)\n"))
        else:
            assert (got, out, err) == (2, "", error)


@pytest.mark.parametrize("snr,inr,k", [(1e300, 1e270, 10**20), (1.2e308, 1e307, 2)])
def test_weak_points_past_the_r0_cap_squares_are_evaluated(capsys, snr, inr, k):
    """(sqrt(SNR) + (K-1) sqrt(INR))^2 is beyond binary64 at these weak
    points, but the R0 cap it enters never binds and is not computed:
    gauss-rates prints the scalar closed forms and exits 0."""
    with pytest.raises(OverflowError):
        (math.sqrt(snr) + (k - 1) * math.sqrt(inr)) ** 2
    code, out, err = run_cli(capsys, "gauss-rates", "--snr", repr(snr), "--inr", repr(inr),
                             "--k", str(k))
    r0 = 0.5 * math.log2((inr - 1) / (8 * (k + 1)))
    r12 = 0.5 * math.log2(1 + snr / (k * inr))
    c_tilde = 0.25 * math.log2(1 + snr + inr) + 0.25 * math.log2(1 + snr / (1 + inr))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "snr": snr, "inr": inr, "k": k, "regime": "weak", "achievable": 0.5 * (r0 + 2 * r12),
        "constraints_ok": True, "c_tilde": c_tilde,
        "upper": c_tilde + (k - 1) / 4 + 0.5 * math.log2(k),
    }


@pytest.mark.parametrize("argv,subject", [
    (("lattice-demo", "--noise-sigma", "nan"), "noise_sigma"),
    (("lattice-demo", "--noise-sigma", "inf"), "noise_sigma"),
    (("lattice-demo", "--coarse-step", "nan"), "coarse step"),
    (("lattice-demo", "--coarse-step", "inf"), "coarse step"),
    (("lattice-demo", "--trials", "0"), "trials"),
    (("gdof", "--alpha-max", "inf"), "alpha-max"),
    (("lattice-demo", "--coarse-step", "5e-324", "--trials", "0"), "fine step"),
])
def test_unusable_lattice_and_gdof_values_exit_2(capsys, argv, subject):
    """Non-finite values (and an empty lattice run) are usage errors: one
    error line naming the value, exit 2, and no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert subject in err


# ---------------------------------------------------------------------------
# every subcommand: exit-code totality
# ---------------------------------------------------------------------------

def _sign_text(index: int, k: int) -> str:
    """Sign matrix number `index`: bit b set puts -1 at off-diagonal
    position b (row-major), +1 otherwise."""
    off = iter(range(k * k))
    rows = [[0 if r == c else (-1 if index >> next(off) & 1 else 1) for c in range(k)]
            for r in range(k)]
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


BELOW_2_512 = "1.3407807929942596e+154"  # an mc-strong INR whose standard error overflows
# finite, zero, negative, huge, tiny and non-finite values
NUMBERS = st.sampled_from(["nan", "inf", "-inf"]) | st.sampled_from([
    "0", "-0", "-1", "0.5", "1", "3", "100", "1e4", "1e300", "1e308", "-1e308", "5e-324",
    BELOW_2_512,
]) | st.floats(0.01, 1e6).map(repr)
SMALL = st.integers(-1, 6)
SIGN_FILES = st.none() | st.builds(_sign_text, st.integers(0, 63), st.just(3)) \
    | st.builds(_sign_text, st.integers(0, 4095), st.just(4))
# every sign file from 1 x 1 to 4 x 4
QSYM_SIGN_FILES = st.integers(1, 4).flatmap(
    lambda k: st.builds(_sign_text, st.integers(0, 2 ** (k * (k - 1)) - 1), st.just(k)))
P_POOL = st.sampled_from([2, 4, 5, 1073741827])
# (flags always drawn, flags drawn or left at their default); the sizes are
# always drawn, so that every run stays small
FLAGS = {
    "det-converse": (dict(n=SMALL, m=SMALL), dict(k=st.integers(-1, 5))),
    "det-verify": (dict(k=st.integers(-1, 5), n=SMALL, m=SMALL, trials=st.integers(-1, 5)),
                   dict(seed=st.integers(-1, 2**70), p=P_POOL)),
    "gauss-rates": (dict(snr=NUMBERS, inr=NUMBERS), dict(k=st.integers(-1, 5))),
    "gdof": (dict(steps=st.integers(-1, 100)),
             {"alpha-min": NUMBERS, "alpha-max": NUMBERS, "k": st.integers(-1, 5)}),
    "lattice-demo": (dict(trials=st.integers(-1, 100)),
                     {"coarse-step": NUMBERS, "refinement": st.integers(-1, 16),
                      "users": st.integers(-1, 5), "noise-sigma": NUMBERS,
                      "seed": st.integers(-1, 2**70)}),
    # an INR one draw in four at BELOW_2_512, so the fuzz reaches that overflow
    "mc-strong": (dict(snr=NUMBERS, inr=NUMBERS | st.just(BELOW_2_512),
                       block=st.integers(-1, 100), trials=st.integers(-1, 5)),
                  dict(k=st.integers(-1, 5), seed=st.integers(-1, 2**70))),
    "qsym": (dict(regime=st.sampled_from(["weak", "strong", "moderate"])), dict(p=P_POOL)),
}


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=350, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(FLAGS)), data=st.data())
def test_every_input_exits_with_a_contract_code(command, data):
    """Whatever the flags, a run returns 0-4 and raises nothing, warns
    nothing, and writes only standard JSON (no NaN or Infinity)."""
    required, optional = FLAGS[command]
    flags = {name: data.draw(strategy, label=name) for name, strategy in required.items()}
    flags.update((name, data.draw(st.none() | strategy, label=name))
                 for name, strategy in optional.items())
    signs = (data.draw(SIGN_FILES, label="signs") if command.startswith("det-")
             else data.draw(QSYM_SIGN_FILES, label="signs") if command == "qsym" else None)
    dump = command == "det-verify" and data.draw(st.booleans(), label="dump")
    with tempfile.TemporaryDirectory() as tmp:
        # "--flag=value", so a value such as -inf is not read as a flag
        argv = [command] + [f"--{name}={v}" for name, v in flags.items() if v is not None]
        if signs is not None:
            (pathlib.Path(tmp) / "signs.txt").write_text(signs)
            argv.append(f"--signs={tmp}/signs.txt")
        if dump:
            argv.append(f"--dump={tmp}/dump.json")
        out = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage failures
                code = exc.code
    assert code in (0, 1, 2, 3, 4), argv
    assert [str(w.message) for w in caught] == [], argv
    if command != "gdof" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# mc-strong / lattice-demo
# ---------------------------------------------------------------------------

def test_mc_strong_json(capsys):
    args = (
        "mc-strong", "--snr", "1", "--inr", "10", "--k", "2",
        "--block", "10000", "--trials", "10", "--seed", "1",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted_noise_power"] == pytest.approx(41 / 21)
    assert doc["noise_power_hat"] == pytest.approx(41 / 21, abs=0.05)
    assert doc["rng"] == "philox/1"
    # byte-identical rerun
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out


def test_mc_strong_regime_mismatch_exits_4(capsys):
    code, _, _ = run_cli(capsys, "mc-strong", "--snr", "100", "--inr", "100")
    assert code == 4


def test_lattice_demo(capsys):
    code, out, _ = run_cli(
        capsys, "lattice-demo", "--coarse-step", "1", "--refinement", "8",
        "--users", "3", "--noise-sigma", "0.0", "--trials", "4000", "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closure_ok"] is True
    assert doc["noiseless_success_rate"] == 1.0
    assert len(doc["codebook"]) == 8


def test_lattice_demo_default_stdout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "lattice-demo")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ed7c13f7756a6a3fa3e28741d248bf260d426b9459aa3341ebb16de182f097ae"
    )


@pytest.mark.parametrize("command,seed,code", [
    ("mc-strong", -5, 2), ("mc-strong", 2**64 - 1, 0), ("mc-strong", 2**64, 2),
    # the noisy run draws with seed + 1, so the last seed lattice-demo takes is 2^64 - 2
    ("lattice-demo", -1, 2), ("lattice-demo", 2**64 - 2, 0), ("lattice-demo", 2**64 - 1, 2),
])
def test_seeds_outside_the_philox_key_range_exit_2(capsys, command, seed, code):
    """Philox keys are 64-bit words: a seed outside [0, 2^64) is one error
    line and exit 2, not the stream of the seed it equals mod 2^64."""
    flags = (("--snr", "1", "--inr", "10", "--block", "50", "--trials", "2")
             if command == "mc-strong" else ("--noise-sigma", "0.05", "--trials", "100"))
    got, out, err = run_cli(capsys, command, *flags, f"--seed={seed}")
    assert got == code
    if code == 2:
        assert out == "" and err.count("\n") == 1
        limit = "2^64)" if command == "mc-strong" else "2^64 - 2]"
        assert err.startswith(f"error: seed must be in [0, {limit}, got {seed}")


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
def test_lattice_demo_checks_its_seed_before_any_draw(capsys, monkeypatch, seed):
    """The error names the seed the user gave, not seed + 1, and no trial
    is drawn first."""
    def never(*args, **kwargs):
        raise AssertionError("sum_decode_check ran")

    monkeypatch.setattr(gauss_sim, "sum_decode_check", never)
    code, out, err = run_cli(capsys, "lattice-demo", f"--seed={seed}")
    assert (code, out) == (2, "")
    assert err == (f"error: seed must be in [0, 2^64 - 2], got {seed} "
                   "(the noisy run draws with seed + 1)\n")


@pytest.mark.parametrize("flags", [("--refinement", "10"), ("--refinement", "3"),
                                   ("--coarse-step", "0.3")])
def test_lattice_demo_closure_on_non_dyadic_codebooks(capsys, flags):
    """Codebook points that binary64 cannot hold exactly are still closed
    under mod-c addition: closure compares fine-lattice coset indices."""
    code, out, _ = run_cli(capsys, "lattice-demo", *flags, "--trials", "1000")
    doc = json.loads(out)
    assert doc["closure_ok"] is True
    assert doc["noiseless_success_rate"] == 1.0
    assert code == 0


@pytest.mark.parametrize("edit", ["drop", "shift"])
def test_lattice_demo_detects_an_unclosed_codebook(capsys, monkeypatch, edit):
    """A codebook missing a coset, or off the fine lattice, fails closure."""
    real = gauss_sim.make_lattice

    def broken(c, m):
        lat = real(c, m)
        book = lat.codebook + lat.fine_step / 4 if edit == "shift" else \
            np.concatenate([lat.codebook[:1], lat.codebook[:-1]])  # the last coset dropped
        return dataclasses.replace(lat, codebook=book)

    monkeypatch.setattr(gauss_sim, "make_lattice", broken)
    code, out, _ = run_cli(capsys, "lattice-demo", "--refinement", "10", "--trials", "100")
    assert json.loads(out)["closure_ok"] is False
    assert code == 1


# ---------------------------------------------------------------------------
# the exit contract: one exception type per failure code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,code,prefix", [
    # K = 1 mod 2: the strong decode matrix is singular over GF(2)
    (("det-verify", "--k", "3", "--n", "1", "--m", "2", "--p", "2"), 3, "infeasible: "),
    # Delta's constant term B + V - A - U vanishes on the whole solution space
    (("qsym", "--signs", "{signs}", "--regime", "moderate", "--p", "3"), 3, "infeasible: "),
    (("gauss-rates", "--snr", "10", "--inr", "10"), 4, "regime mismatch: "),  # excluded band
    (("mc-strong", "--snr", "10", "--inr", "3"), 4, "regime mismatch: "),  # not strong
])
def test_each_failure_exit_code_has_one_exception_type(capsys, tmp_path, argv, code, prefix):
    signs = tmp_path / "signs.txt"
    signs.write_text("0 -1 1\n1 0 -1\n1 -1 0\n")
    got, out, err = run_cli(capsys, *(a.format(signs=signs) for a in argv))
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    assert issubclass(schemes.NoSolution, gf.SingularSystem)
    assert fcic.RegimeMismatch is rates.RegimeMismatch
    assert not hasattr(rates, "ExcludedRegime")
