import dataclasses
import json

import numpy as np
import pytest

from fcic import schemes
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
    assert "rank-deficient" in err
    assert "[" in err  # the offending matrix is printed


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


def test_det_verify_bad_input_exits_2(capsys):
    code, _, _ = run_cli(capsys, "det-verify", "--k", "1", "--n", "2", "--m", "1")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "det-verify", "--k", "3", "--n", "2", "--m", "1", "--p", "6"
    )
    assert code == 2


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
