"""Run the committed command-line cases on two source trees and report every
difference.

Usage: python tools/cli_diff.py OLD_ROOT NEW_ROOT [--case NAME ...]

Each root is a checkout holding `src/fcic`.  Each case of `CASES` runs once
per root as `python -m fcic ...` with that root's `src` alone on PYTHONPATH
and PYTHONDONTWRITEBYTECODE=1, so no run leaves a bytecode cache in either
tree to speed up a later import.  It runs in a fresh temporary directory
that holds the sign files of `SIGNS` and receives a `--dump` file.  The
tool compares the exit code, stdout, stderr and dump bytes.

Prints each case and field that differ, with the start of a line diff, and
exits 1 if there is one; prints nothing and exits 0 when every case
matches.  `--case` runs only the named cases.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# K = 3 sign matrices: the benchmark's det-signed matrix (no prime aligns it
# at m = n, exit 3), one with Lambda + I singular, one that aligns at m = n;
# then one sign matrix per rank branch of K != 3: Lambda + I of rank 1
# (lambda_kj = d_k d_j), of rank 2 (singular, no product), of full rank 4
# (no prime aligns it at m = n), and a K = 2 one of full rank; the
# benchmark's sign matrix 62, whose strong GF(3) point lies past the
# solver's first prefix, and a K = 5 one no prime aligns in the strong regime
SIGNS = {
    "unaligned.txt": "0 1 -1\n-1 0 1\n1 1 0\n",
    "singular.txt": "0 -1 1\n1 0 -1\n1 -1 0\n",
    "aligned.txt": "0 1 1\n1 0 -1\n1 -1 0\n",
    "matrix-62.txt": "0 1 -1\n-1 0 -1\n-1 -1 0\n",
    "k5-unaligned.txt": "0 1 1 -1 -1\n-1 0 -1 -1 1\n1 1 0 1 1\n1 1 1 0 1\n-1 1 1 -1 0\n",
    "k4-product.txt": "0 -1 -1 -1\n-1 0 1 1\n-1 1 0 1\n-1 1 1 0\n",
    "k4-rank-2.txt": "0 -1 -1 -1\n-1 0 -1 -1\n-1 1 0 1\n-1 1 1 0\n",
    "k4-unaligned.txt": "0 1 1 1\n1 0 1 -1\n1 -1 0 1\n1 -1 -1 0\n",
    "k2-crossed.txt": "0 1\n-1 0\n",
}
DUMP = "dump.json"
BELOW_2_512 = "1.3407807929942596e+154"  # the largest float below 2^512

CASES = {
    # the benchmark's four `python -m fcic` commands
    "bench-det-sweep": ("det-verify", "--k", "5", "--n", "6", "--m", "1", "--trials", "10000",
                        "--seed", "1"),
    "bench-det-large": ("det-verify", "--k", "8", "--n", "64", "--m", "32", "--seed", "2"),
    "bench-det-signed": ("det-verify", "--k", "3", "--n", "2", "--m", "2",
                         "--signs", "unaligned.txt", "--seed", "3"),
    "bench-gauss": ("gauss-gap", "--snr-grid", "logspace:1:1e8:100",
                    "--inr-grid", "logspace:1:1e8:100", "--k-list", "2,3,5,8"),
    # signed builds: the solver at m < n, m > n and m = n, time sharing, exit 3
    "det-verify-weak-dump": ("det-verify", "--k", "3", "--n", "2", "--m", "1", "--signs",
                             "aligned.txt", "--trials", "40", "--seed", "3", "--dump", DUMP),
    "det-verify-strong": ("det-verify", "--k", "3", "--n", "1", "--m", "2",
                          "--signs", "singular.txt"),
    "det-verify-moderate-dump": ("det-verify", "--k", "3", "--n", "2", "--m", "2", "--p", "5",
                                 "--signs", "aligned.txt", "--dump", DUMP),
    "det-verify-time-sharing": ("det-verify", "--k", "3", "--n", "2", "--m", "2",
                                "--signs", "singular.txt", "--dump", DUMP),
    "det-verify-exit-3-dump": ("det-verify", "--k", "3", "--n", "3", "--m", "3",
                               "--signs", "unaligned.txt", "--dump", DUMP),
    "det-verify-usage": ("det-verify", "--k", "1", "--n", "1", "--m", "1"),
    # the replay's binary64 and int64 tiers: 5 (p - 1)^2 passes 2^24, then 2^53
    "det-verify-replay-binary64": ("det-verify", "--k", "3", "--n", "2", "--m", "1",
                                   "--p", "4099"),
    "det-verify-replay-int64": ("det-verify", "--k", "3", "--n", "2", "--m", "1",
                                "--p", "1073741827"),
    "det-converse-signed": ("det-converse", "--n", "2", "--m", "2", "--signs", "aligned.txt"),
    # K != 3: the rank of Lambda + I picks the converse, or none (exit 2)
    "det-converse-k4-product": ("det-converse", "--n", "2", "--m", "2", "--k", "4",
                                "--signs", "k4-product.txt"),
    "det-converse-k4-rank-2": ("det-converse", "--n", "2", "--m", "2", "--k", "4",
                               "--signs", "k4-rank-2.txt"),
    "det-converse-k2-crossed": ("det-converse", "--n", "2", "--m", "1", "--k", "2",
                                "--signs", "k2-crossed.txt"),
    # the rank taken off m = n: rank 1 gives m < n's rate, rank 4 no converse
    "det-converse-k4-product-weak": ("det-converse", "--n", "3", "--m", "1", "--k", "4",
                                     "--signs", "k4-product.txt"),
    "det-converse-k4-unaligned-strong": ("det-converse", "--n", "1", "--m", "3", "--k", "4",
                                         "--signs", "k4-unaligned.txt"),
    "det-verify-k4-product-weak": ("det-verify", "--k", "4", "--n", "3", "--m", "1",
                                   "--signs", "k4-product.txt"),
    # time sharing before the scan (singular) and after a failed scan
    "det-verify-k4-rank-2": ("det-verify", "--k", "4", "--n", "2", "--m", "2",
                             "--signs", "k4-rank-2.txt"),
    "det-verify-k4-unaligned": ("det-verify", "--k", "4", "--n", "2", "--m", "2",
                                "--signs", "k4-unaligned.txt"),
    "qsym-p3": ("qsym", "--signs", "aligned.txt", "--regime", "moderate", "--p", "3"),
    "qsym-moderate-p5": ("qsym", "--signs", "aligned.txt", "--regime", "moderate", "--p", "5"),
    "qsym-p5": ("qsym", "--signs", "singular.txt", "--regime", "strong", "--p", "5"),
    "qsym-exit-3": ("qsym", "--signs", "singular.txt", "--regime", "moderate", "--p", "5"),
    # 101^4 candidates pass the enumeration cap; GF(2) exhausts its 16 (exit 3)
    "qsym-weak-p101": ("qsym", "--signs", "aligned.txt", "--regime", "weak", "--p", "101"),
    "qsym-strong-p2-exit-3": ("qsym", "--signs", "aligned.txt", "--regime", "strong",
                              "--p", "2"),
    # a point past the first prefix; a K = 5 GF(2) walk that runs out of its 64 (exit 3)
    "qsym-matrix-62-strong-p3": ("qsym", "--signs", "matrix-62.txt", "--regime", "strong",
                                 "--p", "3"),
    "det-verify-k5-strong-p2-exit-3": ("det-verify", "--k", "5", "--n", "1", "--m", "2",
                                       "--p", "2", "--signs", "k5-unaligned.txt"),
    "gdof": ("gdof", "--steps", "9", "--k", "3"),
    "gauss-rates": ("gauss-rates", "--snr", "100", "--inr", "1000", "--k", "3"),
    "gauss-gap-inr-2": ("gauss-gap", "--snr-grid", "1,1e19,1e300",
                        "--inr-grid", "1.9999999,2,2.0000001", "--k-list", "2,3,8"),
    "gauss-gap-square-overflow": ("gauss-gap", "--snr-grid", "1,1.5e308",
                                  "--inr-grid", "7e307,1e200", "--k-list", "2"),
    "gauss-gap-sum-overflow": ("gauss-gap", "--snr-grid", "1.5e308", "--inr-grid", "2,7e307",
                               "--k-list", "2"),
    "gauss-gap-below-2-512": ("gauss-gap", "--snr-grid", "1", "--inr-grid", BELOW_2_512,
                              "--k-list", "2,3"),
    "mc-strong": ("mc-strong", "--snr", "1", "--inr", "10", "--block", "1000", "--trials", "4",
                  "--seed", "1"),
    # a one-column block changed this input's stdout before commit 4d05f3e
    "mc-strong-k8-block-tail": ("mc-strong", "--snr", "2", "--inr", "1e12", "--k", "8",
                                "--block", "16385", "--trials", "3", "--seed", "3"),
    "mc-strong-below-2-512": ("mc-strong", "--snr", "1", "--inr", BELOW_2_512,
                              "--block", "2", "--trials", "1"),
    "mc-strong-k3-below-2-512": ("mc-strong", "--snr", "1", "--inr", BELOW_2_512, "--k", "3",
                                 "--block", "2", "--trials", "1"),
    "lattice-demo": ("lattice-demo", "--trials", "2000", "--seed", "1"),
    "lattice-demo-noisy": ("lattice-demo", "--noise-sigma", "0.02", "--trials", "2000",
                           "--seed", "1"),
    # from 8 users the sum over users is numpy's pairwise row sum
    "lattice-demo-k8": ("lattice-demo", "--users", "8", "--trials", "2000", "--seed", "1"),
    "lattice-demo-k9-noisy": ("lattice-demo", "--users", "9", "--noise-sigma", "0.02",
                              "--trials", "2000", "--seed", "1"),
}

_TIMEOUT_S = 300
_DIFF_LINES = 12  # diff lines shown per field
_LINE_CHARS = 160  # characters shown per diff line


def run_case(root: Path, argv) -> dict[str, bytes]:
    """Exit code, stdout, stderr and dump file of `python -m fcic argv` on
    the tree at `root`, as bytes."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in SIGNS.items():
            Path(work, name).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "fcic", *argv], cwd=work, env=env,
                              capture_output=True, timeout=_TIMEOUT_S)
        dump = Path(work, DUMP)
        return {
            "exit code": str(done.returncode).encode(),
            "stdout": done.stdout,
            "stderr": done.stderr,
            "dump": dump.read_bytes() if dump.exists() else b"(no file)",
        }


def differences(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One header line per field that differs, each with the start of its
    line diff, old to new."""
    out = []
    for field in old:
        if old[field] != new[field]:
            a, b = (side[field].decode(errors="replace").splitlines() for side in (old, new))
            diff = list(difflib.unified_diff(a, b, "old", "new", lineterm="", n=0))
            out.append(f"{name}: {field} differs")
            out += [f"  {line[:_LINE_CHARS]}" for line in diff[2:2 + _DIFF_LINES]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cli_diff", description="compare `python -m fcic` on two source trees")
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--case", action="append", choices=list(CASES),
                        help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in (args.old_root, args.new_root)]
    for root in roots:
        if not (root / "src" / "fcic" / "__init__.py").is_file():
            parser.error(f"no fcic package under {root / 'src'}")
    report = []
    for name in args.case or CASES:
        report += differences(name, *(run_case(root, CASES[name]) for root in roots))
    if report:
        print("\n".join(report))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
