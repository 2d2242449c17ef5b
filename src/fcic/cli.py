"""Command-line front end: every analysis and simulation as a subcommand.

stdout carries machine-readable data (CSV or JSON), stderr carries human
diagnostics.  Exit codes are a stable contract:

    0  success
    2  usage error (bad flags or malformed values)
    3  singular or infeasible construction
    4  regime mismatch / excluded parameter band

CSV uses '.' decimals, 12 significant digits, LF line endings; JSON key
order is fixed.  A rerun with identical flags and seed produces
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gauss_sim, rates, schemes
from .gf import SingularSystem

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_REGIME = 4


def _fmt(x: float) -> str:
    """12-significant-digit CSV number; NaN spelled 'NaN'."""
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.12g}"


def _die_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _parse_grid(text: str) -> np.ndarray:
    """Comma-separated positive reals, or logspace:lo:hi:n."""
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad logspace grid {text!r}")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if lo <= 0 or hi <= lo or count < 2:
            raise ValueError(f"bad logspace range {text!r}")
        return np.geomspace(lo, hi, count)
    vals = np.array([float(v) for v in text.split(",")])
    if vals.size == 0 or (vals <= 0).any():
        raise ValueError(f"grid values must be positive, got {text!r}")
    return vals


def _read_signs(path: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(tuple(int(v) for v in line.split()))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError(f"sign file {path} is not a square matrix")
    return tuple(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gdof(args) -> int:
    if not (0 <= args.alpha_min < args.alpha_max):
        return _die_usage("need 0 <= alpha-min < alpha-max")
    if args.steps < 2:
        return _die_usage("need steps >= 2")
    if args.k < 2:
        return _die_usage("need k >= 2")
    print("alpha,d_fb,d_nofb")
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.steps):
        a = float(alpha)
        print(f"{_fmt(a)},{_fmt(rates.gdof_fb(a))},{_fmt(rates.gdof_nofb(a, args.k))}")
    return EXIT_OK


def cmd_det_converse(args) -> int:
    if args.k < 2 or args.n < 0 or args.m < 0 or args.n + args.m == 0:
        return _die_usage("need k >= 2, n, m >= 0, n + m >= 1")
    if args.signs is not None:
        signs = _read_signs(args.signs)
        rate = rates.qsym_converse(args.n, args.m, signs)
    else:
        rate = rates.det_converse(args.n, args.m, args.k)
    print(json.dumps({
        "n": args.n, "m": args.m, "k": args.k,
        "rate": {"num": rate.numerator, "den": rate.denominator},
    }))
    return EXIT_OK


def cmd_det_verify(args) -> int:
    if args.k < 2 or args.n < 0 or args.m < 0 or args.n + args.m == 0:
        return _die_usage("need k >= 2, n, m >= 0, n + m >= 1")
    if args.trials < 1:
        return _die_usage("need trials >= 1")
    signs = _read_signs(args.signs) if args.signs else None
    scheme = schemes.build_scheme(args.k, args.n, args.m, p=args.p, signs=signs)
    report = schemes.verify_scheme(scheme.params, scheme, args.trials, args.seed)
    if args.dump:
        tr = report.first_failure if report.first_failure is not None else report.first_trial
        with open(args.dump, "w") as fh:
            json.dump(tr.to_json_dict(), fh)
        print(f"transcript written to {args.dump}", file=sys.stderr)
    print(json.dumps(report.to_json_dict()))
    return EXIT_OK if report.all_passed and report.matches_converse else 1


def cmd_qsym(args) -> int:
    signs = _read_signs(args.signs)
    sol = schemes.qsym_solve(signs, args.regime, args.p)
    lam = np.asarray(signs)
    margins = [
        int(schemes.moderate_margin(sol.a[k], sol.b[k], sol.u[k], sol.v[k], args.p))
        for k in range(lam.shape[0])
    ]
    print(json.dumps({
        "signs": [list(r) for r in signs],
        "regime": args.regime,
        "p": args.p,
        "solution": sol.to_json_dict(),
        "identity_ok": True,  # checked at AlignmentSolution construction
        "moderate_margins": margins,
    }))
    return EXIT_OK


def cmd_gauss_rates(args) -> int:
    if args.k < 2:
        return _die_usage("need k >= 2")
    params = rates.GaussParams(snr=args.snr, inr=args.inr, k=args.k)
    ach = rates.gauss_achievable(params)
    print(json.dumps({
        "snr": args.snr, "inr": args.inr, "k": args.k,
        "regime": ach.regime,
        "achievable": ach.rate,
        "constraints_ok": ach.constraints_ok,
        "c_tilde": rates.c_sym_tilde(params),
        "upper": rates.gauss_upper(params),
    }))
    return EXIT_OK


def cmd_gauss_gap(args) -> int:
    try:
        snrs = _parse_grid(args.snr_grid)
        inrs = _parse_grid(args.inr_grid)
        ks = [int(v) for v in args.k_list.split(",")]
    except ValueError as exc:
        return _die_usage(str(exc))
    if any(k < 2 for k in ks):
        return _die_usage("every k must be >= 2")
    points = [
        rates.GaussParams(snr=float(s), inr=float(i), k=k)
        for s in np.sort(snrs) for i in np.sort(inrs) for k in sorted(ks)
    ]
    facts = rates.gap_report(points)
    print("snr,inr,k,regime,achievable,c_tilde,upper,gap_ok")
    violations = 0
    for f in facts:
        if not f.gap_ok:
            violations += 1
            print(
                f"gap violated: snr={_fmt(f.params.snr)} inr={_fmt(f.params.inr)} "
                f"k={f.params.k} violations={','.join(f.violations)}",
                file=sys.stderr,
            )
        print(
            f"{_fmt(f.params.snr)},{_fmt(f.params.inr)},{f.params.k},"
            f"{f.regime},{_fmt(f.achievable)},{_fmt(f.c_tilde)},"
            f"{_fmt(f.upper)},{'true' if f.gap_ok else 'false'}"
        )
    print(f"violations={violations}", file=sys.stderr)
    return EXIT_OK if violations == 0 else 1


def cmd_mc_strong(args) -> int:
    if args.k < 2:
        return _die_usage("need k >= 2")
    cfg = gauss_sim.MCConfig(
        params=rates.GaussParams(snr=args.snr, inr=args.inr, k=args.k),
        block_len=args.block,
        trials=args.trials,
        seed=args.seed,
    )
    stats = gauss_sim.simulate_strong_two_block(cfg)
    print(json.dumps(stats.to_json_dict()))
    return EXIT_OK if stats.gates_ok else 1


def cmd_lattice_demo(args) -> int:
    if args.users < 2:
        return _die_usage("need users >= 2")
    lat = gauss_sim.make_lattice(args.coarse_step, args.refinement)
    book = lat.codebook
    sums = book[:, None] + book[None, :]
    closure_ok = bool(np.isin(gauss_sim.mod_lattice(sums, lat), book).all())
    clean = gauss_sim.sum_decode_check(args.users, lat, 0.0, args.trials, args.seed)
    noisy = gauss_sim.sum_decode_check(
        args.users, lat, args.noise_sigma, args.trials, args.seed + 1
    )
    edge = lat.coarse_step / (2 * lat.refinement)
    predicted = (
        1.0 if args.noise_sigma == 0
        else 1.0 - 2.0 * gauss_sim.gaussian_tail(edge / args.noise_sigma)
    )
    print(json.dumps({
        "coarse_step": lat.coarse_step,
        "refinement": lat.refinement,
        "users": args.users,
        "codebook": [float(v) for v in book],
        "closure_ok": closure_ok,
        "noiseless_success_rate": clean,
        "noise_sigma": args.noise_sigma,
        "noisy_success_rate": noisy,
        "predicted_noisy_success": predicted,
        "seed": args.seed,
    }))
    return EXIT_OK if closure_ok and clean == 1.0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcic",
        description="Feedback coding on the K-user fully connected interference channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gdof", help="per-user GDoF curves as CSV")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=81)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_gdof)

    p = sub.add_parser("det-converse", help="deterministic symmetric capacity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--signs", type=str, default=None,
                   help="file with K rows of K signed entries (quasi-symmetric)")
    p.set_defaults(func=cmd_det_converse)

    p = sub.add_parser("det-verify", help="build a scheme and replay random messages")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, default=None, help="field size (auto if omitted)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--signs", type=str, default=None)
    p.add_argument("--dump", type=str, default=None,
                   help="write the first failing session's transcript (else "
                        "trial 0's) as JSON to this path")
    p.set_defaults(func=cmd_det_verify)

    p = sub.add_parser("qsym", help="solve the sign-matrix alignment equations")
    p.add_argument("--signs", type=str, required=True)
    p.add_argument("--regime", choices=("weak", "strong", "moderate"), required=True)
    p.add_argument("--p", type=int, default=5)
    p.set_defaults(func=cmd_qsym)

    p = sub.add_parser("gauss-rates", help="rates and bounds at one Gaussian point")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--inr", type=float, required=True)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_gauss_rates)

    p = sub.add_parser("gauss-gap", help="constant-gap sweep as CSV")
    p.add_argument("--snr-grid", type=str, required=True,
                   help="comma list or logspace:lo:hi:n")
    p.add_argument("--inr-grid", type=str, required=True)
    p.add_argument("--k-list", type=str, required=True)
    p.set_defaults(func=cmd_gauss_gap)

    p = sub.add_parser("mc-strong", help="strong-regime two-block Monte Carlo")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--inr", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--block", type=int, default=10000)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mc_strong)

    p = sub.add_parser("lattice-demo", help="1-D nested lattice structural checks")
    p.add_argument("--coarse-step", type=float, default=1.0)
    p.add_argument("--refinement", type=int, default=8)
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lattice_demo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _die_usage(str(exc))
    except (SingularSystem, schemes.NoSolution) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (schemes.RegimeMismatch, rates.ExcludedRegime) as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return EXIT_REGIME


def entry() -> None:
    raise SystemExit(main())
