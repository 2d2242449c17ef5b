"""Command-line front end: every analysis and simulation as a subcommand.

stdout carries machine-readable data (CSV or JSON), stderr carries human
diagnostics.  Exit codes are a stable contract:

    0  success
    2  usage error (bad flags, malformed values, sizes too large to
       allocate, or values whose results overflow binary64)
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


def _fmt_column(values: np.ndarray) -> list[str]:
    """12-significant-digit CSV numbers, one per element; NaN spelled 'NaN'."""
    text = list(map("%.12g".__mod__, values.tolist()))
    for n in np.flatnonzero(np.isnan(values)).tolist():
        text[n] = "NaN"
    return text


def _parse_grid(text: str) -> np.ndarray:
    """Comma-separated positive finite reals, or logspace:lo:hi:n."""
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"bad logspace grid {text!r}")
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        if not (0 < lo < hi < math.inf) or count < 2:
            raise ValueError(f"bad logspace range {text!r}")
        return np.geomspace(lo, hi, count)
    vals = np.array([float(v) for v in text.split(",")])
    if vals.size == 0 or not ((vals > 0) & np.isfinite(vals)).all():
        raise ValueError(f"grid values must be positive and finite, got {text!r}")
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
    if not (0 <= args.alpha_min < args.alpha_max < math.inf):
        raise ValueError("need 0 <= alpha-min < alpha-max < inf")
    if args.steps < 2:
        raise ValueError("need steps >= 2")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    # first, so that gdof_nofb rejects k < 2 on the first alpha
    d_nofb = np.array([rates.gdof_nofb(a, args.k) for a in alphas.tolist()])
    d_fb = np.array([rates.gdof_fb(a) for a in alphas.tolist()])
    rows = map(",".join, zip(_fmt_column(alphas), _fmt_column(d_fb), _fmt_column(d_nofb)))
    sys.stdout.write("\n".join(["alpha,d_fb,d_nofb", *rows, ""]))
    return EXIT_OK


def cmd_det_converse(args) -> int:
    signs = _read_signs(args.signs) if args.signs is not None else None
    rate = rates.det_converse(args.n, args.m, args.k, signs)
    if rate is None:
        raise ValueError(f"no converse is established for a signed {args.k}-user channel")
    print(json.dumps({
        "n": args.n, "m": args.m, "k": args.k,
        "rate": rates.rate_json(rate),
    }))
    return EXIT_OK


def cmd_det_verify(args) -> int:
    signs = _read_signs(args.signs) if args.signs is not None else None
    scheme = schemes.build_scheme(args.k, args.n, args.m, p=args.p, signs=signs)
    report = schemes.verify_scheme(scheme.params, scheme, args.trials, args.seed)
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(report.transcript.to_json_dict(), fh)
        print(f"transcript written to {args.dump}", file=sys.stderr)
    doc = report.to_json_dict()
    print(json.dumps(doc))
    return EXIT_OK if report.all_passed and doc["matches_converse"] is not False else 1


def cmd_qsym(args) -> int:
    signs = _read_signs(args.signs)
    sol = schemes.qsym_solve(signs, args.regime, args.p)
    margins = [schemes.two_block_delta(0, a, b, u, v, args.p)[0]
               for a, b, u, v in zip(sol.a, sol.b, sol.u, sol.v)]
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
    fact = rates.gauss_achievable(rates.GaussParams(snr=args.snr, inr=args.inr, k=args.k))
    print(json.dumps({
        "snr": args.snr, "inr": args.inr, "k": args.k,
        "regime": fact.regime,
        "achievable": fact.achievable,
        "constraints_ok": fact.constraints_ok,
        "c_tilde": fact.c_tilde,
        "upper": fact.upper,
    }))
    return EXIT_OK


def cmd_gauss_gap(args) -> int:
    snrs, inrs = _parse_grid(args.snr_grid), _parse_grid(args.inr_grid)
    ks = sorted(int(v) for v in args.k_list.split(","))
    snrs, inrs = np.sort(snrs), np.sort(inrs)
    forms = rates.gap_grid(snrs, inrs, ks)
    # rows run SNR, then INR, then K; a K listed twice gives its rows twice
    snr_text, inr_text = _fmt_column(snrs), _fmt_column(inrs)
    flagged = forms.bad.any(axis=1).T  # (point, K), in row order

    def per_row(column):  # a K-free column, formatted once per point
        return [v for v in column for _ in ks]

    rows = map(",".join, zip(
        per_row([f"{s},{i}" for s in snr_text for i in inr_text]),
        [str(k) for k in ks] * forms.c_tilde.size,
        per_row(forms.regime.tolist()), _fmt_column(forms.rate.T.ravel()),
        per_row(_fmt_column(forms.c_tilde)), _fmt_column(forms.upper.T.ravel()),
        map(("true", "false").__getitem__, flagged.ravel().tolist()),
    ))
    sys.stdout.write("\n".join(["snr,inr,k,regime,achievable,c_tilde,upper,gap_ok", *rows, ""]))
    lines = [
        f"gap violated: snr={snr_text[n // inrs.size]} inr={inr_text[n % inrs.size]} "
        f"k={ks[r]} violations={','.join(forms.violations(r, n))}"
        for n, r in np.argwhere(flagged).tolist()
    ]
    print("\n".join(lines + [f"violations={len(lines)}"]), file=sys.stderr)
    return EXIT_OK if not lines else 1


def cmd_mc_strong(args) -> int:
    cfg = gauss_sim.MCConfig(
        params=rates.GaussParams(snr=args.snr, inr=args.inr, k=args.k),
        block_len=args.block,
        trials=args.trials,
        seed=args.seed,
    )
    stats = gauss_sim.simulate_strong_two_block(cfg)
    print(json.dumps(stats.to_json_dict()))
    failures = stats.gate_failures()
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else EXIT_OK


def cmd_lattice_demo(args) -> int:
    if not 0 <= args.seed <= 2**64 - 2:  # checked before any draw
        raise ValueError(
            f"seed must be in [0, 2^64 - 2], got {args.seed} (the noisy run draws with seed + 1)"
        )
    lat = gauss_sim.make_lattice(args.coarse_step, args.refinement)
    closure_ok = gauss_sim.codebook_closed(lat)
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
        "codebook": [float(v) for v in lat.codebook],
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
    """Run one subcommand and return its exit code.  A command returns 0, or
    1 for a failed verdict; every failure reaches this function as an
    exception, and only here is it mapped to its exit code and stderr line."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularSystem as exc:  # schemes.NoSolution included
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except rates.RegimeMismatch as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except MemoryError as exc:  # a size too large to allocate
        msg = str(exc) or "out of memory"
    except (OverflowError, FloatingPointError) as exc:  # beyond the binary64 range
        msg = f"a value is too large for binary64 floating point: {exc}"
    except (ValueError, OSError) as exc:
        msg = str(exc)
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
