"""Command line interface: weight export, simulation, convergence, verify.

Exit codes: 0 on success, 2 when `verify` finds a tolerance violation,
1 on any runtime error.
"""

import argparse
import math
import sys
from pathlib import Path

from . import _checks, harness
from .models import BENCHMARK_NAMES

__all__ = ["main", "build_parser"]


def _step_list(text: str):
    try:
        steps = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if not steps:
        raise argparse.ArgumentTypeError("empty step list")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvi",
        description="Variational integrators with convolution-quadrature "
                    "damping: weight tables, benchmark runs, convergence "
                    "studies and the acceptance checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="export convolution weights as CSV")
    w.add_argument("--method", choices=harness.METHOD_NAMES,
                   default="lobatto2")
    w.add_argument("--derivative-order", type=float, default=1.0,
                   help="operator order; negative orders are integrals")
    w.add_argument("--h", type=float, default=0.1, help="step size")
    w.add_argument("--steps", type=int, default=64,
                   help="number of weights past W_0")
    w.add_argument("--out-dir", default=".")
    w.set_defaults(func=cmd_weights)

    s = sub.add_parser("simulate",
                       help="run one benchmark and write CSV + manifest")
    s.add_argument("--spec", choices=BENCHMARK_NAMES, required=True)
    s.add_argument("--method", choices=harness.METHOD_NAMES,
                   default="lobatto2")
    s.add_argument("--steps", type=int, help="number of time steps")
    s.add_argument("--h", type=float,
                   help="step size; alternative to --steps")
    s.add_argument("--horizon", type=float,
                   help="final time (default: benchmark horizon)")
    s.add_argument("--derivative-order", type=float,
                   help="override the damping derivative order "
                        "(drops the exact solution)")
    s.add_argument("--out-dir", default=".")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("converge", help="step-size sweep with slope fits")
    c.add_argument("--spec", choices=BENCHMARK_NAMES, required=True)
    c.add_argument("--method", choices=harness.METHOD_NAMES,
                   default="lobatto2")
    c.add_argument("--steps", type=_step_list, required=True,
                   help="comma-separated step counts, e.g. 4,8,16,32")
    c.add_argument("--horizon", type=float)
    c.add_argument("--out-dir", help="also write the report as CSV here")
    c.set_defaults(func=cmd_converge)

    v = sub.add_parser("verify", help="run the acceptance checks")
    v.set_defaults(func=cmd_verify)
    return parser


def cmd_weights(args) -> int:
    order = args.derivative_order
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    name = f"weights-{args.method}-order{order:g}-h{args.h:g}-N{args.steps}.csv"
    out = harness.export_weights(args.method, -order, args.h, args.steps,
                                 path / name)
    print(out)
    return 0


def _resolve_steps(args, horizon: float) -> int:
    if args.steps is not None:
        return args.steps
    if args.h is not None:
        _checks.real("--h", args.h, 0.0)
        if not math.isfinite(horizon / args.h):
            raise ValueError(f"--h {args.h!r} is too small: horizon/h is not finite")
        return max(1, round(horizon / args.h))
    raise ValueError("one of --steps or --h is required")


def cmd_simulate(args) -> int:
    from .models import by_name

    spec = by_name(args.spec)
    horizon = harness._horizon(spec, args.horizon)
    steps = _resolve_steps(args, horizon)
    manifest = harness.simulate(spec, args.method, steps, horizon,
                                out_dir=args.out_dir,
                                derivative_order=args.derivative_order)
    out = Path(args.out_dir)
    for kind, name in sorted(manifest["files"].items()):
        print(f"{kind}: {out / name}")
    if manifest["max_node_error_x"] is not None:
        print(f"max node error x: {manifest['max_node_error_x']:.6e}")
    return 0


def cmd_converge(args) -> int:
    report = harness.converge(args.spec, args.method, args.steps,
                              horizon=args.horizon)
    print(harness.format_report(report))
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = f"converge-{report.spec_name}-{report.method}.csv"
        print(harness.write_report_csv(report, out / name))
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_line(res))
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
