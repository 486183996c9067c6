"""Command-line entry point: `sqlab <command> [flags]`.

Exit codes: 0 on success, 2 when a verified invariant fails, 1 on usage
errors.  Reports go to stdout or --out in JSON (default) or CSV.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .experiments import InvariantViolation
from .sparse import SparsityError


class _UsageErrorParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    invariant violations, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _dyadic_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        v = int(part)
        if v < 1 or v & (v - 1):
            raise argparse.ArgumentTypeError(f"{v} is not a power of two")
        out.append(v)
    return out


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageErrorParser(
        prog="sqlab",
        description="Verification experiments for averages along the square integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_UsageErrorParser)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--threads", type=int, default=1, help="parallelism cap")
        p.add_argument("--tol", type=float, default=None, help="override tolerance")

    p = sub.add_parser("gauss-check", help="closed-form Gauss sums vs direct summation")
    common(p)
    p.add_argument("--q-max", type=int, default=150)

    p = sub.add_parser("hsum-identities", help="identity web for the H-sum family")
    common(p)
    p.add_argument("--q-max", type=int, default=60)

    p = sub.add_parser("lowpass-scan", help="growth of the low-pass sum S_J")
    common(p)
    p.add_argument("--j", type=_dyadic_list, default=[64, 256, 1024], help="J values")
    p.add_argument("--x-max", type=int, default=20_000)
    p.add_argument("--adversarial", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("fjk-constant", help="normalized multiplier-remainder grid maxima")
    common(p)
    p.add_argument("--n", type=_dyadic_list, default=[256, 1024])
    p.add_argument("--grid", type=int, default=1 << 13)

    p = sub.add_parser("gamma-decay", help="oscillatory profile decay and quadrature audit")
    common(p)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--grid", type=int, default=200, help="number of sample points")

    p = sub.add_parser("improving-ratio", help="normalized-average improving ratios")
    common(p)
    p.add_argument("--n", type=_dyadic_list, default=[16, 32, 64, 128])
    p.add_argument("--p", type=float, default=1.6)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("orlicz-ratio", help="Orlicz-endpoint bilinear ratios")
    common(p)
    p.add_argument("--n", type=_dyadic_list, default=[16, 32, 64])
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("halfdim", help="superlevel-set size for sparse-set averages")
    common(p)
    p.add_argument("--n", type=_dyadic_list, default=[32, 64, 128])
    p.add_argument("--eps", type=_float_list, default=[0.25, 0.5, 1.5])
    p.add_argument("--strategy", choices=("random", "squares"), default="random")

    p = sub.add_parser("multifreq", help="multi-frequency maximal operator norms")
    common(p)
    p.add_argument("--s", type=_int_list, default=[1, 2, 3])
    p.add_argument("--octaves", type=int, default=3)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--grid", type=int, default=1 << 12)

    p = sub.add_parser("poly-average", help="improving ratios for polynomial averages")
    common(p)
    p.add_argument("--coeffs", type=_int_list, default=[0, 1, 1], help="increasing degree")
    p.add_argument("--n", type=_dyadic_list, default=[16, 32, 64])
    p.add_argument("--p", type=float, default=1.6)
    p.add_argument("--trials", type=int, default=10)

    p = sub.add_parser("sparse-demo", help="stopping-time recursion and sparse domination")
    common(p)
    p.add_argument("--e-size", type=int, default=1 << 10)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--c-stop", type=float, default=8.0)

    p = sub.add_parser("high-low", help="high/low frequency split audit")
    common(p)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--j", type=_dyadic_list, default=[4, 16])
    p.add_argument("--trials", type=int, default=5)

    return parser


def _tol(args: argparse.Namespace, default: float) -> float:
    return default if args.tol is None else args.tol


def _dispatch(args: argparse.Namespace):
    cmd = args.command
    if cmd == "gauss-check":
        return experiments.run_gauss_check(args.q_max, tol=_tol(args, 1e-10))
    if cmd == "hsum-identities":
        return experiments.run_hsum_identities(args.q_max, tol=_tol(args, 1e-9))
    if cmd == "lowpass-scan":
        return experiments.run_lowpass_scan(args.j, args.x_max, args.adversarial)
    if cmd == "fjk-constant":
        return experiments.run_fjk_constant(args.n, args.grid, threads=args.threads)
    if cmd == "gamma-decay":
        return experiments.run_gamma_decay(args.n, args.grid, tol=_tol(args, 1e-9))
    if cmd == "improving-ratio":
        return experiments.run_improving_ratio(args.n, args.p, args.trials, args.seed)
    if cmd == "orlicz-ratio":
        return experiments.run_orlicz_ratio(args.n, args.trials, args.seed)
    if cmd == "halfdim":
        return experiments.run_halfdim(args.n, args.eps, args.strategy, args.seed)
    if cmd == "multifreq":
        return experiments.run_multifreq(args.s, args.octaves, args.trials, args.seed, args.grid)
    if cmd == "poly-average":
        return experiments.run_poly_average(args.coeffs, args.n, args.p, args.trials, args.seed)
    if cmd == "sparse-demo":
        return experiments.run_sparse_demo(args.e_size, args.density, args.c_stop, args.seed)
    if cmd == "high-low":
        return experiments.run_high_low(
            args.n, args.j, args.trials, args.seed, tol=_tol(args, 1e-7)
        )
    raise ValueError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = _dispatch(args)
    except (InvariantViolation, SparsityError) as exc:
        print(f"sqlab: invariant violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # DomainError, ContractError: bad input
        print(f"sqlab: error: {exc}", file=sys.stderr)
        return 1
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
