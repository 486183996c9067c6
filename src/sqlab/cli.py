"""Command-line entry point: `sqlab <command> [flags]`.

Exit codes: 0 on success, 2 when a verified invariant fails, 1 on usage
errors.  Reports go to stdout or --out in JSON (default) or CSV.

Each command runs `experiments.run_<command>` (dashes read as
underscores).  COMMANDS gives every command's flags, each naming the runner
parameter it sets; a flag left out is not passed, so the runner's signature
holds every default.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import experiments
from .experiments import InvariantViolation
from .sparse import SparsityError


class _UsageErrorParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    invariant violations, so remap usage errors to 1, with one line."""

    def error(self, message):
        print(f"sqlab: error: {message}", file=sys.stderr)
        sys.exit(1)


def _dyadic_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        v = int(part)
        if v < 1 or v & (v - 1):
            raise argparse.ArgumentTypeError(f"{v} is not a power of two")
        out.append(v)
    return out


def _count(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{v} is not a positive integer")
    return v


def _count_list(text: str) -> list[int]:
    return [_count(p) for p in text.split(",")]


def _tolerance(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite non-negative tolerance")
    return v


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


SEED = ("--seed", "seed", int)
TOL = ("--tol", "tol", _tolerance)
TRIALS = ("--trials", "trials", _count)
EXPONENT = ("--p", "p", float)
N_LIST = ("--n", "n_list", _dyadic_list)
J_LIST = ("--j", "j_list", _dyadic_list)
Q_MAX = ("--q-max", "q_max", _count)
GRID = ("--grid", "grid", int)

# command -> (help, [(flag, runner parameter, type | tuple of choices | bool)])
COMMANDS = {
    "gauss-check": ("closed-form Gauss sums vs direct summation", [Q_MAX, TOL]),
    "hsum-identities": ("identity web for the H-sum family", [Q_MAX, TOL]),
    "lowpass-scan": (
        "growth of the low-pass sum S_J",
        [J_LIST, ("--x-max", "x_max", int), ("--adversarial", "adversarial", bool)],
    ),
    "fjk-constant": (
        "normalized multiplier-remainder grid maxima",
        [N_LIST, GRID, ("--threads", "threads", int)],
    ),
    "gamma-decay": (
        "oscillatory profile decay and quadrature audit",
        [("--n", "N", int), ("--grid", "points", _count), TOL],
    ),
    "improving-ratio": ("normalized-average improving ratios", [N_LIST, EXPONENT, TRIALS, SEED]),
    "orlicz-ratio": ("Orlicz-endpoint bilinear ratios", [N_LIST, TRIALS, SEED]),
    "halfdim": (
        "superlevel-set size for sparse-set averages",
        [
            N_LIST,
            ("--eps", "eps_list", _float_list),
            ("--strategy", "strategy", ("random", "squares")),
            SEED,
        ],
    ),
    "multifreq": (
        "multi-frequency maximal operator norms",
        [("--s", "s_list", _count_list), ("--octaves", "n_octaves", _count), TRIALS, GRID, SEED],
    ),
    "poly-average": (
        "improving ratios for polynomial averages",
        [("--coeffs", "coeffs", _int_list), N_LIST, EXPONENT, TRIALS, SEED],
    ),
    "sparse-demo": (
        "stopping-time recursion and sparse domination",
        [
            ("--e-size", "e_size", int),
            ("--density", "density", float),
            ("--c-stop", "C", float),
            SEED,
        ],
    ),
    "high-low": ("high/low frequency split audit", [("--n", "N", _count), J_LIST, TRIALS, SEED, TOL]),
}


def runner(command: str):
    """The experiment runner of a command, looked up at call time."""
    return getattr(experiments, "run_" + command.replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageErrorParser(
        prog="sqlab",
        description="Verification experiments for averages along the square integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_UsageErrorParser)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, dest, kind in flags:
            if kind is bool:
                p.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=dest, choices=kind)
            else:
                p.add_argument(flag, dest=dest, type=kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command, out, fmt = args.pop("command"), args.pop("out"), args.pop("format")
    try:
        report = runner(command)(**args)
    except (InvariantViolation, SparsityError) as exc:
        print(f"sqlab: invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # bad input, or a job larger than memory
        print(f"sqlab: error: {exc}", file=sys.stderr)
        return 1
    text = report.render(fmt)
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"sqlab: error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
