"""The three benchmark workloads: which operations each runs, at what size.

An operation is either one ``sqlab`` subcommand, run in-process through
``sqlab.cli.main`` (the entry point of the ``sqlab`` script), or one library
call from ``libops`` where a Tier-1 hot path has no subcommand.  This module
imports nothing from sqlab, so the parent process stays light.

Sizes fix each workload's layer mix (see README.md for why each was chosen);
the repetition counts (``--trials``, number of random inputs) were chosen so
that one round fits the run length.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
HELD_OUT_SEED = 97  # references are stored for these two seeds only

WORKLOADS = ("highlow", "lowpass", "arcs")

# Peak RSS of a highlow round, the largest workload (1328 MB measured on
# x86-64 with numpy 2.4): the MemAvailable preflight asks for this much.
LARGEST_PEAK_MB = 1400


@dataclass(frozen=True)
class Op:
    """One operation. ``kind`` is "cli" (args = argv) or "lib" (args =
    (function name in libops, kwargs)). ``seeded`` ops take their input
    from the benchmark seed, so their reference is stored per seed."""

    op_id: str
    kind: str
    args: tuple
    seeded: bool = False


def _cli(op_id: str, argv: str, seed: int | None = None) -> Op:
    words = tuple(argv.split())
    if seed is None:
        return Op(op_id, "cli", words)
    return Op(op_id, "cli", words + ("--seed", str(seed)), seeded=True)


def sparse_seeds(seed: int) -> list[int]:
    """Three sparse-demo seeds per benchmark seed, disjoint across seeds."""
    return [3 * seed + i for i in range(3)]


IMPROVING_TRIALS = 400


def ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload``, in run order.

    The pure-Python identity, ratio and sparse checks ride along with the
    FFT-bound workloads: on their own their time drifted by a fifth from
    run to run on a shared host.  The two table builders with millions of
    small calls (gauss-check, sqrt counts) go with lowpass, whose traced
    run has time to spare; the cached-lookup, direct-average and sparse
    checks go with highlow.
    """
    if workload == "highlow":
        # criterion-8 pattern: sample the multipliers once, then split a
        # random indicator with them
        out = [
            _cli("high-low", "high-low --n 1024 --j 4,16,64 --trials 1", seed),
            Op("c8-sample", "lib", ("c8_sample", {})),
            Op("c8-trial", "lib", ("c8_trial", {"seed": seed}), seeded=True),
            _cli("hsum-identities", "hsum-identities --q-max 100"),
        ]
        out += [
            Op(f"sparse-demo-{i}", "cli", ("sparse-demo", "--e-size", "16384", "--seed", str(s)), seeded=True)
            for i, s in enumerate(sparse_seeds(seed))
        ]
        out.append(_cli("improving-ratio", f"improving-ratio --n 16,32,64 --trials {IMPROVING_TRIALS}", seed))
        out.append(_cli("orlicz-ratio", f"orlicz-ratio --n 16,32,64 --trials {IMPROVING_TRIALS}", seed))
        return out
    if workload == "lowpass":
        return [
            _cli("lowpass-scan", "lowpass-scan --j 64,256,1024,4096 --x-max 100000 --adversarial"),
            _cli("gauss-check", "gauss-check --q-max 500"),
            Op("sqrt-count-vector", "lib", ("sqrt_counts", {"q_max": 3000})),
        ]
    if workload == "arcs":
        return [
            _cli("fjk-constant", "fjk-constant --n 256,1024,4096 --grid 32768"),
            _cli("multifreq", "multifreq --s 2,3,4,5 --grid 32768", seed),
            Op("c7-sweep", "lib", ("c7_sweep", {})),
        ]
    raise ValueError(f"unknown workload {workload!r}")
