"""Library-call operations for Tier-1 hot paths that have no subcommand.

Each returns a report-shaped dict (name, parameters, columns, rows) so the
reference check treats them like the CLI reports.  State shared between the
operations of one round (the sampled multipliers) lives in ``RoundState``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from sqlab import arith, circle, operators

C8_N, C8_L, C8_J = 1 << 10, 1 << 22, 16
C7_N, C7_L, C7_LEVELS = 1 << 10, 1 << 22, 8


def _report(name: str, parameters: dict, columns: list, rows: list) -> dict:
    return {"name": name, "parameters": parameters, "columns": columns, "rows": rows}


class RoundState:
    """Values one operation of a round hands to the next."""

    def __init__(self) -> None:
        self.c8_grids = None


def c8_sample(state: RoundState) -> dict:
    """Sample the Weyl and b_N1 multipliers once at N=2^10, L=2^22, as the
    criterion-8 test does, and keep the low/high grids for the trial."""
    weyl = circle.sample_multiplier("weyl", C8_N, None, None, C8_L)
    low = circle.sample_multiplier("b_N1", C8_N, C8_J, C8_J, C8_L)
    high = circle.MultiplierGrid(C8_L, weyl.values - low.values)
    state.c8_grids = (low, high)
    rows = [
        [piece, float(np.sum(np.abs(g.values))), float(np.max(np.abs(g.values)))]
        for piece, g in (("weyl", weyl), ("b_N1", low), ("high", high))
    ]
    return _report(
        "c8-sample",
        {"N": C8_N, "L": C8_L, "J": C8_J},
        ["piece", "sum_abs", "max_abs"],
        rows,
    )


def c8_trial(state: RoundState, seed: int) -> dict:
    """One random indicator f on 2I: A_N f by the dft path, then the low and
    high multipliers applied to f; reports the split error and the two
    normalized ratios of criterion 8."""
    low, high = state.c8_grids
    N = C8_N
    I = operators.IntervalZ(0, N * N - 1)
    II = I.double()
    rng = np.random.default_rng(seed)
    f = operators.Signal(II.a, (rng.random(len(II)) < 0.1).astype(float))
    af = operators.average_squares(f, N, method="dft")
    lo = operators.apply_multiplier(f, low)
    hi = operators.apply_multiplier(f, high)
    xs = np.arange(I.a, I.b + 1)
    xs2 = np.arange(II.a, II.b + 1)
    lo_v, hi_v = lo.values_at(xs), hi.values_at(xs)
    err = float(np.max(np.abs(lo_v + hi_v - af.values_at(xs))))
    f2 = math.sqrt(float(np.mean(f.values_at(xs2) ** 2)))
    f1 = operators.average_on(f, II)
    high_ratio = math.sqrt(float(np.mean(hi_v**2))) / f2
    low_ratio = float(np.max(np.abs(lo_v))) / f1
    return _report(
        "c8-trial",
        {"N": N, "L": C8_L, "J": C8_J, "seed": seed, "tol": 1e-7},
        ["J", "split_err", "high_ratio", "low_ratio"],
        [[C8_J, err, high_ratio, low_ratio]],
    )


def c7_sweep(state: RoundState) -> dict:
    """Criterion-7 sweep: partial sums of arc_level_grid(N, s, L) for
    s = 1..8 against the Weyl grid; sup |c_N| per cutoff M = 2^s."""
    weyl = circle.weyl_multiplier_grid(C7_N, C7_L)
    partial = np.zeros(C7_L, dtype=np.complex128)
    rows = []
    for s in range(1, C7_LEVELS + 1):
        partial += circle.arc_level_grid(C7_N, s, C7_L)
        M = 1 << s
        sup = float(np.max(np.abs(weyl - partial)))
        rows.append([s, M, sup, sup * math.sqrt(M) / math.log(M)])
    return _report(
        "c7-sweep",
        {"N": C7_N, "L": C7_L, "levels": C7_LEVELS},
        ["s", "M", "sup_c", "normalized"],
        rows,
    )


def sqrt_counts(state: RoundState, q_max: int) -> dict:
    """arith.sqrt_count_vector(q) for every q <= q_max (criterion 2), with a
    digest of each block of 500 vectors."""
    rows = []
    for lo in range(1, q_max + 1, 500):
        hi = min(lo + 499, q_max)
        digest = hashlib.sha256()
        total = 0
        for q in range(lo, hi + 1):
            v = np.asarray(arith.sqrt_count_vector(q), dtype=np.int64)
            total += int(v.sum())
            digest.update(v.tobytes())
        rows.append([lo, hi, total, digest.hexdigest()])
    return _report(
        "sqrt-count-vector", {"q_max": q_max}, ["q_lo", "q_hi", "total", "sha256"], rows
    )
