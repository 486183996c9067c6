"""Measure each float column's noise at the current commit, to set the
reference tolerances in refcheck.RULES.

    python3 perfbench/measure_noise.py

Noise is the relative change of a reported value when it is computed by a
second route that the ROADMAP plans to adopt or that is equally valid:

- multiplier grids with exact integer phases (2jq - aL)/(qL) instead of the
  float phases of ``circle._accumulate_arcs_grid`` (b_N1, c7 sweep);
- ``average_squares`` by its dft path instead of the direct path
  (improving-ratio, orlicz-ratio, sparse-demo);
- ``scipy.fft`` in place of ``numpy.fft`` (multifreq);
- compensated summation of the same terms (lowpass-scan max_S) and the
  exact-phase Weyl sum (fjk-constant max_normalized).

Takes about a minute and 1.4 GB.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqlab import circle, cli, experiments, hsums, operators  # noqa: E402
from sqlab.gauss import gauss_G0  # noqa: E402


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def exact_phase_level(out: np.ndarray, N: int, s: int, L: int, width_scale: float | None) -> None:
    """circle._accumulate_arcs_grid with theta = (2jq - aL)/(qL) taken from
    exact integers and reduced to (-1, 1] before the division."""
    for q in range(1 << (s - 1), 1 << s):
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * q
        half_width = 0.5 / scale
        radius = int(math.floor(half_width * L / 2.0)) + 1
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        for a in range(0, 2 * q):
            if math.gcd(a, q) != 1:
                continue
            j = (int(round(a * L / (2.0 * q))) + offs) % L
            num = (2 * j * q - a * L) % (2 * q * L)
            num = np.where(num > q * L, num - 2 * q * L, num)
            th = num / (q * L)
            mask = np.abs(th) < half_width
            if np.any(mask):
                out[j[mask]] += gauss_G0(a, q) * circle.eta(scale * th[mask]) * circle.gamma_N(th[mask], N)


def exact_b_n1(N: int, J: int, L: int) -> circle.MultiplierGrid:
    vals = np.zeros(L, dtype=np.complex128)
    for s in range(1, J.bit_length()):
        exact_phase_level(vals, N, s, L, N * N / J)
    return circle.MultiplierGrid(L, vals)


def cli_report(argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv.split())
    if rc != 0:
        raise SystemExit(f"sqlab {argv} exited with code {rc}")
    return json.loads(buf.getvalue())


def column_noise(a: dict, b: dict, columns: list[str]) -> dict[str, float]:
    out = {}
    for col in columns:
        i = a["columns"].index(col)
        out[col] = max(rel(x[i], y[i]) for x, y in zip(a["rows"], b["rows"]))
    return out


def main() -> int:
    noise: dict[str, dict[str, float]] = {}

    # b_N1 phases: c8 pattern (N=2^10, L=2^22, J=16) and high-low (L=2^23)
    N, L, J = 1 << 10, 1 << 22, 16
    weyl = circle.sample_multiplier("weyl", N, None, None, L)
    grids = {}
    for name, low in (("float", circle.sample_multiplier("b_N1", N, J, J, L)), ("exact", exact_b_n1(N, J, L))):
        grids[name] = (low, circle.MultiplierGrid(L, weyl.values - low.values))
    noise["c8-sample"] = {
        "sum_abs": max(rel(float(np.sum(np.abs(grids["float"][k].values))),
                           float(np.sum(np.abs(grids["exact"][k].values)))) for k in (0, 1)),
        "max_abs": max(rel(float(np.max(np.abs(grids["float"][k].values))),
                           float(np.max(np.abs(grids["exact"][k].values)))) for k in (0, 1)),
    }
    I = operators.IntervalZ(0, N * N - 1)
    II = I.double()
    xs = np.arange(I.a, I.b + 1)
    rng = np.random.default_rng(0)
    f = operators.Signal(II.a, (rng.random(len(II)) < 0.1).astype(float))
    ratios = {}
    for name, (low, high) in grids.items():
        lo = operators.apply_multiplier(f, low).values_at(xs)
        hi = operators.apply_multiplier(f, high).values_at(xs)
        ratios[name] = (math.sqrt(float(np.mean(hi**2))), float(np.max(np.abs(lo))))
    noise["c8-trial"] = {
        "high_ratio": rel(ratios["float"][0], ratios["exact"][0]),
        "low_ratio": rel(ratios["float"][1], ratios["exact"][1]),
    }
    del grids, weyl
    L2 = 1 << 23
    weyl2 = circle.sample_multiplier("weyl", N, None, None, L2)
    hl = {"high_ratio": 0.0, "low_ratio": 0.0}
    for J in (4, 16, 64):
        pair = {}
        for name, low in (("float", circle.sample_multiplier("b_N1", N, J, J, L2)), ("exact", exact_b_n1(N, J, L2))):
            high = circle.MultiplierGrid(L2, weyl2.values - low.values)
            pair[name] = (
                operators.norm_p(operators.apply_multiplier(f, high), 2.0, I),
                operators.norm_p(operators.apply_multiplier(f, low), math.inf, I),
            )
        hl["high_ratio"] = max(hl["high_ratio"], rel(pair["float"][0], pair["exact"][0]))
        hl["low_ratio"] = max(hl["low_ratio"], rel(pair["float"][1], pair["exact"][1]))
    noise["high-low"] = hl
    del weyl2

    # c7 sweep with exact-phase levels
    sup = {"float": [], "exact": []}
    wgrid = circle.weyl_multiplier_grid(N, L)
    for name in sup:
        partial = np.zeros(L, dtype=np.complex128)
        for s in range(1, 9):
            if name == "float":
                partial += circle.arc_level_grid(N, s, L)
            else:
                exact_phase_level(partial, N, s, L, None)
            sup[name].append(float(np.max(np.abs(wgrid - partial))))
    noise["c7-sweep"] = {"sup_c": max(rel(a, b) for a, b in zip(sup["float"], sup["exact"]))}
    del wgrid, partial

    # lowpass: max_S against a compensated sum of the same terms
    lp = cli_report("lowpass-scan --j 64,256,1024,4096 --x-max 100000 --adversarial")
    worst = 0.0
    for J, x, top, _ in lp["rows"]:
        worst = max(worst, rel(top, math.fsum(abs(hsums.h_sum("H", q, x)) / q for q in range(1, J + 1))))
    noise["lowpass-scan"] = {"max_S": worst}
    hsums._h_vector_cached.cache_clear()

    # fjk: grid (FFT) Weyl values against the exact-phase Weyl sum
    fj = cli_report("fjk-constant --n 256,1024,4096 --grid 32768")
    noise["fjk-constant"] = {"max_normalized": max(
        rel(v, circle.fjk_remainder(Fraction(j, 32768), n)[1]) for n, v, j, _ in fj["rows"]
    )}

    # multifreq: scipy.fft in place of numpy.fft
    import scipy.fft

    base = cli_report("multifreq --s 2,3,4,5 --grid 32768")
    saved = np.fft.fft, np.fft.ifft
    np.fft.fft, np.fft.ifft = scipy.fft.fft, scipy.fft.ifft
    try:
        alt = cli_report("multifreq --s 2,3,4,5 --grid 32768")
    finally:
        np.fft.fft, np.fft.ifft = saved
    noise["multifreq"] = column_noise(base, alt, ["max_ratio", "normalized"])

    # direct vs dft path of average_squares
    orig = experiments.average_squares
    runs = {
        "improving-ratio": ("improving-ratio --n 16,32,64 --trials 400", ["max_ratio", "const_ratio", "extremal_lower"]),
        "orlicz-ratio": ("orlicz-ratio --n 16,32,64 --trials 400", ["max_ratio", "full_ratio", "extremal_ratio"]),
        "sparse-demo": ("sparse-demo --e-size 16384", ["value"]),
    }
    for name, (argv, cols) in runs.items():
        base = cli_report(argv)
        experiments.average_squares = lambda f, N, method="direct": orig(f, N, method="dft")
        try:
            alt = cli_report(argv)
        finally:
            experiments.average_squares = orig
        noise[name] = column_noise(base, alt, cols)

    for name, cols in noise.items():
        for col, value in cols.items():
            print(f"{name:16s} {col:16s} {value:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
