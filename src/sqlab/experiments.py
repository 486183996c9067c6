"""Experiment runners: each builds a deterministic ExperimentReport for one
quantitative claim — exact identities of the Gauss / H-sum layer, decay and
stability of the circle-method pieces, improving and sparse inequalities at
desk scale.

Every runner raises InvariantViolation when a claim that should hold
exactly (or within its stated tolerance) fails, so the CLI can signal
verification failures distinctly from usage errors.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np
# numpy loads its fft and random modules on first use; loading them with the
# runners keeps their one-time import out of any run's traced arrays, so the
# memory preflights bound a run's peak from a fresh process on
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from . import circle, hsums
from .arith import DomainError, InvariantViolation, _require, count_sqrts, factorize
from .gauss import gauss_G0_vector, gauss_G_closed_array, gauss_G_vector
from .operators import (
    IntervalZ,
    Signal,
    _shift_averager,
    average_squares,
    bilinear_form,
    high_low_split,
    high_low_split_bytes,
    norm_p,
    polynomial_shifts,
    shift_average_bytes,
    splits,
)
from .reports import ExperimentReport
from .sparse import (
    STOPPING_CONSTANT,
    build_admissible_tau,
    check_admissible,
    sparse_decompose,
    sparse_form,
    violation_table,
)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trials are reproducible and splittable."""
    return np.random.Generator(np.random.Philox(seed))


def _require_memory(job: str, need: int) -> None:
    """Raise DomainError, before anything is allocated, when a job's arrays
    need more than the machine's physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise DomainError(
            f"{job} needs {need} bytes of arrays, more than the {memory} bytes of physical memory"
        )


def _average_squares_bytes(n: int, N: int) -> int:
    """shift_average_bytes of A_N on a block of n samples (0 for N < 1,
    which average_squares refuses)."""
    return shift_average_bytes(n, np.arange(1, N + 1, dtype=np.int64) ** 2) if N >= 1 else 0


# ---------------------------------------------------------------------------
# exact-identity suites
# ---------------------------------------------------------------------------

# (a, q) pairs per array evaluation in gauss-check: a block's arrays take
# about 300 bytes a pair at their peak, so about 5 MB
_GAUSS_CHECK_BLOCK = 1 << 14


def run_gauss_check(q_max: int = 150, tol: float = 1e-10) -> ExperimentReport:
    """Closed-form quadratic Gauss sums against direct summation, plus the
    |G0| = 0-or-q^{-1/2} dichotomy for reduced fractions.

    The pairs (a, q), a in [0, 2q), go through the array closed form in
    blocks of whole moduli: as many consecutive q as fit in
    _GAUSS_CHECK_BLOCK pairs, and at least one.  Each q takes its row from
    one maximum per column over its pairs; the direct sums stay one inverse
    DFT per q.
    """
    report = ExperimentReport(
        "gauss-check",
        parameters={"q_max": q_max, "tol": tol},
        metadata={"oracle": "full DFT of the squares histogram"},
        columns=["q", "max_err_G", "max_err_G0", "max_err_norm"],
    )
    lo = 1
    while lo <= q_max:
        hi = lo + 1  # the block is the moduli lo..hi-1, 2q pairs each
        while hi <= q_max and hi * (hi + 1) - lo * (lo - 1) <= _GAUSS_CHECK_BLOCK:
            hi += 1
        ks = range(lo, hi)
        sizes = [2 * k for k in ks]
        a = np.concatenate([np.arange(n) for n in sizes])
        q = np.repeat(ks, sizes)
        d = gauss_G_closed_array(a, q) - np.concatenate([np.tile(gauss_G_vector(k), 2) for k in ks])
        g0 = gauss_G_closed_array(a, 2 * q)
        d0 = g0 - np.concatenate([gauss_G0_vector(k) for k in ks])
        expected = np.where(a & q & 1, 0.0, np.repeat([k**-0.5 for k in ks], sizes))
        # hypot, not np.abs: it rounds as abs() of a complex scalar does
        norm = np.abs(np.hypot(g0.real, g0.imag) - expected)
        norm[(a == 0) | (np.gcd(a, q) != 1)] = 0.0
        e = np.stack([np.hypot(d.real, d.imag), np.hypot(d0.real, d0.imag), norm])
        for k, row in zip(ks, np.maximum.reduceat(e, np.cumsum([0, *sizes[:-1]]), axis=1).T):
            report.add_row(k, *row)
            _require(f"gauss-check error at q={k}", row.max(), tol)
        lo = hi
    return report


def run_hsum_identities(q_max: int = 60, tol: float = 1e-9) -> ExperimentReport:
    """The identity web tying H, H0, H1, the Jacobi-weighted variants and
    the square-root counts r_q together.  Each identity is one array
    expression per modulus over the x it covers, read from one period of
    ``hsums.h_vector``; the scalar ``count_sqrts`` is the independent route
    to r_q.  For every even q = 2^b q', Hodd_quartershift_twist counts
    every (x, j) and Hsum_quartershift_even_b every x in its cases, also
    where b skips their check."""
    report = ExperimentReport(
        "hsum-identities",
        parameters={"q_max": q_max, "tol": tol},
        metadata={"oracle": "direct weighted DFT evaluation of each sum"},
        columns=["identity", "cases", "max_err"],
    )
    names = ("H_eq_H1_odd_q", "H0_eq_sqrt_count", "H1_multiplicative", "H1_prime_power_difference",
             "Hodd_antiperiodic", "Hodd_halfshift_twist", "Hodd_quartershift_twist",
             "Hsum_fullshift", "Hsum_halfshift", "Hsum_quartershift_even_b")
    cases, err = dict.fromkeys(names, 0), dict.fromkeys(names, 0.0)

    def mag(z: np.ndarray) -> np.ndarray:
        return np.hypot(z.real, z.imag)

    def check(identity: str, n: int, diffs: list[np.ndarray]) -> None:
        """Add n cases, whose deviations are the diffs (none where skipped)."""
        cases[identity] += n
        for d in diffs:
            err[identity] = np.max(mag(d), initial=err[identity])

    def at(kind: str, q: int, x: np.ndarray) -> np.ndarray:
        vals = hsums.h_vector(kind, q)
        return vals[x % len(vals)]

    def r(q: int, n: int) -> np.ndarray:
        """r_q(-x) for x in [0, n), by one scalar count_sqrts call per residue."""
        return np.array([count_sqrts(-x % q, q) for x in range(q)])[np.arange(n) % q]

    # H = H1 for odd q >= 3, and H0(q,x) = r_q(-x)
    for q in range(3, q_max + 1, 2):
        check("H_eq_H1_odd_q", 2 * q, [hsums.h_vector("H", q) - at("H1", q, np.arange(2 * q))])
    for q in range(1, q_max + 1):
        check("H0_eq_sqrt_count", q, [hsums.h_vector("H0", q) - r(q, q)])

    # multiplicativity |H1(q1 q2, x)| = |H1(q1,x)||H1(q2,x)|, coprime q1,q2
    for q1, q2 in itertools.product(range(2, 16), repeat=2):
        if math.gcd(q1, q2) == 1 and q1 * q2 <= q_max:
            x = np.arange(q1 * q2)
            lhs = mag(hsums.h_vector("H1", q1 * q2))
            check("H1_multiplicative", len(x), [lhs - mag(at("H1", q1, x)) * mag(at("H1", q2, x))])

    # H1(p^k, x) = r_{p^k}(-x) - r_{p^{k-1}}(-x) for odd primes
    for p, k in itertools.product((3, 5, 7, 11, 13), range(1, 5)):
        if (q := p**k) <= 4 * q_max:
            diff = hsums.h_vector("H1", q) - (r(q, q) - r(q // p, q))
            check("H1_prime_power_difference", q, [diff])

    # twists of the residue pieces H_j and the shifts with Htilde (b >= 1 here)
    js = (1, 3, 5, 7)
    tw4, tw8 = (np.array([[np.exp(2j * np.pi * j / m)] for j in js]) for m in (4, 8))
    e1, e3 = np.exp(-2j * np.pi / 8), np.exp(-2j * np.pi * 3 / 8)
    e18, e38, e58, e78 = (np.exp(2j * np.pi * t / 8) for t in (1, 3, 5, 7))
    for q in range(2, q_max + 1, 2):
        fac = factorize(q)
        b, sgn = fac.two_exponent, (-1) ** ((fac.odd_part - 1) // 2)
        x = np.arange(0, 2 * q, 3)
        hj = np.stack([hsums.h_vector(f"Hj{j}", q) for j in js])  # one period per row
        base = hj[:, x]
        check("Hodd_antiperiodic", base.size, [hj[:, (x + q) % (2 * q)] + base])
        check("Hodd_halfshift_twist", base.size, [hj[:, (x + q // 2) % (2 * q)] - tw4 * base])
        twist8 = hj[:, (x + q // 4) % (2 * q)] - tw8 * base
        check("Hodd_quartershift_twist", base.size, [twist8] if b >= 2 else [])
        h1, h3, h5, h7 = base
        t = [at("Htilde", q, x + l * q // 4) for l in range(8)]
        even, odd = (t[0] - t[4]) / 4, (t[2] - t[6]) / 4j
        d1, d3 = (t[1] - t[5]) / 4, (t[3] - t[7]) / 4j
        recon = e18 * h1 + (-1) ** b * sgn * e38 * h3 + (-1) ** b * e58 * h5 + sgn * e78 * h7
        full = h1 + h3 + h5 + h7 - (t[0] - t[4]) / 2
        check("Hsum_fullshift", len(x), [full, recon - at("H", q, x)])
        check("Hsum_halfshift", len(x), [h1 + h5 - (even + odd), h3 + h7 - (even - odd)])
        quarter = [h1 - h5 - e1 * (d1 + d3), h3 - h7 - e3 * (d1 - d3)]
        check("Hsum_quartershift_even_b", len(x), quarter if b >= 2 and b % 2 == 0 else [])

    for identity in names:
        report.add_row(identity, cases[identity], float(err[identity]))
        _require(f"hsum identity {identity} error", err[identity], tol)
    return report


# ---------------------------------------------------------------------------
# growth and decay scans
# ---------------------------------------------------------------------------

def run_lowpass_scan(
    j_list: Sequence[int] = (64, 256, 1024),
    x_max: int = 20_000,
    adversarial: bool = True,
) -> ExperimentReport:
    """max_x S_J(x) with S_J(x) = sum_{q <= J} |H(q,x)|/q over [0, x_max],
    then over the adversarial candidates past it, from S_J on [0, max(x_max,
    last candidate)]; normalized by (log J)^2 it should stay bounded."""
    if any(J <= prev or J & (J - 1) for prev, J in zip([0, *j_list], j_list)):
        raise ValueError("j_list must be strictly increasing powers of two")
    if x_max < 0:
        raise DomainError(f"lowpass-scan: x_max={x_max} must be nonnegative")
    report = ExperimentReport(
        "lowpass-scan",
        parameters={"j_list": list(j_list), "x_max": x_max, "adversarial": adversarial},
        metadata={"fit": "max over scan window, no constant asserted"},
        columns=["J", "argmax_x", "max_S", "max_S_per_log2"],
    )
    j_max = max(j_list, default=0)
    tables = hsums.FactorTables()
    # the candidates come from the scan's sieve, grown before the count to
    # min(J^2, 16450), or to J above 16450; the window reaches the last of them
    candidates = hsums._adversarial_candidates(j_max, tables) if adversarial else np.zeros(0, dtype=np.int64)
    past = candidates[candidates > x_max]
    window = int(past[-1]) if len(past) else x_max
    # measured with tracemalloc: the scan's arrays, the sieve past max J, 16
    # bytes a candidate (those past x_max too); 64 KiB of small objects
    need = hsums.accumulate_S_bytes(j_list, window) + 8 * max(0, len(tables._sieve) - 1 - j_max)
    _require_memory(f"lowpass-scan at x_max={x_max}", need + 16 * len(candidates) + (1 << 16))
    for J, S in zip(j_list, hsums.accumulate_S(j_list, window, tables)):
        x = int(np.argmax(S[: x_max + 1]))
        if len(past) and S[past].max() > S[x]:
            x = int(past[np.argmax(S[past])])
        top = float(S[x])
        _require(f"max_S at J={J} (bounded by U_J)", top, hsums.upper_bound_S(J, tables) * (1 + 1e-12))
        report.add_row(J, x, top, top / math.log(J) ** 2 if J > 1 else top)
    return report


def run_fjk_constant(
    n_list: Sequence[int] = (256, 1024),
    grid: int = 1 << 13,
    threads: int = 1,
) -> ExperimentReport:
    """Grid maximum of |m_N(xi) - G0(a,q) gamma_N(2xi - a/q)| * N / sqrt(q)
    over xi = j/grid, with a/q the Dirichlet approximant of 2 xi.

    The grid is cut into ``threads`` contiguous blocks, one pool task each
    (1 <= threads <= os.cpu_count()), which find a/q for all their points
    by one ``circle.dirichlet_approx_array`` call; the report does not
    depend on threads.  The offset theta = (2jq - a grid)/(q grid) is one
    int64-to-float64 division, exact since 4 N grid <= 2^53 is required,
    and G0(a,q) = G(a,2q) and gamma_N run once each on the arrays of all
    grid points.
    """
    cores = os.cpu_count() or 1
    if not 1 <= threads <= cores:
        raise DomainError(f"fjk-constant: threads={threads} must lie in [1, {cores}]")
    if grid < 1:
        raise DomainError(f"fjk-constant: grid={grid} must be positive")
    for N in n_list:
        if N < 1 or 4 * N * grid > 1 << 53:
            raise DomainError(f"fjk-constant: N={N}, grid={grid} needs 1 <= N and 4 N grid <= 2^53")
    # 192 bytes a grid point at the traced peak (a, q, theta and the
    # temporaries of the Gauss weights and gamma_N; measured with
    # tracemalloc), 32 a k <= N of the Weyl histogram, gamma_N's Fresnel
    # table if it is unbuilt, 64 KiB of small objects
    need = 192 * grid + 32 * max(n_list, default=0) + circle._fresnel_table_bytes() + (1 << 16)
    _require_memory(f"fjk-constant at grid={grid}", need)
    report = ExperimentReport(
        "fjk-constant",
        parameters={"n_list": list(n_list), "grid": grid},
        metadata={"fit": "grid maximum of the normalized remainder"},
        columns=["N", "max_normalized", "argmax_xi_num", "argmax_q"],
    )
    for N in n_list:
        report.add_row(N, *_fjk_max(N, grid, threads))
    return report


def _fjk_max(N: int, grid: int, threads: int) -> tuple:
    """(maximum, its j, its q) of the normalized remainder over xi = j/grid;
    its arrays are freed when it returns."""
    j = np.arange(grid)
    bounds = [grid * i // threads for i in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(lambda lo, hi: circle.dirichlet_approx_array(j[lo:hi], grid, N), bounds[:-1], bounds[1:])
        )
    a, q = (np.concatenate(v) for v in zip(*parts))
    del parts  # the blocks go before the Gauss and gamma_N temporaries come
    th = (2 * j * q - a * grid) / (q * grid)
    main = gauss_G_closed_array(a, 2 * q) * circle.gamma_N(th, N)
    d = circle.weyl_multiplier_grid(N, grid) - main
    # hypot, not np.abs: it rounds as abs() of a complex scalar does
    vals = np.hypot(d.real, d.imag) * N / np.sqrt(q)
    j_best = np.argmax(vals)
    return vals[j_best], j_best, q[j_best]


def run_gamma_decay(N: int = 1 << 8, points: int = 200, tol: float = 1e-9) -> ExperimentReport:
    """|gamma_N| against its decay envelope min(1, 1/(N sqrt|xi|)), with the
    closed form cross-checked against adaptive quadrature at each point."""
    report = ExperimentReport(
        "gamma-decay",
        parameters={"N": N, "points": points, "tol": tol},
        metadata={"quadrature": "Gauss-Legendre 15 per half oscillation"},
        columns=["xi", "abs_gamma", "envelope", "quad_err"],
    )
    # the quadrature takes the most panels at the largest point, xi = 4
    try:
        panels = circle.quad_panels(4.0, N)
    except circle.QuadratureError as e:
        raise DomainError(f"gamma-decay: N={N} at xi=4: {e}") from None
    # per point its xi and a row of four floats (192 bytes); the quadrature
    # at xi = 4 beside them, 744 bytes a panel (15 nodes and 15 weights, two
    # complex temporaries of the integrand, the edges, half widths and
    # midpoints), and numpy's buffer of at most 8192 complex values for the
    # nodes cast to complex; 64 KiB of small objects; the Fresnel table and
    # numpy's polynomial module while they are not loaded
    need = 192 * points + 744 * panels + (1 << 17) + (1 << 16)
    need += circle._fresnel_table_bytes() + circle._quad_rule_bytes()
    _require_memory(f"gamma-decay at N={N}", need)
    xis = np.concatenate([[0.0], np.geomspace(2.0**-20, 4.0, points - 1)])
    for xi in xis:
        g = circle.gamma_N(float(xi), N)
        gq = circle.gamma_N_quad(float(xi), N)
        env = min(1.0, 1.0 / (N * math.sqrt(xi)) if xi > 0 else 1.0)
        qerr = abs(g - gq)
        report.add_row(float(xi), abs(g), env, qerr)
        _require(f"gamma quadrature error at xi={xi}", qerr, tol)
        _require(f"|gamma_N| at xi={xi}", abs(g), env + tol)
    return report


# ---------------------------------------------------------------------------
# improving inequalities
# ---------------------------------------------------------------------------

def _random_indicator(rng: np.random.Generator, length: int, density: float) -> np.ndarray:
    mask = (rng.random(length) < density).astype(np.float64)
    if mask.sum() == 0:
        mask[int(rng.integers(length))] = 1.0
    return mask


def extremal_pair(N: int) -> tuple[Signal, Signal]:
    """The sharpness witnesses: f the indicator of the first N squares,
    g the point mass at the origin, so that (A_N f, g) = 1 exactly."""
    samples = np.zeros(N * N + 1)
    for k in range(1, N + 1):
        samples[k * k] = 1.0
    return Signal(0, samples), Signal(0, np.ones(1))


def _check_exponent(p: float) -> None:
    """The ratios use the dual exponent p' = p / (p - 1), finite and
    above 1 for finite p > 1."""
    if not (p > 1.0 and math.isfinite(p)):
        raise ValueError(f"p={p} must be finite and exceed 1")


def _max_ratio(shifts: np.ndarray, scale: int, p: float, trials: int, seed: int) -> float:
    """max <A f>_{I,p'} / <f>_{2I,p} over random indicators f on 2I, with
    I = [0, scale) and A the average over the shifts, its route fixed and
    its kernel built once for every trial."""
    pprime = p / (p - 1.0)
    I = IntervalZ(0, scale - 1)
    twoI = I.double()
    average = _shift_averager(shifts, len(twoI))
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = Signal(twoI.a, _random_indicator(rng, len(twoI), 0.1))
        worst = max(worst, norm_p(average(f), pprime, I) / norm_p(f, p, twoI))
    return worst


def run_improving_ratio(
    n_list: Sequence[int] = (16, 32, 64, 128),
    p: float = 1.6,
    trials: int = 20,
    seed: int = 0,
) -> ExperimentReport:
    """Normalized-average ratios <A_N f>_{I,p'} / <f>_{2I,p} over random
    indicators on 2I with |I| = N^2, plus the extremal sharpness rows.

    For p > 3/2 the max ratio column should stay bounded in N; for p < 3/2
    the extremal lower-bound column grows like N^{3/p-2}, exhibiting
    failure of the inequality below the critical index.
    """
    _check_exponent(p)
    pprime = p / (p - 1.0)
    report = ExperimentReport(
        "improving-ratio",
        parameters={"n_list": list(n_list), "p": p, "trials": trials, "seed": seed},
        metadata={"fit": "max over random indicator trials; extremal exact"},
        columns=["N", "max_ratio", "const_ratio", "extremal_pairing", "extremal_lower"],
    )
    # per N, with s = |I| = N^2: an indicator on 2I (16 bytes a point of
    # I), and the larger of an average's arrays beside norm_p's padded copy
    # of A f on I and its absolute values (16) and the extremal rows'
    # arrays, the constant indicator's average (24) beside f0 (8) and
    # norm_p's padded copy of f0 on 2I and its absolute values (32); the
    # powers are raised in place; 64 KiB of small objects
    for N in n_list:
        s = N * N
        need = 16 * s + max(_average_squares_bytes(2 * s, N) + 16 * s, 64 * s) + (1 << 16)
        _require_memory(f"improving-ratio at N={N}", need)
    for N in n_list:
        worst = _max_ratio(np.arange(1, N + 1, dtype=np.int64) ** 2, N * N, p, trials, seed)
        I = IntervalZ(0, N * N - 1)
        twoI = I.double()
        # constants contract: f = chi_{2I} has ratio <= 1
        full = Signal(twoI.a, np.ones(len(twoI)))
        aff = average_squares(full, N)
        const_ratio = norm_p(aff, pprime, I) / norm_p(full, p, twoI)
        _require(f"constant indicator ratio at N={N}", const_ratio, 1.0 + 1e-12)
        # extremal pair: pairing is exactly 1; the lower bound is the
        # pairing divided by the improving prediction |I|<f><g>
        f0, g0 = extremal_pair(N)
        pairing = bilinear_form(average_squares(f0, N, method="direct"), g0)
        _require(f"|extremal pairing - 1| at N={N}", abs(pairing - 1.0), 0.0)
        predicted = len(I) * norm_p(f0, p, twoI) * norm_p(g0, p, I)
        report.add_row(N, worst, const_ratio, pairing, pairing / predicted)
    return report


def run_orlicz_ratio(
    n_list: Sequence[int] = (16, 32, 64),
    trials: int = 20,
    seed: int = 0,
) -> ExperimentReport:
    """(A_N f, g) against the Orlicz product psi(<f>) psi(<g>) |I| with
    psi(x) = x^{2/3} (1 + |log x|)^{4/3}."""

    def psi(x: float) -> float:
        if x <= 0:
            return 0.0
        return x ** (2.0 / 3.0) * (1.0 + abs(math.log(x))) ** (4.0 / 3.0)

    report = ExperimentReport(
        "orlicz-ratio",
        parameters={"n_list": list(n_list), "trials": trials, "seed": seed},
        metadata={"psi": "x^(2/3) (1+|log x|)^(4/3)"},
        columns=["N", "max_ratio", "full_ratio", "extremal_ratio"],
    )
    # per N, with s = |I| = N^2: the last trial's f on 2I and g on I and
    # the constant pair (48 bytes a point of I), and the larger of an
    # average's arrays and f0 (8) beside norm_p's padded copy of f0 on 2I
    # and its absolute values (32); 64 KiB of small objects
    for N in n_list:
        s = N * N
        need = 48 * s + max(_average_squares_bytes(2 * s, N), 40 * s) + (1 << 16)
        _require_memory(f"orlicz-ratio at N={N}", need)
    for N in n_list:
        I = IntervalZ(0, N * N - 1)
        twoI = I.double()
        rng = make_rng(seed)
        worst = 0.0
        for _ in range(trials):
            f = Signal(twoI.a, _random_indicator(rng, len(twoI), 0.05))
            g = Signal(I.a, _random_indicator(rng, len(I), 0.05))
            pairing = bilinear_form(average_squares(f, N), g)
            denom = psi(norm_p(f, 1.0, twoI)) * psi(norm_p(g, 1.0, I)) * len(I)
            if denom > 0:
                worst = max(worst, pairing / denom)
        full_f = Signal(twoI.a, np.ones(len(twoI)))
        full_g = Signal(I.a, np.ones(len(I)))
        pairing = bilinear_form(average_squares(full_f, N), full_g)
        full_ratio = pairing / (psi(1.0) * psi(1.0) * len(I))
        _require(f"full-indicator Orlicz ratio at N={N}", full_ratio, 1.0 + 1e-12)
        f0, g0 = extremal_pair(N)
        ex = 1.0 / (psi(norm_p(f0, 1.0, twoI)) * psi(norm_p(g0, 1.0, I)) * len(I))
        report.add_row(N, worst, full_ratio, ex)
    return report


def run_halfdim(
    n_list: Sequence[int] = (32, 64, 128),
    eps_list: Sequence[float] = (0.25, 0.5, 1.5),
    strategy: str = "random",
    seed: int = 0,
) -> ExperimentReport:
    """Superlevel-set measure test: for G in [0, N^2] with |G| = N, the
    quantity eps^3 |{A_N chi_G > eps}| stays of size (log N)^8 at most."""
    if not all(math.isfinite(eps) and eps > 0 for eps in eps_list):
        raise ValueError(f"eps values {list(eps_list)} must be finite and positive")
    report = ExperimentReport(
        "halfdim",
        parameters={
            "n_list": list(n_list),
            "eps_list": [float(e) for e in eps_list],
            "strategy": strategy,
            "seed": seed,
        },
        metadata={"reference": "(log N)^8"},
        columns=["N", "eps", "superlevel_size", "eps3_size", "log8_ref"],
    )
    # per N, with s = N^2 + 1 points: the indicator of G (8 bytes a point),
    # A_N's arrays and the superlevel mask on A_N's 2s - 1 points; 64 KiB of
    # small objects
    for N in n_list:
        s = N * N + 1
        _require_memory(f"halfdim at N={N}", 8 * s + _average_squares_bytes(s, N) + 2 * s + (1 << 16))
    for N in n_list:
        if strategy == "squares":
            G = np.array([k * k for k in range(1, N + 1)], dtype=np.int64)
        elif strategy == "random":
            rng = make_rng(seed)
            G = rng.choice(N * N + 1, size=N, replace=False)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        samples = np.zeros(N * N + 1)
        samples[G] = 1.0
        a = average_squares(Signal(0, samples), N)
        for eps in eps_list:
            count = int(np.count_nonzero(np.asarray(a.samples) > eps))
            if eps > 1.0:
                _require(f"superlevel set size at eps={eps} > 1", count, 0)
            # count > 0 implies eps < 1 (A_N chi_G <= 1), so eps^3 cannot overflow
            report.add_row(N, float(eps), count, eps**3 * count if count else 0.0, math.log(N) ** 8)
    return report


# ---------------------------------------------------------------------------
# multi-frequency maximal operator
# ---------------------------------------------------------------------------

def run_multifreq(
    s_list: Sequence[int] = (1, 2, 3),
    n_octaves: int = 3,
    trials: int = 8,
    seed: int = 0,
    grid: int = 1 << 12,
) -> ExperimentReport:
    """Empirical l2 operator norm of sup_N |inverse DFT of (level-s arc
    multiplier times DFT f)|, N dyadic over n_octaves octaves above the
    smallest admissible scale, normalized by s 2^{-s/2}."""
    report = ExperimentReport(
        "multifreq",
        parameters={
            "s_list": list(s_list),
            "n_octaves": n_octaves,
            "trials": trials,
            "seed": seed,
            "grid": grid,
        },
        metadata={"norm": "max over random complex f of ||sup_N |T_N f|||_2 / ||f||_2"},
        columns=["s", "n_scales", "max_ratio", "normalized"],
    )
    if grid < 1:
        raise DomainError(f"multifreq: grid={grid} must be positive")
    # 16 bytes a point for each level grid, and 80 for the trials: f, f-hat,
    # sup, one product and its ifft (72), or the last f, f-hat and sup while
    # the next f is drawn; gamma_N's Fresnel table if it is unbuilt, 64 KiB
    # of small objects
    need = (16 * n_octaves + 80) * grid + circle._fresnel_table_bytes() + (1 << 16)
    _require_memory(f"multifreq at grid={grid}", need)
    for s in s_list:
        N0 = 1 << (s + 2)  # smallest N with 2^s <= N/4
        Ns = [N0 << t for t in range(n_octaves)]
        worst = _max_sup_ratio([circle.arc_level_grid(N, s, grid) for N in Ns], trials, seed)
        report.add_row(s, len(Ns), worst, worst / (s * 2.0 ** (-s / 2.0)))
    return report


def _max_sup_ratio(grids: list[np.ndarray], trials: int, seed: int) -> float:
    """max over random complex f of ||sup_g |ifft(g fft f)| ||_2 / ||f||_2;
    its arrays, and the grids, are freed when it returns."""
    grid = len(grids[0])
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
        fhat = np.fft.fft(f)
        sup = np.zeros(grid)
        for gvals in grids:
            sup = np.maximum(sup, np.abs(np.fft.ifft(gvals * fhat)))
        worst = max(worst, float(np.linalg.norm(sup) / np.linalg.norm(f)))
    return worst


# ---------------------------------------------------------------------------
# polynomial averages (exploratory)
# ---------------------------------------------------------------------------

def run_poly_average(
    coeffs: Sequence[int] = (0, 1, 1),
    n_list: Sequence[int] = (16, 32, 64),
    p: float = 1.6,
    trials: int = 10,
    seed: int = 0,
) -> ExperimentReport:
    """Improving-ratio table for the average along an arbitrary integer
    polynomial (default n^2 + n); exploratory, no bound asserted."""
    _check_exponent(p)
    report = ExperimentReport(
        "poly-average",
        parameters={
            "coeffs": list(coeffs),
            "n_list": list(n_list),
            "p": p,
            "trials": trials,
            "seed": seed,
        },
        metadata={"fit": "max over random indicator trials"},
        columns=["N", "scale", "max_ratio"],
    )
    shift_sets = []
    for N in n_list:
        shifts = polynomial_shifts(coeffs, N)
        scale = max(1, int(np.abs(shifts).max()))
        # the float64 indicator on 2I (16 bytes a point of I), the arrays of
        # the average's route, and norm_p's absolute values, raised to the
        # power in place, of A f on I beside them or of f on 2I after them
        # (8 or 16 bytes a point of I); 64 KiB of small objects
        need = 24 * scale + shift_average_bytes(2 * scale, shifts) + (1 << 16)
        _require_memory(f"poly-average at N={N}", need)
        shift_sets.append((shifts, scale))
    for N, (shifts, scale) in zip(n_list, shift_sets):
        worst = _max_ratio(shifts, scale, p, trials, seed)
        report.add_row(N, scale, worst)
    return report


# ---------------------------------------------------------------------------
# sparse machinery and the high/low decomposition
# ---------------------------------------------------------------------------

# exponents (r, s) of the sparse form that sparse-demo reports
_SPARSE_R = 1.6
_SPARSE_S = 1.6


def run_sparse_demo(
    e_size: int = 1 << 10,
    density: float = 0.1,
    C: float = STOPPING_CONSTANT,
    seed: int = 0,
) -> ExperimentReport:
    """Random indicator pair on (2E, E): run the stopping-time recursion,
    audit the witnesses, and report both sides of sparse domination, with
    the sparse form at exponents (_SPARSE_R, _SPARSE_S)."""
    if e_size < 2 or e_size & (e_size - 1):
        raise ValueError("e_size must be a power of two >= 2")
    if not (C > 0 and math.isfinite(C)):
        raise ValueError(f"stopping constant C={C} must be finite and positive")
    if not 0 <= density <= 1:
        raise ValueError(f"density={density} must lie in [0, 1]")
    report = ExperimentReport(
        "sparse-demo",
        parameters={"e_size": e_size, "density": density, "C": C, "seed": seed, "r": _SPARSE_R, "s": _SPARSE_S},
        metadata={"stopping_constant": C},
        columns=["quantity", "value"],
    )
    # f on 2E and g on E (24 bytes a point of E), and the larger of A_N's
    # arrays beside the witnesses and tau (16) and the violation table's
    # pass, measured with tracemalloc at 58-60 for |E| >= 2^12 and counted
    # as 62 (the sparse form's pass, A_N f and norm_p's |f| on 2E raised to
    # the power in place beside the witnesses and tau, stays at 50-52);
    # 64 KiB of small objects
    N = max(2, int(math.isqrt(e_size)) // 2)
    need = 24 * e_size + max(16 * e_size + _average_squares_bytes(2 * e_size, N), 62 * e_size) + (1 << 16)
    _require_memory(f"sparse-demo at e_size={e_size}", need)
    E = IntervalZ(0, e_size - 1)
    twoE = E.double()
    rng = make_rng(seed)
    f = Signal(twoE.a, _random_indicator(rng, len(twoE), density))
    g = Signal(E.a, _random_indicator(rng, len(E), density))
    table = violation_table(f, E, C)
    coll = sparse_decompose(table)
    tau = build_admissible_tau(table)
    _require("inadmissible built stopping times", int(not check_admissible(tau, table)), 0)
    del table  # its prefix sum over 3E is not kept beside A_N's arrays
    af = average_squares(f, N)
    pairing = float(np.dot(af.on(E), g.on(E)))
    lam = sparse_form(coll, f, g, _SPARSE_R, _SPARSE_S)
    report.add_row("intervals", float(len(coll.nodes)))
    report.add_row("pairing", pairing)
    report.add_row("sparse_form", lam)
    report.add_row("domination_ratio", pairing / lam if lam > 0 else 0.0)
    report.add_row("tau_min", float(tau.values.min()))
    report.add_row("tau_max", float(tau.values.max()))
    return report


def run_high_low(
    N: int = 1 << 8,
    j_list: Sequence[int] = (4, 16),
    trials: int = 5,
    seed: int = 0,
    tol: float = 1e-7,
) -> ExperimentReport:
    """High/Low split audit: exact additivity and the two normalized-norm
    ratios against their J^{-1/2} log J and J (log J)^2 references."""
    report = ExperimentReport(
        "high-low",
        parameters={"N": N, "j_list": list(j_list), "trials": trials, "seed": seed, "tol": tol},
        metadata={"references": "J^-1/2 logJ (high, l2), J (logJ)^2 (low, linf)"},
        columns=["J", "trial", "split_err", "high_ratio", "high_ref", "low_ratio", "low_ref"],
    )
    if N < 1:
        raise DomainError(f"high-low: N={N} must be positive")
    split_js = [J for J in j_list if splits(N, J)]
    # f on 2I (16 N^2 bytes) beside A_N f's route, then A_N f (24 N^2) and
    # |f| on 2I beside f; if a J splits, f, A_N f, the split's arrays and
    # the audit's sum of the parts (24 N^2), and the Fresnel table if it is
    # unbuilt; 32 KiB of small objects (traced: 4 KB at N = 64, 10 KB at 1024)
    need = 16 * N * N + max(_average_squares_bytes(2 * N * N, N), 40 * N * N)
    if split_js:
        need = max(need, high_low_split_bytes(N, 2 * N * N, split_js) + 64 * N * N) + circle._fresnel_table_bytes()
    _require_memory(f"high-low at N={N}", need + (1 << 15))
    I = IntervalZ(0, N * N - 1)
    twoI = I.double()
    rng = make_rng(seed)
    table = [[] for _ in j_list]  # rows per J, emitted J-major
    for t in range(trials):
        f = Signal(twoI.a, _random_indicator(rng, len(twoI), 0.1))
        af = average_squares(f, N)
        f2, f1 = norm_p(f, 2.0, twoI), norm_p(f, 1.0, twoI)
        parts = high_low_split(f, N, split_js) if split_js else None
        for J, rows in zip(j_list, table):
            if splits(N, J):
                _, high, low = next(parts)
                diff = high.samples + low.samples  # both on A_N f's window
                diff -= af.samples
                err = float(np.max(np.abs(diff, out=diff)))
                del diff
                hr, lr = norm_p(high, 2.0, I) / f2, norm_p(low, math.inf, I) / f1
                del high, low  # free this J's parts before the next J's are made
            else:  # High = 0 and Low = A_N f, exactly
                err, hr, lr = 0.0, 0.0, norm_p(af, math.inf, I) / f1
            logJ = math.log(J) if J > 1 else 1.0
            rows.append((J, t, err, hr, logJ / math.sqrt(J), lr, J * logJ**2))
        del f, af, parts  # the split keeps W and its products until it is dropped
    # Low's kernel K_J on Z has 2N^2 max|K_J| <= (3/4) J (1 + sup_x S_J(x)),
    # as |gamma_N| <= 1 and the bump integrates to 3/4, so low_ratio is at
    # most (3/4) J (1 + U_J) for each J that splits
    tables = hsums.FactorTables()
    for row in (row for rows in table for row in rows):
        J = row[0]
        _require(f"split error |high + low - A_N f| at J={J}", row[2], tol)
        if splits(N, J):
            bound = 0.75 * J * (1 + hsums.upper_bound_S(J, tables))
            _require(f"low_ratio at J={J} (bounded by 3J(1 + U_J)/4)", row[5], bound)
        report.add_row(*row)
    return report
