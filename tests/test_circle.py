"""Circle-method layer: smooth bumps, the Weyl multiplier, the oscillatory
profile, Dirichlet approximation, and the arc decomposition."""

import math
import os
import tracemalloc
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import fresnel

from sqlab import circle
from sqlab.arith import DomainError
from sqlab.circle import (
    ContractError,
    MultiplierGrid,
    QuadratureError,
    ReducedRational,
    _accumulate_arcs_grid,
    arc_level_grid,
    dirichlet_approx,
    dirichlet_approx_array,
    eta,
    fjk_remainder,
    gamma_N,
    gamma_N_quad,
    sample_multiplier,
    split_half_spectrum,
    weyl_multiplier,
    weyl_multiplier_grid,
)
from sqlab.experiments import run_fjk_constant
from sqlab.gauss import gauss_G_closed_array

from oracles import accumulate_arcs_all_rows, gauss_G0_scalar, multiplier_piece, weyl_half_int64


def gamma_N_series(xi: float, N: int, tol: float = 1e-14, max_terms: int = 600) -> complex:
    """Power-series oracle: int_0^1 e(c u^2 / 2) du = sum (i pi c)^k / (k! (2k+1)),
    with c = xi N^2.  The alternating terms peak near exp(pi |c|), so the
    series is refused once cancellation would swamp tol."""
    c = float(xi) * N * N
    z = 1j * math.pi * c
    if math.exp(min(abs(z), 700.0)) * 1e-16 > tol:
        raise QuadratureError(
            f"gamma_N_series: |xi| N^2 = {abs(c):.3g} too large for float64 cancellation"
        )
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(1, max_terms):
        term *= z / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < tol and abs(term) < tol:
            return complex(total)
    raise QuadratureError("gamma_N_series: did not converge (|c| too large)")


def dirichlet_fraction(xi, N: int) -> ReducedRational:
    """Oracle for dirichlet_approx: the same convergent walk, with the
    admissibility test |t - h/k| <= 1/(4 N k) in Fraction arithmetic."""
    t = 2 * Fraction(xi)
    Q = 4 * N
    num, den = t.numerator, t.denominator
    h0, h1 = 1, 0
    k0, k1 = 0, 1
    n, d = num, den
    while d:
        a0 = n // d
        n, d = d, n - a0 * d
        h0, h1 = a0 * h0 + h1, h0
        k0, k1 = a0 * k0 + k1, k0
        if k0 > Q:
            break
        if abs(t - Fraction(h0, k0)) <= Fraction(1, Q * k0):
            return ReducedRational(h0, k0)
    raise ArithmeticError("dirichlet_fraction: no convergent satisfied the bound")


def dirichlet_exhaustive(xi, N: int) -> ReducedRational:
    """Oracle for dirichlet_approx: the first q <= 4N, in increasing order,
    with |2 xi - a/q| <= 1/(4 N q) for the nearest reduced a."""
    t = 2 * Fraction(xi)
    Q = 4 * N
    for q in range(1, Q + 1):
        a = round(t * q)
        if abs(t - Fraction(a, q)) <= Fraction(1, Q * q) and math.gcd(a, q) == 1:
            return ReducedRational(a, q)
    raise ArithmeticError("dirichlet_exhaustive: no q satisfied the bound")


def accumulate_arcs_loop(
    out: np.ndarray, N: int, s: int, L: int, width_scale: float | None
) -> None:
    """Oracle for the arc enumerator: one arc (a, q) at a time, every a in
    [0, 2q) over the whole circle, theta reduced to (-1, 1] in integers, and
    one fancy-index add per arc."""
    for q in range(1 << (s - 1), 1 << s):
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * q
        half_width = 0.5 / scale
        radius = int(math.floor(half_width * L / 2.0)) + 1
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        qL = q * L
        for a in range(0, 2 * q):
            if math.gcd(a, q) != 1:
                continue
            j = (a * L // (2 * q) + offs) % L
            num = (2 * q * j - a * L) % (2 * qL)
            num[num > qL] -= 2 * qL
            th = num / qL
            mask = np.abs(th) < half_width
            if not np.any(mask):
                continue
            jm, thm = j[mask], th[mask]
            out[jm] += gauss_G0_scalar(a, q) * eta(scale * thm) * gamma_N(thm, N)


def fjk_rows_oracle(n_list, grid: int) -> list[list]:
    """Oracle for run_fjk_constant: a/q, theta, G0 and gamma_N point by
    point, as Fraction and complex scalars, and the first grid maximum."""
    rows = []
    for N in n_list:
        weyl = weyl_multiplier_grid(N, grid)

        def one(j: int) -> tuple[float, int]:
            r = dirichlet_approx(Fraction(j, grid), N)
            th = float(2 * Fraction(j, grid) - r.value())
            main = gauss_G0_scalar(r.a, r.q) * gamma_N(th, N)
            return abs(weyl[j] - main) * N / math.sqrt(r.q), r.q

        vals = [one(j) for j in range(grid)]
        j_best = max(range(grid), key=lambda j: vals[j][0])
        rows.append([N, float(vals[j_best][0]), j_best, vals[j_best][1]])
    return rows


def level_arcs(s: int) -> list[Fraction]:
    """All reduced a/q in [0, 2) with 2^{s-1} <= q < 2^s."""
    return [
        Fraction(a, q)
        for q in range(1 << (s - 1), 1 << s)
        for a in range(2 * q)
        if math.gcd(a, q) == 1
    ]


@lru_cache(maxsize=None)
def level_sum(xi: Fraction, N: int, s: int, width_scale: float | None = None) -> complex:
    """Oracle for one arc level at the frequency xi: the sum of
    G0(a,q) eta(scale theta) gamma_N(theta) over every arc of the level,
    theta = 2 xi - a/q reduced to [-1, 1) in exact rationals.  The bump
    scale is 2^{2s}, or width_scale * q for the narrow bumps."""
    total = 0j
    for r in level_arcs(s):
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * r.denominator
        th = (2 * xi - r + 1) % 2 - 1
        if abs(th) < 0.5 / scale:
            total += gauss_G0_scalar(r.numerator, r.denominator) * eta(scale * float(th)) * gamma_N(float(th), N)
    return total


def piece_oracle(which: str, N: int, M: int, J: int | None, xi: Fraction) -> complex:
    """The multiplier pieces at xi from their definitions: weyl is m_N and
    c_N = m_N - a_N; a_N sums the dyadic levels s <= log2 M; the narrow
    bumps eta_{q N^2/J} on the levels s <= log2 J give b_N1 (M = J) or
    a_tilde (M > J), and the rest of a_N splits into the bump differences
    on those levels and the levels above."""
    if which == "weyl":
        return weyl_multiplier(xi, N)
    m = M.bit_length() - 1
    s0 = J.bit_length() - 1 if J else m

    def wide(lo: int, hi: int) -> complex:
        return sum((level_sum(xi, N, s) for s in range(lo, hi + 1)), 0j)

    if which == "a_N":
        return wide(1, m)
    if which == "c_N":
        return weyl_multiplier(xi, N) - wide(1, m)
    narrow = sum((level_sum(xi, N, s, N * N / J) for s in range(1, s0 + 1)), 0j)
    if which == "a_tilde" or (which == "b_N1" and M == J):
        return narrow
    if which == "b_N2" and M != J:
        return wide(s0 + 1, m)
    return wide(1, s0) - narrow


class TestBump:
    def test_sandwich_exact(self):
        t = np.linspace(-1.0, 1.0, 4001)
        e = eta(t)
        assert np.all(e[np.abs(t) <= 0.25] == 1.0)
        assert np.all(e[np.abs(t) >= 0.5] == 0.0)
        assert np.all((0.0 <= e) & (e <= 1.0))

    def test_even_and_scaled(self):
        assert eta(0.3) == eta(-0.3)

    def test_smooth_transition_monotone(self):
        t = np.linspace(0.25, 0.5, 500)
        e = eta(t)
        assert np.all(np.diff(e) <= 1e-15)


class TestWeyl:
    def test_full_cancellation(self):
        # at xi = 1/2 each pair k, k+1 contributes opposite phases
        assert abs(weyl_multiplier(Fraction(1, 2), 2)) < 1e-15

    def test_at_zero(self):
        assert weyl_multiplier(0, 7) == 1.0

    def test_grid_matches_pointwise(self):
        # one rfft gives bins 0..L//2, and bin -j mirrors bin j, at odd L too
        N = 24
        for L in (512, 511, 513, 3, 2, 1):
            g = weyl_multiplier_grid(N, L)
            assert len(g) == L
            assert np.array_equal(g[1:], np.conj(g[:0:-1])) and g[0].imag == 0, L
            for j in range(L):
                assert abs(g[j] - weyl_multiplier(Fraction(j, L), N)) < 1e-12, (L, j)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=5000))
    @example(24, 511)  # odd L
    @example(100, 1000)  # L < N^2: the squares collide in the histogram
    @example(64, 1 << 14)
    @settings(max_examples=60, deadline=None)
    def test_float_histogram_grid_is_the_int64_route(self, N, L):
        # bins 0..L//2 bit for bit as the int64 histogram's, and the rest
        # their mirror, at any L
        want, h = weyl_half_int64(N, L), L // 2 + 1
        g = weyl_multiplier_grid(N, L)
        assert np.array_equal(g[:h].view(np.int64), want.view(np.int64))
        assert np.array_equal(g[h:].view(np.int64), np.conj(want[1 : L - L // 2][::-1]).view(np.int64))

    @pytest.mark.parametrize("N, L", [(1, 4), (4, 64), (16, 1 << 10), (64, 1 << 14), (100, 1 << 16), (256, 1 << 18)])
    def test_float_histogram_split_pieces_are_the_int64_route(self, N, L):
        # the split's Weyl half (the rfft's own buffer) and the sampled grid
        want = weyl_half_int64(N, L)
        half = split_half_spectrum("weyl", N, None, L)
        assert half.shape == want.shape and np.array_equal(half.view(np.int64), want.view(np.int64))
        full = sample_multiplier("weyl", N, None, None, L).values
        assert np.array_equal(full.view(np.int64), weyl_multiplier_grid(N, L).view(np.int64))
        assert np.array_equal(full[: L // 2 + 1].view(np.int64), want.view(np.int64))

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_magnitude_bounded_by_one(self, num, N):
        assert abs(weyl_multiplier(Fraction(num, 64), N)) <= 1.0 + 1e-12


def fresnel_scipy(z: np.ndarray) -> np.ndarray:
    """Oracle: C(z) + iS(z) from scipy.special.fresnel, the route circle's
    own Fresnel integral replaced."""
    s, c = fresnel(z)
    return c + 1j * s


def fresnel_tolerance(z):
    """The agreement required of circle._fresnel: 2e-15, plus 2e-16 z for
    the rounding of z^2 in the phase at large z."""
    return 2e-15 + 2e-16 * np.asarray(z)


class TestFresnel:
    def test_matches_scipy_on_a_dense_grid(self):
        # both routes and the switch at 6, each node k/64 of the table and
        # the midpoints between nodes, where the Taylor offset is largest
        nodes = np.arange(6 * 64 + 1) / 64
        around = np.concatenate([nodes, nodes + 1 / 128, [6.0]])
        ulps = around[:, None] + np.arange(-1, 2) * np.spacing(around)[:, None]
        z = np.concatenate([
            np.linspace(0.0, 10.0, 200_001),
            np.geomspace(10.0, 1e5, 200_001),
            np.abs(ulps.ravel()),
        ])
        assert np.all(np.abs(circle._fresnel(z) - fresnel_scipy(z)) <= fresnel_tolerance(z))

    @given(st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=300, deadline=None)
    @example(6.0).via("the switch to the asymptotic series")
    @example(float(np.nextafter(6.0, 0.0))).via("the last point of the table")
    @example(1e5)
    def test_matches_scipy_at_drawn_points(self, z):
        got, want = circle._fresnel(np.array([z])), fresnel_scipy(np.array([z]))
        assert abs(got[0] - want[0]) <= fresnel_tolerance(z)

    def test_matches_mpmath_at_30_digits(self):
        rng = np.random.default_rng(23)
        z = np.concatenate([rng.uniform(0.0, 7.0, 100), np.exp(rng.uniform(np.log(7.0), np.log(1e5), 100))])
        got = circle._fresnel(z)
        with mpmath.workdps(30):
            want = [
                complex(mpmath.fresnelc(mpmath.mpf(float(x))), mpmath.fresnels(mpmath.mpf(float(x)))) for x in z
            ]
        assert np.all(np.abs(got - np.array(want)) <= fresnel_tolerance(z))

    def test_extremes_raise_no_warning(self):
        # E(inf) = (1+i)/2 as scipy gives; NaN propagates; past 1e154 z^2
        # overflows, past 1e77 (pi z^2)^2 does, and neither may be formed
        z = np.array([np.inf, np.nan, 1e300, 1e200, 1e100, 2.0**54, 0.0, 6.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = circle._fresnel(z)
            gam = gamma_N(np.array([np.inf, -np.inf, 1e300, -1e300]), 4096)
        assert got[0] == 0.5 + 0.5j and np.isnan(got[1].real) and np.isnan(got[1].imag)
        assert np.all(np.abs(got[2:6] - (0.5 + 0.5j)) < 1e-15) and got[6] == 0
        want = fresnel_scipy(z[[0, 5, 7]])
        assert np.all(np.abs(got[[0, 5, 7]] - want) <= fresnel_tolerance(z[[0, 5, 7]]))
        assert np.array_equal(gam[:2], np.zeros(2)) and 0 < abs(gam[2]) < 1e-153
        assert np.array_equal(gam[1::2].copy().view(np.int64), np.conjugate(gam[::2]).view(np.int64))

    def test_scalar_and_shaped_inputs(self):
        z = np.linspace(0.0, 12.0, 24).reshape(2, 3, 4)
        got = circle._fresnel(z)
        assert got.shape == z.shape and circle._fresnel(np.float64(3.0)).shape == ()
        assert np.array_equal(got.ravel(), circle._fresnel(z.ravel()))

    def test_working_memory_is_bounded(self):
        # one block of points at a time, one table row per Horner step: the
        # traced peak beyond the output stays under 1 MB at 2^18 points
        z = np.random.default_rng(0).uniform(0.0, 12.0, 1 << 18)
        circle._fresnel(z[:1])  # the table is built once, on the first call
        tracemalloc.start()
        try:
            circle._fresnel(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 16 * len(z) < 1_000_000


class TestGamma:
    def test_at_zero(self):
        assert gamma_N(0.0, 16) == 1.0 + 0j
        assert np.array_equal(gamma_N(np.zeros(3), 16), np.ones(3, dtype=np.complex128))

    def test_closed_form_vs_quadrature(self):
        for xi in (0.0, 1e-7, 0.003, 0.21, -0.6, 2.5):
            for N in (1, 9, 64, 256):
                assert abs(gamma_N(xi, N) - gamma_N_quad(xi, N)) < 1e-11

    def test_power_series_small_phase(self):
        for c in (0.0, 0.3, -1.1, 2.0):
            N = 4
            xi = c / (N * N)
            assert abs(gamma_N(xi, N) - gamma_N_series(xi, N, tol=1e-12)) < 1e-12

    def test_series_refuses_cancellation_regime(self):
        with pytest.raises(QuadratureError):
            gamma_N_series(0.5, 64)

    def test_decay_envelope(self):
        N = 128
        for xi in np.geomspace(1e-6, 4.0, 60):
            g = abs(gamma_N(float(xi), N))
            assert g <= min(1.0, 1.0 / (N * math.sqrt(xi))) + 1e-12

    def test_vectorized(self):
        xs = np.array([0.0, 0.1, -0.1, 2.0])
        vals = gamma_N(xs, 16)
        assert vals.shape == xs.shape
        assert np.allclose(vals, [gamma_N(float(x), 16) for x in xs])

    def test_reflection_is_bitwise_conjugation(self):
        # the arc enumerator mirrors rows through gamma_N(-t) = conj(gamma_N(t))
        # and eta(-t) = eta(t); both must hold to the last bit, signed zeros
        # included, from zero and subnormals through the bump edges to huge |t|
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.25, 0.5, 1 / 128, 1 / 2048])  # eta's, and two arc half widths
        near = (edges[:, None] + np.arange(-4, 5) * np.spacing(edges)[:, None]).ravel()
        rng = np.random.default_rng(11)
        t = np.concatenate([
            [0.0, tiny, 7 * tiny, np.finfo(np.float64).tiny, 1e-300, 1e-160, 1e-20],
            near,
            rng.random(500) * 10.0 ** rng.integers(-16, 4, 500),
            [1e6, 1e100, 1e300],
        ])
        t = np.concatenate([t, -t])
        assert np.array_equal(eta(-t).view(np.int64), eta(t).view(np.int64))
        for N in (1, 16, 1024, 4096):
            want = np.conjugate(gamma_N(t, N)).view(np.int64)
            assert np.array_equal(gamma_N(-t, N).view(np.int64), want), N


class TestDirichlet:
    def test_examples(self):
        r = dirichlet_approx(Fraction(1, 3), 2)
        assert (r.a, r.q) == (2, 3)
        r = dirichlet_approx(Fraction(1, 2), 4)
        assert (r.a, r.q) == (1, 1)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.sampled_from([3, 10, 64, 100, 555, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_defining_inequality(self, xi, N):
        r = dirichlet_approx(xi, N)
        assert 1 <= r.q <= 4 * N
        assert abs(2 * Fraction(xi) - r.value()) <= Fraction(1, 4 * N * r.q)

    def test_continued_fraction_matches_exhaustive(self):
        # the convergents find the smallest admissible q: the same (a, q) as
        # the exhaustive search, on dyadic grids and at random floats
        for L, Ns in ((64, range(1, 65)), (512, (1, 2, 3, 7, 16, 33, 64, 100))):
            for N in Ns:
                for j in range(L):
                    xi = Fraction(j, L)
                    assert dirichlet_approx(xi, N) == dirichlet_exhaustive(xi, N), (j, L, N)
        rng = np.random.default_rng(5)
        for xi, N in zip(rng.random(300), rng.integers(1, 200, 300)):
            assert dirichlet_approx(float(xi), int(N)) == dirichlet_exhaustive(float(xi), int(N))

    @given(
        st.integers(min_value=0, max_value=24)
        .flatmap(lambda e: st.one_of(st.just(1 << e), st.integers(1, 1 << e)))
        .flatmap(lambda L: st.tuples(st.integers(-2 * L, 2 * L), st.just(L))),
        st.integers(min_value=0, max_value=13).flatmap(lambda e: st.integers(1, 1 << e)),
    )
    # on the boundary |2 xi - a/q| = 1/(4 N q), which is admissible
    @example((1, 8), 1)
    @example((-1, 8), 1)
    @example((1, 16), 2)
    @example((7, 40), 5)
    @example((-7, 40), 5)
    @settings(max_examples=300, deadline=None)
    def test_integer_route_matches_fraction_and_exhaustive(self, jl, N):
        xi = Fraction(*jl)
        r = dirichlet_approx(xi, N)
        assert r == dirichlet_fraction(xi, N) == dirichlet_exhaustive(xi, N), (xi, N)

    @given(
        st.integers(min_value=0, max_value=10).flatmap(lambda e: st.integers(1, 1 << e)),
        st.integers(min_value=0, max_value=24).flatmap(lambda e: st.one_of(st.just(1 << e), st.integers(1, 1 << e))),
        st.lists(st.integers(-(1 << 25), 1 << 25), max_size=6),
    )
    @example(1, 1, [1, -3])
    @example(5, 40, [7, -7])
    @example(1, 8, [1, -1])
    @settings(max_examples=60, deadline=None)
    def test_array_route_matches_scalar_and_exhaustive(self, N, den, extra):
        # xi = num/den over one array: j = 0, j = den/2 and random j of odd
        # and even grids, den = 1 among them
        num = np.array([0, den // 2, *extra])
        a, q = dirichlet_approx_array(num, den, N)
        assert a.dtype == q.dtype == np.int64 and a.shape == q.shape == num.shape
        for x, r in zip(num.tolist(), zip(a.tolist(), q.tolist())):
            xi = Fraction(x, den)
            assert ReducedRational(*r) == dirichlet_approx(xi, N) == dirichlet_exhaustive(xi, N), (xi, N)

    @pytest.mark.parametrize("grid", [1, 2, 511, 512, 1 << 13])
    def test_array_route_on_whole_grids(self, grid):
        for N in (1, 3, 256, 4096):
            a, q = dirichlet_approx_array(np.arange(grid).reshape(-1, 1), grid, N)
            want = [dirichlet_approx(Fraction(j, grid), N) for j in range(grid)]
            assert a.shape == (grid, 1)
            assert [ReducedRational(*r) for r in zip(a.ravel().tolist(), q.ravel().tolist())] == want, N

    def test_array_route_refusals(self):
        with pytest.raises(DomainError, match="N=0"):
            dirichlet_approx_array([1], 4, 0)
        with pytest.raises(DomainError, match="den=0"):
            dirichlet_approx_array([1, 2], [4, 0], 8)
        with pytest.raises(ContractError, match="overflows int64"):
            dirichlet_approx_array([1], 1 << 50, 1 << 10)

    def test_boundary_examples(self):
        assert dirichlet_approx(Fraction(1, 8), 1) == ReducedRational(0, 1)
        assert dirichlet_approx(Fraction(7, 40), 5) == ReducedRational(1, 3)

    def test_reduced_invariant(self):
        with pytest.raises(Exception):
            ReducedRational(2, 4)


PIECES = [
    ("weyl", None, None),
    ("a_N", 64, None),
    ("c_N", 64, None),
    ("b_N1", 64, 64),
    ("b_N2", 64, 64),
    ("b_N1", 64, 16),
    ("b_N2", 64, 16),
    ("a_tilde", 64, 16),
]


def hermitian_defect(m: np.ndarray) -> float:
    """max_j |m[j] - conj(m[-j])|."""
    return float(np.max(np.abs(m - np.conj(np.roll(m[::-1], 1)))))


def arc_points(L: int) -> list[int]:
    """Grid points in and next to several arcs, with their mirror images."""
    js = set()
    for a, q in ((0, 1), (1, 1), (1, 3), (5, 7), (3, 16), (17, 32), (29, 63)):
        for d in (0, 1, -5, 12):
            j = (a * L // (2 * q) + d) % L
            js.update((j, -j % L))
    return sorted(js)


class TestArcs:
    def test_level_enumeration_disjointness(self):
        # distinct same-level arc centers are separated by more than the bump width
        for s in (1, 2, 3):
            arcs = sorted(level_arcs(s))
            for r1, r2 in zip(arcs, arcs[1:]):
                assert r2 - r1 >= Fraction(1, 2 ** (2 * s))

    def test_grid_matches_pointwise(self):
        N, M, L = 32, 8, 1 << 12
        aN = multiplier_piece("a_N", N, M, None, L)
        cN = multiplier_piece("c_N", N, M, None, L)
        wg = sample_multiplier("weyl", N, None, None, L)
        assert np.max(np.abs(aN.values + cN.values - wg.values)) < 1e-12
        for j in (3, 57, 1000, 4095):
            assert abs(aN.values[j] - piece_oracle("a_N", N, M, None, Fraction(j, L))) < 1e-12

    @pytest.mark.parametrize("which,M,J", PIECES)
    def test_pieces_are_hermitian_and_match_oracle(self, which, M, J):
        # bins 0..L//2 are computed and mirrored, so m[-j] = conj(m[j]) exactly
        N, L = 256, 1 << 18
        m = multiplier_piece(which, N, M, J, L).values
        assert hermitian_defect(m) == 0.0
        for j in arc_points(L):
            assert abs(m[j] - piece_oracle(which, N, M, J, Fraction(j, L))) < 1e-12, j

    def test_level_grids_are_hermitian_and_match_oracle(self):
        N, L = 256, 1 << 18
        for s in range(1, 7):
            m = arc_level_grid(N, s, L)
            assert hermitian_defect(m) == 0.0
            for j in arc_points(L):
                assert abs(m[j] - level_sum(Fraction(j, L), N, s)) < 1e-12, (s, j)

    @pytest.mark.parametrize("N, s", [(16, 1), (16, 2), (64, 1), (64, 4), (256, 3), (1024, 6)])
    def test_batched_enumerator_matches_arc_loop(self, N, s):
        # dyadic and narrow bumps (J = 2^s, 4 * 2^s), from L = 1 up to 4N^2;
        # below 4N^2 the loop's windows wrap, and at L <= 4 a j repeats in one
        # arc; odd L, L = 0 and 2 (mod 4).  The enumerator adds to bins
        # 0..L//2 alone, bitwise as the loop does, and the mirrored grids
        # equal the loop's over the whole circle.
        rng = np.random.default_rng(N + s)
        for L in (1, 2, 3, 4, 64, N * N + 1, N * N // 2, N * N // 2 + 2, 4 * N * N):
            h = L // 2 + 1
            start = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            for width_scale in (None, N * N / (1 << s), N * N / (4 << s)):
                got, want = start.copy(), start.copy()
                _accumulate_arcs_grid(got, N, s, L, width_scale)
                accumulate_arcs_loop(want, N, s, L, width_scale)
                assert np.array_equal(got[:h].view(np.int64), want[:h].view(np.int64)), (L, width_scale)
                assert np.array_equal(got[h:], start[h:]), (L, width_scale)
            want = np.zeros(L, dtype=np.complex128)
            accumulate_arcs_loop(want, N, s, L, None)
            assert np.array_equal(arc_level_grid(N, s, L).view(np.float64), want.view(np.float64)), L
        J, L = 1 << s, 4 * N * N
        want = np.zeros(L, dtype=np.complex128)
        for level in range(1, s + 1):
            accumulate_arcs_loop(want, N, level, L, N * N / J)
        got = sample_multiplier("b_N1", N, J, J, L).values
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_odd_moduli_have_zero_weight_at_odd_a(self):
        # the premise of skipping rows: G(a, 2q) = 0 exactly, 2q = 2 mod 4
        for q in range(1, 64, 2):
            a = np.array([a for a in range(1, q + 1, 2) if math.gcd(a, q) == 1])
            assert np.array_equal(gauss_G_closed_array(a, 2 * q), np.zeros(len(a))), q

    @pytest.mark.parametrize("L", [1 << 12, (1 << 12) + 2, 1 << 16, 3 * (1 << 12) + 1])
    def test_zero_weight_rows_skipped_bitwise(self, L):
        # skipping the zero-weight rows of odd q, and the mirrored writes of
        # their partners, leaves every bit of the all-rows accumulation, on
        # dyadic and narrow bumps, into a zero grid and over earlier levels
        N = 256
        for width_scale in (None, N * N / 64):
            got = np.zeros(L, dtype=np.complex128)
            want = np.zeros(L, dtype=np.complex128)
            for s in range(1, 7):
                _accumulate_arcs_grid(got, N, s, L, width_scale)
                accumulate_arcs_all_rows(want, N, s, L, width_scale)
                assert np.array_equal(got.view(np.float64), want.view(np.float64)), (s, width_scale)
                one = np.zeros(L, dtype=np.complex128)
                _accumulate_arcs_grid(one, N, s, L, width_scale)
                ref = np.zeros(L, dtype=np.complex128)
                accumulate_arcs_all_rows(ref, N, s, L, width_scale)
                assert np.array_equal(one.view(np.float64), ref.view(np.float64)), (s, width_scale)

    @pytest.mark.parametrize("L", [1 << 12, (1 << 12) + 2, 3 * (1 << 12) + 1])
    def test_weights_are_taken_for_the_weighted_rows_alone(self, monkeypatch, L):
        # on every grid, odd L and even L alike, odd q asks for G(a, 2q) at
        # its even reduced a only and even q at every reduced a in [0, q]
        calls = []

        def record(a, m):
            calls.append((m // 2, a.tolist()))
            return gauss_G_closed_array(a, m)

        monkeypatch.setattr(circle, "gauss_G_closed_array", record)
        for s in range(1, 7):
            calls.clear()
            arc_level_grid(1024, s, L)
            assert calls == [
                (q, [a for a in range(q + 1) if math.gcd(a, q) == 1 and (q % 2 == 0 or a % 2 == 0)])
                for q in range(1 << (s - 1), 1 << s)
            ], s

    def test_level_is_built_one_modulus_at_a_time(self):
        # level 10 has 512 moduli and some 480,000 reduced a/q in [0, 2), but
        # no array spans the level: a 64-point grid stays far under 1 MB
        tracemalloc.start()
        try:
            arc_level_grid(1 << 12, 10, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_mirrored_rows_halve_the_gamma_points(self, monkeypatch):
        # for even L, gamma_N runs on one point of each mirror pair: at most
        # 0.55 times the bins 0..L//2 the level writes, which the test counts
        # exactly, |2qj - aL| < qL / 2^(2s+1) over every reduced a/q in [0, 1]
        points = []
        monkeypatch.setattr(circle, "gamma_N", lambda xi, N: points.append(np.size(xi)) or gamma_N(xi, N))
        L = 1 << 16
        j = np.arange(L // 2 + 1)
        for s in range(1, 7):
            points.clear()
            arc_level_grid(1024, s, L)
            written = sum(
                np.count_nonzero(np.abs(2 * q * j - a * L) << (2 * s + 1) < q * L)
                for q in range(1 << (s - 1), 1 << s)
                for a in range(q + 1)
                if math.gcd(a, q) == 1
            )
            assert 0 < sum(points) <= 0.55 * written, s

    def test_split_grids_sum(self):
        N, M, J, L = 32, 8, 4, 1 << 12
        b1 = sample_multiplier("b_N1", N, J, J, L)
        b2 = multiplier_piece("b_N2", N, J, J, L)
        aJ = multiplier_piece("a_N", N, J, None, L)
        assert np.max(np.abs(b1.values + b2.values - aJ.values)) < 1e-12
        at = multiplier_piece("a_tilde", N, M, J, L)
        bm1 = multiplier_piece("b_N1", N, M, J, L)
        bm2 = multiplier_piece("b_N2", N, M, J, L)
        aM = multiplier_piece("a_N", N, M, None, L)
        assert np.max(np.abs(at.values + bm1.values + bm2.values - aM.values)) < 1e-12

    def test_level_grid_is_scale_term(self):
        # the levels s <= log2 M sum to the major arcs a_N by definition
        N, L = 64, 1 << 14
        total = np.zeros(L, dtype=np.complex128)
        for s in (1, 2, 3, 4):
            total += arc_level_grid(N, s, L)
        for j in arc_points(L):
            assert abs(total[j] - piece_oracle("a_N", N, 16, None, Fraction(j, L))) < 1e-12, j

    @pytest.mark.parametrize(
        "N, J, L", [(4, 1, 64), (16, 2, 1 << 10), (64, 4, 1 << 15), (64, 16, 1 << 14), (256, 8, 1 << 18)]
    )
    def test_half_spectra_are_the_sampled_grids_bins(self, N, J, L):
        # the split's kernels, bit for bit the bins 0..L/2 of the full grids
        h = L // 2 + 1
        for which in ("weyl", "b_N1"):
            half = split_half_spectrum(which, N, J, L)
            full = sample_multiplier(which, N, J, J, L).values
            assert half.shape == (h,) and np.array_equal(half.view(np.int64), full[:h].view(np.int64)), which

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            sample_multiplier("weyl", 64, None, None, 1 << 10)  # L < 4N^2
        with pytest.raises(ContractError):
            split_half_spectrum("weyl", 0, None, 1 << 10)  # no squares to average
        with pytest.raises(ContractError):
            split_half_spectrum("b_N1", 64, 8, 3 << 14)  # L not a power of two
        with pytest.raises(ContractError):
            sample_multiplier("b_N1", 64, 32, 32, 1 << 14)  # J > N/4
        with pytest.raises(Exception):
            MultiplierGrid(12, np.zeros(12))  # not a power of two

    @pytest.mark.parametrize("which", ["a_N", "c_N", "b_N2", "a_tilde"])
    def test_pieces_only_the_tests_build_are_refused(self, which):
        with pytest.raises(DomainError, match=which):
            sample_multiplier(which, 64, 16, 4, 1 << 14)

    @pytest.mark.parametrize("M, J", [(16, 4), (4, 16), (None, 4), (4, None)])
    def test_narrow_part_needs_m_equal_to_j(self, M, J):
        with pytest.raises(ContractError):
            sample_multiplier("b_N1", 64, M, J, 1 << 14)

    @pytest.mark.parametrize("j, part", [(3, "real"), (13, "imag"), (0, "imag"), (8, "imag")])
    def test_grid_that_is_not_exactly_hermitian_refused(self, j, part):
        # one bin moved by one ulp, or an imaginary DC or Nyquist bin
        L = 16
        m = sample_multiplier("weyl", 2, None, None, L).values
        MultiplierGrid(L, m)
        bad = m.copy()
        view = getattr(bad, part)
        view[j] = np.nextafter(view[j], 1.0)
        with pytest.raises(DomainError, match="not exactly Hermitian"):
            MultiplierGrid(L, bad)


class TestFJK:
    @pytest.mark.parametrize("grid", [512, 4096, 511])
    def test_runner_rows_match_pointwise_oracle(self, grid):
        n_list = (16, 256, 1024)
        want = fjk_rows_oracle(n_list, grid)
        for threads in sorted({1, min(2, os.cpu_count() or 1)}):
            assert run_fjk_constant(n_list, grid, threads).rows == want, threads

    def test_zero_frequency(self):
        rem, norm = fjk_remainder(0.0, 32)
        assert rem < 1e-12
        assert norm < 1e-10

    def test_remainder_moderate(self):
        for xi in (0.1, 1 / 3, 0.77):
            _, norm = fjk_remainder(xi, 256)
            assert norm < 10.0
