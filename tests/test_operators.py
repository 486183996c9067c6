"""Discrete averaging operators, norms, and the high/low split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.arith import DomainError
from sqlab.circle import ContractError, sample_multiplier, split_half_spectrum
from sqlab.experiments import make_rng, run_halfdim
from sqlab.hsums import FactorTables, upper_bound_S
from sqlab import operators
from sqlab.operators import (
    IntervalZ,
    Signal,
    apply_multiplier,
    average_on,
    average_squares,
    bilinear_form,
    high_low_split,
    norm_p,
    polynomial_shifts,
)

from oracles import average_polynomial, block, low_kernel_series, maximal_average, triple


def brute_average(f: Signal, N: int, x: int) -> float:
    return sum(f.values_at([x + k * k for k in range(1, N + 1)])) / N


class TestSignal:
    def test_value_lookup(self):
        f = Signal(10, np.array([1.0, 2.0]))
        assert np.array_equal(f.values_at(np.array([9, 10, 11, 12])), [0, 1, 2, 0])

    @given(
        st.integers(-50, 50),
        st.integers(1, 40),
        st.sampled_from(["inside", "left end", "right end", "covering", "disjoint"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_on_is_the_gather(self, offset, n, case, data):
        f = Signal(offset, np.arange(1.0, n + 1))
        first, last = offset, offset + n - 1
        before, after = st.integers(first - 30, first - 1), st.integers(last + 1, last + 30)
        if case == "inside":
            a = data.draw(st.integers(first, last))
            b = data.draw(st.integers(a, last))
        elif case == "left end":
            a, b = data.draw(before), data.draw(st.integers(first, last))
        elif case == "right end":
            a, b = data.draw(st.integers(first, last)), data.draw(after)
        elif case == "covering":
            a, b = data.draw(before), data.draw(after)
        else:
            a = data.draw(st.one_of(before, after))
            b = data.draw(st.integers(a, a + 30) if a > last else st.integers(a, first - 1))
        got = f.on(IntervalZ(a, b))
        assert np.array_equal(got, f.values_at(np.arange(a, b + 1)))
        inside = case == "inside"
        assert np.shares_memory(got, f.samples) == inside
        assert got.flags.writeable != inside

    def test_fresh_array_is_frozen_in_place(self):
        fresh = np.arange(4.0)
        f = Signal(0, fresh)
        assert np.shares_memory(f.samples, fresh) and not fresh.flags.writeable

    def test_operator_outputs_are_not_copied(self, monkeypatch):
        # the output of a multiplier and the split's parts own their data,
        # so Signal keeps the array it is given, in whatever order they come
        made = []

        class Recording(Signal):
            def __post_init__(self):
                made.append(self.samples)
                super().__post_init__()

        monkeypatch.setattr(operators, "Signal", Recording)
        f = Signal(0, np.ones(100))
        grid = sample_multiplier("weyl", 8, None, None, 256)
        out = apply_multiplier(f, grid)
        assert np.shares_memory(out.samples, made[-1])
        ((_, high, low),) = high_low_split(f, 64, [4])
        assert high.samples.flags.owndata and low.samples.flags.owndata
        assert any(a is high.samples for a in made) and any(a is low.samples for a in made)
        assert not np.shares_memory(high.samples, low.samples)

    def test_view_and_converted_input_are_copied(self):
        base = np.arange(8.0)
        ints = np.arange(4)
        f, g = Signal(0, base[2:6]), Signal(0, ints)
        base[:] = -1.0
        ints[:] = -1
        assert f.samples.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert g.samples.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            Signal(0, np.array([]))
        with pytest.raises(Exception):
            Signal(0, np.array([np.nan]))


class TestIntervals:
    def test_doubling_and_tripling(self):
        I = IntervalZ(3, 10)
        assert (I.double().a, I.double().b) == (3, 18)
        assert len(I.double()) == 2 * len(I)
        assert len(triple(I)) == 3 * len(I)
        # 3I is concentric: one copy of I on each side of 2I's span
        assert triple(I).a == 2 * 3 - 10 - 1


class TestAverage:
    def test_direct_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        f = Signal(-5, rng.random(30))
        for N in (1, 2, 3, 7):
            a = average_squares(f, N)
            W = IntervalZ(a.offset - 2, a.offset + len(a) + 1)
            brute = [brute_average(f, N, x) for x in range(W.a, W.b + 1)]
            assert np.all(np.abs(a.on(W) - brute) < 1e-13)

    def test_direct_equals_dft(self):
        rng = np.random.default_rng(1)
        f = Signal(3, rng.random(100))
        for N in (1, 4, 16, 32):
            a = average_squares(f, N, "direct")
            b = average_squares(f, N, "dft")
            assert a.offset == b.offset
            assert np.max(np.abs(a.samples - b.samples)) < 1e-12

    def test_extremal_identity(self):
        # f the indicator of the first N squares: A_N f (0) = 1 exactly
        for N in (2, 8, 32):
            samples = np.zeros(N * N + 1)
            for k in range(1, N + 1):
                samples[k * k] = 1.0
            a = average_squares(Signal(0, samples), N)
            assert a.values_at([0])[0] == 1.0

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        f = Signal(0, rng.random(50))
        a = average_squares(f, 6)
        assert abs(a.samples.sum() - f.samples.sum()) < 1e-10

    @given(
        st.integers(1, 300),
        st.integers(-50, 50),
        st.one_of(st.integers(1, 64), st.integers(65, 200)),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_fft_route_is_exact_on_integer_blocks(self, n, offset, m, squares, data):
        # the shifted sum of an integer f is an integer, so both routes give
        # it divided by the shift count, correctly rounded, with shift
        # counts on both sides of _FFT_SHIFTS
        values = data.draw(st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n))
        f = Signal(offset, np.array(values, dtype=float))
        if squares:
            shifts = np.arange(1, m + 1, dtype=np.int64) ** 2
        else:
            shifts = np.array(data.draw(st.lists(st.integers(-3000, 3000), min_size=m, max_size=m)), dtype=np.int64)
        direct = operators._shift_averager(shifts, n, "direct")(f)
        for method in ("dft", None):
            got = operators._shift_averager(shifts, n, method)(f)
            assert got.offset == direct.offset
            assert got.samples.tobytes() == direct.samples.tobytes(), method

    @pytest.mark.parametrize("N, strategy", [(128, "random"), (256, "random"), (128, "squares")])
    def test_halfdim_counts_at_multiples_of_one_over_n(self, N, strategy):
        # A_N chi_G(x) > k/N iff more than k of the x + j^2, j <= N, lie in
        # G; N > 64 takes the FFT route, where k/N plus roundoff passes eps
        ks = (1, 2, 3)
        report = run_halfdim([N], [k / N for k in ks], strategy, 0)
        squares = np.arange(1, N + 1) ** 2
        G = squares if strategy == "squares" else make_rng(0).choice(N * N + 1, size=N, replace=False)
        hits = np.bincount((G[:, None] - squares + N * N).ravel(), minlength=2 * N * N + 1)
        assert [row[2] for row in report.rows] == [int(np.count_nonzero(hits > k)) for k in ks]

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_constants_fixed(self, N):
        # averaging a long constant block returns 1 in the interior
        f = Signal(0, np.ones(2 * N * N + 10))
        a = average_squares(f, N)
        assert abs(a.values_at([5])[0] - 1.0) < 1e-12


def int64_shifts(coeffs, N):
    """The former int64 evaluation of P(1..N); exact while nothing wraps."""
    ks = np.arange(1, N + 1, dtype=np.int64)
    shifts = np.zeros(N, dtype=np.int64)
    for d, c in enumerate(coeffs):
        shifts += c * ks**d
    return shifts


class TestPolynomialAverage:
    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_shifts_match_int64_route(self, coeffs, N):
        assert np.array_equal(polynomial_shifts(coeffs, N), int64_shifts(coeffs, N))

    def test_squares_polynomial_is_average_squares(self):
        rng = np.random.default_rng(3)
        f = Signal(-4, rng.random(40))
        for N in (1, 3, 6):
            a = average_polynomial(f, N, [0, 0, 1])
            b = average_squares(f, N)
            W = IntervalZ(a.offset - 2, a.offset + len(a) + 1)
            assert np.max(np.abs(a.on(W) - b.on(W))) < 1e-13

    def test_shift_past_int64_is_refused(self):
        top = np.iinfo(np.int64).max
        assert polynomial_shifts([top], 1)[0] == top
        assert polynomial_shifts([-top], 1)[0] == -top
        for coeffs, N in (([top + 1], 1), ([-top - 1], 1), ([0] * 9 + [1], 128)):
            with pytest.raises(DomainError):
                polynomial_shifts(coeffs, N)


class TestMaximal:
    def test_dominates_each_scale(self):
        rng = np.random.default_rng(3)
        f = Signal(-11, rng.standard_normal(64))
        m = maximal_average(f, 8)
        for N in (1, 2, 4, 8):
            a = average_squares(Signal(f.offset, np.abs(f.samples)), N)
            assert np.all(m.on(block(a)) >= a.samples - 1e-13)

    def test_nondyadic_option(self):
        f = Signal(0, np.ones(10))
        m_all = maximal_average(f, 3, dyadic=False)
        m_dyadic = maximal_average(f, 3, dyadic=True)
        W = block(m_all)
        assert np.all(m_all.on(W) >= m_dyadic.on(W) - 1e-13)


class TestNorms:
    def test_normalized_interval_norms(self):
        f = Signal(0, np.arange(1.0, 5.0))
        I = IntervalZ(0, 3)
        assert abs(norm_p(f, 1.0, I) - 2.5) < 1e-14
        assert abs(norm_p(f, 2.0, I) - math.sqrt(30 / 4)) < 1e-14
        assert norm_p(f, math.inf, I) == 4.0
        assert abs(average_on(f, I) - 2.5) < 1e-14

    def test_holder_consistency(self):
        # normalized norms increase in p
        rng = np.random.default_rng(4)
        f = Signal(0, rng.random(32))
        I = IntervalZ(0, 31)
        ps = [1.0, 1.5, 2.0, 4.0]
        vals = [norm_p(f, p, I) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bilinear(self):
        f = Signal(0, np.array([1.0, 2.0]))
        g = Signal(1, np.array([3.0, 4.0]))
        assert bilinear_form(f, g) == 6.0
        assert bilinear_form(f, Signal(100, np.ones(2))) == 0.0


class TestMultiplier:
    def test_weyl_multiplier_reproduces_average(self):
        rng = np.random.default_rng(5)
        f = Signal(-7, rng.random(40))
        N, L = 16, 1 << 12
        grid = sample_multiplier("weyl", N, None, None, L)
        out = apply_multiplier(f, grid)
        a = average_squares(f, N)
        assert np.max(np.abs(out.on(block(a)) - a.samples)) < 1e-12

    def test_signal_too_long_rejected(self):
        grid = sample_multiplier("weyl", 4, None, None, 256)
        with pytest.raises(ContractError):
            apply_multiplier(Signal(0, np.ones(200)), grid)


class TestHighLow:
    def test_split_is_exact(self):
        rng = np.random.default_rng(6)
        f = Signal(0, (rng.random(256) < 0.2).astype(float))
        N = 64
        ((_, high, low),) = high_low_split(f, N, [4])
        a = average_squares(f, N)
        W = IntervalZ(a.offset - 10, a.offset + len(a) + 9)
        err = np.max(np.abs(high.on(W) + low.on(W) - a.on(W)))
        assert err < 1e-7

    @pytest.mark.parametrize("N, j_list", [(64, [2, 4, 8]), (256, [16, 32])])
    def test_point_mass_low_ratio_under_the_kernel_bound(self, N, j_list):
        # 2N^2 max|K_J| <= (3/4) J (1 + U_J) on Z; a point mass at N^2/2,
        # inside I, the worst f, reads 1.377, 4.533, 12.31 (N = 64) and
        # 24.72, 48.44 (N = 256) against 2.25, 8.0, 21.94 and 51.56, 128.06
        I = IntervalZ(0, N * N - 1)
        twoI = I.double()
        samples = np.zeros(len(twoI))
        samples[N * N // 2] = 1.0
        f = Signal(twoI.a, samples)
        tables = FactorTables()
        for J, _, low in high_low_split(f, N, j_list):
            ratio = norm_p(low, math.inf, I) / norm_p(f, 1.0, twoI)
            assert 0.4 * J < ratio <= 0.75 * J * (1 + upper_bound_S(J, tables)), J

    @pytest.mark.parametrize("J", [4, 16])
    def test_low_kernel_is_the_h_sum_series(self, J):
        # b_N1's kernel, from a point mass at 0 by _signed_spectrum's window
        # convention (bin L/2 + x holds x), against its series in the H sums
        # that lowpass-scan adds.  At L = 128 N^2 they agree to 1.8e-12
        # (J = 4) and 9.3e-12 (J = 16); at L = 64 N^2 the wrap of K_J's tail
        # leaves 4.6e-10 and 2.1e-9, and at 256 N^2 under 2e-14
        N = 64
        L = 128 * N * N
        xhat = operators._signed_spectrum(Signal(0, np.ones(1)), L)
        xhat *= split_half_spectrum("b_N1", N, J, L)
        kernel = np.fft.irfft(xhat, L)
        xs = np.array([-7, -5, -2, -1, 0, 1, 2, 3]) * N * N + np.array([0, 3, -17, N * N // 2, -1, 5, 11, 0])
        assert np.abs(low_kernel_series(N, J, xs) - kernel[L // 2 + xs]).max() <= 1e-9

    def test_trivial_branch(self):
        f = Signal(0, np.ones(16))
        ((_, high, low),) = high_low_split(f, 8, [4])  # J >= N/4: no split
        assert np.all(np.asarray(high.samples) == 0.0)
        a = average_squares(f, 8)
        assert np.max(np.abs(low.on(block(a)) - a.samples)) < 1e-12

    def test_low_part_is_flatter(self):
        # the low-pass part has much smaller sup norm on spread-out data
        rng = np.random.default_rng(7)
        f = Signal(0, (rng.random(512) < 0.05).astype(float))
        ((_, high, low),) = high_low_split(f, 64, [4])
        W = block(low)  # High's block too
        assert norm_p(low, math.inf, W) < 0.5 * max(norm_p(high, math.inf, W), 1e-9) or norm_p(
            low, math.inf, W
        ) < 0.1
