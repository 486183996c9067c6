"""The real-FFT spectral path of sqlab.operators against the complex,
power-of-two and per-operator routes it replaced, kept here as oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from sqlab import circle, experiments, operators
from sqlab.arith import DomainError
from sqlab.circle import ContractError, MultiplierGrid, _mirror, sample_multiplier
from sqlab.operators import (
    IntervalZ,
    Signal,
    _shift_averager,
    _smooth_len,
    _split_grid_len,
    apply_multiplier,
    average_squares,
    high_low_split,
)

from oracles import (
    apply_multipliers,
    apply_multipliers_rolled,
    average_shifts_direct,
    high_low_split_dense,
    high_low_split_two_transforms,
    weyl_half_int64,
)


def apply_multiplier_complex(f: Signal, grid: MultiplierGrid) -> Signal:
    """Oracle: complex FFT of the zero-padded block, times the grid, complex
    inverse FFT, real part, centered on a window of length L."""
    L = grid.L
    buf = np.zeros(L, dtype=np.complex128)
    buf[: len(f.samples)] = f.samples
    out = np.roll(np.fft.ifft(np.fft.fft(buf) * grid.values), L // 2)
    return Signal(f.offset - L // 2, out.real)


def average_squares_pow2_dft(f: Signal, N: int) -> Signal:
    """Oracle: A_N f by a real FFT of power-of-two length >= 4 (n + N^2),
    with the kernel at -k^2 mod L and a roll back to the output window."""
    n, NN = len(f.samples), N * N
    out_len = n + NN
    L = 1 << (4 * out_len - 1).bit_length()
    kernel = np.bincount((-(np.arange(1, N + 1, dtype=np.int64) ** 2)) % L, minlength=L)
    conv = np.fft.irfft(np.fft.rfft(f.samples, L) * np.fft.rfft(kernel, L), L)
    return Signal(f.offset - NN, np.roll(conv, NN)[:out_len] / N)


def average_squares_own_routes(f: Signal, N: int, method: str) -> Signal:
    """Oracle: A_N f by the loop and the real FFT that average_squares had
    of its own, before it shared the shift-average engine."""
    n = len(f.samples)
    NN = N * N
    out_len = n + NN  # support shifts by -k^2, k^2 in [1, N^2]
    if method == "direct":
        acc = np.zeros(out_len)
        for k in range(1, N + 1):
            acc[NN - k * k : NN - k * k + n] += f.samples
        return Signal(f.offset - NN, acc / N)
    L = _smooth_len(out_len)
    ks = np.arange(1, N + 1, dtype=np.int64)
    kernel_hat = np.fft.rfft(np.bincount(NN - ks * ks), L)
    conv = np.fft.irfft(np.fft.rfft(f.samples, L) * kernel_hat, L)
    return Signal(f.offset - NN, conv[:out_len] / N)


def _close(a: Signal, b: Signal, f: Signal, L: int) -> bool:
    """Same window, and the samples agree to 1e-12 ||f||_1 plus one
    subnormal ulp per point of the transform length L: for subnormal f the
    relative term underflows to 0, below what any FFT route can meet."""
    return (
        a.offset == b.offset
        and len(a) == len(b)
        and float(np.max(np.abs(a.samples - b.samples)))
        <= 1e-12 * float(np.sum(np.abs(f.samples))) + L * 2.0**-1074
    )


samples = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=150
).map(np.array)
offsets = st.integers(min_value=-10**6, max_value=10**6)


def _is_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_smooth_len_is_least_5_smooth_bound():
    for n in range(1, 3000):
        L = _smooth_len(n)
        assert L >= n and _is_smooth(L), n
        assert not any(_is_smooth(m) for m in range(n, L)), n
    assert _smooth_len(3 << 20) == 3 << 20  # n + N^2 at N = 2^10, n = 2N^2


def test_smooth_len_is_scipys_next_fast_len():
    # the integer search against the scipy route it replaced, at every
    # n <= 2^17 and at the runners' window lengths c N^2 + d, c = 1, 2, 3
    # for N up to 2^12, and far beyond them
    assert all(_smooth_len(n) == next_fast_len(n, real=True) for n in range(1, (1 << 17) + 1))
    N = 2 ** np.arange(3, 13)
    lengths = [c * n * n + d for n in N.tolist() for c in (1, 2, 3) for d in (-1, 0, 1)]
    lengths += [(1 << k) + d for k in range(17, 48) for d in (-1, 1)] + [10**9 + 7, 3**20 * 5**7 + 1]
    assert [_smooth_len(n) for n in lengths] == [next_fast_len(n, real=True) for n in lengths]


class TestAverageSquares:
    @given(samples, offsets, st.integers(min_value=1, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_dft_matches_direct_and_pow2_oracle(self, x, offset, N):
        f = Signal(offset, x)
        L = 1 << (4 * (len(x) + N * N) - 1).bit_length()  # the oracle's, the longest
        dft = average_squares(f, N, method="dft")
        assert _close(dft, average_squares(f, N, method="direct"), f, L)
        assert _close(dft, average_squares_pow2_dft(f, N), f, L)

    def test_auto_switches_to_dft_above_64(self):
        f = Signal(-3, np.random.default_rng(0).random(50))
        for N, route in ((64, "direct"), (65, "dft")):
            auto = average_squares(f, N)
            assert np.array_equal(auto.samples, average_squares(f, N, method=route).samples)

    @pytest.mark.parametrize("N", [1, 7, 64, 65, 90])
    def test_same_bytes_as_own_routes(self, N):
        f = Signal(-3, np.random.default_rng(N).random(50))
        for method in ("direct", "dft"):
            new, old = average_squares(f, N, method), average_squares_own_routes(f, N, method)
            assert new.offset == old.offset and np.array_equal(new.samples, old.samples)

    @given(
        samples,
        offsets,
        st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=100).map(
            lambda s: np.array(s, dtype=np.int64)
        ),
    )
    @example(np.array([1.0, -2.0, 0.5]), 4, np.array([3, -2, 0, 3, -7], dtype=np.int64))
    @settings(max_examples=60, deadline=None)
    def test_both_shift_routes_match_direct_oracle(self, x, offset, shifts):
        # repeated, negative, zero and unsorted shifts
        f = Signal(offset, x)
        L = _smooth_len(len(x) + int(shifts.max()) - int(shifts.min()) + 1)
        oracle = average_shifts_direct(f, shifts)
        for method in ("direct", "dft"):
            assert _close(_shift_averager(shifts, len(x), method)(f), oracle, f, L)

    def test_one_kernel_spectrum_per_N(self, monkeypatch):
        # improving-ratio at N = 128 (dft route): the 5 random trials share
        # one kernel spectrum and take one rfft each of their f; the constant
        # indicator's average takes two more, the extremal pair none
        sizes = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *r, **k: sizes.append(len(a)) or rfft(a, n, *r, **k))
        experiments.run_improving_ratio([128], 1.6, 5, 0)
        kernel, f = 128 * 128, 2 * 128 * 128  # the histogram of N^2 - k^2 and f on 2I
        assert sorted(sizes) == [kernel] * 2 + [f] * 6

    def test_averager_refuses_another_length(self):
        average = _shift_averager(np.array([1, 4, 9]), 5)
        assert len(average(Signal(0, np.ones(5)))) == 5 + 9 - 1 + 1
        with pytest.raises(ContractError):
            average(Signal(0, np.ones(6)))


class TestApplyMultiplier:
    @given(
        samples,
        offsets,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(np.array([5e-324, 5e-324]), 0, 1, 0)  # subnormal f at L = 8
    @settings(max_examples=60, deadline=None)
    def test_random_complex_grid_matches_oracle(self, x, offset, extra, seed):
        # a random grid made Hermitian, (m[j] + conj(m[-j])) / 2, which is
        # exact in floats: only bins 0..L/2 reach the real route
        f = Signal(offset, x)
        L = max(2, 1 << (2 * len(x) - 1).bit_length()) << extra
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        grid = MultiplierGrid(L, (m + np.conj(np.roll(m[::-1], 1))) / 2)
        assert _close(apply_multiplier(f, grid), apply_multiplier_complex(f, grid), f, L)

    @given(
        offsets,
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(0, 1, 0, 1, 0)  # L = 2: the Nyquist bin is the only odd bin
    @example(-7, 2, 0, 2, 3)
    @settings(max_examples=60, deadline=None)
    def test_same_outputs_as_rolled_route(self, offset, n, extra, kernels, seed):
        # random blocks and random complex half spectra (DC and Nyquist bins
        # real, so that apply_multiplier takes them as grids) on powers of
        # two L from 2n to 16 times that, L = 2 to 2^17: the sign-flipped
        # spectrum of f gives the rolled route's values (a zero may differ
        # in sign, so equality is of values)
        rng = np.random.default_rng(seed)
        f = Signal(offset, rng.standard_normal(n) * (rng.random(n) < 0.5))
        L = max(2, 1 << (2 * n - 1).bit_length()) << extra
        spectra = [rng.standard_normal(L // 2 + 1) + 1j * rng.standard_normal(L // 2 + 1) for _ in range(kernels)]
        for h in spectra:
            h[[0, -1]] = h[[0, -1]].real
        want = apply_multipliers_rolled(f, L, spectra)
        got = list(apply_multipliers(f, L, iter(spectra)))
        for h, a, b in zip(spectra, got, want):
            assert a.offset == b.offset and np.array_equal(a.samples, b.samples)
            full = np.zeros(L, dtype=np.complex128)
            full[: L // 2 + 1] = h
            single = apply_multiplier(f, MultiplierGrid(L, _mirror(full)))
            assert single.offset == b.offset and np.array_equal(single.samples, b.samples)

    @given(samples, offsets, st.sampled_from([8, 16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_sampled_pieces_match_oracle(self, x, offset, N):
        f = Signal(offset, x)
        L = _split_grid_len(N, len(x))
        for piece in ("weyl", "b_N1"):
            grid = sample_multiplier(piece, N, 2, 2, L)
            assert _close(apply_multiplier(f, grid), apply_multiplier_complex(f, grid), f, L)


def _window(f: Signal, N: int) -> tuple[int, int]:
    """A_N f's window: its offset f.offset - N^2 and its n + N^2 samples."""
    return f.offset - N * N, len(f.samples) + N * N


def _same_as_two_transform_route(f: Signal, N: int, j_list) -> None:
    """high_low_split against the route that inverted weyl - b_N1 beside
    b_N1 on the whole grid: the same J in order, every row on A_N f's
    window, Low there to 1e-13 max|Low| (it comes from short inverse
    transforms of its support; J = 1 has no bins and gives zeros), High =
    W - Low to 1e-12 max|f|."""
    got = list(high_low_split(f, N, j_list))
    want = high_low_split_two_transforms(f, N, j_list)
    offset, n = _window(f, N)
    window = IntervalZ(offset, offset + n - 1)
    tol = 1e-12 * np.max(np.abs(f.samples))
    for (J, high, low), (K, high0, low0) in zip(got, want, strict=True):
        assert J == K
        assert high.offset == low.offset == offset and len(high) == len(low) == n
        low0 = low0.on(window)
        assert np.max(np.abs(low.samples - low0)) <= 1e-13 * np.max(np.abs(low0))
        assert np.max(np.abs(high.samples - high0.on(window))) <= tol


@st.composite
def sparse_spectra(draw):
    """A power of two L in [2^3, 2^18], a half spectrum on distinct bins
    that include 0 and L/2, and a window [lo, hi) of [0, L)."""
    L = 1 << draw(st.integers(min_value=3, max_value=18))
    rest = draw(st.lists(st.integers(min_value=1, max_value=L // 2 - 1), max_size=40))
    bins = np.unique(np.array([0, L // 2, *rest], dtype=np.int64))
    parts = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)
    vals = np.array([complex(draw(parts), draw(parts)) for _ in bins])
    lo = draw(st.integers(min_value=0, max_value=L - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=L))
    return bins, vals, L, lo, hi


class TestSparseIrfft:
    @given(sparse_spectra())
    @example((np.array([0, 4]), np.array([1 + 2j, 3 - 1j]), 8, 0, 8))
    @example((np.array([0, 3, 1 << 16]), np.array([2j, 1 + 1j, -1 + 5j]), 1 << 17, 5, (1 << 17) - 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_inverse_transform(self, spectrum):
        # P = 1 below L = 2^16 and P = L / 2^15 above; the windows are
        # unaligned, so their partial first and last rows are gathered too
        bins, vals, L, lo, hi = spectrum
        dense = np.zeros(L // 2 + 1, dtype=np.complex128)
        dense[bins] = vals
        want = np.fft.irfft(dense, L)[lo:hi]
        got = operators._sparse_irfft(bins, vals, L, lo, hi)
        assert got.shape == want.shape and got.flags.owndata
        assert np.max(np.abs(got - want)) <= 1e-12 * 2 * np.sum(np.abs(vals)) / L

    def test_empty_support_is_zero(self):
        got = operators._sparse_irfft(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128), 1 << 17, 3, 99)
        assert got.shape == (96,) and not np.any(got)


class TestHighLowSplit:
    @pytest.mark.parametrize(
        "N, j_list, n", [(16, [1, 2, 4], 40), (64, [1, 4, 8, 16], 300), (256, [2, 4, 16, 64], 1000), (256, [8], 2 * 256 * 256)]
    )
    def test_parts_match_the_dense_low_route(self, N, j_list, n):
        # Low by one length-L irfft of its zeroed half spectrum per J, and
        # High = W - Low: both parts within 1e-13 of their max
        rng = np.random.default_rng(n)
        f = Signal(-n // 2, (rng.random(n) < 0.2) * rng.standard_normal(n))
        got = list(high_low_split(f, N, j_list))
        want = high_low_split_dense(f, N, j_list)
        for (J, high, low), (K, high0, low0) in zip(got, want, strict=True):
            assert J == K
            for part, part0 in ((high, high0), (low, low0)):
                assert part.offset == part0.offset and len(part) == len(part0)
                assert np.max(np.abs(part.samples - part0.samples)) <= 1e-13 * np.max(np.abs(part0.samples))

    def test_parts_match_oracle_on_their_own_grids(self):
        # a trivial J (16 >= N/4) between two that split, and a repeated J:
        # every part on A_N f's window, as the complex route gives it there
        rng = np.random.default_rng(8)
        f = Signal(-20, (rng.random(300) < 0.2).astype(float))
        N, j_list = 64, [4, 16, 2, 4]
        L = _split_grid_len(N, len(f))
        offset, n = _window(f, N)
        window = IntervalZ(offset, offset + n - 1)
        weyl = sample_multiplier("weyl", N, None, None, L)
        out = list(high_low_split(f, N, j_list))
        assert [J for J, _, _ in out] == j_list
        for J, high, low in out:
            assert high.offset == low.offset == offset and len(high) == len(low) == n
            if J >= N // 4:
                af = average_squares(f, N)
                assert np.array_equal(low.samples, af.samples) and low.offset == af.offset
                assert not np.any(high.samples)
                continue
            low_grid = sample_multiplier("b_N1", N, J, J, L)
            high_grid = MultiplierGrid(L, weyl.values - low_grid.values)
            for part, grid in ((high, high_grid), (low, low_grid)):
                oracle = apply_multiplier_complex(f, grid)
                assert _close(part, Signal(offset, oracle.on(window)), f, L)
        # the repeated J gives the same bytes both times
        assert np.array_equal(out[0][1].samples, out[3][1].samples)
        assert np.array_equal(out[0][2].samples, out[3][2].samples)

    @pytest.mark.parametrize("N, j_list, n", [(16, [1, 2], 40), (64, [4, 16, 8, 4], 300), (256, [2, 64, 2], 1000)])
    def test_kernels_are_the_former_grids_bins(self, monkeypatch, N, j_list, n):
        # the (bins, values) the split keeps of each b_N1, summed from the
        # arc enumerator's pieces and scattered into zeros, bit for bit the
        # bins 0..L/2 of the sampled grid
        kept = []
        support = operators.b_n1_support
        monkeypatch.setattr(operators, "b_n1_support", lambda *args: kept.append(support(*args)) or kept[-1])
        for _ in high_low_split(Signal(0, np.ones(n)), N, j_list):
            pass
        L = _split_grid_len(N, n)
        js = list(dict.fromkeys(J for J in j_list if J < N // 4))
        assert len(kept) == len(js)
        for J, (bins, values) in zip(js, kept):
            dense = np.zeros(L // 2 + 1, dtype=np.complex128)
            dense[bins] = values
            want = sample_multiplier("b_N1", N, J, J, L).values[: L // 2 + 1]
            assert np.array_equal(dense.view(np.int64), want.view(np.int64))
            assert np.all(values != 0)

    @pytest.mark.parametrize(
        "N, j_list, n", [(16, [1, 2, 1, 4], 40), (64, [4, 16, 8, 4, 32], 300), (256, [2, 64, 16, 2], 1000)]
    )
    def test_same_parts_as_two_transform_route(self, N, j_list, n):
        # repeated and non-splitting J included
        rng = np.random.default_rng(N)
        _same_as_two_transform_route(Signal(-n // 3, (rng.random(n) < 0.2) * rng.standard_normal(n)), N, j_list)

    @given(
        st.integers(min_value=1, max_value=256),
        offsets,
        st.integers(min_value=1, max_value=2000),
        st.lists(st.sampled_from([1, 1, 2, 4, 8, 16, 32, 64, 128]), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(1, 0, 1, [1], 0)
    @example(64, -5, 300, [1, 16, 1, 4], 1)  # J = 1, an unsplit J, repeats
    @settings(max_examples=30, deadline=None)
    def test_parts_on_the_window_match_two_transform_route(self, N, offset, n, j_list, seed):
        rng = np.random.default_rng(seed)
        _same_as_two_transform_route(Signal(offset, (rng.random(n) < 0.3) * rng.standard_normal(n)), N, j_list)

    @given(
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=1, max_value=3000),
        offsets,
        st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(64, 2 * 64 * 64, 0, [4, 16], 0)  # the runner's n = 2N^2: M = 3N^2
    @example(128, 2 * 128 * 128, -3, [4, 32, 2], 1)
    @example(48, 2 * 48 * 48, 5, [2, 8], 2)
    @example(8, 17, 0, [1], 3)  # n + N^2 = 81 and 80 are 5-smooth: M one short wraps
    @settings(max_examples=25, deadline=None)
    def test_parts_sum_to_the_direct_average_at_the_tightest_length(self, N, extra, offset, j_list, seed):
        # n + N^2 itself 5-smooth, so W's length M is A_N f's window and
        # nothing is left to spare against a wrap: High + Low is the exact
        # shifted sum of the squares within 1e-13 ||f||_1
        n = _smooth_len(N * N + extra) - N * N
        rng = np.random.default_rng(seed)
        f = Signal(offset, (rng.random(n) < 0.3) * rng.standard_normal(n))
        want = average_shifts_direct(f, np.arange(1, N + 1, dtype=np.int64) ** 2)
        assert _smooth_len(n + N * N) == len(want) == n + N * N
        tol = 1e-13 * np.sum(np.abs(f.samples))
        for _, high, low in high_low_split(f, N, j_list):
            assert high.offset == low.offset == want.offset and len(high) == len(low) == len(want)
            assert np.max(np.abs(high.samples + low.samples - want.samples)) <= tol

    def _count_work(self, monkeypatch, f):
        """Record the lengths of the rffts of f's block, the spectra built
        (b_N1 supports by J, Weyl halves by length, split half spectra by
        piece) and the full grids made (MultiplierGrid checks)."""
        rffts, pieces, grids = [], [], []
        rfft, support, weyl = np.fft.rfft, operators.b_n1_support, operators._weyl_half
        half = circle.split_half_spectrum
        check = circle.MultiplierGrid.__post_init__

        def counting_rfft(a, n=None, *args, **kwargs):
            if a is f.samples:
                rffts.append(n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(operators, "b_n1_support", lambda N, J, L: pieces.append(("b_N1", J)) or support(N, J, L))
        monkeypatch.setattr(operators, "_weyl_half", lambda N, M: pieces.append(("weyl", M)) or weyl(N, M))
        monkeypatch.setattr(circle, "split_half_spectrum", lambda which, *a, **k: pieces.append(("half", which)) or half(which, *a, **k))
        monkeypatch.setattr(circle.MultiplierGrid, "__post_init__", lambda g: grids.append(g.L) or check(g))
        return rffts, pieces, grids

    @pytest.mark.parametrize("j_list", [[4], [4, 8], [2, 4, 8, 2], [16, 4, 32, 4, 8]])
    def test_one_spectrum_of_f_and_one_weyl_grid_per_call(self, monkeypatch, j_list):
        # one b_N1 support per distinct splitting J, from the arc pieces
        # with no half spectrum; one rfft of f at L for their products, then
        # W on its own length M < L: one Weyl half and one rfft of f at M;
        # no full grid is sampled or checked
        f = Signal(0, (np.random.default_rng(3).random(200) < 0.2).astype(float))
        L, M = _split_grid_len(64, len(f)), operators._smooth_len(len(f) + 64 * 64)
        rffts, pieces, grids = self._count_work(monkeypatch, f)
        for _ in high_low_split(f, 64, j_list):
            pass
        assert M < L and rffts == [L, M]
        assert pieces == [("b_N1", J) for J in dict.fromkeys(J for J in j_list if J < 16)] + [("weyl", M)]
        assert grids == []

    @pytest.mark.parametrize("j_list", [[4], [4, 8], [2, 4, 8, 2], [16, 4, 32, 8]])
    def test_k_plus_one_inverse_transforms(self, monkeypatch, j_list):
        # one rfft of f at L and one at M, then W once at M and Low per J
        # that splits: k + 1 irffts for k splitting J, W's at M and each
        # Low's one batch of one residue at L = 2^14 <= _SHORT (A_N f, for
        # J >= N/4, is direct at N = 64)
        f = Signal(0, (np.random.default_rng(4).random(200) < 0.2).astype(float))
        L, M = _split_grid_len(64, len(f)), operators._smooth_len(len(f) + 64 * 64)
        rffts, irffts = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *r, **k: a is f.samples and rffts.append(n) or rfft(a, n, *r, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda a, n=None, *r, **k: irffts.append((np.shape(a)[:-1], n)) or irfft(a, n, *r, **k))
        for _ in high_low_split(f, 64, j_list):
            pass
        assert L <= operators._SHORT and rffts == [L, M]
        assert irffts == [((), M)] + [((1,), L)] * sum(J < 16 for J in j_list)

    @pytest.mark.parametrize("j_list", [[4], [2, 4, 8, 2]])
    def test_no_inverse_transform_of_length_L_per_J(self, monkeypatch, j_list):
        # at L = 2^18 > _SHORT nothing is inverted at length L: W at its own
        # M, and each J that splits takes P / rows batched irffts of length
        # _SHORT; f's one rfft at L is the only transform of that length
        f = Signal(0, (np.random.default_rng(5).random(1000) < 0.2).astype(float))
        L, M = _split_grid_len(256, len(f)), operators._smooth_len(len(f) + 256 * 256)
        short, P, rows = operators._SHORT, L // operators._SHORT, operators._sparse_rows(L)
        rffts, lengths = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, *r, **k: rffts.append(n or len(a)) or rfft(a, n, *r, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda a, n=None, *r, **k: lengths.append((np.shape(a)[:-1], n)) or irfft(a, n, *r, **k))
        for _ in high_low_split(f, 256, j_list):
            pass
        assert L == 1 << 18 and P > 1 and M < L
        assert rffts == [L, M, M]  # f at L, the Weyl histogram and f at M
        assert lengths == [((), M)] + [((rows,), short)] * (len(j_list) * P // rows)

    @pytest.mark.parametrize(
        "N, n, j_list", [(1024, 1000, [4]), (512, 1000, [4, 16]), (256, 1000, [4, 64, 16]), (64, 300, [16, 4])]
    )
    def test_split_bytes_bound_the_traced_peak(self, N, n, j_list):
        # the split alone, each part dropped before the next: f's rfft at L
        # sets the peak at N = 1024, a Low's batch beside W at N = 512; 64 KiB
        # of small objects, as the runner allows.  gamma_N's Fresnel table
        # and numpy's FFT module are made on their first use, before this
        f = Signal(-7, (np.random.default_rng(6).random(n) < 0.1).astype(float))
        circle._fresnel_table()
        np.fft.rfft(f.samples)
        count = operators.high_low_split_bytes(N, n, j_list)
        tracemalloc.start()
        try:
            for _, high, low in high_low_split(f, N, j_list):
                del high, low
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count + (1 << 16) and count <= 1.25 * peak

    def test_no_grid_when_no_J_splits(self, monkeypatch):
        f = Signal(0, np.ones(100))
        rffts, pieces, grids = self._count_work(monkeypatch, f)
        assert [J for J, _, _ in high_low_split(f, 64, [16, 32, 16])] == [16, 32, 16]
        assert pieces == [] and grids == [] and rffts == []

    def test_one_average_per_trial_when_no_J_splits(self, monkeypatch):
        # at N = 64 neither J = 16 nor J = 32 splits: per trial, the runner's
        # audit takes A_N f once and the split once, for both J
        calls = []

        def counting(f, N, *args, **kwargs):
            calls.append(N)
            return average_squares(f, N, *args, **kwargs)

        monkeypatch.setattr(operators, "average_squares", counting)
        monkeypatch.setattr(experiments, "average_squares", counting)
        experiments.run_high_low(64, [16, 32], 2)
        assert calls == [64] * 4

    def test_bad_J_raises_at_first_next(self):
        parts = high_low_split(Signal(0, np.ones(10)), 64, [4, 3])
        with pytest.raises(DomainError):
            next(parts)
