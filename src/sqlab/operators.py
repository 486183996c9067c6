"""Discrete averaging operators along the squares, Fourier-multiplier
application on periodized grids, and the high/low frequency splitting used
to compare the average against its smooth part.

Signals are finitely supported functions Z -> R stored as an offset plus a
contiguous sample block.  All operators return new Signal instances.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .arith import DomainError
from .circle import ContractError, MultiplierGrid, split_half_spectrum
from .circle import sample_multiplier  # noqa: F401  re-exported: perfbench/tests/test_tracer.py reads it here


@dataclass(frozen=True)
class Signal:
    """A finitely supported function on Z: samples[i] is the value at
    offset + i."""

    offset: int
    samples: np.ndarray

    def __post_init__(self):
        arr = self.samples
        # a float64 array that owns its data is frozen in place; a view or
        # input that needs conversion becomes a private copy
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.flags.owndata):
            arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("Signal: samples must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("Signal: samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        """f at arbitrary points, zero off the block (perfbench's gather)."""
        ns = np.asarray(ns, dtype=np.int64)
        i = ns - self.offset
        ok = (i >= 0) & (i < len(self.samples))
        out = np.zeros(ns.shape, dtype=np.float64)
        out[ok] = self.samples[i[ok]]
        return out

    def on(self, interval: IntervalZ) -> np.ndarray:
        """f at the points of an interval: a read-only view of the block
        when the interval lies inside it, else a copy of the overlapping
        slice padded with zeros."""
        i, n = interval.a - self.offset, len(self.samples)
        if i >= 0 and i + len(interval) <= n:
            return self.samples[i : i + len(interval)]
        out = np.zeros(len(interval))
        lo, hi = max(i, 0), min(i + len(interval), n)
        if lo < hi:
            out[lo - i : hi - i] = self.samples[lo:hi]
        return out

    @classmethod
    def delta(cls, n: int = 0) -> "Signal":
        return cls(n, np.ones(1))


@dataclass(frozen=True)
class IntervalZ:
    """The integer interval [a, b], b >= a."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < self.a:
            raise DomainError(f"IntervalZ: empty [{self.a},{self.b}]")

    def __len__(self) -> int:
        return self.b - self.a + 1

    def double(self) -> "IntervalZ":
        """2I: same left endpoint, doubled length."""
        return IntervalZ(self.a, 2 * self.b - self.a + 1)


def _smooth_len(n: int) -> int:
    """Smallest 5-smooth integer >= n >= 1, a length whose FFT needs only
    radix-2, 3 and 5 passes: over every 3^b 5^c below the power of two
    >= n, the least 2^a 3^b 5^c >= n, in exact integers."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # 2^a p35 >= n for 2^a >= ceil(n / p35) = (n - 1) // p35 + 1
            c = p35 << ((n - 1) // p35).bit_length()
            if c < best:
                best = c
            p35 *= 3
        p5 *= 5
    return best


# above this many shifts, one transform costs less than the shifted adds
_FFT_SHIFTS = 64


def _average_shifts(f: Signal, shifts: np.ndarray, method: str | None = None) -> Signal:
    """(1/m) sum_{s in shifts} f(x + s) for a nonempty int64 array of m
    shifts, on the n + max - min + 1 samples from f.offset - max.  direct
    adds the shifted copies of f's block in order; dft convolves the block
    with the histogram of max - shifts by real FFTs of the smallest 5-smooth
    length >= that window, one more than the convolution's, so nothing
    wraps.  None takes dft above _FFT_SHIFTS shifts."""
    if method is None:
        method = "dft" if len(shifts) > _FFT_SHIFTS else "direct"
    hi, lo = int(shifts.max()), int(shifts.min())
    n = len(f.samples)
    out_len = n + hi - lo + 1
    if method == "direct":
        acc = np.zeros(out_len)
        for i in (hi - shifts).tolist():
            acc[i : i + n] += f.samples
        acc /= len(shifts)
    elif method == "dft":
        L = _smooth_len(out_len)
        kernel = np.fft.rfft(np.bincount(hi - shifts), L)
        acc = np.fft.irfft(np.fft.rfft(f.samples, L) * kernel, L)[:out_len] / len(shifts)
    else:
        raise DomainError(f"unknown averaging method {method!r}")
    return Signal(f.offset - hi, acc)


def shift_average_bytes(n: int, shifts: np.ndarray) -> int:
    """Peak bytes of the arrays _average_shifts allocates for a block of n
    samples on the route it chooses, as traced: on the direct route the
    float64 output, out_len samples; on the FFT route, of length L >=
    out_len, the kernel's half spectrum, the product of spectra and its
    inverse transform, 24 bytes a point of L (the output comes after the
    product is freed)."""
    out_len = n + int(shifts.max()) - int(shifts.min()) + 1
    if len(shifts) <= _FFT_SHIFTS:
        return 8 * out_len
    L = _smooth_len(out_len)
    return 2 * 16 * (L // 2 + 1) + 8 * L


def average_squares(f: Signal, N: int, method: str | None = None) -> Signal:
    """A_N f(x) = (1/N) sum_{k=1}^{N} f(x + k^2): _average_shifts over the
    shifts k^2, on n + N^2 samples from f.offset - N^2; method "direct" or
    "dft" fixes its route, None lets it choose."""
    if N < 1:
        raise DomainError(f"average_squares: N={N} must be positive")
    return _average_shifts(f, np.arange(1, N + 1, dtype=np.int64) ** 2, method)


def polynomial_shifts(coeffs: Sequence[int], N: int) -> np.ndarray:
    """P(1), ..., P(N) for the integer polynomial P with coefficients coeffs
    in increasing-degree order, evaluated exactly; DomainError when N < 1
    or one of them does not fit in int64."""
    if N < 1:
        raise DomainError(f"polynomial_shifts: N={N} must be positive")
    bound = np.iinfo(np.int64).max
    shifts = []
    for k in range(1, N + 1):
        v = 0
        for c in reversed(coeffs):
            v = v * k + int(c)
        if abs(v) > bound:
            raise DomainError(f"polynomial shift P({k}) = {v} does not fit in int64")
        shifts.append(v)
    return np.array(shifts, dtype=np.int64)


def average_polynomial(f: Signal, N: int, coeffs: Sequence[int]) -> Signal:
    """(1/N) sum_{k=1}^N f(x + P(k)): _average_shifts over the shifts
    polynomial_shifts(coeffs, N), by the route it chooses."""
    return _average_shifts(f, polynomial_shifts(coeffs, N))


def norm_p(f: Signal, p: float, interval: IntervalZ) -> float:
    """The normalized norm <|f|^p>_I^{1/p} of f on an interval; p = inf
    gives the sup."""
    vals = np.abs(f.on(interval))
    if math.isinf(p):
        return float(np.max(vals))
    if p <= 0:
        raise DomainError(f"norm_p: p={p} must be positive")
    np.power(vals, p, out=vals)
    return float(((1.0 / len(interval)) * np.sum(vals)) ** (1.0 / p))


# kept only because perfbench/libops.py reads it; the library calls norm_p
def average_on(f: Signal, interval: IntervalZ, p: float = 1.0) -> float:
    """<|f|^p>_I^{1/p} = (|I|^{-1} sum_{x in I} |f(x)|^p)^{1/p}."""
    return norm_p(f, p, interval)


def bilinear_form(f: Signal, g: Signal) -> float:
    """sum_x f(x) g(x), over the overlap of the two blocks."""
    lo = max(f.offset, g.offset)
    hi = min(f.offset + len(f), g.offset + len(g)) - 1
    if hi < lo:
        return 0.0
    overlap = IntervalZ(lo, hi)
    return float(np.dot(f.on(overlap), g.on(overlap)))


def apply_multiplier(f: Signal, grid: MultiplierGrid) -> Signal:
    """Apply a Fourier multiplier, sampled at frequencies j/L, to f by
    periodized convolution of the grid's length L (a power of two, at least
    twice f's length).  The grid is exactly Hermitian, so its bins 0..L/2
    act through one rfft/irfft pair, which equals the complex route
    ifft(fft(f) m).  The output window [f.offset - L/2, f.offset + L/2)
    keeps a kernel near frequency 0 (spread over [-L/2, L/2)) from wrapping."""
    return next(_apply_multipliers(f, grid.L, [grid.values[: grid.L // 2 + 1]]))


def _apply_multipliers(f: Signal, L: int, spectra: Iterable[np.ndarray]) -> Iterator[Signal]:
    """apply_multiplier for each half spectrum (bins 0..L/2 of a grid of
    length L), one output at a time, all from one rfft of f's block, taken
    at the first next(), whose odd bins change sign once: (-1)^j moves each
    output by L/2, onto its window, with no roll."""
    if L < 2 * len(f.samples):
        raise ContractError(f"apply_multiplier: grid L={L} too small for signal length {len(f)}")
    # analysis transform e(-x xi) (numpy fft): under it the A_N kernel
    # (1/N) sum_k delta_{-k^2} has symbol (1/N) sum_k e(k^2 xi), the Weyl
    # sum; no local keeps an output alive between steps
    xhat = np.fft.rfft(f.samples, L)
    xhat[1::2] *= -1
    for h in spectra:
        yield Signal(f.offset - L // 2, np.fft.irfft(xhat * h, L))


def _split_grid_len(N: int, n: int) -> int:
    """Grid length of high_low_split for a signal of n samples: the least
    power of two >= max(4 N^2, 2 (n + N^2))."""
    return 1 << (max(4 * N * N, 2 * (n + N * N)) - 1).bit_length()


def high_low_split(f: Signal, N: int, j_list: Sequence[int]) -> Iterator[tuple[int, Signal, Signal]]:
    """Yield (J, High, Low) for each J of j_list, in order: Low applies the
    narrow major-arc multiplier of bumps of width J/(q N^2) at each a/(2q)
    with q < J, High its complement within the Weyl multiplier, so High +
    Low = A_N f up to FFT roundoff; for J >= N/4 no split is meaningful and
    (0, A_N f) comes back.  All J share one Weyl half spectrum and one
    spectrum of f (bins 0..L/2, L = _split_grid_len(N, len(f))), taken at
    the first J that splits.  A_N f is computed once, at the first J that
    does not split.  Bad N or J raise DomainError at the first next()."""
    if N < 1 or any(J < 1 or J & (J - 1) for J in j_list):
        raise DomainError(f"high_low_split: need N>=1 and J powers of two, got N={N} J={list(j_list)}")
    cut, L = max(1, N // 4), _split_grid_len(N, len(f.samples))

    def kernels() -> Iterator[np.ndarray]:
        weyl = split_half_spectrum("weyl", N, None, L)
        for J in j_list:
            if J < cut:
                low = split_half_spectrum("b_N1", N, J, L)
                yield weyl - low
                yield low

    parts = _apply_multipliers(f, L, kernels())
    af = None
    for J in j_list:
        if J < cut:
            yield J, next(parts), next(parts)
        else:
            af = average_squares(f, N) if af is None else af
            yield J, Signal(af.offset, np.zeros(len(af.samples))), af


def high_low_split_bytes(N: int, n: int, j_list: Sequence[int]) -> int:
    """Peak bytes of high_low_split's arrays for a block of n samples, each
    (High, Low) dropped before the next: when some J splits, 48 per point
    of L (measured: the Weyl and Low half spectra, f's spectrum, the High
    kernel or output, one product of spectra and its inverse transform);
    else A_N f's route, then its output and a zero High, n + N^2 samples each."""
    if min(j_list) < max(1, N // 4):
        return 48 * _split_grid_len(N, n)
    return shift_average_bytes(n, np.arange(1, N + 1, dtype=np.int64) ** 2) + 16 * (n + N * N)
