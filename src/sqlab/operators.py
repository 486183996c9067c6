"""Discrete averaging operators along the squares, Fourier-multiplier
application on periodized grids, and the high/low frequency splitting used
to compare the average against its smooth part.

Signals are finitely supported functions Z -> R stored as an offset plus a
contiguous sample block.  All operators return new Signal instances.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .arith import DomainError, _require
from .circle import ContractError, MultiplierGrid, _weyl_half, b_n1_support, b_n1_support_bound
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


def _shift_averager(shifts: np.ndarray, n: int, method: str | None = None) -> Callable[[Signal], Signal]:
    """The map f -> (1/m) sum_{s in shifts} f(x + s) on blocks of n samples,
    for a nonempty int64 array of m shifts, on the n + max - min + 1
    samples from f.offset - max.  direct adds the shifted copies of f's
    block in order; dft convolves the block with the histogram of max -
    shifts by real FFTs of the smallest 5-smooth length >= that window, one
    more than the convolution's, so nothing wraps, with the kernel's
    spectrum taken once for every block the map is applied to.  None takes
    dft above _FFT_SHIFTS shifts.  The shifted sum of an integer-valued
    block is an integer, so dft rounds it to the nearest integer before the
    division, and both routes agree bitwise; a sample that moved by more
    than 1/4 raises InvariantViolation."""
    if method is None:
        method = "dft" if len(shifts) > _FFT_SHIFTS else "direct"
    hi, lo = int(shifts.max()), int(shifts.min())
    out_len = n + hi - lo + 1
    if method == "dft":
        L = _smooth_len(out_len)
        kernel = np.fft.rfft(np.bincount(hi - shifts), L)
    elif method == "direct":
        starts = (hi - shifts).tolist()
    else:
        raise DomainError(f"unknown averaging method {method!r}")

    def average(f: Signal) -> Signal:
        if len(f.samples) != n:
            raise ContractError(f"shift average: built for {n} samples, got {len(f.samples)}")
        if method == "dft":
            integer = bool(np.all(f.samples == np.rint(f.samples)))
            acc = np.fft.irfft(np.fft.rfft(f.samples, L) * kernel, L)[:out_len]
            if integer:
                exact = np.rint(acc)
                exact += 0.0  # -0.0 to 0.0, as the direct route's sums
                dev = np.abs(np.subtract(acc, exact, out=acc), out=acc).max()
                _require("FFT shift-sum deviation from an integer", dev, 0.25)
                acc = exact
            acc /= len(shifts)
        else:
            acc = np.zeros(out_len)
            for i in starts:
                acc[i : i + n] += f.samples
            acc /= len(shifts)
        return Signal(f.offset - hi, acc)

    return average


def shift_average_bytes(n: int, shifts: np.ndarray) -> int:
    """Peak bytes of the arrays _shift_averager allocates for a block of n
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
    """A_N f(x) = (1/N) sum_{k=1}^{N} f(x + k^2): _shift_averager over the
    shifts k^2, on n + N^2 samples from f.offset - N^2; method "direct" or
    "dft" fixes its route, None lets it choose."""
    if N < 1:
        raise DomainError(f"average_squares: N={N} must be positive")
    return _shift_averager(np.arange(1, N + 1, dtype=np.int64) ** 2, len(f.samples), method)(f)


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
    twice f's length), on the window [f.offset - L/2, f.offset + L/2),
    which keeps a kernel near frequency 0 from wrapping.  The grid is
    exactly Hermitian, so f's spectrum times its bins 0..L/2, in place, and
    one irfft equal the complex route ifft(fft(f) m)."""
    xhat = _signed_spectrum(f, grid.L)
    xhat *= grid.values[: grid.L // 2 + 1]
    return Signal(f.offset - grid.L // 2, np.fft.irfft(xhat, grid.L))


def _signed_spectrum(f: Signal, L: int) -> np.ndarray:
    """The rfft of f's block zero-padded to L, odd bins negated: (-1)^j
    moves an inverse transform by L/2, onto the window from f.offset - L/2.
    Under this analysis transform, e(-x xi), the A_N kernel (1/N) sum_k
    delta_{-k^2} has symbol (1/N) sum_k e(k^2 xi), the Weyl sum."""
    if L < 2 * len(f.samples):
        raise ContractError(f"apply_multiplier: grid L={L} too small for signal length {len(f)}")
    xhat = np.fft.rfft(f.samples, L)
    xhat[1::2] *= -1
    return xhat


def _split_grid_len(N: int, n: int) -> int:
    """Grid length of high_low_split for a signal of n samples: the least
    power of two >= max(4 N^2, 2 (n + N^2))."""
    return 1 << (max(4 * N * N, 2 * (n + N * N)) - 1).bit_length()


# the length M of _sparse_irfft's short inverse transforms, and how many
# residues share one batched transform: at N = 2^10 and L = 2^23 the three
# Lows of J = 4, 16, 64 took 0.22 s at M = 2^14 and 2^15, 0.25 s at 2^13,
# 0.28 s at 2^16 and 0.35 s at 2^17, against 0.97 s by one irfft of length
# L each (medians of five, on a shared 2-core x86-64 host)
_SHORT = 1 << 15
_ROWS = 16


def _sparse_rows(L: int) -> int:
    """The residues of one batch of _sparse_irfft at length L: _ROWS, but
    at least one and, for the split's Low to stay under W's 16 bytes a
    point of L, no more than a batch of a quarter of L."""
    return max(1, min(_ROWS, L // (4 * _SHORT)))


def _sparse_irfft(bins: np.ndarray, vals: np.ndarray, L: int, lo: int, hi: int) -> np.ndarray:
    """irfft(X, L)[lo:hi], 0 <= lo < hi <= L, for the half spectrum X of a
    power of two L that is vals on the distinct bins in [0, L/2] and zero
    elsewhere, by decimation in time.  With M = min(L, _SHORT) and P = L/M,
    sample P m + r is irfft(Y_r, M)[m] / P: Y_r[j] sums X[k] e(k r/L) over
    the k = j mod M of the full spectrum, the bins and their mirrors L - k
    with X[L - k] = conj X[k], X[0] and X[L/2] by their real parts as irfft
    reads them.  Y_r is Hermitian, so only its j <= M/2 are made.  The
    residues r go through batched irffts of _sparse_rows(L) each; the
    first of a batch takes its weights e(k r/L) from exp, the next ones by
    one more factor e(k/L) each.  The window is filled as rows of P
    samples, its partial first and last rows apart."""
    M = min(L, _SHORT)
    P, rows = L // M, _sparse_rows(L)
    inner = (bins > 0) & (bins < L // 2)
    ks = np.concatenate([bins, L - bins[inner]])
    vs = np.concatenate([np.where(inner, vals, vals.real), np.conj(vals[inner])])
    order = np.argsort(ks % M, kind="stable")
    order = order[ks[order] % M <= M // 2]
    ks, vs = ks[order], vs[order]
    j = ks % M
    starts = np.flatnonzero(np.diff(j, prepend=-1))  # the runs of equal j
    j = j[starts]
    turn = np.exp((2j * np.pi / L) * ks)
    out = np.empty(hi - lo)
    a = min(-(-lo // P) * P, hi)  # [a, b): the whole rows of the window
    b = max(hi // P * P, a)
    whole = out[a - lo : b - lo].reshape(-1, P)
    edge = np.r_[lo:a, b:hi]
    yhat = np.zeros((rows, M // 2 + 1), dtype=np.complex128)
    for r in range(0, P, rows):
        w = vs * np.exp((2j * np.pi / L) * (ks * r % L))
        for i in range(rows):
            if i:
                w *= turn
            yhat[i, j] = np.add.reduceat(w, starts)
        y = np.fft.irfft(yhat, M)
        whole[:, r : r + rows] = y[:, a // P : b // P].T
        e = edge[(edge % P >= r) & (edge % P < r + rows)]
        out[e - lo] = y[e % P - r, e // P]
        del y  # the next batch's transform is made without this one
    out /= P
    return out


def _weyl_part(f: Signal, N: int, js: Iterable[int], L: int) -> tuple[np.ndarray, dict]:
    """W = A_N f by the Weyl symbol on A_N f's window [f.offset - N^2,
    f.offset + n), and per J the support of b_N1 at L (its bins from the
    arc enumerator, b_n1_support) with f^ times b_N1 there.  f^, f's signed
    spectrum at L, is gathered at the supports and freed before W starts.
    W takes its own length M = _smooth_len(n + N^2) < L: irfft(rfft(f, M)
    weyl, M), the Weyl symbol sampled at j/M, is A_N f taken mod M, which
    wraps nothing of the window at any M >= n + N^2.  The window is read
    off by index mod M: the N^2 samples from M - N^2 first, then 0..n."""
    n, m = len(f.samples), N * N
    sparse = {J: b_n1_support(N, J, L) for J in js}
    xhat = _signed_spectrum(f, L)
    picks = {J: (bins, xhat[bins] * v) for J, (bins, v) in sparse.items()}
    del xhat, sparse
    M = _smooth_len(n + m)
    w = _weyl_half(N, M)
    w *= np.fft.rfft(f.samples, M)
    w = np.fft.irfft(w, M)
    return np.concatenate((w[M - m :], w[:n])), picks


def splits(N: int, J: int) -> bool:
    """Whether the high/low split of A_N at J is meaningful: J < N/4, so
    no J for N < 8.  high_low_split takes only such J, and run_high_low
    gives the others (0, A_N f) as (High, Low).  circle's contract on b_N1
    still admits J = N/4, where its bumps are defined: refused_piece in
    tests/test_bench_api.py samples each piece the benchmark names at
    N = 8, J = 2."""
    return J < max(1, N // 4)


def high_low_split(f: Signal, N: int, j_list: Sequence[int]) -> Iterator[tuple[int, Signal, Signal]]:
    """Yield (J, High, Low) for each J of a nonempty j_list, in order, on
    A_N f's window [f.offset - N^2, f.offset + n): Low applies the narrow
    major-arc multiplier b_N1 of bumps of width J/(q N^2) at each a/(2q),
    q < J, and High = W - Low, W the Weyl multiplier's output, A_N f up to
    roundoff.  Every J must split (splits(N, J)).  At the first next(),
    _weyl_part makes W on its own 5-smooth length M >= n + N^2, and f's
    spectrum at L = _split_grid_len on the supports of b_N1 only; each J
    takes Low from those products alone, by _sparse_irfft on the window.
    Bad N or J, or no J, raise DomainError at the first next()."""
    if N < 1 or not j_list or any(J < 1 or J & (J - 1) or not splits(N, J) for J in j_list):
        raise DomainError(f"high_low_split: need N>=1 and J powers of two below N/4, got N={N} J={list(j_list)}")
    L, a = _split_grid_len(N, len(f.samples)), f.offset - N * N
    w, picks = _weyl_part(f, N, dict.fromkeys(j_list), L)
    for J in j_list:
        low = _sparse_irfft(*picks[J], L, L // 2 - N * N, L // 2 + len(f.samples))
        yield J, Signal(a, w - low), Signal(a, low)
        del low  # the caller's drop frees this J's parts before the next J's


def high_low_split_bytes(N: int, n: int, j_list: Sequence[int]) -> int:
    """Peak bytes of high_low_split's arrays for a block of n samples, each
    (High, Low) dropped before the next, as traced.  With b =
    b_n1_support_bound(N, J, L) bins of b_N1 per J, counted from the arc
    geometry before anything is built, and the supports and then f's
    products kept at 24 bytes a bin: a J's support built, 64 bytes a bin,
    beside the ones before; f's rfft at L, 8 bytes a point of L, beside the
    supports, the products and one J's gather; W's transforms at M =
    _smooth_len(n + N^2), 16 bytes a point of M; or a J's Low beside W (m =
    n + N^2 samples each): _sparse_irfft's output, batch (16 bytes a point
    of its _sparse_rows(L) transforms) and 128 bytes a bin of its J, and
    then High."""
    L, m = _split_grid_len(N, n), n + N * N
    bins = [b_n1_support_bound(N, J, L) for J in set(j_list)]
    kept, most = 24 * sum(bins), max(bins)
    batch = 16 * _sparse_rows(L) * min(L, _SHORT)
    return max(
        kept + 64 * most,
        8 * L + kept + 16 * sum(bins) + 16 * most,
        16 * _smooth_len(m) + kept,
        8 * m + max(8 * m + batch + 128 * most, 16 * m) + kept,
    )
