"""Circle-method side of the square-integer average: the Weyl multiplier,
the oscillatory profile gamma_N, Dirichlet rational approximation, smooth
bumps, and the multiplier pieces the library runs (the Weyl grid, the
narrow low part b_N1, single arc levels); the rest of the arc
decomposition, a_N + c_N and its splits, is built from these in
tests/oracles.py.

Every grid xi = j/L is computed on bins 0..L//2, arc pieces by the one arc
enumerator ``_arc_pieces`` as (bins, values); those bins carry it all, as
A_N has a real kernel.  ``split_half_spectrum`` scatters them into a half
spectrum, ``b_n1_support`` sums them on b_N1's support alone; a full grid is
completed by one mirror, ``_mirror``, m[-j] = conj(m[j]), exactly Hermitian.  Odd q
has weight at its even a alone, so it runs only those rows.  For even q and
even L the enumerator mirrors once more inside the bins: the arcs at a/q and
(q - a)/q reflect through bin L/4, so eta and gamma_N run on the rows
a <= q/2 and each row q - a takes the conjugate of gamma_N.

The Dirichlet approximant has a scalar route, ``dirichlet_approx``, and an
array route over int64 grids, ``dirichlet_approx_array``; both walk the
continued-fraction convergents with the same integer test.

gamma_N divides the Fresnel integral E = C + iS by its argument; E is
evaluated here in numpy, ``_fresnel``, from a Taylor table built on the
first call and the asymptotic series, so the module needs no scipy.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import DomainError
from .gauss import gauss_G0, gauss_G_closed_array


class QuadratureError(ArithmeticError):
    """Adaptive quadrature exceeded its panel budget."""


class ContractError(ValueError):
    """A caller violated an interface precondition."""


# ---------------------------------------------------------------------------
# smooth bump
# ---------------------------------------------------------------------------

def eta(t):
    """Smooth even bump: 1 on [-1/4,1/4], 0 outside (-1/2,1/2).

    Built from the standard exp(-1/t) partition function, so the sandwich
    chi_[-1/4,1/4] <= eta <= chi_[-1/2,1/2] is exact.
    """
    t = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(t)
    out[t <= 0.25] = 1.0
    mid = (t > 0.25) & (t < 0.5)
    s = (0.5 - t[mid]) * 4.0  # s in (0,1): 1 near inner edge, 0 near outer
    f1 = np.exp(-1.0 / s)
    f2 = np.exp(-1.0 / (1.0 - s))
    out[mid] = f1 / (f1 + f2)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Weyl multiplier
# ---------------------------------------------------------------------------

def weyl_multiplier(xi, N: int) -> complex:
    """(1/N) sum_{k=1}^{N} e(k^2 xi), with exact rational phase reduction."""
    if N < 1:
        raise DomainError(f"weyl_multiplier: N={N} must be positive")
    frac = Fraction(xi)
    num, den = frac.numerator, frac.denominator
    k = np.arange(1, N + 1, dtype=object)
    r = np.array([(kk * kk * num) % den for kk in k], dtype=np.float64)
    z = np.exp(2j * np.pi * r / den)
    return complex(math.fsum(z.real), math.fsum(z.imag)) / N


def weyl_multiplier_grid(N: int, L: int) -> np.ndarray:
    """Weyl multiplier at every xi = j/L, j in [0,L): _weyl_half, mirrored."""
    if N < 1 or L < 1:
        raise DomainError("weyl_multiplier_grid: N and L must be positive")
    return _mirror(_weyl_half(N, L, L))


def _weyl_half(N: int, L: int, size: int | None = None) -> np.ndarray:
    """conj(rfft)/N of the float64 histogram of k^2 mod L on bins 0..L//2:
    the rfft's own buffer, or the head of a zeroed array of size entries."""
    k = np.arange(1, N + 1, dtype=np.int64)
    c = (k % L) * (k % L) % L  # k^2 mod L without overflow for L < 2^31
    h = np.fft.rfft(np.bincount(c, np.ones(N), minlength=L))
    h = np.divide(np.conjugate(h, out=h), N, out=h)
    return h if size is None else np.pad(h, (0, size - len(h)))


def _mirror(out: np.ndarray) -> np.ndarray:
    """out, its bins L//2+1..L-1 set to out[-j] = conj(out[j]) (L = len(out))."""
    L = len(out)
    np.conjugate(out[1 : L - L // 2][::-1], out=out[L // 2 + 1 :])
    return out


# ---------------------------------------------------------------------------
# gamma_N and the Fresnel integral
# ---------------------------------------------------------------------------

def gamma_N(xi, N: int):
    """gamma_N(xi) = (1/N) int_0^N e(xi t^2/2) dt = E(z)/z at z = N sqrt(2|xi|),
    E = C + iS the Fresnel integral (``_fresnel``: within 2e-15 + 2e-16 z of
    it), and gamma_N(0) = 1; conjugated for negative xi, so that
    gamma_N(-xi) = conj(gamma_N(xi)) bitwise.  Accepts scalars or arrays.
    """
    if N < 1:
        raise DomainError(f"gamma_N: N={N} must be positive")
    c = np.asarray(xi, dtype=np.float64) * (N * N)
    z = np.sqrt(2.0 * np.abs(c))
    e = _fresnel(z)
    val = np.divide(e, z, out=e, where=z > 0)
    val[z == 0] = 1.0
    # gamma_N(-xi) = conj(gamma_N(xi)) bitwise, down to the sign of a zero
    np.conjugate(val, out=val, where=np.signbit(c))
    if val.ndim == 0:
        return complex(val)
    return val


# E(z) = int_0^z e^{i pi t^2/2} dt for z >= 0: below _FRESNEL_FAR by Taylor
# series of _FRESNEL_TERMS terms at the nodes k/_FRESNEL_STEP, above it by
# the asymptotic series of the auxiliary functions f and g (Abramowitz &
# Stegun 7.3), in blocks of _FRESNEL_BLOCK points
_FRESNEL_STEP = 64
_FRESNEL_FAR = 6.0
_FRESNEL_TERMS = 13
_FRESNEL_BLOCK = 4096
# f(z) ~ (1/(pi z)) sum_m F[m] u^m and g(z) ~ (1/(pi^2 z^3)) sum_m G[m] u^m,
# u = (pi z^2)^-2, with F[m] = (-1)^m (4m-1)!! and G[m] = (-1)^m (4m+1)!!
_F_SERIES = tuple((-1) ** m * float(math.prod(range(1, 4 * m, 2))) for m in range(9))
_G_SERIES = tuple((-1) ** m * float(math.prod(range(1, 4 * m + 2, 2))) for m in range(9))


def _fresnel(z: np.ndarray) -> np.ndarray:
    """E(z) = C(z) + iS(z) elementwise, complex, for z >= 0: E(inf) = (1+i)/2
    and NaN gives NaN.  Within 1e-15 of E below 7; above, within 1e-16 z,
    the rounding of z^2 in the phase.  Each block of _FRESNEL_BLOCK points
    takes a bounded working set, one table row per Horner step."""
    table = _fresnel_table()
    out = np.empty(np.shape(z), dtype=np.complex128)
    zs, outs = np.ravel(z), out.reshape(-1)
    for lo in range(0, len(zs), _FRESNEL_BLOCK):
        zb, ob = zs[lo : lo + _FRESNEL_BLOCK], outs[lo : lo + _FRESNEL_BLOCK]
        near = zb < _FRESNEL_FAR
        if near.all():  # a block on one side of the switch takes no masks
            ob[:] = _fresnel_near(zb, table)
        elif not near.any():
            ob[:] = _fresnel_far(zb)
        else:
            ob[near] = _fresnel_near(zb[near], table)
            far = ~near
            ob[far] = _fresnel_far(zb[far])
    return out


@functools.cache
def _fresnel_table() -> np.ndarray:
    """Read-only complex rows n = 0..12 of E^(n)(z_k)/n! at z_k = k/64, k up
    to 6 * 64, built on the first call.

    y = E' = e^{i pi z^2/2} has Taylor coefficients b_m at z_k from
    y' = i pi z y: b_1 = i pi z_k b_0 and (m+1) b_{m+1} = i pi (z_k b_m +
    b_{m-1}), with b_0 = y(z_k) on the phase pi k^2/8192 reduced exactly to
    [-pi, pi); row n >= 1 is b_{n-1}/n.  Row 0, E(z_k), is the fsum of the
    series' integrals over the steps [z_i, z_{i+1}), i < k.
    """
    k = np.arange(int(_FRESNEL_FAR * _FRESNEL_STEP) + 1)
    z = k / _FRESNEL_STEP
    p = 2 * _FRESNEL_STEP**2
    b = [np.exp(1j * math.pi * (((k * k + p) % (2 * p) - p) / p))]
    b.append(1j * math.pi * z * b[0])
    for m in range(1, _FRESNEL_TERMS - 2):
        b.append(1j * math.pi * (z * b[m] + b[m - 1]) / (m + 1))
    rows = [b[n - 1] / n for n in range(1, _FRESNEL_TERMS)]
    step = np.zeros(len(k), dtype=np.complex128)
    for row in reversed(rows):
        step = (step + row) / _FRESNEL_STEP
    re, im = step.real.tolist(), step.imag.tolist()
    e0 = [complex(math.fsum(re[:i]), math.fsum(im[:i])) for i in range(len(k))]
    table = np.array([e0, *rows])
    table.setflags(write=False)
    return table


def _fresnel_table_bytes() -> int:
    """The traced peak of building _fresnel_table (284 KB, 84 KB of it kept;
    tracemalloc), rounded up, while it is unbuilt; 0 once it is built."""
    return 0 if _fresnel_table.cache_info().currsize else 300_000


def _fresnel_near(z: np.ndarray, table: np.ndarray) -> np.ndarray:
    """E(z) for 0 <= z < _FRESNEL_FAR: the Taylor series at the nearest node,
    by Horner in d = z - z_k, |d| <= 1/128."""
    k = np.rint(z * _FRESNEL_STEP).astype(np.intp)
    d = z - k / _FRESNEL_STEP
    e = table[-1].take(k)
    for row in table[-2::-1]:
        e *= d
        e += row.take(k)
    return e


def _fresnel_far(z: np.ndarray) -> np.ndarray:
    """E(z) = (1+i)/2 - (g + if) e^{i pi z^2/2} for z >= _FRESNEL_FAR, where
    nine terms of f and g reach float64 roundoff.  The phase takes z^2 mod
    4 exactly from the rounded z^2; for z >= 2^54, an even integer, it is 0."""
    r = 1.0 / z
    v = r * r / math.pi  # 1/(pi z^2), so no power of z overflows
    u = v * v
    f = _horner(_F_SERIES, u)
    f *= r / math.pi
    g = _horner(_G_SERIES, u)
    g *= v * r / math.pi
    t = np.minimum(z, 2.0**54)
    t *= t
    t -= 4.0 * np.rint(0.25 * t)
    t *= math.pi / 2
    cos, sin = np.cos(t), np.sin(t)
    e = np.empty(len(z), dtype=np.complex128)
    e.real = 0.5 - (g * cos - f * sin)
    e.imag = 0.5 - (g * sin + f * cos)
    return e


def _horner(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] x^m, in place on one array."""
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


# panel budget of gamma_N_quad
_MAX_PANELS = 1 << 21


def _quad_rule_bytes() -> int:
    """The traced peak of loading numpy's polynomial module, where
    gamma_N_quad takes its Gauss-Legendre rule (750 KB; tracemalloc),
    rounded up, while it is not loaded; 0 once it is."""
    return 0 if "numpy.polynomial" in sys.modules else 800_000


def quad_panels(xi: float, N: int) -> int:
    """The number of panels gamma_N_quad takes at (xi, N): one per half
    oscillation of e(xi N^2 u^2 / 2) on [0, 1], at least one.  Raises
    QuadratureError when it exceeds the budget of 2^21 panels."""
    n_half = max(1, math.ceil(abs(float(xi) * N * N)))
    if n_half > _MAX_PANELS:
        raise QuadratureError(f"{n_half} quadrature panels exceed the budget of {_MAX_PANELS}")
    return n_half


def gamma_N_quad(xi: float, N: int) -> complex:
    """The same integral by adaptive panels: int_0^1 e(xi N^2 u^2 / 2) du,
    one Gauss-Legendre 15-point rule per half oscillation.

    Kept as the independent route for verifying the closed form; raises
    QuadratureError when quad_panels(xi, N) is over budget.
    """
    if N < 1:
        raise DomainError(f"gamma_N_quad: N={N} must be positive")
    n_half = quad_panels(xi, N)  # boundaries at phase multiples of pi
    c = float(xi) * N * N  # phase is pi * c * u^2
    ac = abs(c)
    edges = np.sqrt(np.arange(n_half + 1) / max(ac, 1.0))
    edges[-1] = 1.0
    nodes, weights = np.polynomial.legendre.leggauss(15)
    a, b = edges[:-1], edges[1:]
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    u = mid[:, None] + half[:, None] * nodes[None, :]
    w = half[:, None] * weights[None, :]
    vals = w * np.exp(1j * np.pi * c * u * u)
    return complex(math.fsum(vals.real.ravel()), math.fsum(vals.imag.ravel()))


# ---------------------------------------------------------------------------
# Dirichlet approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedRational:
    """A reduced fraction a/q, the center of a circle-method arc on 2T."""

    a: int
    q: int

    def __post_init__(self):
        if self.q < 1 or math.gcd(self.a, self.q) != 1:
            raise DomainError(f"ReducedRational: {self.a}/{self.q} not reduced")

    def value(self) -> Fraction:
        return Fraction(self.a, self.q)


def dirichlet_approx(xi, N: int) -> ReducedRational:
    """Reduced a/q with q <= 4N and |2 xi - a/q| <= 1/(4 N q).

    The smallest such q is returned, found among the continued-fraction
    convergents of t = 2 xi: the condition reads |q t - a| <= 1/(4N), and
    the q minimizing |q t - a| among all smaller denominators are exactly
    the convergent denominators (best approximations of the second kind).
    With t = num/den in lowest terms the test is the integer inequality
    |num q - a den| 4N <= den.
    """
    if N < 1:
        raise DomainError(f"dirichlet_approx: N={N} must be positive")
    x = Fraction(xi)
    num, den = x.numerator, x.denominator
    if den % 2:
        num *= 2
    else:
        den //= 2
    Q = 4 * N
    h0, h1 = 1, 0  # h: numerators, k: denominators
    k0, k1 = 0, 1
    n, d = num, den
    while d:
        a0 = n // d
        n, d = d, n - a0 * d
        h0, h1 = a0 * h0 + h1, h0
        k0, k1 = a0 * k0 + k1, k0
        if k0 > Q:
            break
        if abs(num * k0 - h0 * den) * Q <= den:
            return ReducedRational(h0, k0)
    raise ArithmeticError("dirichlet_approx: no convergent satisfied the bound")


def dirichlet_approx_array(num, den, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``dirichlet_approx`` elementwise at xi = num/den over int64 arrays
    broadcast together (den >= 1): the int64 arrays (a, q).

    The same convergent walk and integer test, one step for all entries per
    pass, each pass on the entries no convergent has satisfied yet.  Every
    int64 product stays below 16 N (|num| + den), which must be under 2^63.
    """
    if N < 1:
        raise DomainError(f"dirichlet_approx_array: N={N} must be positive")
    num, den = np.broadcast_arrays(np.asarray(num, dtype=np.int64), np.asarray(den, dtype=np.int64))
    if np.any(den < 1):
        raise DomainError(f"dirichlet_approx_array: den={int(den[den < 1][0])} must be positive")
    Q = 4 * N
    if num.size and 4 * Q * (int(np.abs(num).max()) + int(den.max())) >= 1 << 63:
        raise ContractError(f"dirichlet_approx_array: 16 N (|num| + den) overflows int64 at N={N}")
    shape = num.shape
    g = np.gcd(num, den).ravel()
    tn, td = num.ravel() // g, den.ravel() // g
    odd = td % 2 == 1  # t = 2 xi = tn/td in lowest terms
    tn, td = np.where(odd, 2 * tn, tn), np.where(odd, td, td // 2)
    a, q = np.empty(len(tn), dtype=np.int64), np.empty(len(tn), dtype=np.int64)
    live = np.arange(len(tn))
    n, d = tn, td
    h0, h1 = np.ones_like(tn), np.zeros_like(tn)
    k0, k1 = np.zeros_like(tn), np.ones_like(tn)
    while len(live):
        a0 = n // d
        n, d = d, n - a0 * d
        h0, h1 = a0 * h0 + h1, h0
        k0, k1 = a0 * k0 + k1, k0
        if np.any(k0 > Q):
            raise ArithmeticError("dirichlet_approx_array: no convergent satisfied the bound")
        done = np.abs(tn * k0 - h0 * td) * Q <= td
        a[live[done]], q[live[done]] = h0[done], k0[done]
        keep = ~done
        live, n, d, h0, h1, k0, k1, tn, td = (x[keep] for x in (live, n, d, h0, h1, k0, k1, tn, td))
    return a.reshape(shape), q.reshape(shape)


# ---------------------------------------------------------------------------
# grid sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierGrid:
    """Values of a 1-periodic multiplier at the L frequencies j/L, exactly
    Hermitian (m[-j] = conj(m[j])) as the multiplier of a real kernel."""

    L: int
    values: np.ndarray

    def __post_init__(self):
        if self.L < 1 or self.L & (self.L - 1):
            raise DomainError(f"MultiplierGrid: L={self.L} must be a power of two")
        if len(self.values) != self.L or not np.all(np.isfinite(self.values)):
            raise DomainError("MultiplierGrid: bad values array")
        # bins 0..L//2 against their mirrors -j, on the .real and .imag views
        # so that no complex copy of the grid is made
        h = self.L // 2 + 1
        re, im = self.values.real, self.values.imag
        if im[0] or not (
            np.array_equal(re[1:h], re[:-h:-1]) and np.array_equal(im[1:h], -im[:-h:-1])
        ):
            raise DomainError("MultiplierGrid: values are not exactly Hermitian")


def _arc_rows(s: int, L: int, width_scale: float | None):
    """The geometry of the level-s arcs on the grid xi = j/L, per q in
    [2^(s-1), 2^s): (q, a, scale, radius), a the q's weighted a in [0, q]
    (a[-1 - i] = q - a[i]), eta(scale theta) the bump, and radius the bins
    an arc, |2j/L - a/q| < 1/(2 scale), can reach either side of its center.

    For odd q, G0(a, q) = 0 at every odd a (2q = 2 mod 4), so only the even
    a have rows; adding a zero would change no bit of a sum that holds no
    -0.0."""
    for q in range(1 << (s - 1), 1 << s):
        a = np.flatnonzero(np.gcd(np.arange(q + 1), q) == 1)
        if q % 2:
            a = a[a % 2 == 0]  # G0(a, q) = 0 for odd q and odd a
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * q
        yield q, a, scale, int(math.floor(0.5 / scale * L / 2.0)) + 1


def _arc_pieces(N: int, s: int, L: int, width_scale: float | None):
    """The level-s arc contributions to bins 0..L//2 (xi = j/L), as pieces
    (bins, values), the one arc enumerator: a dense caller adds each piece
    to its bins in turn (``_accumulate_arcs_grid``).

    There 2 xi lies in [0, 1], and a level-s arc is narrower than 1/(4q) in
    xi, so only the reduced a/q in [0, 1] reach those bins, none by wrapping.
    One q at a time, one row per a of ``_arc_rows`` with weight G0(a, q) =
    G(a, 2q), and theta = 2j/L - a/q = (2qj - aL)/(qL) divided once from
    integers.  The arcs of a level are disjoint, so each j gets at most one
    arc's value.

    For even L and even q the arc points pair up, (a, j) with
    (q - a, L/2 - j): theta(q - a, L/2 - j) = -theta(a, j) in integers, eta
    is even and gamma_N(-theta) = conj(gamma_N(theta)) bitwise.  So eta and
    gamma_N run on the rows a <= q/2 alone, and a second piece gives row
    q - a, G0(q - a, q) eta conj(gamma_N) at bins L/2 - j.  The row a = 1
    of q = 2 is its own mirror: it runs on j <= L/4, and every point but
    j = L/4 is mirrored.  Odd q needs no mirror: of each pair a, q - a one
    is odd.
    """
    h = L // 2
    for q, a, scale, radius in _arc_rows(s, L, width_scale):
        g0 = gauss_G_closed_array(a, 2 * q)
        mirror = L % 2 == 0 and q % 2 == 0
        rows = a[: (len(a) + 1) // 2] if mirror else a
        half_width = 0.5 / scale
        j = (rows * L // (2 * q))[:, None] + np.arange(-radius, radius + 1)
        th = (2 * q * j - rows[:, None] * L) / (q * L)
        mask = (np.abs(th) < half_width) & (j >= 0) & (j <= h)
        if mirror and q == 2:
            mask &= 2 * j <= h
        if mask.any():
            i = mask.nonzero()[0]
            jm, thm = j[mask], th[mask]
            w = eta(scale * thm)
            gam = gamma_N(thm, N)
            yield jm, g0[i] * w * gam
            if mirror:
                m = 2 * jm < h if q == 2 else slice(None)
                yield h - jm[m], g0[-1 - i[m]] * w[m] * np.conjugate(gam[m])


def _accumulate_arcs_grid(
    out: np.ndarray, N: int, s: int, L: int, width_scale: float | None
) -> None:
    """Add the level-s arc pieces to bins 0..L//2 of out, a half spectrum
    or a length-L grid that ``_mirror`` completes, one piece at a time."""
    for bins, values in _arc_pieces(N, s, L, width_scale):
        out[bins] += values
        del bins, values  # a piece goes before the next is made


def sample_multiplier(which: str, N: int, M: int | None, J: int | None, L: int) -> MultiplierGrid:
    """split_half_spectrum(which, N, J, L) on the whole dyadic grid j/L,
    mirrored to the bins above L//2; "b_N1" needs M = J.  The other arc
    pieces (a_N, c_N, b_N2, a_tilde) are built from arc_level_grid in
    tests/oracles.py."""
    if which == "b_N1" and M != J:
        raise ContractError(f"sample_multiplier: b_N1 needs M = J; got M={M}, J={J}")
    return MultiplierGrid(L, _mirror(split_half_spectrum(which, N, J, L, size=L)))


def split_half_spectrum(which: str, N: int, J: int | None, L: int, size: int | None = None) -> np.ndarray:
    """Bins 0..L//2 (xi = j/L) of a piece of the high/low split: the Weyl
    multiplier ("weyl"; J unused), or its narrow low part ("b_N1"), the
    levels s <= log2 J with bumps eta_{q N^2/J}, J a power of two <= N/4.
    L must be a power of two with L >= 4 N^2 so downstream periodized
    convolution stays clean.  The bins fill a complex array of L//2 + 1
    entries, or a zeroed one of size entries (sample_multiplier's grid)."""
    if which not in ("weyl", "b_N1"):
        raise DomainError(f"split_half_spectrum: unknown piece {which!r}")
    _check_split(which, N, J, L)
    if which == "weyl":
        return _weyl_half(N, L, size)
    out = np.zeros(L // 2 + 1 if size is None else size, dtype=np.complex128)
    for s in range(1, J.bit_length()):
        _accumulate_arcs_grid(out, N, s, L, N * N / J)
    return out


def _check_split(which: str, N: int, J: int | None, L: int) -> None:
    """split_half_spectrum's contract on (N, J, L), which b_n1_support keeps."""
    if N < 1 or L & (L - 1) or L < 4 * N * N:
        raise ContractError(f"split_half_spectrum: need N >= 1 and L a power of two >= 4N^2; got N={N}, L={L}")
    if which == "b_N1" and (J is None or J < 1 or J & (J - 1) or J > N // 4):
        raise ContractError(f"split_half_spectrum: b_N1 needs J a power of two <= N/4; got J={J}")


def b_n1_support(N: int, J: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero bins of split_half_spectrum("b_N1", N, J, L), increasing,
    and its values there, bit for bit, with no half spectrum: the arc
    pieces of its levels, a bin that several pieces reach summed into zero
    in the pieces' order, as the dense half adds them."""
    _check_split("b_N1", N, J, L)
    pieces = [p for s in range(1, J.bit_length()) for p in _arc_pieces(N, s, L, N * N / J)]
    if not pieces:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128)
    bins, at = np.unique(np.concatenate([b for b, _ in pieces]), return_inverse=True)
    values = np.zeros(len(bins), dtype=np.complex128)
    np.add.at(values, at, np.concatenate([v for _, v in pieces]))
    keep = values != 0
    return bins[keep], values[keep]


def b_n1_support_bound(N: int, J: int, L: int) -> int:
    """At least len(b_n1_support(N, J, L)[0]) for L a power of two >= 4,
    from the arc geometry alone: each weighted row of each q reaches at
    most 2 radius + 1 bins."""
    levels = range(1, J.bit_length())
    return sum(len(a) * (2 * radius + 1) for s in levels for _, a, _, radius in _arc_rows(s, L, N * N / J))


def arc_level_grid(N: int, s: int, L: int) -> np.ndarray:
    """The single-level arc multiplier (denominators in [2^{s-1}, 2^s),
    dyadic bumps) sampled at xi = j/L, j in [0, L).

    Unlike sample_multiplier this imposes no lower bound on L; it is meant
    for periodic-circle operator norms where wraparound is part of the
    model.  The major arcs a_N are the sum of these levels over s <= log2 M;
    the tests' oracles build a_N, c_N, b_N2 and a_tilde that way.
    """
    if N < 1 or s < 1 or L < 1:
        raise DomainError("arc_level_grid: N, s, L must be positive")
    if (1 << s) > N // 4:
        raise ContractError(f"arc_level_grid: level s={s} needs 2^s <= N/4 = {N // 4}")
    out = np.zeros(L, dtype=np.complex128)
    _accumulate_arcs_grid(out, N, s, L, None)
    return _mirror(out)


# ---------------------------------------------------------------------------
# FJK remainder
# ---------------------------------------------------------------------------

def fjk_remainder(xi, N: int) -> tuple[float, float]:
    """|m_N(xi) - G0(a,q) gamma_N(2xi - a/q)| and its N/sqrt(q) normalization,
    with a/q the Dirichlet approximant of 2 xi."""
    r = dirichlet_approx(xi, N)
    th = float(2 * Fraction(xi) - r.value())
    main = gauss_G0(r.a, r.q) * gamma_N(th, N)
    rem = abs(weyl_multiplier(xi, N) - main)
    return rem, rem * N / math.sqrt(r.q)
