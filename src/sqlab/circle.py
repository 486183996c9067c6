"""Circle-method side of the square-integer average: the Weyl multiplier,
the oscillatory profile gamma_N, Dirichlet rational approximation, smooth
bumps, and the multiplier pieces the library runs (the Weyl grid, the
narrow low part b_N1, single arc levels); the rest of the arc
decomposition, a_N + c_N and its splits, is built from these in
tests/oracles.py.

Every arc piece is sampled on a dyadic grid j/L by one arc enumerator,
``_accumulate_arcs_grid``.  Its phase offsets theta = (2jq - aL)/(qL) are
reduced exactly in integers before the one division, so each sampled piece
is exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import fresnel

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
    """Weyl multiplier at every xi = j/L, j in [0,L): conj(rfft)/N of the
    histogram of k^2 mod L on bins 0..L//2, mirrored exactly Hermitian."""
    if N < 1 or L < 1:
        raise DomainError("weyl_multiplier_grid: N and L must be positive")
    k = np.arange(1, N + 1, dtype=np.int64)
    c = (k % L) * (k % L) % L  # k^2 mod L without overflow for L < 2^31
    h = np.conj(np.fft.rfft(np.bincount(c, minlength=L))) / N
    return np.concatenate((h, np.conj(h[1 : L - L // 2][::-1])))


# ---------------------------------------------------------------------------
# gamma_N
# ---------------------------------------------------------------------------

def gamma_N(xi, N: int):
    """gamma_N(xi) = (1/N) int_0^N e(xi t^2/2) dt.

    Evaluated in closed form through the Fresnel integrals (absolute error
    below 1e-12); accepts scalars or arrays.
    """
    if N < 1:
        raise DomainError(f"gamma_N: N={N} must be positive")
    c = np.asarray(xi, dtype=np.float64) * (N * N)
    z = np.sqrt(2.0 * np.abs(c))
    s_z, c_z = fresnel(z)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.where(z > 0, (c_z + 1j * np.sign(c) * s_z) / np.where(z > 0, z, 1.0), 1.0 + 0j)
    if val.ndim == 0:
        return complex(val)
    return val


# panel budget of gamma_N_quad
_MAX_PANELS = 1 << 21


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


def _accumulate_arcs_grid(
    out: np.ndarray, N: int, s: int, L: int, width_scale: float | None
) -> None:
    """Add the level-s arc contributions to a length-L grid (xi = j/L).

    The offset theta = 2j/L - a/q = (2jq - aL)/(qL) is reduced to (-1, 1]
    in integers before its one division, so theta at -j is exactly minus
    theta at j, and the grid is exactly Hermitian: out[-j] = conj(out[j]).

    All reduced a of one q are handled at once, one row per arc, and the
    weights G0(a, q) = G(a, 2q) of every arc of the level come from one
    array call.  The arcs of a level are disjoint, so each j gets at most
    one arc's value, and a j repeated inside one arc (a window wider than L)
    has one theta and is added once, as a fancy-index ``+=`` does.
    """
    qs = range(1 << (s - 1), 1 << s)
    numerators = [np.array([x for x in range(2 * q) if math.gcd(x, q) == 1], dtype=np.int64) for q in qs]
    sizes = [len(a) for a in numerators]
    g0s = gauss_G_closed_array(np.concatenate(numerators), np.repeat([2 * q for q in qs], sizes))
    for q, a, g0 in zip(qs, numerators, np.split(g0s, np.cumsum(sizes)[:-1])):
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * q
        half_width = 0.5 / scale
        # points per arc: |2j/L - a/q| < half_width
        radius = int(math.floor(half_width * L / 2.0)) + 1
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        qL = q * L
        j = (a * L // (2 * q))[:, None] + offs
        j %= L
        num = (2 * q * j - a[:, None] * L) % (2 * qL)
        num[num > qL] -= 2 * qL
        th = num / qL
        mask = np.abs(th) < half_width
        rows = np.nonzero(mask)[0]
        if not len(rows):
            continue
        thm = th[mask]
        out[j[mask]] += g0[rows] * eta(scale * thm) * gamma_N(thm, N)


def sample_multiplier(
    which: str,
    N: int,
    M: int | None,
    J: int | None,
    L: int,
) -> MultiplierGrid:
    """Sample a piece of the high/low split on the dyadic grid j/L: the
    Weyl multiplier ("weyl"; M and J unused), or its narrow low part
    ("b_N1", M = J), the levels s <= log2 J with bumps eta_{q N^2/J}.

    L must be a power of two with L >= 4 N^2 so downstream periodized
    convolution stays clean.  The other arc pieces (a_N, c_N, b_N2,
    a_tilde) are built from arc_level_grid in tests/oracles.py.
    """
    if L & (L - 1) or L < 4 * N * N:
        raise ContractError(f"sample_multiplier: L={L} must be a power of two >= 4N^2")
    if which == "weyl":
        return MultiplierGrid(L, weyl_multiplier_grid(N, L))
    if which != "b_N1":
        raise DomainError(f"sample_multiplier: unknown piece {which!r}")
    if J is None or J < 1 or J & (J - 1) or J > N // 4 or M != J:
        raise ContractError(f"sample_multiplier: b_N1 needs M = J, a power of two <= N/4; got M={M}, J={J}")
    out = np.zeros(L, dtype=np.complex128)
    for s in range(1, J.bit_length()):
        _accumulate_arcs_grid(out, N, s, L, N * N / J)
    return MultiplierGrid(L, out)


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
    return out


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
