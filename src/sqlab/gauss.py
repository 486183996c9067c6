"""Normalized quadratic Gauss sums G(a,q) and G0(a,q).

Three routes evaluate them:

* the scalar closed form ``gauss_G_closed`` / ``gauss_G0``: three cases
  built from Jacobi symbols, for one (a, q);
* the array closed form ``gauss_G_closed_array``: the same three cases, in
  the same floating-point order, over arrays of (a, q) through one
  ``jacobi_array`` call, so its values equal the scalar route's exactly;
  the bulk callers (gauss-check, fjk-constant, the arc enumerator) use it;
* the FFT oracle ``gauss_G_vector`` / ``gauss_G0_vector``: the defining sums
  for every numerator of one modulus at once, as one inverse DFT of the
  square-root-count table.  It is the independent route the closed forms
  are checked against, and what the H-sum tables are built from.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import DomainError, epsilon, jacobi, jacobi_array, sqrt_count_vector


def gauss_G_closed(a: int, q: int) -> complex:
    """Closed form for G(a,q); a is reduced mod q and non-coprime (a,q)
    reduced first."""
    if q < 1:
        raise DomainError(f"gauss_G_closed: q={q} must be positive")
    a %= q  # G(a,q) depends on a mod q only
    g = math.gcd(a, q)
    a, q = a // g, q // g  # gcd(0, q) = q, so a = 0 lands on G(0,1) = 1
    if q % 4 == 2:
        return 0.0 + 0.0j
    if q % 2 == 1:
        return epsilon(q) * jacobi(a, q) / math.sqrt(q)
    # a odd, 4 | q
    return (1 + 1j) / epsilon(a) * jacobi(q, a) / math.sqrt(q)


def gauss_G_closed_array(a, q) -> np.ndarray:
    """``gauss_G_closed`` elementwise over int64 arrays broadcast together:
    the same reduction, cases and operation order, so that the .real and
    .imag of each entry equal the scalar route's."""
    a, q = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(q, dtype=np.int64))
    if np.any(q < 1):
        raise DomainError(f"gauss_G_closed_array: q={int(q[q < 1][0])} must be positive")
    a = a % q
    g = np.gcd(a, q)
    a, q = a // g, q // g
    odd = q % 2 == 1
    # the bottom of the Jacobi symbol, odd in both cases: q, or a when 4 | q
    # (a is odd there, and also when q = 2 mod 4, whose value is 0 anyway)
    n = np.where(odd, q, a)
    eps = np.where(n % 4 == 1, 1.0 + 0.0j, 1.0j)
    unit = np.where(odd, eps, (1 + 1j) / eps)
    return np.where(q % 4 == 2, 0.0, unit * jacobi_array(np.where(odd, a, q), n) / np.sqrt(q))


def gauss_G0(a: int, q: int) -> complex:
    """Normalized Gauss sum G0(a,q) = G(a,2q) with modulus 2q."""
    if q < 1:
        raise DomainError(f"gauss_G0: q={q} must be positive")
    return gauss_G_closed(a, 2 * q)


def gauss_G_vector(q: int) -> np.ndarray:
    """Direct G(a,q) for all a in [0,q) at once.

    G(a,q) = (1/q) sum_c v[c] e(ac/q) where v is the histogram of n^2 mod q,
    which is exactly an inverse DFT of v.
    """
    v = sqrt_count_vector(q).astype(np.float64)
    return np.fft.ifft(v)


def gauss_G0_vector(q: int) -> np.ndarray:
    """Direct G0(a,q) for all a in [0,2q) at once."""
    return gauss_G_vector(2 * q)
