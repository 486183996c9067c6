"""Normalized quadratic Gauss sums G(a,q) and G0(a,q).

Two routes evaluate them:

* the closed form ``gauss_G_closed_array``: three cases built from Jacobi
  symbols, over arrays of (a, q) through one ``jacobi_array`` call;
  ``gauss_G0`` is its value at one (a, q), and the bulk callers
  (gauss-check, fjk-constant, the arc enumerator) take it over arrays;
* the FFT oracle ``gauss_G_vector`` / ``gauss_G0_vector``: the defining sums
  for every numerator of one modulus at once, as one inverse DFT of the
  square-root-count table.  It is the independent route the closed forms
  are checked against, and what the H-sum tables are built from.
"""

from __future__ import annotations

import numpy as np

from .arith import DomainError, jacobi_array, sqrt_count_vector


def gauss_G_closed_array(a, q) -> np.ndarray:
    """Closed form for G(a,q) elementwise over int64 arrays broadcast
    together; a is reduced mod q and non-coprime (a,q) reduced first."""
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
    """Normalized Gauss sum G0(a,q) = G(a,2q) with modulus 2q, for any int
    a: it is reduced mod 2q before it meets int64, and for q < 2^62, where
    2q fits it."""
    if q < 1:
        raise DomainError(f"gauss_G0: q={q} must be positive")
    if q >= 1 << 62:
        raise DomainError(f"gauss_G0: q={q} must be below 2^62, so that 2q fits int64")
    return complex(gauss_G_closed_array(a % (2 * q), 2 * q))


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
