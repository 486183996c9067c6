"""Normalized quadratic Gauss sums G(a,q) and G0(a,q).

The scalar sums use the three-case closed form built from Jacobi symbols.
``gauss_G_vector`` / ``gauss_G0_vector`` evaluate the defining sums for every
numerator at once via one FFT: they are the independent route the closed
form is checked against, and what the bulk identity scans use.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import DomainError, epsilon, jacobi, sqrt_count_vector_bruteforce


def gauss_G_closed(a: int, q: int) -> complex:
    """Closed form for G(a,q); non-coprime (a,q) reduced first."""
    if q < 1:
        raise DomainError(f"gauss_G_closed: q={q} must be positive")
    g = math.gcd(a, q)
    a, q = a // g, q // g  # gcd(0, q) = q, so a = 0 lands on G(0,1) = 1
    if q % 4 == 2:
        return 0.0 + 0.0j
    if q % 2 == 1:
        return epsilon(q) * jacobi(a, q) / math.sqrt(q)
    # a odd, 4 | q
    return (1 + 1j) / epsilon(a) * jacobi(q, a) / math.sqrt(q)


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
    v = sqrt_count_vector_bruteforce(q).astype(np.float64)
    return np.fft.ifft(v)


def gauss_G0_vector(q: int) -> np.ndarray:
    """Direct G0(a,q) for all a in [0,2q) at once."""
    return gauss_G_vector(2 * q)
