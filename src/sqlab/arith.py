"""Exact integer arithmetic: factorization, Jacobi symbols and square-root
counting mod q.

Everything here works on plain Python ints, except ``jacobi_array`` and the
square-root-count tables, which work on int64 arrays, and is pure: safe to
call concurrently.  ``is_prime`` and ``factorize`` are trial division,
sized to the moduli that the identity checks factor one at a time (a few
thousand); the S_J scan takes its primes and factors from the sieve of
largest prime factors in ``hsums.FactorTables`` instead.  ``factorize`` is
an ``lru_cache`` and exposes ``cache_info``.  Factoring n costs about
max(p2, sqrt(p1)) divisions, p1 >= p2 its two largest prime factors, so a
64-bit semiprime of two 32-bit primes takes about 2^31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """An argument is outside the documented domain."""


class InvariantViolation(AssertionError):
    """An identity or inequality that sqlab verifies failed to hold."""


def _require(quantity: str, value: float, bound: float) -> None:
    """Raise InvariantViolation, naming the quantity, its value and the
    bound, unless value <= bound (so NaN fails)."""
    if not value <= bound:
        raise InvariantViolation(f"{quantity} = {float(value)!r} exceeds bound {float(bound)!r}")


def _least_prime_factor(m: int, d: int = 3) -> int:
    """Least prime factor of m >= 2: 2, then odd divisors from d while
    d*d <= m.  d is odd, and m has no prime factor in [3, d)."""
    if m % 2 == 0:
        return 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


def is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n)."""
    return n >= 2 and _least_prime_factor(n) == n


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p**k, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 0
        for p, k in self.factors:
            if k < 1 or p <= prev or not is_prime(p):
                raise DomainError(f"invalid factorization of {self.n}")
            prev = p
            prod *= p**k
        if prod != self.n:
            raise DomainError(f"factors do not multiply to {self.n}")

    @property
    def odd_part(self) -> int:
        return self.n >> self.two_exponent

    @property
    def two_exponent(self) -> int:
        return dict(self.factors).get(2, 0)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor a positive integer n <= 2**63 - 1 into prime powers."""
    if not 1 <= n <= 2**63 - 1:
        raise DomainError(f"factorize: n={n} out of range")
    factors = []
    m, d = n, 3
    while m > 1:
        p = _least_prime_factor(m, d)
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        factors.append((p, k))
        d = max(p, 3)
    return Factorization(n, tuple(factors))


# the bits at odd positions 1, 3, ..., 61: a power of two 2^k <= 2^62 meets
# them exactly when k is odd
_ODD_BITS = np.int64(0x2AAAAAAAAAAAAAAA)


def jacobi_array(a, n) -> np.ndarray:
    """Jacobi symbol (a/n) elementwise over int64 arrays broadcast together,
    every n odd and >= 1: the binary algorithm, one step for all entries per
    pass, each pass on the entries whose a is still nonzero.  Bit 1 of t
    holds each entry's sign so far."""
    a, n = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(n, dtype=np.int64))
    bad = (n < 1) | (n % 2 == 0)
    if bad.any():
        raise DomainError(f"jacobi_array: n={int(n[bad][0])} must be a positive odd integer")
    shape = a.shape
    n = n.ravel()
    a = a.ravel() % n
    out = np.empty(len(a), dtype=np.int64)
    live = np.arange(len(a))
    t = np.zeros(len(a), dtype=np.int64)
    while len(live):
        done = a == 0
        out[live[done]] = np.where(n[done] == 1, 1 - (t[done] & 2), 0)
        keep = ~done
        live, a, n, t = live[keep], a[keep], n[keep], t[keep]
        low = a & -a  # the largest power of two dividing a
        a //= low
        # an odd power of two flips the sign when n = 3, 5 (mod 8), that is
        # when bit 1 of n ^ (n >> 1) is set
        t ^= (n ^ (n >> 1)) * ((low & _ODD_BITS) != 0)
        t ^= a & n  # reciprocity: a and n odd, a flip when both are 3 (mod 4)
        a, n = n % a, a
    return out.reshape(shape)


def _count_sqrts_odd_prime_power(x: int, p: int, k: int) -> int:
    """r_{p^k}(x) for an odd prime p: the three-case formula."""
    x %= p**k
    if x == 0:
        return p ** (k // 2)
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    if n % 2 == 1:
        return 0
    # x now the unit part; residue test mod p
    if pow(x, (p - 1) // 2, p) == 1:
        return 2 * p ** (n // 2)
    return 0


def _count_sqrts_two_power(x: int, b: int) -> int:
    """r_{2^b}(x), 2-adic case analysis."""
    x %= 1 << b
    if x == 0:
        return 1 << (b // 2)
    n = 0
    while x % 2 == 0:
        x //= 2
        n += 1
    if n % 2 == 1:
        return 0
    m = b - n  # count odd-unit roots mod 2^m, then scale by 2^{n/2}
    if m == 1:
        base = 1
    elif m == 2:
        base = 2 if x % 4 == 1 else 0
    else:
        base = 4 if x % 8 == 1 else 0
    return base << (n // 2)


def count_sqrts_prime_power(x: int, p: int, k: int) -> int:
    """r_{p^k}(x): odd p via the three-case formula, p = 2 via the 2-adic
    case analysis."""
    if p == 2:
        return _count_sqrts_two_power(x, k)
    return _count_sqrts_odd_prime_power(x, p, k)


def count_sqrts(x: int, q: int) -> int:
    """r_q(x) = #{l in [0,q): l*l = x (mod q)}, assembled by CRT
    multiplicativity over the prime-power factorization of q."""
    if q < 1:
        raise DomainError(f"count_sqrts: q={q} must be positive")
    x %= q
    out = 1
    for p, k in factorize(q).factors:
        out *= count_sqrts_prime_power(x, p, k)
        if out == 0:
            return 0
    return out


def sqrt_count_vector(q: int) -> np.ndarray:
    """Vector of r_q(x) for x in [0,q), by enumeration; refuses q whose
    (q-1)^2 overflows int64 before it allocates."""
    if q < 1:
        raise DomainError(f"sqrt_count_vector: q={q} must be positive")
    if q - 1 > math.isqrt(2**63 - 1):
        raise DomainError(f"sqrt_count_vector: q={q}: (q-1)^2 overflows int64")
    ell = np.arange(q, dtype=np.int64)
    return np.bincount(ell * ell % q, minlength=q)
