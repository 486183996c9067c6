"""Exact integer arithmetic: factorization, Jacobi symbols and square-root
counting mod q.

Everything here works on plain Python ints (inputs are at most 64-bit) and is
pure: safe to call concurrently, no caches with visible state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Verified deterministic Miller-Rabin bases for n < 3.3 * 10^24 (covers 64-bit).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 10**6


class DomainError(ValueError):
    """An argument is outside the documented domain."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m = 2, 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for n < 2**63


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
        q = self.n
        while q % 2 == 0:
            q //= 2
        return q

    @property
    def two_exponent(self) -> int:
        for p, k in self.factors:
            if p == 2:
                return k
        return 0


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor a positive integer n <= 2**63 - 1 into prime powers."""
    if not 1 <= n <= 2**63 - 1:
        raise DomainError(f"factorize: n={n} out of range")
    m = n
    fac: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    p = 41
    while p * p <= m and p <= _TRIAL_LIMIT:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 2
    # whatever is left is free of prime factors <= 10^6
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    return Factorization(n, tuple(sorted(fac.items())))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"jacobi: n={n} must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def epsilon(m: int) -> complex:
    """The fourth-root unit: 1 for m = 1 (mod 4), i for m = 3 (mod 4)."""
    if m % 2 == 0:
        raise DomainError(f"epsilon: m={m} must be odd")
    return 1.0 + 0.0j if m % 4 == 1 else 1.0j


def sqrt_count_vector_bruteforce(q: int) -> np.ndarray:
    """Vector v with v[x] = #{l in [0,q): l*l = x (mod q)}, by enumeration."""
    if q < 1:
        raise DomainError(f"sqrt_count_vector_bruteforce: q={q} must be positive")
    ell = np.arange(q, dtype=np.int64)
    if q <= 3_000_000:  # l*l fits in int64
        sq = ell * ell % q
    else:
        sq = np.array([i * i % q for i in range(q)], dtype=np.int64)
    return np.bincount(sq, minlength=q)


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
    """Vector of r_q(x) for x in [0,q): one enumerated table per prime
    power p^k || q, combined by CRT indexing (fast path for bulk scans)."""
    if q < 1:
        raise DomainError(f"sqrt_count_vector: q={q} must be positive")
    x = np.arange(q, dtype=np.int64)
    out = np.ones(q, dtype=np.int64)
    for p, k in factorize(q).factors:
        pk = p**k
        out *= sqrt_count_vector_bruteforce(pk)[x % pk]
    return out
