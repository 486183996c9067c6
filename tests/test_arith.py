"""Integer arithmetic layer: primality, factorization, Jacobi symbols, and
square-root counting modulo q."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab.arith import (
    DomainError,
    Factorization,
    count_sqrts,
    count_sqrts_prime_power,
    factorize,
    is_prime,
    jacobi_array,
    sqrt_count_vector,
)

from oracles import count_sqrts_bruteforce, epsilon, is_qr, jacobi, primes_upto, sqrt_count_vector_crt

SIEVE = frozenset(primes_upto(100_000))


class TestPrimality:
    def test_small_primes(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(2, 32):
            assert is_prime(n) == (n in primes)

    def test_carmichael_numbers_rejected(self):
        # classic Fermat pseudoprimes: a Fermat-test shortcut would pass them
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_large_prime_and_composite(self):
        assert is_prime(2**31 - 1)  # Mersenne prime
        assert not is_prime((2**31 - 1) * (2**13 - 1))

    def test_matches_trial_division(self):
        # the sieve is the reference, at every n below 10^5
        assert [n for n in range(100_000) if is_prime(n)] == sorted(SIEVE)


class TestFactorization:
    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=150)
    def test_roundtrip(self, n):
        fac = factorize(n)
        prod = 1
        for p, k in fac.factors:
            assert is_prime(p) and k >= 1
            prod *= p**k
        assert prod == n

    def test_dense_roundtrip_has_sieve_primes(self):
        for n in range(1, 20_000):
            factors = factorize(n).factors
            assert all(p in SIEVE and k >= 1 for p, k in factors), n
            assert math.prod(p**k for p, k in factors) == n, n

    def test_semiprime_past_the_old_trial_limit(self):
        assert factorize(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))

    def test_structure(self):
        fac = factorize(720)  # 2^4 3^2 5
        assert fac.factors == ((2, 4), (3, 2), (5, 1))
        assert fac.two_exponent == 4
        assert fac.odd_part == 45

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            Factorization(6, ((3, 1), (2, 1)))  # out of order


class TestJacobi:
    def test_legendre_agreement(self):
        # against Euler's criterion for odd primes
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(0, p):
                euler = pow(a, (p - 1) // 2, p)
                ref = 0 if euler == 0 else (1 if euler == 1 else -1)
                assert jacobi(a, p) == ref

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=0, max_value=100).map(lambda k: 2 * k + 1),
    )
    @settings(max_examples=200)
    def test_multiplicative_in_top(self, a, b, n):
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=0, max_value=60).map(lambda k: 2 * k + 1),
        st.integers(min_value=0, max_value=60).map(lambda k: 2 * k + 1),
    )
    @settings(max_examples=200)
    def test_multiplicative_in_bottom(self, a, m, n):
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            jacobi(3, 4)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.one_of(st.just(1), st.integers(min_value=0, max_value=2**30 - 1).map(lambda k: 2 * k + 1)),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200)
    def test_array_matches_scalar(self, pairs):
        a = np.array([x for x, _ in pairs], dtype=np.int64)
        n = np.array([m for _, m in pairs], dtype=np.int64)
        assert jacobi_array(a, n).tolist() == [jacobi(x, m) for x, m in pairs]

    def test_array_broadcasts(self):
        a = np.arange(-12, 12).reshape(4, 6)
        n = np.array([[1], [3], [15], [2**31 - 1]])
        out = jacobi_array(a, n)
        assert out.shape == (4, 6)
        assert out.tolist() == [[jacobi(int(x), int(m[0])) for x in row] for row, m in zip(a, n)]
        assert jacobi_array(-1, 7) == jacobi(-1, 7)

    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.one_of(
            st.integers(min_value=-(2**62), max_value=0),
            st.integers(min_value=1, max_value=2**40).map(lambda k: 2 * k),
        ),
    )
    @settings(max_examples=100)
    def test_array_rejects_even_or_nonpositive_modulus(self, a, bad):
        with pytest.raises(DomainError, match=rf"^jacobi_array: n={bad} must be"):
            jacobi_array([a, a], [3, bad])

    def test_epsilon(self):
        assert epsilon(1) == 1
        assert epsilon(5) == 1
        assert epsilon(3) == 1j
        assert epsilon(7) == 1j


class TestSqrtCounts:
    def test_known_values(self):
        # r_8(x): squares mod 8 are 0,1,4 with multiplicities 2,4,2  [DERIVED]
        assert [count_sqrts_bruteforce(x, 8) for x in range(8)] == [2, 4, 0, 0, 2, 0, 0, 0]
        assert count_sqrts(1, 8) == 4
        assert count_sqrts(0, 1) == 1

    def test_enumeration_vs_crt_dense(self):
        for q in range(1, 400):
            got, want = sqrt_count_vector(q), sqrt_count_vector_crt(q)
            assert got.dtype == want.dtype and np.array_equal(got, want), f"q={q}"

    def test_refuses_int64_overflow_unallocated(self, monkeypatch):
        # at q = isqrt(2^63 - 1) + 2, (q-1)^2 no longer fits in int64
        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the domain check")

        monkeypatch.setattr(np, "arange", allocate)
        with pytest.raises(DomainError):
            sqrt_count_vector(3_037_000_501)

    def test_prime_power_cases(self):
        # odd prime power three-case structure, p=3, k=3 (q=27)  [DERIVED]
        brute = [count_sqrts_bruteforce(x, 27) for x in range(27)]
        form = [count_sqrts_prime_power(x, 3, 3) for x in range(27)]
        assert brute == form
        # p = 2: the 2-adic case analysis at every residue, every k <= 14
        for k in range(1, 15):
            brute = sqrt_count_vector(1 << k).tolist()
            assert [count_sqrts_prime_power(x, 2, k) for x in range(1 << k)] == brute, k

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=100)
    def test_total_mass(self, q):
        # sum over x of r_q(x) counts every residue once: equals q
        assert int(sqrt_count_vector(q).sum()) == q

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    @settings(max_examples=150)
    def test_crt_multiplicativity(self, q1, q2):
        if math.gcd(q1, q2) != 1:
            return
        q = q1 * q2
        for x in range(0, q, max(1, q // 7)):
            assert count_sqrts(x, q) == count_sqrts(x % q1, q1) * count_sqrts(x % q2, q2)

    def test_is_qr(self):
        assert is_qr(4, 7) and is_qr(2, 7) and not is_qr(3, 7)
