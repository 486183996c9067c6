"""Normalized quadratic Gauss sums: closed forms against direct summation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlab.arith import DomainError
from sqlab.experiments import run_gauss_check
from sqlab.gauss import gauss_G0, gauss_G0_vector, gauss_G_closed_array, gauss_G_vector

from oracles import gauss_check_rows, gauss_G0_scalar, gauss_G_closed


def gauss_G_direct(a: int, q: int) -> complex:
    """Oracle: (1/q) sum_{n<q} e(a n^2 / q), compensated accumulation."""
    re = math.fsum(math.cos(2 * math.pi * (a * n * n % q) / q) for n in range(q))
    im = math.fsum(math.sin(2 * math.pi * (a * n * n % q) / q) for n in range(q))
    return complex(re / q, im / q)


class TestDirectVsClosed:
    def test_dense_small_moduli(self):
        for q in range(1, 120):
            for a in range(2 * q):
                assert abs(gauss_G_closed(a, q) - gauss_G_direct(a, q)) < 1e-12, (a, q)

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=6000))
    @settings(max_examples=150, deadline=None)
    def test_random_moduli(self, q, a):
        assert abs(gauss_G_closed(a, q) - gauss_G_direct(a, q)) < 1e-10

    @given(
        st.integers(min_value=1, max_value=3000),
        st.one_of(st.integers(min_value=-(2**62), max_value=-1), st.integers(min_value=6000, max_value=2**62)),
    )
    @settings(max_examples=300, deadline=None)
    def test_numerator_mod_q_and_sign(self, q, a):
        # G(a,q) depends on a mod q only, and G(-a,q) is the conjugate of G(a,q)
        assert gauss_G_closed(a, q) == gauss_G_closed(a % q, q)
        assert gauss_G_closed(-a, q) == gauss_G_closed(a, q).conjugate()
        assert gauss_G0(a, q) == gauss_G_closed(a % (2 * q), 2 * q)
        g = gauss_G_closed_array([a, -a], q)
        assert g.tolist() == [gauss_G_closed(a, q), gauss_G_closed(-a, q)]

    def test_negative_numerator_with_four_dividing_q(self):
        assert gauss_G_closed(-1, 4) == gauss_G_closed(3, 4) == 0.5 - 0.5j
        assert gauss_G0(-1, 2) == gauss_G0(3, 2)

    def test_vector_oracle(self):
        # the DFT-of-histogram route is an independent evaluation order
        for q in (1, 2, 7, 12, 49, 100):
            vec = gauss_G_vector(q)
            for a in range(q):
                assert abs(vec[a] - gauss_G_direct(a, q)) < 1e-12


class TestKnownValues:
    def test_trivial_modulus(self):
        assert gauss_G_closed(0, 1) == 1.0
        assert gauss_G_closed(5, 1) == 1.0

    def test_frozen_values(self):
        # [DERIVED] from the defining sum with exact rational phases
        assert abs(gauss_G_closed(1, 3) - 1j / math.sqrt(3)) < 1e-14
        assert abs(gauss_G_closed(1, 4) - (0.5 + 0.5j)) < 1e-14
        assert abs(gauss_G_closed(1, 5) - 1 / math.sqrt(5)) < 1e-14
        assert abs(gauss_G_closed(2, 5) + 1 / math.sqrt(5)) < 1e-14

    def test_vanishing_exactly_when_q_is_twice_odd(self):
        # G(a,q) = 0 for reduced a iff q = 2 mod 4
        for q in range(1, 200):
            for a in (1, 3):
                if math.gcd(a, q) != 1:
                    continue
                vanishes = abs(gauss_G_closed(a, q)) < 1e-12
                assert vanishes == (q % 4 == 2), (a, q)

    def test_magnitude_classification(self):
        # |G0(a,q)| is 0 when a*q is odd, q^{-1/2} otherwise (reduced a)
        for q in range(1, 150):
            a = np.array([x for x in range(1, 2 * q) if math.gcd(x, q) == 1])
            expected = np.where(a * q % 2 == 1, 0.0, q**-0.5)
            assert np.all(np.abs(np.abs(gauss_G_closed_array(a, 2 * q)) - expected) < 1e-12), q


class TestVectorBulk:
    def test_g0_vector_is_double_modulus_vector(self):
        for q in (1, 3, 8, 30):
            assert np.allclose(gauss_G0_vector(q), gauss_G_vector(2 * q))

    def test_methods_agree(self):
        for q in (5, 9, 16):
            for a in range(2 * q):
                # G0(a,q) is the closed form of G at modulus 2q
                assert abs(gauss_G0(a, q) - gauss_G_direct(a, 2 * q)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_G_closed(1, 0)
        with pytest.raises(DomainError, match="^gauss_G0: q=-3 must be positive"):
            gauss_G0(1, -3)
        for q in (2**62, 2**63, 10**30):
            with pytest.raises(DomainError, match=f"^gauss_G0: q={q} must be below 2\\^62"):
                gauss_G0(3, q)

    def test_largest_moduli(self):
        # 2q = 2^62 still fits int64: G(3, 2^62) = (1 - i) 2^-31 exactly
        assert gauss_G0(3, 2**61) == complex(2**-31, -(2**-31))
        assert gauss_G0(3, 2**62 - 1) == 0


class TestClosedFormArray:
    @pytest.mark.parametrize("double", [False, True])
    def test_bitwise_equal_to_scalar(self, double):
        # every q < 600 and every a in [0, 2q), at modulus q and at 2q
        q = np.concatenate([np.full(2 * k, k) for k in range(1, 600)])
        a = np.concatenate([np.arange(2 * k) for k in range(1, 600)])
        m = 2 * q if double else q
        got = gauss_G_closed_array(a, m)
        ref = np.array([gauss_G_closed(x, y) for x, y in zip(a.tolist(), m.tolist())])
        assert np.array_equal(got.real, ref.real) and np.array_equal(got.imag, ref.imag)

    @given(
        st.integers(min_value=1, max_value=2**15),
        st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=-(2**17), max_value=2**17),
        ),
    )
    @settings(max_examples=300, deadline=None)
    @example(q=7, a=10**30)
    @example(q=3, a=6)
    @example(q=4, a=-1)
    def test_g0_bitwise_equal_to_scalar(self, q, a):
        # any int a, also a >= 2q and negative a (and past int64), down to
        # the signs of zeros
        got, ref = np.array([gauss_G0(a, q)]), np.array([gauss_G0_scalar(a, q)])
        assert np.array_equal(got.real.view(np.int64), ref.real.view(np.int64))
        assert np.array_equal(got.imag.view(np.int64), ref.imag.view(np.int64))

    def test_broadcast_shape(self):
        got = gauss_G_closed_array(np.arange(8)[:, None], np.array([[4, 5, 6]]))
        assert got.shape == (8, 3)
        assert got.tolist() == [[gauss_G_closed(a, q) for q in (4, 5, 6)] for a in range(8)]

    @pytest.mark.parametrize("q_max", [150, 300])
    def test_gauss_check_rows_match_the_scalar_loop(self, q_max):
        # both span blocks of whole moduli: the first block ends at q = 127, the second at 180
        assert run_gauss_check(q_max).rows == gauss_check_rows(q_max)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="^gauss_G_closed_array: q=0 must be positive"):
            gauss_G_closed_array([1, 2], [3, 0])
