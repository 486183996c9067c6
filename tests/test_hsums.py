"""The H-sum family: identities, support characterizations, and the
logarithmic low-pass sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import hsums
from sqlab.arith import DomainError, count_sqrts, epsilon, factorize
from sqlab.experiments import run_hsum_identities
from sqlab.hsums import (
    _ADVERSARIAL_COUNT,
    _KINDS,
    _adversarial_candidates,
    abs_h_on_points,
    accumulate_S,
    h_sum,
    h_vector,
    h_weights,
)

from oracles import (
    accumulate_S_fft,
    adversarial_candidates_frontier,
    divisor_set,
    h_weights_loop,
    hsum_identity_rows,
    support_verdict,
)


def log_average_S(x: int, J: int, support_filtered: bool = False) -> float:
    """Oracle: S_J(x) = sum_{q=1}^{J} |H(q,x)| / q, term by term; with
    support_filtered, only over the moduli of divisor_set(x, J)."""
    qs = divisor_set(x, J).members if support_filtered else range(1, J + 1)
    return math.fsum(abs(h_sum("H", q, x)) / q for q in qs)


def scan_max_S(J: int, x_max: int) -> tuple[int, float]:
    """(argmax x, max S_J) over the window [0, x_max]; ties break to the
    smallest x."""
    (S,) = accumulate_S([J], x_max, [])
    best = int(np.argmax(S))
    return best, float(S[best])


@st.composite
def point_sets(draw):
    """int64 points: runs of consecutive integers at any offset, some with
    gaps, plus scattered and repeated points, in any order, or none."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 400))
        start = draw(st.integers(-(2**63), 2**63 - 1 - length))
        gaps = draw(st.lists(st.integers(0, length - 1), max_size=3)) if length else []
        parts.append(np.delete(np.int64(start) + np.arange(length, dtype=np.int64), gaps))
    parts.append(np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20)), dtype=np.int64))
    points = np.concatenate(parts)
    if len(points):
        points = np.concatenate([points, points[draw(st.lists(st.integers(0, len(points) - 1), max_size=5))]])
    order = draw(st.sampled_from(["drawn", "sorted", "shuffled"]))
    if order == "sorted":
        points = np.sort(points)
    elif order == "shuffled":
        points = points[draw(st.permutations(range(len(points))))]
    return points


class TestBasicIdentities:
    def test_h_equals_h1_for_odd_q(self):
        for q in range(3, 120, 2):
            for x in range(2 * q):
                assert abs(h_sum("H", q, x) - h_sum("H1", q, x)) < 1e-10

    def test_h0_counts_square_roots(self):
        for q in range(1, 120):
            for x in range(q):
                assert abs(h_sum("H0", q, x) - count_sqrts(-x % q, q)) < 1e-10

    def test_trivial_moduli(self):
        # q = 1: H has an empty coprime range; H1 picks up the single term a = 1
        for x in range(5):
            assert h_sum("H", 1, x) == 0
            assert h_sum("H1", 1, x) == 1

    @pytest.mark.parametrize("kind", _KINDS)
    def test_weights_match_per_numerator_loop(self, kind):
        for q in range(1, 300):
            assert np.array_equal(h_weights(kind, q), h_weights_loop(kind, q)), q

    def test_periodicity(self):
        for kind in ("H", "H0", "H1", "Htilde"):
            for q in (4, 9, 12):
                P = len(h_vector(kind, q))
                for x in (0, 1, 5):
                    assert abs(h_sum(kind, q, x + P) - h_sum(kind, q, x)) < 1e-12

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_h1_multiplicative_magnitude(self, q1, q2):
        if math.gcd(q1, q2) != 1:
            return
        q = q1 * q2
        for x in range(q):
            lhs = abs(h_sum("H1", q, x))
            rhs = abs(h_sum("H1", q1, x)) * abs(h_sum("H1", q2, x))
            assert abs(lhs - rhs) < 1e-10

    def test_residue_pieces_sum_to_jacobi_weighted(self):
        for q in (2, 6, 8, 12, 24):
            for x in range(0, 2 * q, 3):
                total = sum(h_sum(f"Hj{j}", q, x) for j in range(8))
                assert abs(total - h_sum("Htilde", q, x)) < 1e-12

    def test_jacobi_weighted_reduces_to_odd_part(self):
        # for even q with odd part q' >= 3, the Jacobi-weighted sum at
        # x divisible by 2^{b+1} collapses to the plain sum at modulus q'
        for q in (12, 24, 40, 48, 56):
            fac = factorize(q)
            b, qp = fac.two_exponent, fac.odd_part
            if qp < 3:
                continue
            for xp in range(qp):
                x = (1 << (b + 1)) * xp
                lhs = h_sum("Htilde", q, x)
                rhs = 2.0 ** (b / 2 + 1) / epsilon(qp) * h_sum("H", qp, xp)
                assert abs(lhs - rhs) < 1e-10, (q, x)


class TestSupport:
    def test_vanishing_characterization(self):
        for q in range(1, 150):
            vals = h_vector("H", q)
            for x in range(2 * q):
                verdict = support_verdict(q, x)
                if not verdict.in_support:
                    assert abs(vals[x]) < 1e-10, (q, x)
                else:
                    assert abs(vals[x]) <= verdict.bound + 1e-9, (q, x)

    def test_jacobi_weighted_support(self):
        for q in range(2, 100, 2):
            fac = factorize(q)
            if fac.odd_part < 3:
                continue  # degenerate odd part: see tilde caveat in notes
            vals = h_vector("Htilde", q)
            for x in range(2 * q):
                verdict = support_verdict(q, x, flavor="tilde")
                if not verdict.in_support:
                    assert abs(vals[x]) < 1e-10, (q, x)
                else:
                    assert abs(vals[x]) <= verdict.bound + 1e-9

    def test_divisor_set_matches_scan(self):
        J = 60
        for x in range(0, 200):
            enumerated = set(divisor_set(x, J).members)
            scanned = {
                q for q in range(1, J + 1) if abs(h_sum("H", q, x)) > 1e-10
            }
            assert scanned <= enumerated, (x, scanned - enumerated)
            # enumerated q must at least pass the support predicate
            for q in enumerated:
                assert support_verdict(q, x).in_support


class TestLowPass:
    def test_known_values(self):
        # S_4(0) = |H(4,0)|/4 = (1/4)*2 = 1/2  [DERIVED]
        assert abs(log_average_S(0, 4) - 0.5) < 1e-12
        assert log_average_S(0, 1) == 0.0

    def test_methods_agree(self):
        for x in (0, 12, 35, 64):
            a = log_average_S(x, 64)
            b = log_average_S(x, 64, support_filtered=True)
            assert abs(a - b) < 1e-10

    def test_scan_and_accumulate_consistency(self):
        xs = np.arange(0, 300)
        running = dict(zip((16, 64), accumulate_S([16, 64], 299, [])))
        (final,) = accumulate_S([64], 299, [])
        assert np.array_equal(final, running[64])
        for J in (16, 64):
            direct = np.array([log_average_S(int(x), J) for x in xs[:50]])
            assert np.allclose(running[J][:50], direct)
        arg, top = scan_max_S(64, 299)
        assert abs(top - float(final[:300].max())) < 1e-12

    def test_abs_h_factorisation_matches_fft_tables(self):
        # every q < 600 (so q = 1 and every 2^b up to 512) at every x mod 2q
        for q in range(1, 600):
            vals = abs_h_on_points(q, np.arange(2 * q))
            assert vals.dtype == np.int64
            assert np.max(np.abs(vals - np.abs(h_vector("H", q)))) < 1e-10, q

    @given(
        st.integers(-1, 300),
        point_sets(),
        st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_accumulate_matches_fft_tables(self, x_max, extra, j_list):
        # windows from empty (x_max = -1) to several periods of 2q, most of
        # them not a whole number of periods, then the points of extra
        got = accumulate_S(j_list, x_max, extra)
        want = accumulate_S_fft(j_list, np.concatenate([np.arange(x_max + 1, dtype=np.int64), extra]))
        assert len(got) == len(want) == len(j_list)
        for new, old in zip(got, want):
            assert np.all(np.abs(new - old) <= 1e-13 * old)

    @pytest.mark.parametrize("J_values", [range(1, 301), [1 << k for k in range(9, 15)]])
    def test_adversarial_sieve_matches_frontier(self, J_values):
        for J in J_values:
            assert _adversarial_candidates(J) == adversarial_candidates_frontier(J), J

    def test_sieve_cap_keeps_every_smooth_candidate(self):
        # at J = 2^14 the frontier searches up to J^2 = 2^28 over the primes
        # <= 61, and its 4000th 61-smooth number lies under the sieve's cap
        smooth = adversarial_candidates_frontier(1 << 14)
        assert len(smooth) == _ADVERSARIAL_COUNT + 1
        assert smooth[-1] <= 1 << 15

    def test_abs_h_periodic_indexing(self):
        xs = np.array([0, 5, 12, 12 + 14, 5 + 28])
        vals = abs_h_on_points(7, xs)
        assert abs(vals[1] - vals[4]) < 1e-12
        assert abs(vals[2] - vals[3]) < 1e-12


class TestTableCache:
    def test_sweep_over_q_retains_a_bounded_working_set(self):
        # a sweep of H over q <= 512 keeps at most 64 periods alive, 1 MiB
        # at 2q complex entries each, not one period per q (4.2 MB); a first
        # sweep loads the lazy imports and the factorizations
        for _ in range(2):
            hsums._h_vector_cached.cache_clear()
            tracemalloc.start()
            try:
                for q in range(1, 513):
                    h_sum("H", q, 0)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        info = hsums._h_vector_cached.cache_info()
        assert info.currsize <= info.maxsize
        assert held <= 64 * 2 * 512 * 16 + (1 << 16)


class TestIdentityRunner:
    @pytest.mark.parametrize("q_max", [1, 2, 3, 12, 60, 100])
    def test_rows_match_per_point_oracle(self, q_max):
        got, want = run_hsum_identities(q_max=q_max).rows, hsum_identity_rows(q_max)
        assert [row[:2] for row in got] == [row[:2] for row in want]
        for (name, _, err), (_, _, oracle_err) in zip(got, want):
            assert abs(err - oracle_err) <= 1e-15, name


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown kind 'Hx'"):
            h_sum("Hx", 3, 0)

    @pytest.mark.parametrize("kind", ["Hj9", "Hj08", "Hj", "h"])
    def test_every_entry_point_refuses_unknown_kinds(self, kind):
        # a residue j outside 0..7, or written with a leading zero, names no kind
        for call in (lambda: h_weights(kind, 5), lambda: h_vector(kind, 5), lambda: h_sum(kind, 5, 0)):
            with pytest.raises(DomainError, match=f"unknown kind '{kind}'"):
                call()
