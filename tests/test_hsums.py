"""The H-sum family: identities, support characterizations, and the
logarithmic low-pass sums."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import hsums
from sqlab.arith import DomainError, count_sqrts, factorize
from sqlab.cli import main
from sqlab.experiments import InvariantViolation, run_hsum_identities, run_lowpass_scan
from sqlab.hsums import (
    _ADVERSARIAL_COUNT,
    _ADVERSARIAL_REACH,
    _KINDS,
    FactorTables,
    _adversarial_candidates,
    _largest_prime_factors,
    _prime_powers,
    _primes_between,
    _sqrt_count_step,
    abs_h_on_points,
    accumulate_S,
    factor_table_entries,
    h_sum,
    h_vector,
    h_weights,
    upper_bound_S,
)

from oracles import (
    abs_h_on_points_gather,
    accumulate_S_fft,
    accumulate_S_running,
    adversarial_candidates_frontier,
    divisor_set,
    epsilon,
    h_weights_loop,
    hsum_identity_rows,
    primes_upto,
    support_verdict,
    upper_bound_S_tables,
)


def log_average_S(x: int, J: int, support_filtered: bool = False) -> float:
    """Oracle: S_J(x) = sum_{q=1}^{J} |H(q,x)| / q, term by term; with
    support_filtered, only over the moduli of divisor_set(x, J)."""
    qs = divisor_set(x, J).members if support_filtered else range(1, J + 1)
    return math.fsum(abs(h_sum("H", q, x)) / q for q in qs)


def scan_max_S(J: int, x_max: int) -> tuple[int, float]:
    """(argmax x, max S_J) over the window [0, x_max]; ties break to the
    smallest x."""
    (S,) = accumulate_S([J], x_max, FactorTables())
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


@st.composite
def scan_inputs(draw):
    """(j_list, x_max) for accumulate_S: an increasing j_list in [1, 600],
    so J = 1 (S = 0) and J <= 8 (B = 2, where p = 3 is large) come up; and a
    window from empty (x_max = -1) through a few multiples of the primes
    above isqrt(max J) to several periods of 2 max J, ending on such a
    multiple or one past it as often as anywhere."""
    j_list = sorted(draw(st.lists(st.integers(1, 600), min_size=1, max_size=4, unique=True)))
    J = j_list[-1]
    large = [p for p in primes_upto(J) if p > max(2, math.isqrt(J))] or [1]
    multiple = st.builds(lambda p, k, d: p * k + d, st.sampled_from(large), st.integers(0, 8), st.integers(-1, 1))
    return j_list, draw(st.one_of(st.integers(-1, 8 * J), multiple))


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

    def test_one_jacobi_symbol_per_modulus(self, monkeypatch):
        # Htilde and the eight H_j of one q share one jacobi_array call
        moduli = []
        jacobi_array = hsums.jacobi_array
        monkeypatch.setattr(hsums, "jacobi_array", lambda a, n: moduli.append(n) or jacobi_array(a, n))
        hsums._odd_symbol.cache_clear()
        for q in range(1, 40):
            for kind in _KINDS:
                h_weights(kind, q)
        assert moduli == [factorize(q).odd_part for q in range(1, 40)]

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
        running = dict(zip((16, 64), accumulate_S([16, 64], 299, FactorTables())))
        (final,) = accumulate_S([64], 299, FactorTables())
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
        st.integers(-1, 1000),
        st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
    )
    @settings(max_examples=80, deadline=None)
    def test_accumulate_matches_fft_tables(self, x_max, j_list):
        # windows from empty (x_max = -1) to many periods of 2q, most of
        # them not a whole number of periods
        got = accumulate_S(j_list, x_max, FactorTables())
        want = accumulate_S_fft(j_list, np.arange(x_max + 1, dtype=np.int64))
        assert len(got) == len(want) == len(j_list)
        for new, old in zip(got, want):
            assert np.all(np.abs(new - old) <= 1e-13 * old)

    @given(scan_inputs())
    @settings(max_examples=120, deadline=None)
    def test_large_prime_route_matches_running_sum(self, inputs):
        j_list, x_max = inputs
        got = accumulate_S(j_list, x_max, FactorTables())
        want = accumulate_S_running(j_list, x_max)
        assert len(got) == len(want) == len(j_list)
        for J, new, old in zip(j_list, got, want):
            assert np.all(np.abs(new - old) <= 1e-13 * old), J
            if J == 1:
                assert not new.any()

    def test_large_prime_route_at_benchmark_size(self):
        # the lowpass-scan of the benchmark: each maximum, and the oracle's
        # value at each argmax ties it
        j_list = [64, 256, 1024, 4096]
        got = accumulate_S(j_list, 100_000, FactorTables())
        for new, old in zip(got, accumulate_S_running(j_list, 100_000)):
            assert np.all(np.abs(new - old) <= 1e-13 * old)
            assert abs(old[np.argmax(new)] - old.max()) <= 1e-12 * old.max()

    @given(scan_inputs())
    @settings(max_examples=80, deadline=None)
    def test_each_J_is_independent_of_the_list(self, inputs):
        j_list, x_max = inputs
        for J, S in zip(j_list, accumulate_S(j_list, x_max, FactorTables())):
            (alone,) = accumulate_S([J], x_max, FactorTables())
            assert np.array_equal(S, alone), J

    @pytest.mark.parametrize("J_values", [range(1, 301), [1 << k for k in range(9, 15)]])
    def test_adversarial_sieve_matches_frontier(self, J_values):
        # one FactorTables for all J: its sieve grows, and each J reads a prefix
        tables = FactorTables()
        for J in J_values:
            got = _adversarial_candidates(J, tables)
            assert got.dtype == np.int64
            assert got.tolist() == adversarial_candidates_frontier(J), J

    def test_sieve_cap_keeps_every_smooth_candidate(self):
        # at J = 2^14 the frontier searches up to J^2 = 2^28 over the primes
        # <= 61, and its 4000th 61-smooth number is the sieve's cap
        smooth = adversarial_candidates_frontier(1 << 14)
        assert len(smooth) == _ADVERSARIAL_COUNT + 1
        assert smooth[-1] == _ADVERSARIAL_REACH

    def test_adversarial_reach_is_the_4000th_61_smooth_number(self):
        # by trial division of every x <= 16450 by the primes <= 61
        rest = np.arange(1, _ADVERSARIAL_REACH + 1)
        for p in primes_upto(61):
            while np.any(rest % p == 0):
                rest = np.where(rest % p == 0, rest // p, rest)
        smooth = np.flatnonzero(rest == 1) + 1
        assert _ADVERSARIAL_REACH == 16450
        assert len(smooth) == _ADVERSARIAL_COUNT and smooth[-1] == _ADVERSARIAL_REACH

    def test_abs_h_periodic_indexing(self):
        xs = np.array([0, 5, 12, 12 + 14, 5 + 28])
        vals = abs_h_on_points(7, xs)
        assert abs(vals[1] - vals[4]) < 1e-12
        assert abs(vals[2] - vals[3]) < 1e-12

    @given(
        st.one_of(
            st.integers(1, 5000),
            st.sampled_from([1 << b for b in range(13)]),
            st.sampled_from([p * p for p in primes_upto(70)]),
        ),
        point_sets(),
    )
    @settings(max_examples=200, deadline=None)
    def test_period_route_matches_gather_oracle(self, q, xs):
        got = abs_h_on_points(q, xs)
        assert got.dtype == np.int64
        assert np.array_equal(got, abs_h_on_points_gather(q, xs))

    def test_odd_prime_factor_is_nonzero_off_multiples(self):
        # the period zeroes the multiples of p in place of reading this table
        for p in primes_upto(4999)[1:]:
            assert np.array_equal(_sqrt_count_step(p, 1), np.arange(p) % p != 0), p

    def test_scan_builds_each_factor_table_once(self, monkeypatch):
        # each table of p = 2 or k >= 2 reads two square-root-count vectors;
        # a per-q rebuild of the tables would read about 19,000
        calls = []
        count = hsums.sqrt_count_vector
        monkeypatch.setattr(hsums, "sqrt_count_vector", lambda m: calls.append(m) or count(m))
        run_lowpass_scan([64, 256, 1024, 4096], 100000, True)
        tables = {(p, k) for q in range(2, 4097) for p, k in factorize(q).factors if p == 2 or k >= 2}
        assert len(calls) <= 2 * len(tables)
        assert max(Counter(calls).values()) <= 2

    @pytest.mark.parametrize("J, U", [(64, 5.178), (256, 7.082), (1024, 9.052), (4096, 11.034)])
    def test_upper_bound_values(self, J, U):
        assert abs(upper_bound_S(J, FactorTables()) - U) < 5e-4

    def test_upper_bound_matches_every_prime_from_tables(self):
        # the shortcut 1 + 1/p for p > sqrt(J) and the sieve of the primes
        tables = FactorTables()
        for J in [*range(1, 130), 1024, 4096]:
            assert math.isclose(upper_bound_S(J, tables), upper_bound_S_tables(J), rel_tol=1e-14), J

    @pytest.mark.parametrize("J", [1, 2, 3, 9, 100, 4096])
    def test_table_entries_count_what_a_scan_builds(self, J):
        tables = FactorTables()
        accumulate_S([J], 0, tables)
        assert sum(map(len, tables.values())) == factor_table_entries(J)

    @pytest.mark.parametrize("J", range(1, 13))
    def test_upper_bound_holds_over_a_full_period(self, J):
        # S_J has period lcm(2q : q <= J), 55,440 at J = 12; U_2 = 1/2 is attained
        period = 2 * math.lcm(*range(1, J + 1))
        (S,) = accumulate_S([J], period - 1, FactorTables())
        assert S.max() <= upper_bound_S(J, FactorTables()) * (1 + 1e-12)

    def test_scan_requires_the_upper_bound(self, monkeypatch):
        monkeypatch.setattr(hsums, "upper_bound_S", lambda J, tables: 0.0)
        with pytest.raises(InvariantViolation, match="max_S at J=64"):
            run_lowpass_scan([64], 100, False)

    @given(
        st.lists(st.sampled_from([1 << k for k in range(9)]), min_size=1, max_size=3, unique=True).map(sorted),
        st.integers(0, 20_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_scan_maximum_over_window_and_candidates(self, j_list, x_max):
        # the oracle reads S_J from the FFT tables at [0, x_max] and at the
        # candidates of the frontier, every one past x_max for J <= 128
        xs = np.union1d(np.arange(x_max + 1), adversarial_candidates_frontier(j_list[-1]))
        report = run_lowpass_scan(j_list, x_max, True)
        for (J, x, top, _), want in zip(report.rows, accumulate_S_fft(j_list, xs)):
            assert x in xs, (J, x)
            assert abs(top - want.max()) <= 1e-13 * want.max(), J
            assert abs(want[np.searchsorted(xs, x)] - want.max()) <= 1e-12 * want.max(), J

    @pytest.mark.parametrize(
        "peaks, want",
        [({}, 0), ({5: 2.0, 8: 2.0}, 5), ({9: 2.0, 12: 2.0}, 9), ({7: 3.0, 16: 2.0}, 16), ({2: 2.0, 6: 3.0}, 6)],
    )
    def test_scan_reports_the_first_maximum(self, monkeypatch, peaks, want):
        # J = 4, x_max = 5: the window [0, 16] reaches the candidates 6, 8,
        # 9, 12, 16 past x_max; the first maximum over [0, 5] wins a tie,
        # then the first over those candidates, and 7 is no candidate
        def flat_S(j_list, x_max, tables):
            S = np.ones(x_max + 1)
            S[list(peaks)] = list(peaks.values())
            return [S]

        monkeypatch.setattr(hsums, "accumulate_S", flat_S)
        monkeypatch.setattr(hsums, "upper_bound_S", lambda J, tables: math.inf)
        ((J, x, top, _),) = run_lowpass_scan([4], 5, True).rows
        assert (J, x, top) == (4, want, peaks.get(want, 1.0))

    @pytest.mark.parametrize("j_list, x_max", [([64, 256, 1024, 4096], 100_000), ([128], 0), ([1 << 15], 0)])
    def test_scan_builds_one_sieve(self, monkeypatch, j_list, x_max):
        # the candidates read the scan's sieve; factor_table_entries, for
        # the preflight, sieves the primes <= isqrt(max J) on its own
        sizes = []
        sieve = hsums._largest_prime_factors
        monkeypatch.setattr(hsums, "_largest_prime_factors", lambda n: sizes.append(n) or sieve(n))
        run_lowpass_scan(j_list, x_max, True)
        sizes.remove(math.isqrt(j_list[-1]))
        assert len(sizes) == 1, sizes

    def test_scan_sieves_only_as_far_as_the_candidates(self, monkeypatch, capsys):
        # J = 4096 past x_max = 0: the candidates reach 16450, and the
        # scan's sieve, grown for them, holds P(0..16450)
        made = []

        class Recording(FactorTables):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(hsums, "FactorTables", Recording)
        assert main(["lowpass-scan", "--j", "4096", "--x-max", "0", "--adversarial"]) == 0
        capsys.readouterr()
        (tables,) = made
        assert len(tables._sieve) == 16451


class TestSieve:
    def test_sieve_matches_trial_division(self):
        # every n <= 2^15: P(n), the primes and the walk down the sieve
        n_max = 1 << 15
        P = _largest_prime_factors(n_max)
        assert P.dtype == np.int64 and len(P) == n_max + 1
        assert P[:2].tolist() == [0, 1]
        primes = primes_upto(n_max)
        assert _primes_between(P, 1, n_max).tolist() == primes
        for hi in range(1, 130):
            for lo in range(1, hi + 1):
                assert _primes_between(P, lo, hi).tolist() == [p for p in primes if lo < p <= hi], (lo, hi)
        for n in range(2, n_max + 1):
            factors = factorize(n).factors
            assert P[n] == factors[-1][0], n
            assert list(_prime_powers(n, P))[::-1] == list(factors), n

    def test_every_sieve_is_a_prefix_of_a_longer_one(self):
        # the split at isqrt(n) between sieved and scattered primes
        P = _largest_prime_factors(1 << 12)
        for n in range(300):
            assert np.array_equal(_largest_prime_factors(n)[: n + 1], P[: n + 1]), n

    def test_factor_tables_grow_their_sieve(self):
        tables = FactorTables()
        assert np.array_equal(tables._sieve_to(10), _largest_prime_factors(10))
        assert np.array_equal(tables._sieve_to(5000), _largest_prime_factors(5000))
        assert len(tables._sieve_to(7)) == 8
        assert not tables  # the sieve is no factor table

    def test_scan_factorizes_nothing(self):
        # the benchmark's scan takes its primes and factors from the sieve
        before = factorize.cache_info()
        run_lowpass_scan([64, 256, 1024, 4096], 100000, True)
        assert factorize.cache_info() == before


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
    @pytest.mark.parametrize("q", [0, -3])
    def test_abs_h_refuses_nonpositive_moduli(self, q):
        with pytest.raises(DomainError, match=f"^abs_h_on_points: q={q} must be positive$"):
            abs_h_on_points(q, np.arange(5))

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown kind 'Hx'"):
            h_sum("Hx", 3, 0)

    @pytest.mark.parametrize("kind", ["Hj9", "Hj08", "Hj", "h"])
    def test_every_entry_point_refuses_unknown_kinds(self, kind):
        # a residue j outside 0..7, or written with a leading zero, names no kind
        for call in (lambda: h_weights(kind, 5), lambda: h_vector(kind, 5), lambda: h_sum(kind, 5, 0)):
            with pytest.raises(DomainError, match=f"unknown kind '{kind}'"):
                call()
