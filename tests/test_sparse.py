"""Stopping-time recursion, admissible truncations, and sparse forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlab import experiments, sparse
from sqlab.arith import DomainError
from sqlab.operators import IntervalZ, Signal, average_on, average_squares
from sqlab.sparse import (
    STOPPING_CONSTANT,
    SparseCollection,
    SparseNode,
    SparsityError,
    StoppingTime,
    build_admissible_tau,
    check_admissible,
    find_stopping_children,
    sparse_decompose,
    sparse_form,
    violation_table,
)

from oracles import maximal_average, triple, truncated_maximal, verify_domination


def indicator_pair(size: int, seed: int, density: float = 0.12):
    E = IntervalZ(0, size - 1)
    twoE = E.double()
    rng = np.random.default_rng(seed)
    fm = (rng.random(len(twoE)) < density).astype(float)
    gm = (rng.random(len(E)) < density).astype(float)
    if fm.sum() == 0:
        fm[0] = 1.0
    if gm.sum() == 0:
        gm[0] = 1.0
    return E, Signal(twoE.a, fm), Signal(E.a, gm)


def children_oracle(f: Signal, E: IntervalZ, C: float) -> list[IntervalZ]:
    """Stopping children by recursive descent from E's halves, one
    average_on per visited interval."""
    threshold = C * average_on(f, E.double())
    out = []

    def descend(a: int, length: int) -> None:
        I = IntervalZ(a, a + length - 1)
        if average_on(f, triple(I)) > threshold:
            out.append(I)
            return
        if length >= 2:
            descend(a, length // 2)
            descend(a + length // 2, length // 2)

    descend(E.a, len(E) // 2)
    descend(E.a + len(E) // 2, len(E) // 2)
    return out


def decompose_oracle(f: Signal, E: IntervalZ, C: float) -> list[tuple[IntervalZ, list[int]]] | None:
    """(interval, witness) of every node in pre-order, recursing through
    children_oracle at each node; None when some node's children cover
    more than a quarter of it."""
    nodes = []

    def visit(I: IntervalZ) -> bool:
        if len(I) == 1:
            nodes.append((I, [I.a]))
            return True
        kids = children_oracle(f, I, C)
        if 4 * sum(len(c) for c in kids) > len(I):
            return False
        covered = {x for c in kids for x in range(c.a, c.b + 1)}
        nodes.append((I, [x for x in range(I.a, I.b + 1) if x not in covered]))
        return all(visit(c) for c in kids)

    return nodes if visit(E) else None


def violating_blocks(f: Signal, E: IntervalZ, C: float) -> list[tuple[int, int]]:
    """(left end, length) of every dyadic block of E's grid, E included,
    with <|f|>_{3I} > C <|f|>_{2E}, one average_on per block."""
    threshold = C * average_on(f, E.double())
    out = []
    length = 1
    while length <= len(E):
        for a in range(E.a, E.b + 1, length):
            if average_on(f, triple(IntervalZ(a, a + length - 1))) > threshold:
                out.append((a, length))
        length *= 2
    return out


def admissible_oracle(tau: StoppingTime, f: Signal, C: float) -> bool:
    """tau(x)^2 > |I| on every violating block I, checked block by block."""
    lo = tau.E.a
    return all(
        int(tau.values[a - lo : a - lo + length].min()) ** 2 > length
        for a, length in violating_blocks(f, tau.E, C)
    )


class TestStoppingChildren:
    def test_full_indicator_has_no_children(self):
        E = IntervalZ(0, 255)
        f = Signal(0, np.ones(len(E.double())))
        assert find_stopping_children(violation_table(f, E), E) == []

    def test_zero_signal(self):
        E = IntervalZ(0, 63)
        f = Signal(0, np.zeros(128))
        assert find_stopping_children(violation_table(f, E), E) == []

    def test_children_are_maximal_violators(self):
        E, f, _ = indicator_pair(1 << 10, seed=11, density=0.02)
        kids = find_stopping_children(violation_table(f, E), E)
        thr = STOPPING_CONSTANT * average_on(f, E.double())
        for c in kids:
            assert average_on(f, triple(c)) > thr
            # the dyadic parent (when proper) must not violate
            ln = 2 * len(c)
            pa = E.a + ((c.a - E.a) // ln) * ln
            if ln < len(E):
                assert average_on(f, triple(IntervalZ(pa, pa + ln - 1))) <= thr

    def test_children_disjoint_and_inside(self):
        E, f, _ = indicator_pair(1 << 12, seed=3, density=0.01)
        kids = sorted(find_stopping_children(violation_table(f, E), E), key=lambda c: c.a)
        for c1, c2 in zip(kids, kids[1:]):
            assert c1.b < c2.a
        for c in kids:
            assert c.a >= E.a and c.b <= E.b

    def test_rejects_non_dyadic_size(self):
        with pytest.raises(Exception):
            violation_table(Signal(0, np.ones(10)), IntervalZ(0, 9))


class TestViolationTable:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 10),
        a=st.integers(-5000, 5000),
        C=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0]),
        density=st.sampled_from([0.002, 0.02, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_oracles(self, k, a, C, density, seed):
        # integer samples keep every tripled average exact on both routes;
        # the support may reach past 2E on either side
        size = 1 << k
        E = IntervalZ(a, a + size - 1)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4 * size + 1))
        samples = rng.integers(0, 4, n) * (rng.random(n) < density)
        f = Signal(a + int(rng.integers(-2 * size, 2 * size + 1)), samples.astype(float))

        table = violation_table(f, E, C)
        assert find_stopping_children(table, E) == children_oracle(f, E, C)

        cap = 1 << (math.isqrt(size).bit_length() - 1)
        for _ in range(3):
            tau = StoppingTime(E, 1 << rng.integers(0, cap.bit_length(), size))
            assert check_admissible(tau, table) == admissible_oracle(tau, f, C)

        longest = max((length for _, length in violating_blocks(f, E, C)), default=0)
        if longest >= cap * cap:
            with pytest.raises(SparsityError):
                build_admissible_tau(table)
        else:
            assert build_admissible_tau(table).values.tolist() == [cap] * size

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 10),
        a=st.integers(-5000, 5000),
        C=st.sampled_from([4.0, 8.0, 16.0]),
        density=st.sampled_from([0.0, 0.002, 0.02]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_node_matches_the_recursive_oracle(self, k, a, C, density, seed):
        # integer samples on 3E, plus one or two spikes in E, each of which
        # nests violating blocks around it; refused exactly when some node's
        # children cover more than a quarter of it
        size = 1 << k
        E = IntervalZ(a, a + size - 1)
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, 4, 3 * size) * (rng.random(3 * size) < density)
        spikes = size + rng.integers(0, size, int(rng.integers(1, 3)))
        samples[spikes] += rng.integers(1, 4 << (2 * k), len(spikes))
        f = Signal(a - size, samples.astype(float))

        expected = decompose_oracle(f, E, C)
        if expected is None:
            with pytest.raises(SparsityError, match="children cover"):
                sparse_decompose(violation_table(f, E, C))
        else:
            coll = sparse_decompose(violation_table(f, E, C))
            assert [(n.interval, n.witness.tolist()) for n in coll.nodes] == expected

    def test_a_spike_nests_nodes(self):
        # a single spike at 100 in E = [0, 511]: children of length 32 at
        # the root, and children of length 2 inside the one holding it
        E = IntervalZ(0, 511)
        samples = np.zeros(1024)
        samples[100] = 1000.0
        f = Signal(0, samples)
        coll = sparse_decompose(violation_table(f, E))
        expected = decompose_oracle(f, E, STOPPING_CONSTANT)
        assert [(n.interval, n.witness.tolist()) for n in coll.nodes] == expected
        assert [(n.interval.a, len(n.interval)) for n in coll.nodes] == [
            (0, 512), (64, 32), (96, 32), (98, 2), (100, 2), (102, 2), (128, 32)
        ]

    def test_refuses_a_node_off_the_grid(self):
        table = violation_table(Signal(0, np.ones(32)), IntervalZ(0, 15))
        for I in (IntervalZ(2, 5), IntervalZ(1, 2), IntervalZ(16, 19), IntervalZ(-4, -1)):
            with pytest.raises(DomainError):
                table.flags(I)
        with pytest.raises(DomainError):
            check_admissible(StoppingTime(IntervalZ(16, 31), np.ones(16, dtype=np.int64)), table)

    def test_sparse_demo_builds_one_table(self, monkeypatch):
        built = []
        make = sparse.violation_table

        def counting(f, E, C=STOPPING_CONSTANT):
            built.append((E, C))
            return make(f, E, C)

        monkeypatch.setattr(sparse, "violation_table", counting)
        monkeypatch.setattr(experiments, "violation_table", counting)
        experiments.run_sparse_demo(1 << 10, 0.1, 8.0, 0)
        assert built == [(IntervalZ(0, 1023), 8.0)]


class TestStoppingTime:
    def test_invariants_enforced(self):
        E = IntervalZ(0, 15)
        with pytest.raises(Exception):
            StoppingTime(E, np.full(16, 3))  # not a power of two
        with pytest.raises(Exception):
            StoppingTime(E, np.full(16, 8))  # tau^2 = 64 > |E| = 16
        st = StoppingTime(E, np.full(16, 4))
        assert st.values[[0, 7]].tolist() == [4, 4]

    def test_built_tau_is_admissible(self):
        for seed in range(8):
            E, f, _ = indicator_pair(1 << 10, seed)
            table = violation_table(f, E)
            assert check_admissible(build_admissible_tau(table), table)

    def test_tau_ignores_mass_past_every_triple(self):
        # 3I for I = [s, s + L - 1] ends at s + 2L - 1, so the mass at 12
        # lies outside 3I for every proper block I of [0, 7], and 3E is
        # too long to violate: nothing violates and tau is the cap
        f = Signal(12, np.ones(1))
        E = IntervalZ(0, 7)
        table = violation_table(f, E, 1.0)
        assert find_stopping_children(table, E) == []
        assert check_admissible(StoppingTime(E, np.full(8, 2)), table)
        assert build_admissible_tau(table).values.tolist() == [2] * 8

    def test_zero_signal_admits_any_tau(self):
        E = IntervalZ(0, 63)
        z = Signal(0, np.zeros(64))
        assert check_admissible(StoppingTime(E, np.full(64, 8)), violation_table(z, E))

    def test_clustered_mass_audit(self):
        # a dense cluster produces violating intervals; the built tau must
        # beat every one of them, audited here by brute force
        size = 1 << 10
        E = IntervalZ(0, size - 1)
        samples = np.zeros(2 * size)
        samples[40:72] = 1.0  # a 32-point cluster: tripled averages jump there
        f = Signal(0, samples)
        table = violation_table(f, E)
        tau = build_admissible_tau(table)
        cap = 1 << (math.isqrt(size).bit_length() - 1)
        assert tau.values.max() <= cap
        assert check_admissible(tau, table)
        thr = STOPPING_CONSTANT * average_on(f, E.double())
        saw_violation = False
        ln = 1
        while ln <= size:
            for a in range(0, size, ln):
                I = IntervalZ(a, a + ln - 1)
                if average_on(f, triple(I)) > thr:
                    saw_violation = True
                    assert int(tau.values[a : a + ln].min()) ** 2 > ln
            ln *= 2
        assert saw_violation

    def test_undersized_tau_fails_check(self):
        # a tau too small to clear a violating interval must be rejected
        size = 256
        E = IntervalZ(0, size - 1)
        samples = np.zeros(2 * size)
        samples[0:8] = 1.0
        f = Signal(0, samples)
        thr = STOPPING_CONSTANT * average_on(f, E.double())
        assert average_on(f, triple(IntervalZ(0, 0))) > thr
        bad = StoppingTime(E, np.ones(size, dtype=np.int64))
        assert not check_admissible(bad, violation_table(f, E))


class TestDecomposition:
    def test_zero_signal_gives_single_node(self):
        E = IntervalZ(0, 63)
        coll = sparse_decompose(violation_table(Signal(0, np.zeros(128)), E))
        assert len(coll.nodes) == 1
        assert len(coll.nodes[0].witness) == len(E)

    def test_invariants_over_seeds(self):
        for seed in range(20):
            E, f, _ = indicator_pair(1 << 10, seed)
            coll = sparse_decompose(violation_table(f, E))
            coll.verify()
            for node in coll.nodes:
                assert len(node.witness) > len(node.interval) / 4

    def test_child_mass_bound_enforced(self):
        # verify() raises on a corrupted collection
        E = IntervalZ(0, 7)
        bad = SparseCollection(root=E)
        bad.nodes.append(SparseNode(E, np.array([0])))  # density 1/8 < 3/4
        with pytest.raises(SparsityError):
            bad.verify()

    @pytest.mark.parametrize("outside", [IntervalZ(-2, -1), IntervalZ(8, 9)])
    def test_witness_outside_the_root_is_refused(self, outside):
        # a dense node in its own interval but off E: left of E its witness
        # would index the mask from the end
        E = IntervalZ(0, 7)
        bad = SparseCollection(root=E, nodes=[SparseNode(E, np.arange(8))])
        bad.nodes.append(SparseNode(outside, np.arange(outside.a, outside.b + 1)))
        with pytest.raises(SparsityError, match=rf"\[{outside.a},{outside.b}\]"):
            bad.verify()

    def test_intersecting_witnesses_are_refused(self):
        E = IntervalZ(0, 7)
        half = IntervalZ(0, 3)
        bad = SparseCollection(root=E, nodes=[SparseNode(E, np.arange(8)), SparseNode(half, np.arange(4))])
        with pytest.raises(SparsityError, match="intersect"):
            bad.verify()


class TestSparseForm:
    def test_single_interval_form(self):
        E = IntervalZ(0, 15)
        coll = SparseCollection(root=E)
        coll.nodes.append(SparseNode(E, np.arange(16)))
        f = Signal(0, np.ones(32))
        g = Signal(0, np.ones(16))
        assert abs(sparse_form(coll, f, g, 1.0, 1.0) - 16.0) < 1e-12

    def test_domination_ratio_moderate(self):
        E, f, g = indicator_pair(1 << 10, seed=9)
        pairing, lam, ratio = verify_domination(f, g, E, N=16, r=1.6, s=1.6)
        assert pairing >= 0 and lam > 0
        assert ratio < 8.0


class TestTruncatedMaximal:
    def test_below_full_maximal(self):
        E, f, _ = indicator_pair(1 << 8, seed=2)
        tau = build_admissible_tau(violation_table(f, E))
        tm = truncated_maximal(f, tau)
        m = maximal_average(f, int(tau.values.max()))
        assert np.all(tm <= m.on(E) + 1e-12)

    def test_matches_single_scale_when_tau_constant(self):
        E = IntervalZ(0, 255)
        f = Signal(0, np.ones(512))
        tau = StoppingTime(E, np.full(256, 4))
        tm = truncated_maximal(f, tau)
        best = np.zeros(256)
        for N in (1, 2, 4):
            a = average_squares(f, N)
            best = np.maximum(best, a.on(E))
        assert np.allclose(tm, best)
