"""Stopping-time construction of sparse collections dominating the square
averages, together with the admissible truncation function tau and the
sparse bilinear form.

Dyadic intervals are taken from the grid anchored at the left endpoint of
the root interval E: children of [a, a + 2^k - 1] split at the midpoint.

The stopping predicate <|f|>_{3J} > C <|f|>_{2I} of a node I is evaluated in
one place, the violation table built once per run (one prefix sum of |f| over
3E, one boolean array per dyadic level of I), which the stopping children of
every node, the admissible tau and the admissibility check all read.  The
admissible tau has a closed form: the largest power of two <= sqrt(|E|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import DomainError
from .operators import IntervalZ, Signal, norm_p

STOPPING_CONSTANT = 8.0
# every witness set fills at least this fraction of its interval
_CARLESON_FRACTION = 0.75


class SparsityError(AssertionError):
    """A constructed collection failed one of its structural invariants."""


@dataclass(frozen=True)
class StoppingTime:
    """A dyadic-valued truncation function tau on an interval E with
    tau(x)^2 <= |E| everywhere."""

    E: IntervalZ
    values: np.ndarray  # tau(x) for x in E, dtype int64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if len(v) != len(self.E):
            raise DomainError("StoppingTime: values must cover E exactly")
        if np.any(v < 1) or np.any(v & (v - 1)):
            raise DomainError("StoppingTime: values must be powers of two")
        if np.any(v * v > len(self.E)):
            raise DomainError("StoppingTime: tau^2 must not exceed |E|")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SparseNode:
    """One member of a sparse collection: a dyadic interval together with
    its witness set (the part of the interval not covered by children)."""

    interval: IntervalZ
    witness: np.ndarray  # integer points of the witness set, sorted


@dataclass
class SparseCollection:
    """A collection of dyadic intervals whose witness sets are pairwise
    disjoint and each fill at least _CARLESON_FRACTION of their interval."""

    root: IntervalZ
    nodes: list[SparseNode] = field(default_factory=list)

    def verify(self) -> None:
        """Check witness containment (in the interval and in the root E),
        density and disjointness, on one boolean mask over E; raise
        SparsityError on any failure."""
        E = self.root
        seen = np.zeros(len(E), dtype=bool)
        for node in self.nodes:
            iv = node.interval
            w = node.witness
            if len(w) and (w[0] < max(iv.a, E.a) or w[-1] > min(iv.b, E.b)):
                raise SparsityError(f"witness escapes interval [{iv.a},{iv.b}] or root [{E.a},{E.b}]")
            if len(w) < _CARLESON_FRACTION * len(iv):
                raise SparsityError(f"witness density {len(w)}/{len(iv)} below {_CARLESON_FRACTION}")
            i = w - E.a
            if seen[i].any():
                raise SparsityError("witness sets intersect")
            seen[i] = True


@dataclass(frozen=True)
class ViolationTable:
    """f, the root E, the stopping constant C and one prefix sum of |f| over
    3E (prefix[i] sums its first i points): the stopping predicate of a run."""

    f: Signal
    E: IntervalZ
    C: float
    prefix: np.ndarray

    def flags(self, I: IntervalZ) -> list[np.ndarray]:
        """Entry k flags each aligned block J of length 2^k in I (a block of
        E's dyadic grid), left to right, with <|f|>_{3J} > C <|f|>_{2I}; k
        runs up to log2 |I|.  E's flags are made once and kept."""
        return self._root_flags if I == self.E else self._flags(I)

    @cached_property
    def _root_flags(self) -> list[np.ndarray]:
        return self._flags(self.E)

    def _flags(self, I: IntervalZ) -> list[np.ndarray]:
        size, n, o = len(self.E), len(I), I.a - self.E.a
        if n & (n - 1) or o % n or not 0 <= o <= size - n:
            raise DomainError(f"sparse: [{I.a},{I.b}] is not a dyadic block of [{self.E.a},{self.E.b}]")
        threshold = self.C * norm_p(self.f, 1.0, I.double())
        p, s = self.prefix, size + o  # s: I's left end, counted from 3E's
        # 3J = [t - L, t + 2L - 1] for J's left ends t: strided slices, scaled as norm_p scales
        return [
            (1.0 / (3 * L)) * (p[s + 2 * L : s + n + 2 * L : L] - p[s - L : s + n - L : L]) > threshold
            for L in (1 << k for k in range(n.bit_length()))
        ]


def violation_table(f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT) -> ViolationTable:
    """The violation table of f on E at stopping constant C; |E| must be a
    power of two >= 2."""
    size = len(E)
    if size < 2 or size & (size - 1):
        raise DomainError(f"sparse: |E|={size} must be a power of two >= 2")
    lo = E.a - size  # 3E = [E.a - |E|, E.a + 2|E| - 1]
    prefix = np.zeros(3 * size + 1)  # |f| on 3E written in place, then summed in place
    np.cumsum(np.abs(f.on(IntervalZ(lo, lo + 3 * size - 1)), out=prefix[1:]), out=prefix[1:])
    prefix.setflags(write=False)
    return ViolationTable(f, E, C, prefix)


def find_stopping_children(table: ViolationTable, I: IntervalZ) -> list[IntervalZ]:
    """Maximal dyadic subintervals J of the node I (grid anchored at E.a)
    with <|f|>_{3J} > C <|f|>_{2I}, sorted by left endpoint.  I itself never
    violates for C > 2/3 (3I covers 2I only partly), so the search starts
    at I's halves and keeps a violating block only when no larger violating
    block contains it."""
    levels = table.flags(I)
    free = np.ones(1, dtype=bool)  # blocks no violating ancestor covers
    hits = []
    for k in range(len(levels) - 2, -1, -1):
        free = np.repeat(free, 2)
        hit = free & levels[k]
        hits += [(I.a + (int(i) << k), 1 << k) for i in np.flatnonzero(hit)]
        free &= ~hit
    return [IntervalZ(a, a + length - 1) for a, length in sorted(hits)]


def build_admissible_tau(table: ViolationTable) -> StoppingTime:
    """The constant truncation tau = cap on E, cap the largest power of two
    <= sqrt(|E|): admissible when cap^2 exceeds the length of every
    violating dyadic I of E's grid.  When f lives on 2E such I have
    |I| < 2|E|/(3C) <= |E|/2 <= cap^2 for C >= 4/3, so the default C works;
    otherwise SparsityError, as no dyadic tau <= cap clears the longest I."""
    size = len(table.E)
    cap = 1 << (math.isqrt(size).bit_length() - 1)
    longest = max((1 << k for k, bad in enumerate(table.flags(table.E)) if bad.any()), default=0)
    if longest >= cap * cap:
        msg = f"violating interval of length {longest} needs tau^2 > {longest}, but tau <= {cap}"
        raise SparsityError(f"build_admissible_tau: {msg}")
    return StoppingTime(table.E, np.full(size, cap, dtype=np.int64))


def check_admissible(tau: StoppingTime, table: ViolationTable) -> bool:
    """True when tau(x)^2 > |I| for every violating dyadic I of E's grid
    containing x (checked per level on aligned block minima, each level's
    the pairwise minima of the level below); tau must live on E."""
    if tau.E != table.E:
        raise DomainError("check_admissible: tau and the violation table live on different intervals")
    block_min = tau.values
    for k, bad in enumerate(table.flags(table.E)):
        if k:
            block_min = np.minimum(block_min[0::2], block_min[1::2])
        if np.any(block_min[bad] ** 2 <= 1 << k):
            return False
    return True


def sparse_decompose(table: ViolationTable) -> SparseCollection:
    """Stopping-time decomposition of E, node by node in pre-order (the
    order sparse_form sums in): a node's children are its stopping children,
    its witness is the node minus them.  Children cover at most a quarter of
    each node (checked), so witnesses fill >= 3/4 of each interval and the
    collection is sparse."""
    coll = SparseCollection(root=table.E)
    stack = [table.E]  # children pushed in reverse, so popped in order
    while stack:
        node = stack.pop()
        if len(node) == 1:
            coll.nodes.append(SparseNode(node, np.array([node.a], dtype=np.int64)))
            continue
        children = find_stopping_children(table, node)
        child_mass = sum(len(c) for c in children)
        if child_mass * 4 > len(node):
            raise SparsityError(f"sparse_decompose: children cover {child_mass}/{len(node)} > 1/4")
        covered = np.zeros(len(node), dtype=bool)
        for c in children:
            covered[c.a - node.a : c.b - node.a + 1] = True
        coll.nodes.append(SparseNode(node, node.a + np.nonzero(~covered)[0]))
        stack += reversed(children)
    coll.verify()
    return coll


def sparse_form(coll: SparseCollection, f: Signal, g: Signal, r: float = 1.0, s: float = 1.0) -> float:
    """Lambda_{r,s}(f,g) = sum_I |I| <|f|>_{2I,r} <|g|>_{I,s}."""
    total = 0.0
    for node in coll.nodes:
        iv = node.interval
        total += len(iv) * norm_p(f, r, iv.double()) * norm_p(g, s, iv)
    return float(total)

