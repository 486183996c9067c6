"""Stopping-time construction of sparse collections dominating the square
averages, together with the admissible truncation function tau and the
sparse bilinear form.

Dyadic intervals are taken from the grid anchored at the left endpoint of
the root interval E: children of [a, a + 2^k - 1] split at the midpoint.

The stopping predicate <|f|>_{3I} > C <|f|>_{2E} is evaluated in one
place, the violation table of E (one prefix sum of |f| over 3E, one boolean
array per dyadic level).  The stopping children, the admissible tau and the
admissibility check all read it.  The admissible tau has a closed form: the
constant largest power of two not exceeding sqrt(|E|), or SparsityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import DomainError
from .operators import IntervalZ, Signal, norm_p

STOPPING_CONSTANT = 8.0
# every witness set fills at least this fraction of its interval
_CARLESON_FRACTION = 0.75
# recursion depth past which sparse_decompose gives up
_MAX_DEPTH = 64


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
                raise SparsityError(
                    f"witness density {len(w)}/{len(iv)} below {_CARLESON_FRACTION}"
                )
            i = w - E.a
            if seen[i].any():
                raise SparsityError("witness sets intersect")
            seen[i] = True


def _violations(f: Signal, E: IntervalZ, C: float) -> list[np.ndarray]:
    """The violation table of E: entry k flags, for each aligned block I of
    length 2^k in E's dyadic grid (left to right), whether
    <|f|>_{3I} > C <|f|>_{2E}.  Levels run from single points (k = 0) up to
    E itself.

    Every tripled average comes from one prefix sum of |f| over 3E, scaled
    as `norm_p` scales it.
    """
    size = len(E)
    if size < 2 or size & (size - 1):
        raise DomainError(f"sparse: |E|={size} must be a power of two >= 2")
    threshold = C * norm_p(f, 1.0, E.double())
    lo = E.a - size  # 3E = [E.a - |E|, E.a + 2|E| - 1]
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(f.on(IntervalZ(lo, lo + 3 * size - 1))))])
    table = []
    length = 1
    while length <= size:
        s = size + np.arange(0, size, length)  # I's left end, counted from lo
        # 3I = [s - length, s + 2 length - 1]
        table.append((1.0 / (3 * length)) * (prefix[s + 2 * length] - prefix[s - length]) > threshold)
        length *= 2
    return table


def find_stopping_children(
    f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT
) -> list[IntervalZ]:
    """Maximal dyadic subintervals I of E (grid anchored at E.a) with
    <|f|>_{3I} > C <|f|>_{2E}, sorted by left endpoint.

    E itself is never returned: |E| <= |2E| and 3E covers 2E only partly,
    so for C > 2/3 the root cannot trigger its own threshold; the search
    starts at E's two halves and keeps a violating block only when no
    larger violating block contains it.
    """
    table = _violations(f, E, C)
    free = np.ones(1, dtype=bool)  # blocks no violating ancestor covers
    hits = []
    for k in range(len(table) - 2, -1, -1):
        free = np.repeat(free, 2)
        hit = free & table[k]
        hits += [(E.a + (int(i) << k), 1 << k) for i in np.flatnonzero(hit)]
        free &= ~hit
    return [IntervalZ(a, a + length - 1) for a, length in sorted(hits)]


def build_admissible_tau(f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT) -> StoppingTime:
    """The constant truncation tau = cap on E, where cap is the largest
    power of two not exceeding sqrt(|E|); it is admissible when cap^2
    strictly exceeds the length of every violating dyadic I (grid of E,
    <|f|>_{3I} > C <|f|>_{2E}).

    When f lives on 2E, such I satisfy |I| < 2|E|/(3C) <= |E|/2 <= cap^2
    for C >= 4/3, so the constant works at the default C.  Otherwise
    SparsityError is raised: no dyadic tau <= cap clears the longest
    violating interval.
    """
    size = len(E)
    table = _violations(f, E, C)
    cap = 1 << (math.isqrt(size).bit_length() - 1)
    longest = max((1 << k for k, bad in enumerate(table) if bad.any()), default=0)
    if longest >= cap * cap:
        raise SparsityError(
            f"build_admissible_tau: violating interval of length {longest} "
            f"needs tau^2 > {longest}, but tau <= {cap}"
        )
    return StoppingTime(E, np.full(size, cap, dtype=np.int64))


def check_admissible(tau: StoppingTime, f: Signal, C: float = STOPPING_CONSTANT) -> bool:
    """True when tau(x)^2 > |I| for every dyadic I (grid of tau's base
    interval) containing x with a violating tripled average (checked per
    level with aligned block minima)."""
    size = len(tau.E)
    for k, bad in enumerate(_violations(f, tau.E, C)):
        block_min = np.minimum.reduceat(tau.values, np.arange(0, size, 1 << k))
        if np.any(block_min[bad] ** 2 <= 1 << k):
            return False
    return True


def sparse_decompose(f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT) -> SparseCollection:
    """Recursive stopping-time decomposition of E.

    At each node the stopping children are the maximal dyadic subintervals
    where the tripled average of |f| jumps past C times the doubled-root
    average; the witness is the node minus its children.  Total child mass
    is at most |E|/4 per level (checked), so witnesses fill >= 3/4 of each
    interval and the collection is sparse.
    """
    coll = SparseCollection(root=E)

    def recurse(node: IntervalZ, depth: int) -> None:
        if depth > _MAX_DEPTH:
            raise SparsityError("sparse_decompose: recursion depth exceeded")
        children = find_stopping_children(f, node, C)
        child_mass = sum(len(c) for c in children)
        if child_mass * 4 > len(node):
            raise SparsityError(
                f"sparse_decompose: children cover {child_mass}/{len(node)} > 1/4"
            )
        covered = np.zeros(len(node), dtype=bool)
        for c in children:
            covered[c.a - node.a : c.b - node.a + 1] = True
        witness = node.a + np.nonzero(~covered)[0]
        coll.nodes.append(SparseNode(node, witness))
        for c in children:
            if len(c) >= 2:
                recurse(c, depth + 1)
            else:
                coll.nodes.append(SparseNode(c, np.array([c.a], dtype=np.int64)))

    recurse(E, 0)
    coll.verify()
    return coll


def sparse_form(
    coll: SparseCollection, f: Signal, g: Signal, r: float = 1.0, s: float = 1.0
) -> float:
    """Lambda_{r,s}(f,g) = sum_I |I| <|f|>_{2I,r} <|g|>_{I,s}."""
    total = 0.0
    for node in coll.nodes:
        iv = node.interval
        total += len(iv) * norm_p(f, r, iv.double()) * norm_p(g, s, iv)
    return float(total)

