"""Stopping-time construction of sparse collections dominating the square
averages, together with the admissible truncation function tau and the
sparse bilinear form used to certify domination numerically.

Dyadic intervals are taken from the grid anchored at the left endpoint of
the root interval E: children of [a, a + 2^k - 1] split at the midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import DomainError
from .operators import IntervalZ, Signal, average_on, average_squares, norm_p

STOPPING_CONSTANT = 8.0


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

    def at(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        i = np.clip(xs - self.E.a, 0, len(self.values) - 1)
        return self.values[i]


@dataclass(frozen=True)
class SparseNode:
    """One member of a sparse collection: a dyadic interval together with
    its witness set (the part of the interval not covered by children)."""

    interval: IntervalZ
    witness: np.ndarray  # integer points of the witness set, sorted

    def to_dict(self) -> dict:
        return {
            "a": self.interval.a,
            "b": self.interval.b,
            "witness": [int(x) for x in self.witness],
        }


@dataclass
class SparseCollection:
    """A collection of dyadic intervals whose witness sets are pairwise
    disjoint and each fill at least carleson_fraction of their interval."""

    root: IntervalZ
    nodes: list[SparseNode] = field(default_factory=list)
    carleson_fraction: float = 0.75

    def to_list(self) -> list[dict]:
        return [n.to_dict() for n in self.nodes]

    def verify(self) -> None:
        """Check witness disjointness, containment, and density; raise
        SparsityError on any failure."""
        seen: set[int] = set()
        for node in self.nodes:
            iv = node.interval
            w = node.witness
            if len(w) and (w[0] < iv.a or w[-1] > iv.b):
                raise SparsityError(f"witness escapes interval [{iv.a},{iv.b}]")
            if len(w) < self.carleson_fraction * len(iv):
                raise SparsityError(
                    f"witness density {len(w)}/{len(iv)} below {self.carleson_fraction}"
                )
            pts = set(int(x) for x in w)
            if seen & pts:
                raise SparsityError("witness sets intersect")
            seen |= pts


def find_stopping_children(
    f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT
) -> list[IntervalZ]:
    """Maximal dyadic subintervals I of E (grid anchored at E.a) with
    <|f|>_{3I} > C <|f|>_{2E}.

    E itself is never returned: |E| <= |2E| and 3E covers 2E only partly,
    so for C > 2/3 the root cannot trigger its own threshold; the descent
    starts at E's two halves.
    """
    size = len(E)
    if size < 2 or size & (size - 1):
        raise DomainError(f"find_stopping_children: |E|={size} must be a power of two >= 2")
    threshold = C * average_on(f, E.double())
    out: list[IntervalZ] = []

    def descend(a: int, length: int) -> None:
        I = IntervalZ(a, a + length - 1)
        if average_on(f, I.triple()) > threshold:
            out.append(I)
            return
        if length >= 2:
            descend(a, length // 2)
            descend(a + length // 2, length // 2)

    descend(E.a, size // 2)
    descend(E.a + size // 2, size // 2)
    return out


def _max_violating_lengths(f: Signal, E: IntervalZ, C: float) -> np.ndarray:
    """For each x in E, the largest |I| over dyadic I containing x (grid of
    E) with <|f|>_{3I} > C <|f|>_{2E}, or 0 when none violates.

    Vectorized per level with prefix sums of |f| over 3E's span.
    """
    size = len(E)
    threshold = C * average_on(f, E.double())
    lo = 2 * E.a - E.b - 1  # left end of 3E
    hi = 2 * E.b - E.a + 1
    absf = np.abs(f.values_at(np.arange(lo, hi + 1)))
    prefix = np.concatenate([[0.0], np.cumsum(absf)])

    def triple_avg(starts: np.ndarray, length: int) -> np.ndarray:
        # 3I for I = [s, s+length-1] is [2s - (s+length-1) - 1, 2(s+length-1) - s + 1]
        a3 = starts - length
        b3 = starts + 2 * length
        ia = np.clip(a3 - lo, 0, len(absf))
        ib = np.clip(b3 - lo + 1, 0, len(absf))
        return (prefix[ib] - prefix[ia]) / (3 * length)

    out = np.zeros(size, dtype=np.int64)
    length = 1
    while length <= size:
        starts = E.a + np.arange(0, size, length)
        bad = triple_avg(starts, length) > threshold
        rep = np.repeat(bad, length)
        out[rep] = length
        length *= 2
    return out


def build_admissible_tau(f: Signal, E: IntervalZ, C: float = STOPPING_CONSTANT) -> StoppingTime:
    """The largest dyadic-valued truncation tau on E with tau(x)^2 strictly
    exceeding every violating interval length through x.

    Violating means a dyadic I (grid of E) containing x with
    <|f|>_{3I} > C <|f|>_{2E}; such I satisfy |I| < 2|E|/(3C), so for
    C >= 8 a suitable tau <= sqrt(|E|) always exists.  Values are capped at
    the largest power of two not exceeding sqrt(|E|).
    """
    size = len(E)
    if size < 2 or size & (size - 1):
        raise DomainError(f"build_admissible_tau: |E|={size} must be a power of two >= 2")
    M = _max_violating_lengths(f, E, C)
    cap = 1 << (math.isqrt(size).bit_length() - 1)
    tau = np.full(size, cap, dtype=np.int64)
    need = M >= cap * cap  # tau^2 > M fails at the cap
    while np.any(need):
        tau[need] >>= 1
        if np.any(tau < 1):
            raise SparsityError("build_admissible_tau: no admissible value at some point")
        need = M >= tau * tau
    return StoppingTime(E, tau)


def check_admissible(tau: StoppingTime, f: Signal, C: float = STOPPING_CONSTANT) -> bool:
    """True when tau(x)^2 > |I| for every dyadic I (grid of tau's base
    interval) containing x with a violating tripled average (checked per
    level with aligned block minima)."""
    E = tau.E
    size = len(E)
    vals = tau.values
    threshold = C * average_on(f, E.double())
    length = 1
    while length <= size:
        starts = E.a + np.arange(0, size, length)
        avgs = np.array(
            [average_on(f, IntervalZ(s, s + length - 1).triple()) for s in starts]
        )
        bad = avgs > threshold
        if np.any(bad):
            # min of tau over each bad aligned block must satisfy tau^2 > length
            block_min = np.minimum.reduceat(vals, np.arange(0, size, length))
            if np.any(block_min[bad] * block_min[bad] <= length):
                return False
        length *= 2
    return True


def truncated_maximal(f: Signal, tau: StoppingTime) -> np.ndarray:
    """sup_{N <= tau(x)} A_N |f| (x) for x in tau's base interval, N over
    powers of two."""
    E = tau.E
    xs = np.arange(E.a, E.b + 1)
    tv = tau.values
    n_max = int(tv.max()) if len(tv) else 1
    g = Signal(f.offset, np.abs(np.asarray(f.samples)))
    out = np.zeros(len(xs))
    N = 1
    while N <= n_max:
        a = average_squares(g, N, method="auto")
        vals = a.values_at(xs)
        mask = tv >= N
        out[mask] = np.maximum(out[mask], vals[mask])
        N *= 2
    return out


def sparse_decompose(
    f: Signal,
    E: IntervalZ,
    C: float = STOPPING_CONSTANT,
    max_depth: int = 64,
) -> SparseCollection:
    """Recursive stopping-time decomposition of E.

    At each node the stopping children are the maximal dyadic subintervals
    where the tripled average of |f| jumps past C times the doubled-root
    average; the witness is the node minus its children.  Total child mass
    is at most |E|/4 per level (checked), so witnesses fill >= 3/4 of each
    interval and the collection is sparse.
    """
    size = len(E)
    if size < 2 or size & (size - 1):
        raise DomainError(f"sparse_decompose: |E|={size} must be a power of two >= 2")
    coll = SparseCollection(root=E, carleson_fraction=0.75)

    def recurse(node: IntervalZ, depth: int) -> None:
        if depth > max_depth:
            raise SparsityError("sparse_decompose: recursion depth exceeded")
        children = find_stopping_children(f, node, C) if len(node) >= 2 else []
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
        total += len(iv) * average_on(f, iv.double(), r) * average_on(g, iv, s)
    return float(total)


def verify_domination(
    f: Signal,
    g: Signal,
    E: IntervalZ,
    N: int,
    r: float = 1.0,
    s: float = 1.0,
    C: float = STOPPING_CONSTANT,
) -> tuple[float, float, float]:
    """Compare <A_N f, g> restricted to E against the sparse form.

    Returns (bilinear value, sparse form value, their ratio); the ratio is
    the empirical domination constant and should stay bounded as N and E
    grow.
    """
    coll = sparse_decompose(f, E, C)
    af = average_squares(Signal(f.offset, np.abs(np.asarray(f.samples))), N)
    xs = np.arange(E.a, E.b + 1)
    pairing = float(np.dot(af.values_at(xs), np.abs(g.values_at(xs))))
    lam = sparse_form(coll, f, g, r, s)
    return pairing, lam, pairing / lam if lam > 0 else math.inf
