"""The exponential-sum family H, H0, H1, Htilde, H_j and the logarithmic
average S_J(x) = sum_{q<=J} |H(q,x)|/q.

All five kinds are trigonometric sums over a residue class of numerators a,
so one period of values (in x), of length q for H0 and H1 and 2q for the
others, is a single inverse DFT of the weight vector: ``h_vector``, with
``h_sum`` the scalar entry point.  Htilde and the H_j weigh a by (a/q'), the
product over p^k || q' of (r_p(a) - 1)^k with r_p a square-root-count table.

S_J needs only |H(q,x)|, which is an integer that factors over the prime
powers of q: with r_m(y) the number of square roots of y mod m, q > 1 and
q = 2^b * prod p^k,

    |H(q,x)| = T_2(x) * prod_{p odd} |r_{p^k}(-x) - r_{p^(k-1)}(-x)|,

where T_2(x) = |r_{2^(b+1)}(-x) - r_{2^b}(-x)| for b >= 1 and 1 for b = 0;
H(1,x) = 0.  ``abs_h_on_points`` evaluates this product from enumerated
square-root-count tables, and ``accumulate_S`` adds one period of it, of
length 2q, to the longest run of consecutive points at once, so the
low-pass scan builds no complex table.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .arith import DomainError, factorize, is_prime, sqrt_count_vector
from .gauss import gauss_G0_vector, gauss_G_vector

_KINDS = ("H", "H0", "H1", "Htilde") + tuple(f"Hj{j}" for j in range(8))


def h_weights(kind: str, q: int) -> np.ndarray:
    """Weight vector w with h(q,x) = sum_a w[a] e(ax/P), P = len(w)."""
    if kind not in _KINDS:
        raise DomainError(f"h_weights: unknown kind {kind!r}")
    if q < 1:
        raise DomainError(f"h_weights: q={q} must be positive")
    if kind == "H":
        w = gauss_G0_vector(q)
        w[np.gcd(np.arange(2 * q), q) != 1] = 0
        w[0] = 0  # a runs over [1, 2q-1]
        return w
    if kind == "H0":
        return gauss_G_vector(q)
    if kind == "H1":
        w = gauss_G_vector(q)
        w[np.gcd(np.arange(q), q) != 1] = 0  # a = q, i.e. index 0, stays only when q = 1
        return w
    # Htilde and H_j: (a/q') as a product of Legendre symbols, which vanish
    # when gcd(a, q') > 1, so no coprimality mask
    a = np.arange(2 * q, dtype=np.int64)
    symbol = np.ones(2 * q, dtype=np.int64)
    for p, k in factorize(q).factors:
        if p != 2:
            symbol *= (sqrt_count_vector(p)[a % p] - 1) ** k
    symbol[0] = 0  # a runs over [1, 2q-1]
    if kind != "Htilde":
        symbol[a % 8 != int(kind[2:])] = 0
    return ((1.0 / math.sqrt(q)) * symbol).astype(np.complex128)


# the working set of hsum-identities, the one library caller that reads a period twice
@lru_cache(maxsize=64)
def _h_vector_cached(kind: str, q: int) -> np.ndarray:
    # free the weights before the scaled table is allocated: holding them
    # fragments the heap around the cached tables
    vals = np.fft.ifft(h_weights(kind, q))
    vals = len(vals) * vals
    vals.setflags(write=False)
    return vals


def h_vector(kind: str, q: int) -> np.ndarray:
    """One period of values: entry x is h(q,x) for x in [0, P), P the
    length of the weight vector."""
    return _h_vector_cached(kind, q)


def h_sum(kind: str, q: int, x: int) -> complex:
    """Direct evaluation of the chosen sum at (q, x)."""
    vals = h_vector(kind, q)
    return complex(vals[x % len(vals)])


def _sqrt_count_step(p: int, k: int) -> np.ndarray:
    """The factor of |H(q,x)| that p^k || q contributes, as a table over x
    mod m: |r_m(-x) - r_{m/p}(-x)| with m = p^k for odd p and m = 2^(k+1)
    for p = 2."""
    m = p**k * (2 if p == 2 else 1)
    y = -np.arange(m, dtype=np.int64)
    return np.abs(sqrt_count_vector(m)[y % m] - sqrt_count_vector(m // p)[y % (m // p)])


def abs_h_on_points(q: int, xs: np.ndarray) -> np.ndarray:
    """|H(q, x)| for an array of integers x, exactly, as int64: the product
    over the prime powers of q of their square-root-count factors (the
    empty product of q = 1 is replaced by H(1,x) = 0)."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.full(len(xs), int(q > 1), dtype=np.int64)
    for p, k in factorize(q).factors:
        step = _sqrt_count_step(p, k)
        out *= step[xs % len(step)]
    return out


_ADVERSARIAL_COUNT = 4000


def _adversarial_candidates(J: int) -> list[int]:
    """0 and the _ADVERSARIAL_COUNT smallest x in [1, min(J^2, 2^15)] whose
    prime factors are all at most min(max(J, 2), 61): the x that dividing
    out those primes leaves at 1.  Many q have H(q,x) != 0 at such x.  The
    4000 smallest 61-smooth numbers are all <= 16450, so the cap drops none,
    and a window [0, x_max] with x_max >= 16450 holds every one."""
    rest = np.arange(min(J * J, 1 << 15) + 1, dtype=np.int64)
    for p in filter(is_prime, range(2, min(max(J, 2), 64) + 1)):
        pk = p
        while pk < len(rest):
            rest[::pk] //= p
            pk *= p
    return [0, *np.flatnonzero(rest == 1)[:_ADVERSARIAL_COUNT].tolist()]


def _longest_run(xs: np.ndarray) -> tuple[int, int]:
    """(lo, hi) of the longest slice with xs[lo:hi] = xs[lo] + arange(hi - lo)."""
    # the order test keeps a step from 2^63 - 1 to -2^63, which wraps to 1, out of a run
    step = (np.diff(xs) == 1) & (xs[1:] > xs[:-1])
    edges = np.concatenate([[0], np.flatnonzero(~step) + 1, [len(xs)]])
    i = int(np.argmax(np.diff(edges)))
    return int(edges[i]), int(edges[i + 1])


def accumulate_S(j_list: Sequence[int], xs: np.ndarray) -> list[np.ndarray]:
    """S_J at each point of xs for each J of the increasing j_list, in
    order: copies of one running sum over q, of which the last is the sum
    itself.  Each |H(q,.)|/q is evaluated on one period of the longest run
    of consecutive points, added to the run as an (m, 2q) view plus a
    partial period, and on the points outside the run."""
    xs = np.asarray(xs, dtype=np.int64)
    lo, hi = _longest_run(xs)
    outside = np.concatenate([xs[:lo], xs[hi:]])
    x0 = int(xs[lo]) if len(xs) else 0
    S, out = np.zeros(len(xs)), []
    head, run, tail = S[:lo], S[lo:hi], S[hi:]
    for prev, J in zip([0, *j_list], j_list):
        for q in range(prev + 1, J + 1):
            P = min(2 * q, len(run))
            vals = abs_h_on_points(q, np.concatenate([x0 + np.arange(P, dtype=np.int64), outside])) / q
            m = len(run) // max(P, 1)
            periods = run[: m * P].reshape(m, P)
            periods += vals[:P]
            run[m * P :] += vals[: len(run) - m * P]
            head += vals[P : P + lo]
            tail += vals[P + lo :]
        out.append(S if J == j_list[-1] else S.copy())
    return out
