"""The exponential-sum family H, H0, H1, Htilde, H_j and the logarithmic
average S_J(x) = sum_{q<=J} |H(q,x)|/q.

All five kinds are trigonometric sums over a residue class of numerators a,
so one period of values (in x) is a single inverse DFT of the weight vector.
``h_vector`` exposes that; ``h_sum`` is the scalar entry point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .arith import DomainError, factorize, is_prime, jacobi
from .gauss import gauss_G0_vector, gauss_G_vector

_KINDS = ("H", "H0", "H1", "Htilde") + tuple(f"Hj{j}" for j in range(8))


def h_period(kind: str, q: int) -> int:
    """Fundamental period (in x) of the given sum."""
    return q if kind in ("H0", "H1") else 2 * q


def _coprime_mask(n: int, q: int) -> np.ndarray:
    a = np.arange(n, dtype=np.int64)
    return np.gcd(a, q) == 1


def h_weights(kind: str, q: int) -> np.ndarray:
    """Weight vector w with h(q,x) = sum_a w[a] e(ax/P), P = h_period."""
    if q < 1:
        raise DomainError(f"h_weights: q={q} must be positive")
    if kind == "H":
        w = gauss_G0_vector(q)
        w[~_coprime_mask(2 * q, q)] = 0
        w[0] = 0  # a runs over [1, 2q-1]
        return w
    if kind == "H0":
        return gauss_G_vector(q)
    if kind == "H1":
        w = gauss_G_vector(q)
        w[~_coprime_mask(q, q)] = 0  # a = q, i.e. index 0, stays only when q = 1
        return w
    if kind == "Htilde" or (kind.startswith("Hj") and kind[2:].isdigit()):
        # jacobi(a, q') is 0 when gcd(a, q') > 1, so no coprimality mask
        qp = factorize(q).odd_part
        a = np.arange(1, 2 * q)
        if kind != "Htilde":
            a = a[a % 8 == int(kind[2:])]
        w = np.zeros(2 * q, dtype=np.complex128)
        w[a] = (1.0 / math.sqrt(q)) * np.array([jacobi(int(v), qp) for v in a])
        return w
    raise DomainError(f"h_weights: unknown kind {kind!r}")


@lru_cache(maxsize=4096)
def _h_vector_cached(kind: str, q: int) -> np.ndarray:
    P = h_period(kind, q)
    vals = P * np.fft.ifft(h_weights(kind, q))
    vals.setflags(write=False)
    return vals


def h_vector(kind: str, q: int) -> np.ndarray:
    """One period of values: entry x is h(q,x), x in [0, h_period)."""
    if kind not in _KINDS:
        raise DomainError(f"h_vector: unknown kind {kind!r}")
    return _h_vector_cached(kind, q)


def h_sum(kind: str, q: int, x: int) -> complex:
    """Direct evaluation of the chosen sum at (q, x)."""
    vals = h_vector(kind, q)
    return complex(vals[x % len(vals)])


def abs_h_on_points(q: int, xs: np.ndarray) -> np.ndarray:
    """|H(q, x)| for an array of integers x."""
    vals = h_vector("H", q)
    return np.abs(vals[np.mod(xs, 2 * q)])


_ADVERSARIAL_COUNT = 4000


def _adversarial_candidates(J: int) -> list[int]:
    """The _ADVERSARIAL_COUNT smallest highly divisible x values (products
    of small prime powers <= J^2), which maximize the number of q with
    H(q,x) != 0."""
    cap = J * J
    primes = [p for p in range(2, min(max(J, 2), 64) + 1) if is_prime(p)]
    out = {0, 1}
    frontier = [1]
    for p in primes:
        nxt = []
        for v in frontier:
            w = v * p
            while w <= cap:
                nxt.append(w)
                w *= p
        frontier.extend(nxt)
        frontier = sorted(set(frontier))[: _ADVERSARIAL_COUNT * 4]
    out.update(frontier[:_ADVERSARIAL_COUNT])
    return sorted(out)


def accumulate_S(j_list: Sequence[int], xs: np.ndarray) -> list[np.ndarray]:
    """S_J at each point of xs for each J of the increasing j_list, in
    order: copies of one running sum over q, of which the last is the sum
    itself."""
    S, out = np.zeros(len(xs)), []
    for prev, J in zip([0, *j_list], j_list):
        for q in range(prev + 1, J + 1):
            S += abs_h_on_points(q, xs) / q
        out.append(S if J == j_list[-1] else S.copy())
    return out
