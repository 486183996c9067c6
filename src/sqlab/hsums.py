"""The exponential-sum family H, H0, H1, Htilde, H_j and the logarithmic
average S_J(x) = sum_{q<=J} |H(q,x)|/q.

All five kinds are trigonometric sums over a residue class of numerators a,
so one period of values (in x), of length q for H0 and H1 and 2q for the
others, is a single inverse DFT of the weight vector: ``h_vector``, with
``h_sum`` the scalar entry point.  Htilde and the H_j weigh a by the Jacobi
symbol (a/q'), q' the odd part of q, from one ``jacobi_array`` call per q.

S_J needs only |H(q,x)|, which is an integer that factors over the prime
powers of q: with r_m(y) the number of square roots of y mod m, q > 1 and
q = 2^b * prod p^k,

    |H(q,x)| = T_2(x) * prod_{p odd} |r_{p^k}(-x) - r_{p^(k-1)}(-x)|,

where T_2(x) = |r_{2^(b+1)}(-x) - r_{2^b}(-x)| for b >= 1 and 1 for b = 0;
H(1,x) = 0.  One period of it, x in [0, 2q), is built in place: for odd p
with k = 1 the factor is |(-x/p)|, so the multiples of p are zeroed; every
other factor is a table whose length divides 2q, enumerated once per scan
in a ``FactorTables`` and multiplied into the period reshaped to rows of
that length.  ``accumulate_S`` adds the period to the scan window
[0, x_max] at once and reads the points past the window from it, and
``abs_h_on_points`` reads arbitrary points from it, so the low-pass scan
builds no complex table and gathers no table per point.  ``upper_bound_S``
bounds sup_x S_J(x) by a product over the primes p <= J of the maxima of
the per-prime sums of those tables.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .arith import DomainError, factorize, is_prime, jacobi_array, sqrt_count_vector
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
    # Htilde and H_j: the Jacobi symbol (a/q') vanishes when gcd(a, q') > 1,
    # so no coprimality mask
    symbol = _odd_symbol(q)
    if kind != "Htilde":
        symbol = np.where(np.arange(2 * q) % 8 == int(kind[2:]), symbol, 0)
    return ((1.0 / math.sqrt(q)) * symbol).astype(np.complex128)


# hsum-identities builds H_1, H_3, H_5, H_7 and Htilde of one q in a row
@lru_cache(maxsize=1)
def _odd_symbol(q: int) -> np.ndarray:
    """The Jacobi symbol (a/q') for a in [0, 2q), q' the odd part of q, with
    a = 0 zeroed (a runs over [1, 2q-1]), read-only."""
    symbol = jacobi_array(np.arange(2 * q, dtype=np.int64), factorize(q).odd_part)
    symbol[0] = 0
    symbol.setflags(write=False)
    return symbol


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
    """The chosen sum at (q, x), read from the cached period of h_vector."""
    vals = h_vector(kind, q)
    return complex(vals[x % len(vals)])


def _sqrt_count_step(p: int, k: int) -> np.ndarray:
    """The factor of |H(q,x)| that p^k || q contributes, as a table over x
    mod m: |r_m(-x) - r_{m/p}(-x)| with m = p^k for odd p and m = 2^(k+1)
    for p = 2."""
    m = p**k * (2 if p == 2 else 1)
    y = -np.arange(m, dtype=np.int64)
    return np.abs(sqrt_count_vector(m)[y % m] - sqrt_count_vector(m // p)[y % (m // p)])


class FactorTables(dict):
    """The tables _sqrt_count_step(p, k), keyed by (p, k), each built on its
    first lookup: the working set of one scan, dropped with it."""

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        self[key] = step = _sqrt_count_step(*key)
        return step


def factor_table_entries(J: int) -> int:
    """How many entries the factor tables of the q <= J hold: 2^(k+1) for
    each 2^k <= J with k >= 1, and p^k for each odd p^k <= J with k >= 2."""
    entries = sum(2 ** (k + 1) for k in range(1, J.bit_length()))
    for p in filter(is_prime, range(3, math.isqrt(J) + 1, 2)):
        pk = p * p
        while pk <= J:
            entries, pk = entries + pk, pk * p
    return entries


def _abs_h_period(q: int, tables: FactorTables) -> np.ndarray:
    """|H(q, x)| for x in [0, 2q), as int64.  Each p^k || q multiplies in
    its factor table, whose length divides 2q, as a row of the period
    reshaped to that length; for odd p with k = 1 the factor |(-x/p)| is
    0 on the multiples of p and 1 elsewhere, so those are zeroed and no
    table is read."""
    out = np.full(2 * q, int(q > 1), dtype=np.int64)
    for p, k in factorize(q).factors:
        if p != 2 and k == 1:
            out[::p] = 0
        else:
            step = tables[p, k]
            rows = out.reshape(-1, len(step))
            rows *= step
    return out


def abs_h_on_points(q: int, xs: np.ndarray) -> np.ndarray:
    """|H(q, x)| for an array of integers x, exactly, as int64: read from
    one period, the product over the prime powers of q of their
    square-root-count factors (the empty product of q = 1 is replaced by
    H(1,x) = 0)."""
    return _abs_h_period(q, FactorTables())[np.asarray(xs, dtype=np.int64) % (2 * q)]


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


def accumulate_S(j_list: Sequence[int], x_max: int, extra: np.ndarray, tables: FactorTables) -> list[np.ndarray]:
    """S_J on the window [0, x_max] (empty for x_max = -1) followed by the
    points of extra, for each J of the increasing j_list, in order: copies
    of one running sum over q, of which the last is the sum itself.  Each
    |H(q,.)|/q is built as one period of 2q values, added to the window as
    an (m, 2q) view plus a partial period, and read at the points of extra
    mod 2q.  The factor tables are looked up in tables, so each is built
    once however many q read it."""
    extra = np.asarray(extra, dtype=np.int64)
    n = x_max + 1
    S, out = np.zeros(n + len(extra)), []
    window, tail = S[:n], S[n:]
    for prev, J in zip([0, *j_list], j_list):
        for q in range(prev + 1, J + 1):
            vals = _abs_h_period(q, tables) / q
            P = min(2 * q, n)
            m = n // max(P, 1)
            periods = window[: m * P].reshape(m, P)
            periods += vals[:P]
            window[m * P :] += vals[: n - m * P]
            tail += vals[extra % (2 * q)]
        out.append(S if J == j_list[-1] else S.copy())
    return out


def upper_bound_S(J: int, tables: FactorTables) -> float:
    """U_J = prod_{p <= J} max_x F_p(x) - 1 with F_p = sum_{k >= 0, p^k <= J}
    t_{p,k}/p^k, t_{p,k} the factor table of p^k and t_{p,0} = 1.  Expanded,
    the product of the F_p(x) holds |H(q,x)|/q for every q <= J among
    nonnegative terms, and 1 for q = 1 where H(1,x) = 0, so
    U_J >= sup_x S_J(x).  A p > sqrt(J) divides a q <= J at most once, so
    its F_p is 1 + t_{p,1}/p, of maximum 1 + 1/p (t_{p,1} = |(-x/p)| for
    odd p, and t_{2,1} = 1); the F_p of the primes p <= sqrt(J), which sieve
    out the rest, are built on one period from the tables."""
    root = math.isqrt(J)
    prime = np.ones(J + 1, dtype=bool)
    bound = 1.0
    for p in range(2, root + 1):
        if not prime[p]:
            continue
        prime[p * p :: p] = False
        K, pk = 1, p
        while pk * p <= J:
            K, pk = K + 1, pk * p
        F = np.ones(2 * pk if p == 2 else pk)
        for k in range(1, K + 1):
            if p != 2 and k == 1:
                F.reshape(-1, p)[:, 1:] += 1 / p
            else:
                step = tables[p, k]
                rows = F.reshape(-1, len(step))
                rows += step / p**k
        bound *= float(F.max())
    for p in (root + 1 + np.flatnonzero(prime[root + 1 :])).tolist():
        bound *= 1 + 1 / p
    return bound - 1
