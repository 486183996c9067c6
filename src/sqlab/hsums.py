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
that length.  ``abs_h_on_points`` reads arbitrary points from it, so the
low-pass scan builds no complex table and gathers no table per point.  The
scan takes every prime and factorization from one sieve in the
``FactorTables``, of the largest prime factor P(k) of each k <= max J: the
prime powers of q by walking it down (p = P(q), q divided by p while p
divides it), the primes as the k with P(k) = k, and its smooth candidates.

``accumulate_S`` builds such a period only for the q <= J whose largest
prime factor P(q) is at most B = max(2, isqrt(J)).  A prime p > B is odd and
p^2 > J, so it divides a q <= J at most once and no q <= J has two such
primes: q = p m with m <= J/p < p, and |H(q,x)|/q = [p does not divide x]/p
* h(m,x), h(m,x) = |H(m,x)|/m and h(1,x) = 1.  Summed over those q,

    S_J(x) = sum_{2 <= q <= J, P(q) <= B} h(q,x) + sum_{2 <= q <= J/(B+1)} c_q h(q,x)
             + c_1 - sum_{B < p <= J, p | x} (1 + S_{J//p}(x))/p,

with c_q = sum_{B < p <= J/q} 1/p.  S_J is evaluated on the window
[0, x_max] alone (the scan's reaches its last candidate): the first sum is
one running sum over q, shared by the J of a scan, which adds each period to
the window at once; the second adds fewer than sqrt(J) more periods, of
2q <= 2 sqrt(J) values each; the last touches only the multiples of the
primes p > B.  ``upper_bound_S`` bounds sup_x S_J(x) by a product over the
primes p <= J of the maxima of the per-prime sums of the factor tables.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import lru_cache

import numpy as np

from .arith import DomainError, factorize, jacobi_array, sqrt_count_vector
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


def _largest_prime_factors(n: int) -> np.ndarray:
    """P(k), the largest prime factor of k, for k in [0, n] (P(0) = 0 and
    P(1) = 1), as int64.  Each prime p <= isqrt(n), in increasing order,
    writes itself over its multiples; a k in (isqrt(n), n] left at 0 is then
    a prime p, and p is the largest factor of each m p <= n, as m < p."""
    P = np.zeros(max(n, 1) + 1, dtype=np.int64)
    root = math.isqrt(n)
    for p in range(2, root + 1):
        if not P[p]:
            P[p::p] = p
    large = np.flatnonzero(P[root + 1 :] == 0) + (root + 1)
    for m in range(1, n // (root + 1) + 1):
        ps = large[: np.searchsorted(large, n // m, side="right")]
        P[m * ps] = ps
    P[:2] = 0, 1
    return P


def _primes_between(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The primes p with 1 <= lo < p <= hi, read from the sieve P: the k
    with P(k) = k."""
    k = np.arange(lo + 1, hi + 1)
    return k[P[lo + 1 : hi + 1] == k]


class FactorTables(dict):
    """The tables _sqrt_count_step(p, k), keyed by (p, k), each built on its
    first lookup, and the sieve of largest prime factors up to the largest
    n asked for, from which the scan takes every prime and factorization:
    the working set of one scan, dropped with it."""

    _sieve = np.array([0, 1], dtype=np.int64)  # P(0) and P(1), until a scan grows it

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        self[key] = step = _sqrt_count_step(*key)
        return step

    def _sieve_to(self, n: int) -> np.ndarray:
        """P(k) for k in [0, n], read from the sieve of the largest n asked
        for."""
        if n >= len(self._sieve):
            self._sieve = _largest_prime_factors(n)
        return self._sieve[: n + 1]


def factor_table_entries(J: int) -> int:
    """How many entries the factor tables of the q <= J hold: 2^(k+1) for
    each 2^k <= J with k >= 1, and p^k for each odd p^k <= J with k >= 2."""
    entries = sum(2 ** (k + 1) for k in range(1, J.bit_length()))
    root = math.isqrt(J)
    for p in _primes_between(_largest_prime_factors(root), 2, root).tolist():
        pk = p * p
        while pk <= J:
            entries, pk = entries + pk, pk * p
    return entries


def _prime_powers(q: int, P: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (p, k) with p^k || q, p decreasing, by the walk down the sieve P
    of largest prime factors: p = P(m), then m divided by p while p
    divides it, from m = q until m = 1."""
    while q > 1:
        p, k = int(P[q]), 0
        while q % p == 0:
            q, k = q // p, k + 1
        yield p, k


def _abs_h_period(q: int, tables: FactorTables) -> np.ndarray:
    """|H(q, x)| for x in [0, 2q), as int64.  Each p^k || q multiplies in
    its factor table, whose length divides 2q, as a row of the period
    reshaped to that length; for odd p with k = 1 the factor |(-x/p)| is
    0 on the multiples of p and 1 elsewhere, so those are zeroed and no
    table is read."""
    out = np.full(2 * q, int(q > 1), dtype=np.int64)
    for p, k in _prime_powers(q, tables._sieve_to(q)):
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
    H(1,x) = 0); refuses q < 1 before it allocates."""
    if q < 1:
        raise DomainError(f"abs_h_on_points: q={q} must be positive")
    return _abs_h_period(q, FactorTables())[np.asarray(xs, dtype=np.int64) % (2 * q)]


_ADVERSARIAL_COUNT = 4000
# the 4000th 61-smooth number
_ADVERSARIAL_REACH = 16450


def _adversarial_candidates(J: int, tables: FactorTables) -> np.ndarray:
    """0 and the _ADVERSARIAL_COUNT smallest x in [1, min(J^2,
    _ADVERSARIAL_REACH)] whose prime factors are all at most
    min(max(J, 2), 61), as int64, read from the scan's sieve in tables,
    grown to min(J^2, max(J, _ADVERSARIAL_REACH)): no further than the
    candidates reach or the scan needs.  Many q have H(q,x) != 0 at such
    x.  The cap drops none: for J <= 128, J^2 < 16450, and above, the
    candidates are the 4000 smallest 61-smooth numbers, the last 16450.
    A window [0, x_max] with x_max >= 16450 holds every one."""
    P = tables._sieve_to(min(J * J, max(J, _ADVERSARIAL_REACH)))
    smooth = np.flatnonzero(P[1:] <= min(max(J, 2), 61))[:_ADVERSARIAL_COUNT]
    return np.concatenate([[0], smooth + 1])


def _smooth_bound(J: int) -> int:
    """B_J = max(2, isqrt(J)): a prime p > B_J is odd and p^2 > J."""
    return max(2, math.isqrt(J))


def _add_period(S: np.ndarray, vals: np.ndarray) -> None:
    """Add the periodic vals[x mod len(vals)] to S on its window
    [0, len(S)), as an (m, len(vals)) view and a partial period."""
    n = len(S)
    P = min(len(vals), n)
    m = n // max(P, 1)
    periods = S[: m * P].reshape(m, P)
    periods += vals[:P]
    S[m * P :] += vals[: n - m * P]


# pairs (x, p) of the large-prime terms handled at once
_BLOCK = 1 << 12


def _large_prime_multiples(large: np.ndarray, x_max: int):
    """The pairs of a point x of the window [0, x_max] and a prime p of the
    increasing large that divides x, in blocks (xs, ip) of at most _BLOCK
    pairs: p = large[ip], and ip does not decrease in a block."""
    counts = x_max // large + 1  # the multiples 0, p, 2p, ... of p in the window
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(large) else 0
    for lo in range(0, total, _BLOCK):
        xs = np.arange(lo, min(lo + _BLOCK, total))
        ip = np.searchsorted(ends, xs, side="right")
        xs -= ends[ip]
        xs += counts[ip]  # the rank of x among the multiples of p
        xs *= large[ip]
        yield xs, ip


def _add_large_prime_terms(S: np.ndarray, J: int, P: np.ndarray, small: dict) -> None:
    """Add to S, which holds the terms of the B-smooth q <= J on the window
    [0, len(S)), those of the q = p*m <= J with a prime p > B = max(2, isqrt(J)):

        c_1 + sum_{2 <= m <= J/(B+1)} c_m h(m,x) - sum_{B < p <= J, p | x} (1 + S_{J//p}(x))/p

    with c_m = sum_{B < p <= J/m} 1/p, small[m] = h(m, .) on one period and
    the primes read from the sieve P."""
    B = _smooth_bound(J)
    large = _primes_between(P, B, J)
    if not len(large):
        return
    ms = range(2, J // (B + 1) + 1)
    # the large primes p <= J/m, whose terms read h(m), are the first reach[m - 2]
    reach = np.searchsorted(large, [J // m for m in ms], side="right").tolist()
    c = np.concatenate([[0.0], np.cumsum(1.0 / large)])
    for m, r in zip(ms, reach):
        if r:
            _add_period(S, c[r] * small[m])
    S += c[-1]
    for xs, ip in _large_prime_multiples(large, len(S) - 1):
        terms = np.ones(len(xs))
        for m, r in zip(ms, reach):
            k = int(np.searchsorted(ip, r))
            if not k:
                break
            terms[:k] += small[m][xs[:k] % (2 * m)]
        terms /= large[ip]
        np.subtract.at(S, xs, terms)


def accumulate_S(j_list: Sequence[int], x_max: int, tables: FactorTables) -> list[np.ndarray]:
    """S_J on the window [0, x_max] (empty for x_max = -1), for each J of
    the increasing j_list, in order.  The q <= J with P(q) <= B_J go into
    one running sum over q in the order of (e(q), q), e(q) = max(q, P(q)^2)
    (q when P(q) = 2) the least J with q <= J and P(q) <= B_J, so each J
    copies it at its own prefix and its S_J does not depend on the other J
    of the list.  P, every other prime and every factorization come from
    the sieve in tables.  Each such |H(q,.)|/q is built as one period of 2q
    values, from the factor tables in tables, each built once however many
    q read it, and added to the window.  The q with a prime factor p > B_J
    are added per J from the h(m) of the m <= J/(B_J + 1) and from the
    multiples of those p in the window (_add_large_prime_terms)."""
    S, out = np.zeros(x_max + 1), []
    j_max = max(j_list, default=0)
    P = tables._sieve_to(j_max)[2:]  # one sieve, up to max J
    q = np.arange(2, j_max + 1)
    enter = np.maximum(q, np.where(P == 2, 0, P * P))
    del P, q
    order = np.argsort(enter, kind="stable")  # q - 2, by (e(q), q)
    order = order[enter[order] <= j_max]
    enter, order = enter[order], order + 2
    m_max = max((J // (_smooth_bound(J) + 1) for J in j_list), default=0)
    small, done = {}, 0
    for J in j_list:
        stop = int(np.searchsorted(enter, J, side="right"))
        for k in order[done:stop].tolist():
            vals = _abs_h_period(k, tables) / k
            _add_period(S, vals)
            if k <= m_max:
                small[k] = vals
        done = stop
        part = S if J == j_list[-1] else S.copy()
        _add_large_prime_terms(part, J, tables._sieve_to(J), small)
        out.append(part)
    return out


def accumulate_S_bytes(j_list: Sequence[int], x_max: int) -> int:
    """Peak bytes of the arrays accumulate_S allocates with a fresh
    FactorTables, as traced: 8 a point of the window for S and a copy of S
    per J but the last; per q <= max J, 8 for the sieve, 16 for the periods
    of h(m) kept for the m <= max J/(isqrt(max J) + 1) and 8 for the large
    primes and the sums of their 1/p; 8 an entry of the factor tables;
    beside these, either the running sum's 104 per q <= max J (32 for the
    order of the q, 72 for the last q = max J = 2^K: its int64 period of 2q
    points beside either the build of the table of 2^K, first needed there,
    or the period's quotient by q), or the terms of the primes
    p > B_J, 56 a pair (x, p) of a block: at most _BLOCK pairs, and at most
    those of the window and the odd p > B_J, none for J <= 2."""
    j_max = max(j_list, default=0)
    need = 8 * (x_max + 1) * len(j_list) + 32 * j_max + 8 * factor_table_entries(j_max)
    odd = (np.arange(_smooth_bound(J) + 1 | 1, J + 1, 2) for J in j_list)
    pairs = max((int(np.sum(x_max // p + 1)) for p in odd), default=0)
    return need + max(104 * j_max, 56 * min(_BLOCK, pairs))


def upper_bound_S(J: int, tables: FactorTables) -> float:
    """U_J = prod_{p <= J} max_x F_p(x) - 1 with F_p = sum_{k >= 0, p^k <= J}
    t_{p,k}/p^k, t_{p,k} the factor table of p^k and t_{p,0} = 1.  Expanded,
    the product of the F_p(x) holds |H(q,x)|/q for every q <= J among
    nonnegative terms, and 1 for q = 1 where H(1,x) = 0, so
    U_J >= sup_x S_J(x).  A p > sqrt(J) divides a q <= J at most once, so
    its F_p is 1 + t_{p,1}/p, of maximum 1 + 1/p (t_{p,1} = |(-x/p)| for
    odd p, and t_{2,1} = 1); the F_p of the primes p <= sqrt(J) are built on
    one period from the tables, and the primes come from their sieve."""
    P, root = tables._sieve_to(J), math.isqrt(J)
    bound = 1.0
    for p in _primes_between(P, 1, root).tolist():
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
    for p in _primes_between(P, root, J).tolist():
        bound *= 1 + 1 / p
    return bound - 1
