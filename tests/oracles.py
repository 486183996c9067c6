"""Reference routes that only the tests use: the prime sieve, brute-force
square-root counts and their CRT assembly, the scalar Jacobi symbol and
the scalar closed forms of G and G0, the per-pair gauss-check rows,
the per-numerator H weights, the per-point hsum-identities rows, the
support sets and divisor enumeration of H(q,x), the smooth-number frontier
of the adversarial low-pass candidates, |H(q,x)| by per-factor gathers,
the bound U_J from every prime's tables, the low-pass sum S_J from FFT
tables, the Weyl multiplier from an int64 histogram, its arc
decomposition (the major arcs a_N, the minor arcs c_N, the narrow part
a_tilde and the splits b_N1, b_N2 of a_N) and the arc enumerator writing
every row, the multiplier route over dense half spectra and its rolled
form, the high/low split by two inverse transforms per J and by one
dense inverse transform of Low per J, the direct
shift average and the polynomial average by it, the maximal and
truncated maximal averages, and the sparse-domination comparison.

The library computes none of these; the tests check the library against
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sqlab.arith import DomainError, count_sqrts, factorize, is_prime, sqrt_count_vector
from sqlab.circle import ContractError, MultiplierGrid, arc_level_grid, eta, gamma_N, sample_multiplier, split_half_spectrum
from sqlab.gauss import gauss_G0_vector, gauss_G_closed_array, gauss_G_vector
from sqlab.hsums import FactorTables, _abs_h_period, _sqrt_count_step, h_sum, h_vector
from sqlab.operators import IntervalZ, Signal, _split_grid_len, _weyl_part, average_squares, polynomial_shifts
from sqlab.sparse import STOPPING_CONSTANT, StoppingTime, sparse_decompose, sparse_form, violation_table

# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    """The primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def count_sqrts_bruteforce(x: int, q: int) -> int:
    """#{l in [0,q) : l*l = x (mod q)} by exhaustive enumeration (the oracle)."""
    if q < 1:
        raise DomainError(f"count_sqrts_bruteforce: q={q} must be positive")
    x %= q
    return sum(1 for ell in range(q) if ell * ell % q == x)


def sqrt_count_vector_crt(q: int) -> np.ndarray:
    """arith.sqrt_count_vector by the former route: one enumerated table per
    prime power p^k || q, combined by CRT indexing."""
    x = np.arange(q, dtype=np.int64)
    out = np.ones(q, dtype=np.int64)
    for p, k in factorize(q).factors:
        pk = p**k
        out *= sqrt_count_vector(pk)[x % pk]
    return out


def is_qr(x: int, p: int) -> bool:
    """Whether a unit x is a quadratic residue mod the odd prime p."""
    if x % p == 0:
        raise DomainError("is_qr expects a unit")
    return pow(x % p, (p - 1) // 2, p) == 1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"jacobi: n={n} must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def epsilon(m: int) -> complex:
    """The fourth-root unit: 1 for m = 1 (mod 4), i for m = 3 (mod 4)."""
    if m % 2 == 0:
        raise DomainError(f"epsilon: m={m} must be odd")
    return 1.0 + 0.0j if m % 4 == 1 else 1.0j


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_G_closed(a: int, q: int) -> complex:
    """Closed form for G(a,q); a is reduced mod q and non-coprime (a,q)
    reduced first."""
    if q < 1:
        raise DomainError(f"gauss_G_closed: q={q} must be positive")
    a %= q  # G(a,q) depends on a mod q only
    g = math.gcd(a, q)
    a, q = a // g, q // g  # gcd(0, q) = q, so a = 0 lands on G(0,1) = 1
    if q % 4 == 2:
        return 0.0 + 0.0j
    if q % 2 == 1:
        return epsilon(q) * jacobi(a, q) / math.sqrt(q)
    # a odd, 4 | q
    return (1 + 1j) / epsilon(a) * jacobi(q, a) / math.sqrt(q)


def gauss_G0_scalar(a: int, q: int) -> complex:
    """G0(a,q) = G(a,2q) by the scalar closed form, for any int a: the
    per-point ingredient of the tests' oracles, which one array call per
    point would slow down."""
    if q < 1:
        raise DomainError(f"gauss_G0_scalar: q={q} must be positive")
    return gauss_G_closed(a, 2 * q)


def gauss_check_rows(q_max: int) -> list[list]:
    """The gauss-check rows [q, max_err_G, max_err_G0, max_err_norm] by one
    scalar closed-form call per (a, q)."""
    rows = []
    for q in range(1, q_max + 1):
        vec = gauss_G_vector(q)
        vec0 = gauss_G0_vector(q)
        err_g = max(abs(gauss_G_closed(a, q) - vec[a % q]) for a in range(2 * q))
        err_g0 = max(abs(gauss_G_closed(a, 2 * q) - vec0[a % (2 * q)]) for a in range(2 * q))
        err_norm = 0.0
        for a in range(1, 2 * q):
            if math.gcd(a, q) != 1:
                continue
            expected = 0.0 if (a * q) % 2 == 1 else q**-0.5
            err_norm = max(err_norm, abs(abs(gauss_G0_scalar(a, q)) - expected))
        rows.append([q, err_g, err_g0, err_norm])
    return rows


# ---------------------------------------------------------------------------
# weights of the H family
# ---------------------------------------------------------------------------


def h_weights_loop(kind: str, q: int) -> np.ndarray:
    """hsums.h_weights by one pass over the numerators a, with an explicit
    gcd test in place of the library's masks."""
    if kind == "H0":
        return gauss_G_vector(q)
    if kind in ("H", "H1"):
        # H: a in [1, 2q-1] on G0; H1: a in [1, q] on G, where a = q
        # contributes only when q = 1
        P, g = (2 * q, gauss_G0_vector(q)) if kind == "H" else (q, gauss_G_vector(q))
        w = np.zeros(P, dtype=np.complex128)
        for a in range(1, 2 * q) if kind == "H" else range(1, q + 1):
            if math.gcd(a, q) == 1:
                w[a % P] += g[a % P]
        return w
    qp = factorize(q).odd_part
    w = np.zeros(2 * q, dtype=np.complex128)
    scale = 1.0 / math.sqrt(q)
    for a in range(1, 2 * q):
        wanted = kind == "Htilde" or a % 8 == int(kind[2:])
        if wanted and math.gcd(a, qp) == 1:
            w[a] = scale * jacobi(a, qp)
    return w


def hsum_identity_rows(q_max: int) -> list[list]:
    """The hsum-identities rows [identity, cases, max_err] by one scalar
    h_sum call per point and identity."""
    rows = []
    # H = H1 for odd q >= 3, and H0(q,x) = r_q(-x)
    err, n = 0.0, 0
    for q in range(3, q_max + 1, 2):
        for x in range(2 * q):
            err = max(err, abs(h_sum("H", q, x) - h_sum("H1", q, x)))
            n += 1
    rows.append(["H_eq_H1_odd_q", n, err])
    err, n = 0.0, 0
    for q in range(1, q_max + 1):
        for x in range(q):
            err = max(err, abs(h_sum("H0", q, x) - count_sqrts(-x % q, q)))
            n += 1
    rows.append(["H0_eq_sqrt_count", n, err])

    # multiplicativity |H1(q1 q2, x)| = |H1(q1,x)||H1(q2,x)|, coprime q1,q2
    err, n = 0.0, 0
    for q1 in range(2, 16):
        for q2 in range(2, 16):
            if math.gcd(q1, q2) != 1 or q1 * q2 > q_max:
                continue
            for x in range(q1 * q2):
                lhs = abs(h_sum("H1", q1 * q2, x))
                rhs = abs(h_sum("H1", q1, x)) * abs(h_sum("H1", q2, x))
                err = max(err, abs(lhs - rhs))
                n += 1
    rows.append(["H1_multiplicative", n, err])

    # H1(p^k, x) = r_{p^k}(-x) - r_{p^{k-1}}(-x) for odd primes
    err, n = 0.0, 0
    for p in (3, 5, 7, 11, 13):
        for k in range(1, 5):
            q = p**k
            if q > 4 * q_max:
                continue
            for x in range(q):
                lhs = h_sum("H1", q, x)
                rhs = count_sqrts(-x % q, q) - count_sqrts(-x % (q // p), q // p)
                err = max(err, abs(lhs - rhs))
                n += 1
    rows.append(["H1_prime_power_difference", n, err])

    # periodicity and quarter/half-period twists of the residue pieces
    err_p, err_h, err_q4, n = 0.0, 0.0, 0.0, 0
    for q in range(2, q_max + 1, 2):
        b = factorize(q).two_exponent
        for x in range(0, 2 * q, 3):
            for j in (1, 3, 5, 7):
                kind = f"Hj{j}"
                base = h_sum(kind, q, x)
                err_p = max(err_p, abs(h_sum(kind, q, x + q) + base))
                if b >= 1:
                    tw = np.exp(2j * np.pi * j / 4)
                    err_h = max(err_h, abs(h_sum(kind, q, x + q // 2) - tw * base))
                if b >= 2:
                    tw = np.exp(2j * np.pi * j / 8)
                    err_q4 = max(err_q4, abs(h_sum(kind, q, x + q // 4) - tw * base))
                n += 1
    rows.append(["Hodd_antiperiodic", n, err_p])
    rows.append(["Hodd_halfshift_twist", n, err_h])
    rows.append(["Hodd_quartershift_twist", n, err_q4])

    # shifting identities combining the twists with the Jacobi-weighted sum
    err1, err4, err8, n = 0.0, 0.0, 0.0, 0
    for q in range(2, q_max + 1, 2):
        b = factorize(q).two_exponent
        qp = factorize(q).odd_part
        for x in range(0, 2 * q, 3):
            Ht = {l: h_sum("Htilde", q, x + l * q // 4) for l in range(0, 8)}
            hj = {j: h_sum(f"Hj{j}", q, x) for j in (1, 3, 5, 7)}
            lhs = hj[1] + hj[3] + hj[5] + hj[7]
            err1 = max(err1, abs(lhs - (Ht[0] - Ht[4]) / 2))
            if b >= 1:
                even = (Ht[0] - Ht[4]) / 4
                odd = (Ht[2] - Ht[6]) / 4j
                err4 = max(err4, abs(hj[1] + hj[5] - (even + odd)))
                err4 = max(err4, abs(hj[3] + hj[7] - (even - odd)))
            if b >= 2 and b % 2 == 0:
                d1 = (Ht[1] - Ht[5]) / 4
                d3 = (Ht[3] - Ht[7]) / 4j
                e1 = np.exp(-2j * np.pi / 8)
                e3 = np.exp(-2j * np.pi * 3 / 8)
                err8 = max(err8, abs(hj[1] - hj[5] - e1 * (d1 + d3)))
                err8 = max(err8, abs(hj[3] - hj[7] - e3 * (d1 - d3)))
            # reconstruction of H from the residue pieces
            sgn = (-1) ** ((qp - 1) // 2)
            e18, e38, e58, e78 = (np.exp(2j * np.pi * t / 8) for t in (1, 3, 5, 7))
            recon = (
                e18 * hj[1]
                + (-1) ** b * sgn * e38 * hj[3]
                + (-1) ** b * e58 * hj[5]
                + sgn * e78 * hj[7]
            )
            err1 = max(err1, abs(recon - h_sum("H", q, x)))
            n += 1
    rows.append(["Hsum_fullshift", n, err1])
    rows.append(["Hsum_halfshift", n, err4])
    rows.append(["Hsum_quartershift_even_b", n, err8])
    return rows


# ---------------------------------------------------------------------------
# support of H(q, .)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HSupportVerdict:
    in_support: bool
    bound: float


def _odd_prime_conditions(odd_factors, x: int) -> bool:
    """The per-prime membership test shared by all three support sets."""
    x = abs(x)
    for p, k in odd_factors:
        pk = p**k
        if k % 2 == 0 and x % pk == 0:
            continue
        if x % (pk // p) == 0 and x % pk != 0:
            continue
        return False
    return True


def support_verdict(q: int, x: int, flavor: str = "plain") -> HSupportVerdict:
    """Membership of x in the support set for H(q,.) (plain) or Htilde(q,.)
    (tilde), with the associated upper bound on the modulus."""
    if q < 1:
        raise DomainError(f"support_verdict: q={q} must be positive")
    fac = factorize(q)
    b = fac.two_exponent
    odd = tuple((p, k) for p, k in fac.factors if p != 2)
    odd_bound = 1
    for p, k in odd:
        odd_bound *= p ** (k // 2)
    if flavor == "plain":
        if b == 0:
            ok = _odd_prime_conditions(odd, x)
            bound = float(odd_bound)
        else:
            ok = x % (1 << max(b - 2, 0)) == 0 and _odd_prime_conditions(odd, x)
            bound = 2.0 ** (b / 2) * odd_bound
    elif flavor == "tilde":
        ok = x % (1 << (b + 1)) == 0 and _odd_prime_conditions(odd, x)
        bound = 2.0 ** (b / 2 + 1) * odd_bound
    else:
        raise DomainError(f"support_verdict: unknown flavor {flavor!r}")
    return HSupportVerdict(ok, bound if ok else 0.0)


@dataclass(frozen=True)
class DivisorSet:
    """All q in [1,J] at which H(q,x) can be nonzero."""

    x: int
    J: int
    members: tuple[int, ...]


def divisor_set(x: int, J: int) -> DivisorSet:
    """Enumerate the admissible-exponent pattern of moduli for fixed x."""
    if J < 1:
        raise DomainError(f"divisor_set: J={J} must be positive")
    primes = primes_upto(J)
    odd_primes = [p for p in primes if p != 2]
    members: set[int] = set()

    if x == 0:
        # q = 2^b * (odd square), with the odd square itself at most J
        odd_sq = [1]
        for p in odd_primes:
            extra = []
            for s in odd_sq:
                v = s * p * p
                while v <= J:
                    extra.append(v)
                    v *= p * p
            odd_sq.extend(extra)
        for s in odd_sq:
            q = s
            while q <= J:
                members.add(q)
                q *= 2
        return DivisorSet(0, J, tuple(sorted(members)))

    ax = abs(x)
    a = 0
    while ax % 2 == 0:
        ax //= 2
        a += 1
    x_odd = []
    for p, ell in factorize(ax).factors:
        x_odd.append((p, ell))
    fresh = [p for p in odd_primes if all(p != pj for pj, _ in x_odd)]

    # admissible odd-prime-power cores: even exponents <= ell, or ell + 1
    cores = [1]
    for p, ell in x_odd:
        choices = [p**k for k in range(0, ell + 1, 2)] + [p ** (ell + 1)]
        cores = [c * pw for c in cores for pw in choices if c * pw <= J]
    # squarefree products of fresh primes, capped by J
    def extend(core: int, idx: int):
        for b in range(a + 3):
            q = core << b
            if q > J:
                break
            members.add(q)
        for i in range(idx, len(fresh)):
            nxt = core * fresh[i]
            if nxt > J:
                break
            extend(nxt, i + 1)

    for c in cores:
        extend(c, 0)
    return DivisorSet(x, J, tuple(sorted(members)))


def adversarial_candidates_frontier(J: int) -> list[int]:
    """hsums._adversarial_candidates by the former route: the smooth numbers
    x <= J^2 over the primes <= min(max(J, 2), 64), grown one prime at a
    time as a sorted frontier cut to 16000 entries, then 0 and the 4000
    smallest."""
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
        frontier = sorted(set(frontier))[:16000]
    out.update(frontier[:4000])
    return sorted(out)


def abs_h_on_points_gather(q: int, xs: np.ndarray) -> np.ndarray:
    """hsums.abs_h_on_points by the former route: each prime power of q
    rebuilds its factor table, which is read at xs mod its length."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.full(len(xs), int(q > 1), dtype=np.int64)
    for p, k in factorize(q).factors:
        step = _sqrt_count_step(p, k)
        out *= step[xs % len(step)]
    return out


def upper_bound_S_tables(J: int) -> float:
    """hsums.upper_bound_S with every F_p, the large primes' too, built on
    one period from freshly enumerated factor tables."""
    bound = 1.0
    for p in primes_upto(J):
        ks = [k for k in range(1, J.bit_length()) if p**k <= J]
        F = np.ones(2 * p ** ks[-1] if p == 2 else p ** ks[-1])
        for k in ks:
            step = _sqrt_count_step(p, k)
            F += np.tile(step, len(F) // len(step)) / p**k
        bound *= float(F.max())
    return bound - 1


def accumulate_S_running(j_list, x_max: int) -> list[np.ndarray]:
    """hsums.accumulate_S by the former route: one running sum over every
    q <= max J, each |H(q,.)|/q built as one period of 2q values and added
    to the window [0, x_max] as an (m, 2q) view plus a partial period."""
    tables = FactorTables()
    n = x_max + 1
    S, out = np.zeros(n), []
    for prev, J in zip([0, *j_list], j_list):
        for q in range(prev + 1, J + 1):
            vals = _abs_h_period(q, tables) / q
            P = min(2 * q, n)
            m = n // max(P, 1)
            periods = S[: m * P].reshape(m, P)
            periods += vals[:P]
            S[m * P :] += vals[: n - m * P]
        out.append(S if J == j_list[-1] else S.copy())
    return out


def accumulate_S_fft(j_list, xs: np.ndarray) -> list[np.ndarray]:
    """hsums.accumulate_S by the former route: |H(q, x)| read point by
    point from the FFT table h_vector("H", q), one running sum over q."""
    S, out = np.zeros(len(xs)), []
    for prev, J in zip([0, *j_list], j_list):
        for q in range(prev + 1, J + 1):
            S += np.abs(h_vector("H", q)[np.mod(xs, 2 * q)]) / q
        out.append(S if J == j_list[-1] else S.copy())
    return out


# ---------------------------------------------------------------------------
# multiplier pieces
# ---------------------------------------------------------------------------


def weyl_half_int64(N: int, L: int) -> np.ndarray:
    """Bins 0..L//2 of the Weyl multiplier by circle._weyl_half's former
    route: conj(rfft)/N of the int64 histogram of k^2 mod L, which the
    rfft converts to float64."""
    k = np.arange(1, N + 1, dtype=np.int64)
    c = (k % L) * (k % L) % L
    return np.conjugate(np.fft.rfft(np.bincount(c, minlength=L))) / N


def multiplier_piece(which: str, N: int, M: int | None, J: int | None, L: int) -> MultiplierGrid:
    """One piece of the arc decomposition of the Weyl multiplier on the
    grid j/L, from the library's weyl and b_N1 grids and its single arc
    levels: a_N(M) sums the levels s <= log2 M and c_N = weyl - a_N;
    a_tilde = b_N1(J, J); b_N2 with M = J and b_N1 with M != J are both
    a_N(J) - b_N1(J, J); b_N2 with M != J sums the levels log2 J < s <= log2 M."""

    def levels(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(L, dtype=np.complex128)
        for s in range(lo, hi + 1):
            out += arc_level_grid(N, s, L)
        return out

    if which == "weyl" or (which == "b_N1" and M == J):
        return sample_multiplier(which, N, M, J, L)
    m = M.bit_length() - 1
    if which == "a_N":
        return MultiplierGrid(L, levels(1, m))
    if which == "c_N":
        return MultiplierGrid(L, sample_multiplier("weyl", N, None, None, L).values - levels(1, m))
    s0 = J.bit_length() - 1
    if which == "b_N2" and M != J:
        return MultiplierGrid(L, levels(s0 + 1, m))
    narrow = sample_multiplier("b_N1", N, J, J, L).values
    if which == "a_tilde":
        return MultiplierGrid(L, narrow)
    if which in ("b_N1", "b_N2"):
        return MultiplierGrid(L, levels(1, s0) - narrow)
    raise DomainError(f"multiplier_piece: unknown piece {which!r}")


def low_kernel_series(N: int, J: int, xs: np.ndarray) -> np.ndarray:
    """The kernel K_J of b_N1 on Z at the points xs by its series in the H
    sums, K_J(x) = phi_1(x) + sum_{2 <= q < J} H(q,x) phi_q(x), with

        phi_q(x) = (1/2) int eta(q N^2 theta/J) gamma_N(theta) e(x theta/2) dtheta

    over the bump's support |theta| < J/(2 q N^2), by composite
    Gauss-Legendre quadrature (64 panels of 32 nodes).  phi_1 is the arc
    a = 0 of q = 1, G0(0,1) = 1, which h_weights drops; H(q,x) is read from
    h_vector("H", q)."""
    xs = np.asarray(xs, dtype=np.int64)
    t, w = np.polynomial.legendre.leggauss(32)

    def phi(q: int) -> np.ndarray:
        edges = np.linspace(-1.0, 1.0, 65) * (J / (2 * q * N * N))
        half = np.diff(edges)[:, None] / 2
        theta = (half * t + (edges[:-1, None] + half)).ravel()
        weights = (half * w).ravel() * eta(q * N * N * theta / J) * gamma_N(theta, N)
        return 0.5 * (np.exp(1j * np.pi * np.outer(xs, theta)) @ weights)

    total = phi(1)
    for q in range(2, J):
        total += h_vector("H", q)[xs % (2 * q)] * phi(q)
    return total


def accumulate_arcs_all_rows(out: np.ndarray, N: int, s: int, L: int, width_scale: float | None) -> None:
    """The arc enumerator writing every row, the zero-weight rows of odd q
    included: for even L eta and gamma_N run on the rows a <= q/2, and each
    row adds to its bins and its mirror row q - a to the mirrored bins."""
    h = L // 2
    even = L % 2 == 0
    for q in range(1 << (s - 1), 1 << s):
        a = np.flatnonzero(np.gcd(np.arange(q + 1), q) == 1)  # a[-1 - i] = q - a[i]
        g0 = gauss_G_closed_array(a, 2 * q)
        rows = a[: (len(a) + 1) // 2] if even else a
        scale = float(1 << (2 * s)) if width_scale is None else width_scale * q
        half_width = 0.5 / scale
        radius = int(math.floor(half_width * L / 2.0)) + 1
        j = (rows * L // (2 * q))[:, None] + np.arange(-radius, radius + 1)
        th = (2 * q * j - rows[:, None] * L) / (q * L)
        mask = (np.abs(th) < half_width) & (j >= 0) & (j <= h)
        if even and q == 2:
            mask &= 2 * j <= h
        if mask.any():
            i = mask.nonzero()[0]
            jm, thm = j[mask], th[mask]
            w = eta(scale * thm)
            gam = gamma_N(thm, N)
            out[jm] += g0[i] * w * gam
            if even:
                m = 2 * jm < h if q == 2 else slice(None)
                out[h - jm[m]] += g0[-1 - i[m]] * w[m] * np.conjugate(gam[m])


# ---------------------------------------------------------------------------
# averages, maximal averages and sparse domination
# ---------------------------------------------------------------------------


def apply_multipliers(f: Signal, L: int, spectra):
    """operators.apply_multiplier for each half spectrum (bins 0..L/2 of a
    grid of length L), one output at a time, all from one rfft of f's
    block, taken at the first next(), whose odd bins change sign once:
    (-1)^j moves each output by L/2, onto its window, with no roll (the
    library's route before the high/low split took b_N1 by its support).
    f's spectrum is taken once the first half spectrum is made, and each
    one is dropped before its inverse transform."""
    if L < 2 * len(f.samples):
        raise ContractError(f"apply_multiplier: grid L={L} too small for signal length {len(f)}")
    xhat = None
    for h in spectra:
        if xhat is None:
            xhat = np.fft.rfft(f.samples, L)
            xhat[1::2] *= -1
        y = xhat * h
        del h
        y = np.fft.irfft(y, L)
        yield Signal(f.offset - L // 2, y)
        del y


def apply_multipliers_rolled(f: Signal, L: int, spectra) -> list[Signal]:
    """apply_multipliers by its former route: one rfft of f's
    block zero-padded to L, one irfft per half spectrum, and each output
    rolled by L/2 onto the window from f.offset - L/2."""
    xhat = np.fft.rfft(f.samples, L)
    return [Signal(f.offset - L // 2, np.roll(np.fft.irfft(xhat * h, L), L // 2)) for h in spectra]


def high_low_split_two_transforms(f: Signal, N: int, j_list) -> list[tuple[int, Signal, Signal]]:
    """operators.high_low_split by its former route: for each J that
    splits, one inverse transform of the kernel weyl - b_N1 for High and
    one of b_N1 for Low, all from one spectrum of f; (J, 0, A_N f) for
    J >= N/4."""
    cut, L = max(1, N // 4), _split_grid_len(N, len(f.samples))
    weyl = split_half_spectrum("weyl", N, None, L)
    out, af = [], None
    for J in j_list:
        if J < cut:
            low = split_half_spectrum("b_N1", N, J, L)
            high, low = apply_multipliers(f, L, [weyl - low, low])
            out.append((J, high, low))
        else:
            af = average_squares(f, N) if af is None else af
            out.append((J, Signal(af.offset, np.zeros(len(af.samples))), af))
    return out


def high_low_split_dense(f: Signal, N: int, j_list) -> list[tuple[int, Signal, Signal]]:
    """operators.high_low_split by its former Low route: W and f's products
    with b_N1 from _weyl_part, then for each J that splits a zeroed half
    spectrum with its products put in, one irfft of length L cut to A_N f's
    window, and High = W - Low; (J, 0, A_N f) for J >= N/4."""
    cut, L, a = max(1, N // 4), _split_grid_len(N, len(f.samples)), f.offset - N * N
    js = dict.fromkeys(J for J in j_list if J < cut)
    w, picks = _weyl_part(f, N, js, L) if js else (None, {})
    out, af = [], None
    for J in j_list:
        if J >= cut:
            af = average_squares(f, N) if af is None else af
            out.append((J, Signal(a, np.zeros(len(af.samples))), af))
            continue
        low = np.zeros(L // 2 + 1, dtype=np.complex128)
        low[picks[J][0]] = picks[J][1]
        low = np.fft.irfft(low, L)[L // 2 - N * N : L // 2 + len(f.samples)]
        out.append((J, Signal(a, w - low), Signal(a, low)))
    return out


def average_shifts_direct(f: Signal, shifts: np.ndarray) -> Signal:
    """(1/m) sum_{s in shifts} f(x + s) by m shifted adds, on the window
    of operators._shift_averager (the former polynomial-average loop)."""
    lo, hi = int(shifts.min()), int(shifts.max())
    n = len(f.samples)
    acc = np.zeros(n + hi - lo + 1)
    for sh in shifts:
        i = hi - int(sh)
        acc[i : i + n] += f.samples
    return Signal(f.offset - hi, acc / len(shifts))


def average_polynomial(f: Signal, N: int, coeffs) -> Signal:
    """(1/N) sum_{k=1}^N f(x + P(k)) by average_shifts_direct over the
    shifts polynomial_shifts(coeffs, N) (the library's former entry point;
    poly-average now builds one averager per N for all its trials)."""
    return average_shifts_direct(f, polynomial_shifts(coeffs, N))


def block(f: Signal) -> IntervalZ:
    """The interval f's sample block covers."""
    return IntervalZ(f.offset, f.offset + len(f) - 1)


def triple(I: IntervalZ) -> IntervalZ:
    """3I: one copy of I glued on each side of 2I's span, i.e. the
    concentric enlargement used by the stopping-time averages."""
    return IntervalZ(2 * I.a - I.b - 1, 2 * I.b - I.a + 1)


def maximal_average(f: Signal, N_max: int, dyadic: bool = True) -> Signal:
    """sup over N of A_N |f|, with N ranging over powers of two up to N_max
    (dyadic=True) or over all 1 <= N <= N_max."""
    if N_max < 1:
        raise DomainError(f"maximal_average: N_max={N_max} must be positive")
    g = Signal(f.offset, np.abs(f.samples))
    if dyadic:
        Ns = [1 << s for s in range(N_max.bit_length()) if (1 << s) <= N_max]
    else:
        Ns = list(range(1, N_max + 1))
    out_off = f.offset - N_max * N_max
    best = np.zeros(len(g.samples) + N_max * N_max)
    for N in Ns:
        a = average_squares(g, N)
        i = a.offset - out_off
        best[i : i + len(a.samples)] = np.maximum(best[i : i + len(a.samples)], a.samples)
    return Signal(out_off, best)


def truncated_maximal(f: Signal, tau: StoppingTime) -> np.ndarray:
    """sup_{N <= tau(x)} A_N |f| (x) for x in tau's base interval, N over
    powers of two."""
    E = tau.E
    tv = tau.values
    n_max = int(tv.max()) if len(tv) else 1
    g = Signal(f.offset, np.abs(np.asarray(f.samples)))
    out = np.zeros(len(E))
    N = 1
    while N <= n_max:
        a = average_squares(g, N)
        vals = a.on(E)
        mask = tv >= N
        out[mask] = np.maximum(out[mask], vals[mask])
        N *= 2
    return out


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
    coll = sparse_decompose(violation_table(f, E, C))
    af = average_squares(Signal(f.offset, np.abs(np.asarray(f.samples))), N)
    pairing = float(np.dot(af.on(E), np.abs(g.on(E))))
    lam = sparse_form(coll, f, g, r, s)
    return pairing, lam, pairing / lam if lam > 0 else math.inf
