"""Brute-force oracles shared across the test modules.

Everything here recomputes quantities from definitions (repeated division,
exhaustive powering, element enumeration) so the library implementations
have something independent to be checked against.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from iwalambda.characters import VirtualChar, all_abs_chars
from iwalambda.cohomology import FiniteGammaModule, _mat_mul
from iwalambda.groups import FiniteAbelianGroup, Subgroup
from iwalambda.iwasawa import FitParameters, LevelOrderTable
from iwalambda.splitting import decomposition_data


# (ell, conductor, subgroup generators) of the fields the seeded property
# tests sample: |Delta| from 4 to 80, two values of ell, one proper H
PROPERTY_FIELDS = ((3, 15, ()), (3, 33, ()), (3, 15, (4,)), (5, 35, ()), (3, 165, ()))


def _chains(prefix=(), order=1, max_order=24, max_rank=3):
    """Every divisibility chain extending prefix within the order and rank caps."""
    yield prefix
    if len(prefix) == max_rank:
        return
    d = prefix[-1] if prefix else 2
    while order * d <= max_order:
        yield from _chains(prefix + (d,), order * d, max_order, max_rank)
        d += prefix[-1] if prefix else 1


# invariant factors d_1 | d_2 | ... of every finite abelian group of rank
# <= 3 and order <= 24 (36 chains, the trivial group included)
CHAINS = list(_chains())


def valuation_by_division(x: int, ell: int) -> int:
    x = abs(x)
    k = 0
    while x % ell == 0:
        x //= ell
        k += 1
    return k


def order_by_powering(a: int, m: int) -> int:
    cur = a % m
    k = 1
    while cur != 1:
        cur = cur * a % m
        k += 1
    return k


def det_by_cofactors(M: list[list[int]]) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det_by_cofactors(minor)
    return total


def determinantal_divisors(M: list[list[int]]) -> list[int]:
    """[D_1, ..., D_k], k = min(rows, cols): D_i is the gcd of all i x i
    minors of M (0 when they all vanish), each minor by cofactors."""
    r, c = len(M), len(M[0])
    out = []
    for i in range(1, min(r, c) + 1):
        g = 0
        for rows in itertools.combinations(range(r), i):
            for cols in itertools.combinations(range(c), i):
                g = math.gcd(g, det_by_cofactors([[M[a][b] for b in cols] for a in rows]))
        out.append(g)
    return out


def primes_below(n: int) -> list[int]:
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    return [i for i, b in enumerate(sieve) if b]


def unit_order_census(m: int) -> dict[int, int]:
    """Multiset (order -> count) of element orders of (Z/m)*, by powering."""
    out: dict[int, int] = {}
    for a in range(1, m):
        if math.gcd(a, m) == 1:
            k = order_by_powering(a, m)
            out[k] = out.get(k, 0) + 1
    return out


def group_order_census(G: FiniteAbelianGroup) -> dict[int, int]:
    out: dict[int, int] = {}
    for g in G.elements():
        k = g.order()
        out[k] = out.get(k, 0) + 1
    return out


def induce_trivial_by_scan(delta: FiniteAbelianGroup, D: Subgroup) -> VirtualChar:
    """Every character of Delta that vanishes on every element of D, each once."""
    return VirtualChar(delta, {chi: 1 for chi in all_abs_chars(delta) if chi.is_trivial_on(D.elements)})


def contains_mu_ell_by_scan(field) -> bool:
    """K contains the ell-th roots of unity iff every h in H is 1 mod ell."""
    return all(field.units.residue_of(h) % field.ell == 1 for h in field.subgroup)


def s_phi_by_scan(field, S, phi) -> tuple[int, ...]:
    """The primes of S, ascending, at which phi's representative vanishes
    on every element of the decomposition subgroup."""
    return tuple(
        p for p in sorted(S) if phi.rep.is_trivial_on(decomposition_data(field, p).decomposition.elements)
    )


def tate_by_enumeration(M: FiniteGammaModule) -> tuple[int, int]:
    """(|H^0-hat|, |H^1|) by listing kernels and images elementwise."""
    mod = M.module
    N = M.norm_matrix()
    S1 = M.sigma_minus_one()

    def apply(F, g):
        return mod.element(
            sum(F[i][j] * g.coords[j] for j in range(mod.rank)) for i in range(mod.rank)
        )

    els = list(mod.elements())
    ker_norm = sum(1 for g in els if apply(N, g).is_identity)
    ker_sigma = sum(1 for g in els if apply(S1, g).is_identity)
    im_norm = len({apply(N, g).coords for g in els})
    im_sigma = len({apply(S1, g).coords for g in els})
    return ker_sigma // im_norm, ker_norm // im_sigma


def random_gamma_module(rng: random.Random, max_order: int = 64) -> FiniteGammaModule:
    """Random finite module with a cyclic action of order 2, 3, or 4.

    Built from diagonal units of the right multiplicative order, then
    conjugated by random lattice-preserving elementary matrices, so
    sigma^n = 1 holds by construction.
    """
    while True:
        n_actor = rng.choice([2, 3, 4])
        factors = [rng.choice([2, 3, 4, 5])]
        while rng.random() < 0.5 and len(factors) < 3:
            nxt = factors[-1] * rng.choice([1, 2, 3])
            if math.prod(factors) * nxt > max_order:
                break
            factors.append(nxt)
        if math.prod(factors) > max_order:
            continue
        G = FiniteAbelianGroup(tuple(factors))
        k, d = G.rank, G.invariant_factors
        sig = [[0] * k for _ in range(k)]
        units_ok = True
        for i in range(k):
            us = [
                u
                for u in range(1, d[i])
                if math.gcd(u, d[i]) == 1 and pow(u, n_actor, d[i]) == 1
            ]
            if not us:
                units_ok = False
                break
            sig[i][i] = rng.choice(us)
        if not units_ok:
            continue
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            c = rng.randrange(0, d[i])
            if (c * d[j]) % d[i] != 0:
                continue
            E = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
            Einv = [row[:] for row in E]
            E[i][j] = c
            Einv[i][j] = -c
            sig = _mat_mul(_mat_mul(E, sig), Einv)
        try:
            return FiniteGammaModule(G, tuple(tuple(r) for r in sig), n_actor)
        except ValueError:
            continue


def fit_window_by_elimination(table: LevelOrderTable, ell: int) -> list[Fraction] | None:
    """(rho, mu, lambda, nu) over Q from the last four levels of the table,
    by Gauss-Jordan elimination on Fractions; None if the system is singular."""
    window = table.levels()[-4:]
    A = [[Fraction(n * ell**n), Fraction(ell**n), Fraction(n), Fraction(1)] for n in window]
    b = [Fraction(table.entries[n]) for n in window]
    for col in range(4):
        piv = next((i for i in range(col, 4) if A[i][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        b[col] *= inv
        for i in range(4):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
                b[i] -= f * b[col]
    return b


def fit_parameters_by_elimination(table: LevelOrderTable, ell: int) -> FitParameters | None:
    """fit_parameters' contract on the rational solution of the window:
    integral, rho, mu, lambda >= 0, and the level before the window (if
    any) reproduced; None otherwise."""
    if len(table.levels()) < 4:
        raise ValueError("table must contain at least 4 consecutive levels")
    sol = fit_window_by_elimination(table, ell)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    rho, mu, lam, nu = (int(x) for x in sol)
    if rho < 0 or mu < 0 or lam < 0:
        return None
    fitted = FitParameters(rho, mu, lam, nu)
    prev = table.levels()[-4] - 1
    if prev in table.entries and fitted.predict(ell, prev) != table.entries[prev]:
        return None
    return fitted
