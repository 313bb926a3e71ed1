"""Brute-force oracles shared across the test modules.

Everything here recomputes quantities from definitions (repeated division,
exhaustive powering, element enumeration) so the library implementations
have something independent to be checked against.
"""

from __future__ import annotations

import itertools
import math
import random

from iwalambda.characters import VirtualChar, all_abs_chars
from iwalambda.cohomology import FiniteGammaModule, _mat_mul
from iwalambda.groups import FiniteAbelianGroup, Subgroup
from iwalambda.splitting import decomposition_data


# (ell, conductor, subgroup generators) of the fields the seeded property
# tests sample: |Delta| from 4 to 80, two values of ell, one proper H
PROPERTY_FIELDS = ((3, 15, ()), (3, 33, ()), (3, 15, (4,)), (5, 35, ()), (3, 165, ()))


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
