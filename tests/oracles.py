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

from iwalambda.characters import LadicChar, VirtualChar, all_abs_chars, parity_of_value
from iwalambda.cohomology import FiniteGammaModule
from iwalambda.errors import FieldError, ScaleError
from iwalambda.exact import euler_phi, smith_normal_form
from iwalambda.groups import FiniteAbelianGroup, GroupElement, Subgroup, subgroup_generated
from iwalambda.iwasawa import FitParameters, LevelOrderTable
from iwalambda.splitting import decomposition_data


# (ell, conductor, subgroup generators) of the fields the seeded property
# tests sample: |Delta| from 4 to 80, two values of ell, one proper H, and
# one conductor 4 mod 8, where (Z/4)* is a single generator of order 2
PROPERTY_FIELDS = ((3, 15, ()), (3, 33, ()), (3, 15, (4,)), (5, 35, ()), (3, 165, ()), (3, 60, ()))


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


def closure(G: FiniteAbelianGroup, gens) -> frozenset[tuple[int, ...]]:
    """Coordinates of every element of the subgroup gens generate, by
    adding generators to the elements found until nothing new appears."""
    gens = [GroupElement(G, g.coords if hasattr(g, "coords") else g) for g in gens]
    seen = {G.identity().coords}
    frontier = [G.identity()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y.coords not in seen:
                seen.add(y.coords)
                frontier.append(y)
    return frozenset(seen)


def generator_sets(G: FiniteAbelianGroup):
    """Every set of at most rank(G) elements (at least the empty set and
    the singletons): together they generate every subgroup of G."""
    pool = list(G.elements())
    for size in range(max(G.rank, 1) + 1):
        yield from itertools.combinations(pool, size)


def all_subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup, told apart by closure, sorted by order and then by
    the sorted element coordinates."""
    found = {}
    for gens in generator_sets(G):
        found.setdefault(closure(G, gens), gens)
    return [subgroup_generated(G, found[key]) for key in sorted(found, key=lambda c: (len(c), sorted(c)))]


def induce_trivial_by_scan(delta: FiniteAbelianGroup, D: Subgroup) -> VirtualChar:
    """Every character of Delta that vanishes on every element of D, each once."""
    return VirtualChar(delta, {chi: 1 for chi in all_abs_chars(delta) if chi.is_trivial_on(D.elements)})


def all_ladic_chars_by_walk(delta: FiniteAbelianGroup, ell: int, tau_bar) -> list[LadicChar]:
    """The ell-adic irreducibles by walking chi, chi^ell, chi^(ell^2), ...
    as character products into a set, from each character not yet seen in
    lexicographic order; every member's parity is read from its value at
    tau_bar, and an orbit that mixes parities is an error."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for chi in all_abs_chars(delta):
        if chi.coeffs in seen:
            continue
        orbit = {chi}
        cur = chi.frobenius(ell)
        while cur not in orbit:
            orbit.add(cur)
            cur = cur.frobenius(ell)
        members = tuple(sorted(orbit, key=lambda c: c.coeffs))
        parities = {parity_of_value(m.value_at(tau_bar), delta.exponent) for m in members}
        if len(parities) != 1:
            raise FieldError("orbit mixes parities; tau_bar is not an involution")
        seen.update(m.coeffs for m in members)
        out.append(LadicChar(delta, ell, members, parities.pop()))
    return out


def mirror_by_products(chi, omega):
    """omega * chi^{-1}, as a product of two characters."""
    return omega * chi.inverse()


def contains_mu_ell_by_scan(field) -> bool:
    """K contains the ell-th roots of unity iff every h in H is 1 mod ell;
    H is listed as the residues mod m that products of its generators reach."""
    m = field.conductor
    H, frontier = {1 % m}, [1 % m]
    while frontier:
        x = frontier.pop()
        for h in field.subgroup_gens:
            if (y := x * h % m) not in H:
                H.add(y)
                frontier.append(y)
    return all(h % field.ell == 1 for h in H)


def s_phi_by_scan(field, S, phi) -> tuple[int, ...]:
    """The primes of S, ascending, at which phi's representative vanishes
    on every element of the decomposition subgroup."""
    return tuple(
        p for p in sorted(S) if phi.rep.is_trivial_on(decomposition_data(field, p).decomposition.elements)
    )


# the largest phi(m) decomposition_by_scan maps through Delta one unit at a
# time; the fields it is tested on have phi(m) <= 80
SCAN_PHI_CAP = 10**4


def decomposition_by_scan(field, p: int) -> tuple[frozenset, frozenset]:
    """(D_p, I_p) as sets of elements of Delta, by scanning every unit mod m.

    With m = p^a * m' (p not dividing m'), I_p is the image of the units
    congruent to 1 mod m', and D_p the image of the units whose residue
    mod m' lies in <p mod m'>.  ScaleError, before any unit is scanned,
    when phi(m) exceeds SCAN_PHI_CAP.
    """
    m = m_prime = field.conductor
    if euler_phi(m) > SCAN_PHI_CAP:
        raise ScaleError(f"oracle scale exceeded: phi({m}) > {SCAN_PHI_CAP}")
    while m_prime % p == 0:
        m_prime //= p
    powers, x = set(), 1 % m_prime
    while x not in powers:
        powers.add(x)
        x = x * p % m_prime
    decomposition, inertia = set(), set()
    for u in range(1, m):
        if math.gcd(u, m) != 1 or u % m_prime not in powers:
            continue
        g = field.delta_element(u)
        decomposition.add(g)
        if u % m_prime == 1 % m_prime:
            inertia.add(g)
    return frozenset(decomposition), frozenset(inertia)


def norm_by_iterates(M: FiniteGammaModule, g):
    """N g = g + sigma g + ... + sigma^(n-1) g, each iterate through M.apply."""
    total, x = M.module.identity(), g
    for _ in range(M.order_n):
        total, x = total + x, M.apply(x)
    return total


def tate_by_enumeration(M: FiniteGammaModule) -> tuple[int, int]:
    """(|H^0-hat|, |H^1|) by listing kernels and images elementwise; the
    norm is summed over the iterates of sigma, never read from a matrix."""
    els = list(M.module.elements())
    norms = [norm_by_iterates(M, g) for g in els]
    diffs = [M.apply(g) - g for g in els]
    ker_norm = sum(1 for x in norms if x.is_identity)
    ker_sigma = sum(1 for x in diffs if x.is_identity)
    im_norm = len({x.coords for x in norms})
    im_sigma = len({x.coords for x in diffs})
    return ker_sigma // im_norm, ker_norm // im_sigma


def mat_mul(a, b) -> list[list[int]]:
    k = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


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
            sig = mat_mul(mat_mul(E, sig), Einv)
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


def _mod_monic(a: list[int], f: tuple[int, ...]) -> list[int]:
    """a mod f by schoolbook long division (f monic, ascending coefficients)."""
    a, k = list(a), len(f) - 1
    for top in range(len(a) - 1, k - 1, -1):
        c = a[top]
        for j in range(k + 1):
            a[top - k + j] -= c * f[j]
    return (a + [0] * k)[:k]


def mult_matrix_by_division(f: tuple[int, ...], ell: int, n: int, q: int) -> list[list[int]]:
    """Entry (i, j) is the T^i coefficient of T^j * f mod omega_n, mod q:
    each column by its own long division by the monic omega_n over Z, with
    no multiply-by-T step and nothing shared with the library build."""
    d = ell**n
    omega = tuple(math.comb(d, k) if k else 0 for k in range(d + 1))
    cols = [_mod_monic([0] * j + list(f), omega) for j in range(d)]
    return [[col[i] % q for col in cols] for i in range(d)]


def poly_level_valuation_weierstrass(f: tuple[int, ...], ell: int, n: int, cap: int) -> int:
    """log_ell |Z[T]/(f, omega_n, ell^cap)| with the quotient by f taken
    first: the Smith form of multiplication by omega_n mod f on Z[T]/(f),
    a deg f x deg f matrix, stacked with ell^cap times the basis.  Shares
    no code with the omega_n-side matrix build."""
    k, d = len(f) - 1, ell**n
    omega = _mod_monic([math.comb(d, j) if j else 0 for j in range(d + 1)], f)
    cols = [_mod_monic([0] * j + omega, f) for j in range(k)]  # omega * T^j mod f
    rows = [[col[i] for col in cols] + [ell**cap if c == i else 0 for c in range(k)] for i in range(k)]
    return sum(valuation_by_division(x, ell) for x in smith_normal_form(rows))
