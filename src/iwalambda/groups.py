"""Finite abelian groups in invariant-factor form.

A group is a chain (d_1 | d_2 | ... | d_k) with d_i >= 2; the empty chain
is the trivial group.  Elements are coordinate vectors.  The module also
builds (Z/m)* with a two-way residue/dlog bridge, subgroups with their own
invariant-factor presentations, and quotients with explicit projection and
section maps (both via Smith reduction of the relation lattice).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import FieldError, ScaleError
from .exact import _snf_with_transform, crt, factorize

UNIT_GROUP_MODULUS_CAP = 10**5


@dataclass(frozen=True)
class FiniteAbelianGroup:
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.invariant_factors
        if any(x < 2 for x in d):
            raise ValueError("invariant factors must be >= 2")
        if any(d[i + 1] % d[i] != 0 for i in range(len(d) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords) -> "GroupElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError("coordinate length does not match the group rank")
        coords = tuple(c % d for c, d in zip(coords, self.invariant_factors))
        return GroupElement(self, coords)

    def elements(self):
        """All elements, lexicographic by coordinates (the canonical order)."""
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, coords)

    def element_order(self, g: "GroupElement") -> int:
        n = 1
        for c, d in zip(g.coords, self.invariant_factors):
            n = n * (d // gcd(c, d)) // gcd(n, d // gcd(c, d))
        return n


@dataclass(frozen=True)
class GroupElement:
    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def _check(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.group.element(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        return self.group.element(-a for a in self.coords)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        return self.group.element(a * k for a in self.coords)

    __rmul__ = __mul__

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return self.group.element_order(self)


class Subgroup:
    """Subgroup with a canonical (lex-sorted) element enumeration."""

    def __init__(self, parent: FiniteAbelianGroup, generators, elements):
        self.parent = parent
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._members = frozenset(e.coords for e in self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g.group == self.parent and g.coords in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self._members == other._members
        )

    def __hash__(self) -> int:
        return hash((self.parent, self._members))

    def as_group(self):
        """Invariant-factor presentation of the subgroup.

        Returns (group, to_parent, from_parent): an abstract group, the
        embedding of its basis combinations into the parent, and the inverse
        lookup on the subgroup's elements.
        """
        if not hasattr(self, "_structure"):
            self._structure = _subgroup_structure(self)
        return self._structure

    def quotient(self) -> "Quotient":
        """parent/self with its projection, reduced on first use and kept."""
        if not hasattr(self, "_quotient"):
            self._quotient = quotient(self.parent, self)
        return self._quotient


def subgroup_generated(G: FiniteAbelianGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens, enumerated by closure."""
    gens = [g if isinstance(g, GroupElement) else G.element(g) for g in gens]
    for g in gens:
        if g.group != G:
            raise ValueError("generator does not belong to the group")
    seen = {G.identity().coords}
    frontier = [G.identity()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y.coords not in seen:
                seen.add(y.coords)
                frontier.append(y)
    elements = [GroupElement(G, c) for c in sorted(seen)]
    return Subgroup(G, gens, elements)


def trivial_subgroup(G: FiniteAbelianGroup) -> Subgroup:
    return subgroup_generated(G, [])


def full_subgroup(G: FiniteAbelianGroup) -> Subgroup:
    basis = [G.element([1 if j == i else 0 for j in range(G.rank)]) for i in range(G.rank)]
    return subgroup_generated(G, basis)


def all_subgroups(G: FiniteAbelianGroup) -> list[Subgroup]:
    """Every subgroup, found from generator sets up to the group rank."""
    out = {}
    pool = list(G.elements())
    out_key = lambda s: s._members
    triv = trivial_subgroup(G)
    out[out_key(triv)] = triv
    for size in range(1, max(G.rank, 1) + 1):
        for gens in itertools.combinations(pool, size):
            s = subgroup_generated(G, list(gens))
            out.setdefault(out_key(s), s)
    return sorted(out.values(), key=lambda s: (s.order, [e.coords for e in s.elements]))


def _matvec(M: list[list[int]], v) -> list[int]:
    return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]


def _subgroup_structure(H: Subgroup):
    G = H.parent
    k = G.rank
    if k == 0 or H.order == 1:
        T = FiniteAbelianGroup(())
        to_parent = lambda el: G.identity()
        from_parent = {G.identity().coords: T.identity()}
        return T, to_parent, from_parent

    # lattice L' spanned by the subgroup elements and the relation lattice diag(d)
    cols = [list(e.coords) for e in H.elements] + [
        [G.invariant_factors[i] if j == i else 0 for j in range(k)] for i in range(k)
    ]
    M = [[cols[j][i] for j in range(len(cols))] for i in range(k)]
    d1, U1, U1inv = _snf_with_transform(M)
    # basis of L': columns b_i = d1_i * U1^{-1} e_i, so B = U1^{-1} diag(d1)
    B = [[U1inv[r][i] * d1[i] for i in range(k)] for r in range(k)]
    # L = diag(d) expressed in the basis of L': C = B^{-1} D = diag(d1)^{-1} U1 D,
    # an exact division because L' contains the relation lattice L
    C = [[U1[i][j] * G.invariant_factors[j] for j in range(k)] for i in range(k)]
    for i in range(k):
        if any(x % d1[i] for x in C[i]):
            raise AssertionError("subgroup lattice does not contain the relations")
        C[i] = [x // d1[i] for x in C[i]]
    d2, U2, U2inv = _snf_with_transform(C)
    slots = [i for i, s in enumerate(d2) if s >= 2]
    T = FiniteAbelianGroup(tuple(d2[i] for i in slots))

    # abstract basis vector j -> lattice point B * U2^{-1} e_slot(j), reduced mod d
    gens_in_parent = []
    for i in slots:
        w = _matvec(B, [U2inv[r][i] for r in range(k)])
        gens_in_parent.append(G.element(w))

    def to_parent(el: GroupElement) -> GroupElement:
        x = G.identity()
        for c, g in zip(el.coords, gens_in_parent):
            x = x + c * g
        return x

    from_parent = {}
    for el in T.elements():
        from_parent[to_parent(el).coords] = el
    if len(from_parent) != H.order or set(from_parent) != H._members:
        raise AssertionError("subgroup presentation failed to biject")
    return T, to_parent, from_parent


@dataclass
class Quotient:
    """G/H in invariant-factor form with projection and an integral section."""

    source: FiniteAbelianGroup
    group: FiniteAbelianGroup
    _U: list[list[int]]
    _Uinv: list[list[int]]
    _divisors: list[int]
    _slots: list[int]

    def project(self, g: GroupElement) -> GroupElement:
        if g.group != self.source:
            raise ValueError("element not in the source group")
        y = _matvec(self._U, list(g.coords))
        return self.group.element(y[i] for i in self._slots)

    def section(self, q: GroupElement) -> GroupElement:
        """Any preimage of q under the projection."""
        if q.group != self.group:
            raise ValueError("element not in the quotient group")
        y = [0] * len(self._divisors)
        for c, i in zip(q.coords, self._slots):
            y[i] = c
        return self.source.element(_matvec(self._Uinv, y))


def quotient(G: FiniteAbelianGroup, H: Subgroup) -> Quotient:
    """G/H via Smith reduction of the relation lattice (H + diag d).

    Uses the full element list of H, so hand-built subgroups with stale
    generator data still quotient correctly.
    """
    if H.parent != G:
        raise ValueError("subgroup of a different group")
    k = G.rank
    if k == 0:
        T = FiniteAbelianGroup(())
        return Quotient(G, T, [], [], [], [])
    cols = [list(g.coords) for g in H.elements] + [
        [G.invariant_factors[i] if j == i else 0 for j in range(k)] for i in range(k)
    ]
    M = [[cols[j][i] for j in range(len(cols))] for i in range(k)]
    d, U, Uinv = _snf_with_transform(M)
    slots = [i for i, s in enumerate(d) if s >= 2]
    T = FiniteAbelianGroup(tuple(d[i] for i in slots))
    return Quotient(G, T, U, Uinv, d, slots)


# ---------------------------------------------------------------------------
# (Z/m)*

def _primitive_root(p: int) -> int:
    qs = list(factorize(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def _unit_gens_prime_power(p: int, a: int) -> list[tuple[int, int]]:
    """Generators (residue, order) of (Z/p^a)* as a product of cyclics."""
    q = p**a
    if q in (1, 2):
        return []
    if p == 2:
        if a == 2:
            return [(3, 2)]
        return [(q - 1, 2), (5, 2 ** (a - 2))]
    g = _primitive_root(p)
    if a > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % q, (p - 1) * p ** (a - 1))]


class UnitGroupModM:
    """(Z/m)* in invariant-factor form with mutually inverse residue/dlog maps.

    dlog never enumerates (Z/m)*: it reduces a residue mod each prime-power
    block p^a of m and reads the block's exponents from one power table (of
    the primitive root, or of 5 once the sign is split off when p = 2), so
    construction costs the sum of phi(p^a) rather than phi(m).
    """

    def __init__(self, m: int):
        if m < 2:
            raise FieldError("conductor must be at least 2")
        if m > UNIT_GROUP_MODULUS_CAP:
            raise ScaleError("conductor too large")
        self.m = m
        fact = sorted(factorize(m).items())
        gens: list[int] = []
        orders: list[int] = []
        # per block: (p^a, whether -1 is a separate generator, log table of
        # the block's last generator indexed by residue mod p^a)
        self._blocks: list[tuple[int, bool, list[int]]] = []
        for p, a in fact:
            q = p**a
            rest = m // q
            block = _unit_gens_prime_power(p, a)
            for g, o in block:
                gens.append(crt([g, 1], [q, rest]) if rest > 1 else g % m)
                orders.append(o)
            if block:
                g, o = block[-1]
                self._blocks.append((q, len(block) == 2, _power_table(g, o, q)))
        self._gens = gens
        self._orders = orders
        n = len(gens)
        if n == 0:
            self.group = FiniteAbelianGroup(())
            self._U = []
            self._Uinv = []
            self._slots = []
            self._divisors = []
        else:
            D = [[orders[i] if j == i else 0 for j in range(n)] for i in range(n)]
            d, self._U, self._Uinv = _snf_with_transform(D)
            self.group = FiniteAbelianGroup(tuple(s for s in d if s >= 2))
            self._slots = [i for i, s in enumerate(d) if s >= 2]
            self._divisors = d
        self._basis_residues = [
            self._residue_from_gen_coords([self._Uinv[r][i] for r in range(n)])
            for i in self._slots
        ]

    def _residue_from_gen_coords(self, x) -> int:
        r = 1
        for g, e, o in zip(self._gens, x, self._orders):
            r = r * pow(g, e % o, self.m) % self.m
        return r

    def residue_of(self, el: GroupElement) -> int:
        if el.group != self.group:
            raise ValueError("element not in this unit group")
        r = 1
        for b, c in zip(self._basis_residues, el.coords):
            r = r * pow(b, c, self.m) % self.m
        return r

    def dlog(self, a: int) -> GroupElement:
        a %= self.m
        if gcd(a, self.m) != 1:
            raise ValueError("not a unit")
        x: list[int] = []
        for q, has_sign, table in self._blocks:
            r = a % q
            if has_sign:  # r = (-1)^s 5^e mod 2^k, and 5^e = 1 mod 4
                s = 1 if r % 4 == 3 else 0
                x.append(s)
                if s:
                    r = q - r
            x.append(table[r])
        y = _matvec(self._U, x)
        return self.group.element(y[i] for i in self._slots)


def _power_table(g: int, order: int, q: int) -> list[int]:
    """table[g^e mod q] = e for 0 <= e < order; other entries are unused."""
    table = [0] * q
    r = 1
    for e in range(order):
        table[r] = e
        r = r * g % q
    return table


@lru_cache(maxsize=None)
def unit_group(m: int) -> UnitGroupModM:
    """The group (Z/m)*, cached: construction fills one power table per
    prime-power block of m."""
    return UnitGroupModM(m)
