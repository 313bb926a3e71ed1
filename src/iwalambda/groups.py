"""Finite abelian groups in invariant-factor form.

A group is a chain (d_1 | d_2 | ... | d_k) with d_i >= 2; the empty chain
is the trivial group.  Elements are coordinate vectors.  The module also
builds (Z/m)* with a two-way residue/dlog bridge, subgroups with their own
invariant-factor presentations, and quotients with explicit projection and
section maps.  A subgroup H of G is the lattice spanned by its generators
and G's relations, kept as that lattice's Hermite normal form B, so its cost
follows the rank of G and not |H|: its order is |G| over the product of B's
pivots, and g is in H when back-substitution against B divides exactly.
Quotient is the one place a relation lattice is Smith reduced and the one
reader of the Smith data: G/H, (Z/m)* as Z^n modulo the generator orders,
and a subgroup's presentation (G's relations written in the basis B).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod

from .errors import FieldError, IwalambdaError, ScaleError
from .exact import (
    Record, _hermite_coordinates, _snf_with_transform, crt, diagonal_matrix, factorize, hermite_normal_form,
    identity_matrix, require_ints, transpose,
)

UNIT_GROUP_MODULUS_CAP = 10**5


class FiniteAbelianGroup(Record):
    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        d = tuple(invariant_factors)
        require_ints(IwalambdaError, "invariant factor", *d)
        if any(x < 2 for x in d):
            raise IwalambdaError("invariant factors must be >= 2")
        if any(d[i + 1] % d[i] != 0 for i in range(len(d) - 1)):
            raise IwalambdaError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", d)

    # this class and AbsChar compare and hash on the reflection path (per
    # reflection_check on the seed-1 reflection_sweep: about 203 hashes and
    # 112 comparisons of a group, 203 hashes and 26 comparisons of an
    # AbsChar), so they spell out Record's equality and hash in one frame
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.invariant_factors == other.invariant_factors
        return NotImplemented

    def __hash__(self):
        return hash((self.invariant_factors,))

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def basis(self) -> list["GroupElement"]:
        """The unit coordinate vectors, one generator of order d_i each."""
        return [GroupElement(self, tuple(row)) for row in identity_matrix(self.rank)]

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


class GroupElement(Record):
    __slots__ = ("group", "coords")

    def __init__(self, group: FiniteAbelianGroup, coords: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)

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
        n = 1
        for c, d in zip(self.coords, self.group.invariant_factors):
            n = n * (d // gcd(c, d)) // gcd(n, d // gcd(c, d))
        return n


class Subgroup:
    """The subgroup of parent that generators generate, kept as the Hermite
    normal form hnf of the lattice their coordinates span with diag(d), so
    equal subgroups have equal forms.  Order, membership and as_group read
    hnf alone and build no quotient; elements lists the subgroup only when
    asked."""

    def __init__(self, parent: FiniteAbelianGroup, generators):
        gens = tuple(g if isinstance(g, GroupElement) else parent.element(g) for g in generators)
        if any(g.group != parent for g in gens):
            raise ValueError("generator does not belong to the group")
        self.parent = parent
        self.generators = gens
        self.hnf = hermite_normal_form([g.coords for g in gens] + diagonal_matrix(parent.invariant_factors))

    @property
    def order(self) -> int:
        return self.parent.order // prod(b[i] for i, b in enumerate(self.hnf))

    def __contains__(self, g: GroupElement) -> bool:
        return g.group == self.parent and _hermite_coordinates(self.hnf, g.coords) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and (self.parent, self.hnf) == (other.parent, other.hnf)

    def __hash__(self) -> int:
        return hash((self.parent, self.hnf))

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every element, sorted by coordinates, from the presentation; never kept."""
        T, to_parent, _ = self.as_group()
        return tuple(sorted((to_parent(t) for t in T.elements()), key=lambda g: g.coords))

    def as_group(self):
        """Invariant-factor presentation (group, to_parent, from_parent): an
        abstract group, its embedding into the parent, and the inverse map,
        which raises ValueError off the subgroup."""
        if not hasattr(self, "_structure"):
            self._structure = _subgroup_structure(self)
        return self._structure

    def quotient(self) -> "Quotient":
        """parent/self with its projection, reduced on first use and kept."""
        if not hasattr(self, "_quotient"):
            self._quotient = quotient(self.parent, self)
        return self._quotient


def subgroup_generated(G: FiniteAbelianGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens (elements or coordinate vectors)."""
    return Subgroup(G, gens)


def _subgroup_structure(H: Subgroup):
    G, B = H.parent, H.hnf
    # H = L/diag(d)Z^k for the lattice L with basis B: in B's coordinates it
    # is Z^k modulo the relations d_i e_i, each written by back-substitution
    C = [_hermite_coordinates(B, row) for row in diagonal_matrix(G.invariant_factors)]
    if None in C:
        raise AssertionError("subgroup lattice does not contain the relations")
    P = Quotient(C)

    def to_parent(el: GroupElement) -> GroupElement:
        y = P.lift(el)
        return G.element(sum(c * x for c, x in zip(y, col)) for col in zip(*B))

    def from_parent(g: GroupElement) -> GroupElement:
        y = _hermite_coordinates(B, g.coords) if g.group == G else None
        if y is None:
            raise ValueError("element not in the subgroup")
        return P.image(y)

    return P.group, to_parent, from_parent


class Quotient:
    """Z^k / L in invariant-factor form, L spanned by the given columns.

    One Smith reduction gives (d, U, U^-1): row i of U reads the class of a
    vector in Z/d_i, and the columns of U^-1 at the slots with d_i >= 2 lift
    the quotient's basis back to Z^k.  For G/H the source is G and the
    columns are the Hermite basis of H's lattice; a presentation of a group
    with no source ((Z/m)* over its generators, or a subgroup in its Hermite
    basis) uses image and lift.
    """

    def __init__(self, columns, source: FiniteAbelianGroup | None = None):
        self.source = source
        self._d, self._U, self._Uinv = _snf_with_transform(transpose(columns))
        self._slots = [i for i, s in enumerate(self._d) if s >= 2]
        self.group = FiniteAbelianGroup(self._d[i] for i in self._slots)

    def image(self, x) -> GroupElement:
        """The class of the integer vector x."""
        return self.group.element(sum(u * c for u, c in zip(self._U[i], x)) for i in self._slots)

    def lift(self, q: GroupElement) -> list[int]:
        """An integer vector in the class q."""
        if q.group != self.group:
            raise ValueError("element not in the quotient group")
        return [sum(row[i] * c for i, c in zip(self._slots, q.coords)) for row in self._Uinv]

    def project(self, g: GroupElement) -> GroupElement:
        if g.group != self.source:
            raise ValueError("element not in the source group")
        return self.image(g.coords)

    def section(self, q: GroupElement) -> GroupElement:
        """Any preimage of q under the projection."""
        return self.source.element(self.lift(q))


def quotient(G: FiniteAbelianGroup, H: Subgroup) -> Quotient:
    """G/H via Smith reduction of the Hermite basis of H's lattice."""
    if H.parent != G:
        raise ValueError("subgroup of a different group")
    return Quotient(H.hnf, G)


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
        # per prime p | m: the block's generators lifted to 1 mod m/p^a, which
        # generate the units = 1 mod m/p^a, the inertia group at p
        self.local_gens: dict[int, tuple[int, ...]] = {}
        # per block: (p^a, whether -1 is a separate generator, log table of
        # the block's last generator indexed by residue mod p^a)
        self._blocks: list[tuple[int, bool, list[int]]] = []
        for p, a in fact:
            q = p**a
            rest = m // q
            block = _unit_gens_prime_power(p, a)
            self.local_gens[p] = tuple(crt([g, 1], [q, rest]) for g, _ in block)
            gens.extend(self.local_gens[p])
            orders.extend(o for _, o in block)
            if block:
                g, o = block[-1]
                self._blocks.append((q, len(block) == 2, _power_table(g, o, q)))
        self._gens = gens
        self._orders = orders
        # Z^n over the generators, modulo their orders
        self._presentation = Quotient(diagonal_matrix(orders))
        self.group = self._presentation.group

    def residue_of(self, el: GroupElement) -> int:
        if el.group != self.group:
            raise ValueError("element not in this unit group")
        r = 1
        for g, e, o in zip(self._gens, self._presentation.lift(el), self._orders):
            r = r * pow(g, e % o, self.m) % self.m
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
        return self._presentation.image(x)


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
