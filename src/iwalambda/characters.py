"""Character algebra of a finite abelian group Delta, ell-adically.

Characters take values in Z/e (exponents of a fixed primitive e-th root
of unity, e the group exponent); equality is decidable and nothing is
ever rounded.  An ell-adic irreducible is an orbit of absolutely
irreducible characters under chi -> chi^ell; virtual characters are
integer combinations of absolute characters, Frobenius-stable whenever
they come from the operations here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import FieldError
from .exact import Record
from .fields import FieldSpec
from .groups import FiniteAbelianGroup, GroupElement, Subgroup

REAL = "real"
IMAGINARY = "imaginary"


class AbsChar(Record):
    """Absolutely irreducible character, as a coefficient vector.

    value_at(g) = sum_i coeffs[i] * g[i] * (e / d_i) in Z/e, which makes
    the map coeffs -> character an isomorphism from the group to its dual.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteAbelianGroup, coeffs: tuple[int, ...]):
        d = group.invariant_factors
        if len(coeffs) != len(d) or any(not 0 <= c < di for c, di in zip(coeffs, d)):
            raise ValueError("character coefficients out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    # explicit one-frame equality and hash, as for GroupElement
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coeffs) == (other.group, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coeffs))

    def value_at(self, g: GroupElement) -> int:
        if g.group != self.group:
            raise ValueError("element of a different group")
        e = self.group.exponent
        return sum(c * x * (e // d) for c, x, d in zip(self.coeffs, g.coords, self.group.invariant_factors)) % e

    def __mul__(self, other: "AbsChar") -> "AbsChar":
        if other.group != self.group:
            raise ValueError("characters of different groups")
        d = self.group.invariant_factors
        return AbsChar(self.group, tuple((a + b) % di for a, b, di in zip(self.coeffs, other.coeffs, d)))

    def inverse(self) -> "AbsChar":
        d = self.group.invariant_factors
        return AbsChar(self.group, tuple((-a) % di for a, di in zip(self.coeffs, d)))

    def frobenius(self, ell: int) -> "AbsChar":
        d = self.group.invariant_factors
        return AbsChar(self.group, tuple((a * ell) % di for a, di in zip(self.coeffs, d)))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_trivial_on(self, elements) -> bool:
        return all(self.value_at(g) == 0 for g in elements)


def trivial_char(G: FiniteAbelianGroup) -> AbsChar:
    return AbsChar(G, (0,) * G.rank)


def all_abs_chars(G: FiniteAbelianGroup) -> list[AbsChar]:
    """The dual group, lexicographic by coefficient vector."""
    return [AbsChar(G, c) for c in itertools.product(*(range(d) for d in G.invariant_factors))]


def parity_of_value(val: int, exponent: int) -> str:
    if val == 0:
        return REAL
    if 2 * val % exponent == 0:
        return IMAGINARY
    raise FieldError("conjugation value is not +-1; tau_bar is not an involution")


class LadicChar(Record):
    """Frobenius orbit of absolute characters: one simple Z_ell[Delta] factor."""

    __slots__ = ("group", "ell", "orbit", "parity")

    def __init__(self, group: FiniteAbelianGroup, ell: int, orbit: tuple[AbsChar, ...],
                 parity: str | None = None):
        self._set_fields(group, ell, orbit, parity)

    @property
    def rep(self) -> AbsChar:
        return self.orbit[0]

    @property
    def degree(self) -> int:
        return len(self.orbit)

    @classmethod
    def from_abs(cls, chi: AbsChar, ell: int, tau_bar: GroupElement | None = None) -> "LadicChar":
        orbit = {chi}
        cur = chi.frobenius(ell)
        while cur not in orbit:
            orbit.add(cur)
            cur = cur.frobenius(ell)
        members = tuple(sorted(orbit, key=lambda c: c.coeffs))
        parity = None
        if tau_bar is not None:
            e = chi.group.exponent
            vals = {parity_of_value(m.value_at(tau_bar), e) for m in members}
            if len(vals) != 1:
                raise FieldError("orbit mixes parities; tau_bar is not an involution")
            parity = vals.pop()
        return cls(chi.group, ell, members, parity)


def all_ladic_chars(delta: FiniteAbelianGroup, ell: int, tau_bar: GroupElement) -> list[LadicChar]:
    """All ell-adic irreducibles of Delta, sorted by canonical representative.

    Requires gcd(ell, |Delta|) = 1 and an involutive tau_bar; then the
    orbits partition the dual group and degrees sum to |Delta|.
    """
    if delta.order % ell == 0:
        raise FieldError("ell divides group order")
    if not (tau_bar + tau_bar).is_identity:
        raise FieldError("tau_bar must square to the identity")
    seen: set[tuple[int, ...]] = set()
    out = []
    for chi in all_abs_chars(delta):
        if chi.coeffs in seen:
            continue
        phi = LadicChar.from_abs(chi, ell, tau_bar)
        seen.update(m.coeffs for m in phi.orbit)
        out.append(phi)
    return out


class VirtualChar:
    """Finitely supported integer combination of absolute characters."""

    __slots__ = ("group", "_m")

    def __init__(self, group: FiniteAbelianGroup, mults: dict[AbsChar, int] | None = None):
        self.group = group
        self._m = {chi: int(k) for chi, k in (mults or {}).items() if k != 0}
        for chi in self._m:
            if chi.group != group:
                raise ValueError("character of a different group")

    # construction helpers
    @classmethod
    def zero(cls, group: FiniteAbelianGroup) -> "VirtualChar":
        return cls(group, {})

    @classmethod
    def one(cls, group: FiniteAbelianGroup) -> "VirtualChar":
        return cls(group, {trivial_char(group): 1})

    @classmethod
    def from_abs(cls, chi: AbsChar, mult: int = 1) -> "VirtualChar":
        return cls(chi.group, {chi: mult})

    @classmethod
    def from_ladic(cls, phi: LadicChar, mult: int = 1) -> "VirtualChar":
        return cls(phi.group, {chi: mult for chi in phi.orbit})

    # inspection
    def multiplicity(self, chi: AbsChar) -> int:
        return self._m.get(chi, 0)

    def support(self) -> list[AbsChar]:
        return sorted(self._m, key=lambda c: c.coeffs)

    def items(self):
        return [(chi, self._m[chi]) for chi in self.support()]

    @property
    def is_zero(self) -> bool:
        return not self._m

    def total_multiplicity(self) -> int:
        return sum(self._m.values())

    def is_frobenius_stable(self, ell: int) -> bool:
        return all(self._m.get(chi.frobenius(ell), 0) == k for chi, k in self._m.items())

    def is_nonnegative(self) -> bool:
        return all(k >= 0 for k in self._m.values())

    # algebra
    def _check(self, other: "VirtualChar") -> None:
        if self.group != other.group:
            raise ValueError("virtual characters on different groups")

    def __add__(self, other: "VirtualChar") -> "VirtualChar":
        self._check(other)
        m = dict(self._m)
        for chi, k in other._m.items():
            m[chi] = m.get(chi, 0) + k
        return VirtualChar(self.group, m)

    def __neg__(self) -> "VirtualChar":
        return VirtualChar(self.group, {chi: -k for chi, k in self._m.items()})

    def __sub__(self, other: "VirtualChar") -> "VirtualChar":
        return self + (-other)

    def __rmul__(self, k: int) -> "VirtualChar":
        return VirtualChar(self.group, {chi: k * v for chi, v in self._m.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualChar) and self.group == other.group and self._m == other._m

    def __hash__(self):
        raise TypeError("VirtualChar is not hashable")

    def __repr__(self) -> str:
        if not self._m:
            return "VirtualChar(0)"
        parts = [f"{k}*chi{chi.coeffs}" for chi, k in self.items()]
        return "VirtualChar(" + " + ".join(parts) + ")"


def inner_product(a: VirtualChar, b: VirtualChar) -> int:
    """Sum over absolute characters of the multiplicity products.

    For an ell-adic irreducible phi (sum of an orbit) this gives
    <phi, phi> = deg phi.
    """
    if a.group != b.group:
        raise ValueError("virtual characters on different groups")
    small, big = (a._m, b._m) if len(a._m) <= len(b._m) else (b._m, a._m)
    return sum(k * big.get(chi, 0) for chi, k in small.items())


def induce_trivial(delta: FiniteAbelianGroup, D: Subgroup) -> VirtualChar:
    """Induction of the trivial character of D: the sum of all characters
    of Delta that are trivial on D, each once.

    These are the pull-backs psi o pi of the characters psi of Q = Delta/D
    through the projection pi, so the work is [Delta:D] characters, not a
    test of all |Delta| characters on all |D| elements; D keeps Q after the
    first call.  psi(pi e_i) lies in Z/e_Q and becomes c_i * (e / d_i) in Z/e.
    """
    if D.parent != delta:
        raise ValueError("subgroup of a different group")
    Q = D.quotient()
    e = delta.exponent
    lift = e // Q.group.exponent
    images = [
        Q.project(delta.element([1 if j == i else 0 for j in range(delta.rank)]))
        for i in range(delta.rank)
    ]
    mults = {}
    for psi in all_abs_chars(Q.group):
        coeffs = []
        for g, d in zip(images, delta.invariant_factors):
            v = psi.value_at(g) * lift
            step = e // d
            if v % step != 0:
                raise AssertionError("pulled-back value has too large an order")
            coeffs.append(v // step)
        mults[AbsChar(delta, tuple(coeffs))] = 1
    return VirtualChar(delta, mults)


def contragredient(x: VirtualChar) -> VirtualChar:
    """chi -> chi(sigma^{-1}): negate every coefficient vector."""
    return VirtualChar(x.group, {chi.inverse(): k for chi, k in x._m.items()})


def restrict(x: VirtualChar, D: Subgroup) -> VirtualChar:
    """Restriction of homomorphisms to a subgroup, in the subgroup's own
    invariant-factor presentation; coinciding restrictions add up."""
    S, to_parent, _ = D.as_group()
    e_par = x.group.exponent
    e_sub = S.exponent
    basis = [
        to_parent(S.element([1 if j == i else 0 for j in range(S.rank)]))
        for i in range(S.rank)
    ]
    acc: dict[AbsChar, int] = {}
    for chi, k in x._m.items():
        coeffs = []
        for i, d in enumerate(S.invariant_factors):
            v = chi.value_at(basis[i])
            num = v * e_sub
            if num % e_par != 0:
                raise AssertionError("restricted value is not an e_sub-th root")
            w = (num // e_par) % e_sub
            step = e_sub // d
            if w % step != 0:
                raise AssertionError("restricted value has too large an order")
            coeffs.append((w // step) % d)
        target = AbsChar(S, tuple(coeffs))
        acc[target] = acc.get(target, 0) + k
    return VirtualChar(S, acc)


def parity_split(x: VirtualChar, tau_bar: GroupElement) -> tuple[VirtualChar, VirtualChar]:
    """x = x_real + x_imaginary, split by the value at complex conjugation."""
    if tau_bar.group != x.group:
        raise ValueError("tau_bar lives in a different group")
    if not (tau_bar + tau_bar).is_identity:
        raise FieldError("tau_bar must square to the identity")
    e = x.group.exponent
    real: dict[AbsChar, int] = {}
    imag: dict[AbsChar, int] = {}
    for chi, k in x._m.items():
        bucket = real if parity_of_value(chi.value_at(tau_bar), e) == REAL else imag
        bucket[chi] = k
    return VirtualChar(x.group, real), VirtualChar(x.group, imag)


# ---------------------------------------------------------------------------
# Teichmueller character and the mirror involution

@lru_cache(maxsize=None)
def _least_primitive_root(ell: int) -> int:
    from .groups import _primitive_root

    return _primitive_root(ell)


@lru_cache(maxsize=None)
def teichmuller(field: FieldSpec) -> LadicChar:
    """The character through which Delta acts on the ell-th roots of unity.

    sigma_a acts by a mod ell; the exponent encoding pins the discrete log
    base to the least primitive root mod ell, which fixes one canonical
    coefficient vector (all downstream identities are independent of that
    choice).  Requires mu_ell inside K.
    """
    if not field.contains_mu_ell:
        raise FieldError("field does not contain ell-th roots of unity")
    ell = field.ell
    delta = field.delta
    e = delta.exponent
    if e % (ell - 1) != 0:
        raise AssertionError("exponent of Delta not divisible by ell - 1")
    g = _least_primitive_root(ell)
    dlog_ell = {pow(g, j, ell): j for j in range(ell - 1)}
    scale = e // (ell - 1)
    coeffs = []
    for i, d in enumerate(delta.invariant_factors):
        basis_el = delta.element([1 if j == i else 0 for j in range(delta.rank)])
        a = field.residue_section(basis_el)
        v = dlog_ell[a % ell] * scale % e
        step = e // d
        if v % step != 0:
            raise AssertionError("Teichmueller value incompatible with basis order")
        coeffs.append((v // step) % d)
    omega = AbsChar(delta, tuple(coeffs))
    # verify against every generator of the ambient unit group
    for a in field.units._gens:
        want = dlog_ell[a % ell] * scale % e
        if omega.value_at(field.delta_element(a)) != want:
            raise AssertionError("Teichmueller character failed verification")
    phi = LadicChar.from_abs(omega, ell, field.tau_bar)
    if phi.degree != 1 or phi.parity != IMAGINARY:
        raise AssertionError("Teichmueller character must be an imaginary degree-1 orbit")
    return phi


def mirror_abs(chi: AbsChar, omega: AbsChar) -> AbsChar:
    return omega * chi.inverse()


def mirror(x: VirtualChar, field: FieldSpec) -> VirtualChar:
    """The reflection involution chi -> omega * chi^{-1}, multiplicities
    transported pointwise."""
    field.require_mirror_valid()
    omega = teichmuller(field).rep
    return VirtualChar(x.group, {mirror_abs(chi, omega): k for chi, k in x._m.items()})
