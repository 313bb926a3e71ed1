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
import math
from functools import lru_cache

from .errors import FieldError
from .exact import Record, require_ints, require_odd_prime
from .fields import FieldSpec
from .groups import FiniteAbelianGroup, GroupElement, Subgroup, quotient, unit_group

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
        require_ints(ValueError, "character coefficient", *coeffs)
        if len(coeffs) != len(d) or any(not 0 <= c < di for c, di in zip(coeffs, d)):
            raise ValueError("character coefficients out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    # explicit one-frame equality and hash, as for FiniteAbelianGroup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coeffs) == (other.group, other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coeffs))

    @classmethod
    def from_values(cls, group: FiniteAbelianGroup, values, modulus: int | None = None) -> "AbsChar":
        """The character taking values[i] at group.basis()[i].

        A value v in Z/n (n = modulus, by default the group exponent) means
        the n-th root of unity to the power v; on a basis element of order d
        it must have order dividing d, so coeff = v * d / n is exact.
        """
        n = group.exponent if modulus is None else modulus
        coeffs = []
        for v, d in zip(values, group.invariant_factors):
            if v * d % n != 0:
                raise AssertionError("character value has too large an order")
            coeffs.append(v * d // n % d)
        return cls(group, tuple(coeffs))

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

    def __init__(self, group: FiniteAbelianGroup, ell: int, orbit: tuple[AbsChar, ...], parity: str):
        self._set_fields(group, ell, orbit, parity)

    @property
    def rep(self) -> AbsChar:
        return self.orbit[0]

    @property
    def degree(self) -> int:
        return len(self.orbit)


def _require_conjugation(tau_bar: GroupElement, group: FiniteAbelianGroup) -> None:
    if tau_bar.group != group:
        raise ValueError("tau_bar lives in a different group")
    if not (tau_bar + tau_bar).is_identity:
        raise FieldError("tau_bar must square to the identity")


def all_ladic_chars(delta: FiniteAbelianGroup, ell: int, tau_bar: GroupElement) -> list[LadicChar]:
    """All ell-adic irreducibles of Delta, sorted by canonical representative.

    Requires an odd prime ell prime to |Delta| and an involutive tau_bar;
    then the orbits partition the dual group and degrees sum to |Delta|.
    For the Delta of a field, char_table(field) keeps the same orbits.
    """
    require_odd_prime(FieldError, ell)
    _require_conjugation(tau_bar, delta)
    return CharTable(delta, ell, tau_bar).ladic_chars()


def _lex_sums(rows: list[list[int]]) -> list[int]:
    """[rows[0][c_0] + rows[1][c_1] + ... for c in lexicographic order]."""
    out = [0]
    for row in rows:
        out = [s + t for s in out for t in row]
    return out


class CharTable:
    """The dual of Delta, indexed once in the lexicographic order of all_abs_chars.

    chars[i] is the i-th character (one shared AbsChar per vector) and
    index maps its coefficient vector back to i.  frobenius[i] is the
    position of chi_i^ell, and odd[i] is 1 when chi_i(tau_bar) = -1, 0
    when it is 1.  Given omega's coefficient vector, omega is its position
    and mirror[i] the position of omega * chi_i^{-1}; otherwise both are
    None.  Position and value are sums of one term per coordinate, so each
    list is filled coordinate by coordinate, with no character product.
    When ell is prime to |Delta|, orbits lists the Frobenius orbits (each
    ascending, ordered by least member) and orbit_of[i] numbers the orbit
    of i; otherwise both are None.
    """

    __slots__ = ("group", "ell", "chars", "index", "frobenius", "odd", "orbits", "orbit_of", "omega", "mirror")

    def __init__(self, group: FiniteAbelianGroup, ell: int, tau_bar: GroupElement,
                 omega_coeffs: tuple[int, ...] | None = None):
        d, e = group.invariant_factors, group.exponent
        strides = [math.prod(d[j + 1:]) for j in range(len(d))]

        def positions(scale: int, shift) -> list[int]:  # of (scale * c + shift) mod d
            return _lex_sums([[(scale * c + s) % dj * st for c in range(dj)] for dj, s, st in zip(d, shift, strides)])

        self.group, self.ell = group, ell
        self.chars = chars = all_abs_chars(group)
        self.index = {chi.coeffs: i for i, chi in enumerate(chars)}
        self.frobenius = frobenius = positions(ell, (0,) * len(d))
        values = _lex_sums([[c * t * (e // dj) for c in range(dj)] for dj, t in zip(d, tau_bar.coords)])
        self.odd = [int(v % e != 0) for v in values]
        self.orbits = self.orbit_of = None
        if group.order % ell != 0:  # then chi -> chi^ell permutes the positions
            self.orbits, self.orbit_of = orbits, orbit_of = [], [-1] * len(chars)
            for i in range(len(chars)):
                if orbit_of[i] < 0:
                    orbit, j = [], i
                    while orbit_of[j] < 0:
                        orbit_of[j] = len(orbits)
                        orbit.append(j)
                        j = frobenius[j]
                    orbits.append(sorted(orbit))
        self.omega = self.mirror = None
        if omega_coeffs is not None:
            self.omega = sum(w * st for w, st in zip(omega_coeffs, strides))
            self.mirror = positions(-1, omega_coeffs)

    def ladic_chars(self) -> list[LadicChar]:
        if self.orbits is None:
            raise FieldError("ell divides group order")
        chars, odd = self.chars, self.odd
        return [
            LadicChar(self.group, self.ell, tuple(chars[i] for i in orbit), IMAGINARY if odd[orbit[0]] else REAL)
            for orbit in self.orbits
        ]


class VirtualChar:
    """Finitely supported integer combination of absolute characters."""

    __slots__ = ("group", "_m")

    def __init__(self, group: FiniteAbelianGroup, mults: dict[AbsChar, int] | None = None):
        mults = mults or {}
        require_ints(ValueError, "multiplicity", *mults.values())
        self.group = group
        self._m = {chi: k for chi, k in mults.items() if k}
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
    def from_ladic(cls, phi: LadicChar) -> "VirtualChar":
        return cls(phi.group, dict.fromkeys(phi.orbit, 1))

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

    def is_frobenius_stable(self, ell: int) -> bool:
        return all(self._m.get(chi.frobenius(ell), 0) == k for chi, k in self._m.items())

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
    test of all |Delta| characters on all |D| elements.  psi(pi e_i) lies in
    Z/e_Q, and from_values lifts it to Delta.
    """
    Q = quotient(delta, D)
    e_Q = Q.group.exponent
    images = [Q.project(b) for b in delta.basis()]
    mults = {
        AbsChar.from_values(delta, [psi.value_at(g) for g in images], e_Q): 1
        for psi in all_abs_chars(Q.group)
    }
    return VirtualChar(delta, mults)


def restrict(x: VirtualChar, D: Subgroup) -> VirtualChar:
    """Restriction of homomorphisms to a subgroup, in the subgroup's own
    invariant-factor presentation; coinciding restrictions add up."""
    S, to_parent, _ = D.as_group()
    basis = [to_parent(b) for b in S.basis()]
    acc: dict[AbsChar, int] = {}
    for chi, k in x._m.items():
        target = AbsChar.from_values(S, [chi.value_at(b) for b in basis], x.group.exponent)
        acc[target] = acc.get(target, 0) + k
    return VirtualChar(S, acc)


def parity_split(x: VirtualChar, tau_bar: GroupElement) -> tuple[VirtualChar, VirtualChar]:
    """x = x_real + x_imaginary, split by the value at complex conjugation."""
    _require_conjugation(tau_bar, x.group)
    e = x.group.exponent
    real: dict[AbsChar, int] = {}
    imag: dict[AbsChar, int] = {}
    for chi, k in x._m.items():
        bucket = real if parity_of_value(chi.value_at(tau_bar), e) == REAL else imag
        bucket[chi] = k
    return VirtualChar(x.group, real), VirtualChar(x.group, imag)


# ---------------------------------------------------------------------------
# Teichmueller character and the mirror involution

def teichmuller_coeffs(field: FieldSpec) -> tuple[int, ...]:
    """The character through which Delta acts on the ell-th roots of unity.

    sigma_a acts by a mod ell; the exponent encoding pins the discrete log
    base to the least primitive root mod ell, which fixes one canonical
    coefficient vector (all downstream identities are independent of that
    choice).  Requires mu_ell inside K.
    """
    field.require_mu_ell()
    ell = field.ell
    delta = field.delta
    e = delta.exponent
    if e % (ell - 1) != 0:
        raise AssertionError("exponent of Delta not divisible by ell - 1")
    dlog_ell = unit_group(ell).dlog  # (Z/ell)* is cyclic on its least primitive root
    scale = e // (ell - 1)
    omega = AbsChar.from_values(
        delta, [dlog_ell(field.residue_section(b)).coords[0] for b in delta.basis()], ell - 1
    )
    # verify against every generator of the ambient unit group
    for a in itertools.chain.from_iterable(field.units.local_gens.values()):
        want = dlog_ell(a).coords[0] * scale % e
        if omega.value_at(field.delta_element(a)) != want:
            raise AssertionError("Teichmueller character failed verification")
    return omega.coeffs


@lru_cache(maxsize=None)
def char_table(field: FieldSpec) -> CharTable:
    """The indexed dual of field.delta, with the mirror list when K
    contains the ell-th roots of unity; built once per field.  omega's
    orbit must then be a fixed point of the Frobenius list and odd."""
    omega_coeffs = teichmuller_coeffs(field) if field.contains_mu_ell else None
    table = CharTable(field.delta, field.ell, field.tau_bar, omega_coeffs)
    i = table.omega
    if i is not None and (table.frobenius[i] != i or not table.odd[i]):
        raise AssertionError("Teichmueller character must be an imaginary degree-1 orbit")
    return table


@lru_cache(maxsize=None)
def teichmuller(field: FieldSpec) -> LadicChar:
    """omega as an ell-adic character: the odd degree-1 orbit of char_table."""
    field.require_mu_ell()
    table = char_table(field)
    return LadicChar(field.delta, field.ell, (table.chars[table.omega],), IMAGINARY)


def mirror(x: VirtualChar, field: FieldSpec) -> VirtualChar:
    """The reflection involution chi -> omega * chi^{-1}, multiplicities
    transported pointwise through the table's mirror list."""
    field.require_mirror_valid()
    if x.group != field.delta:
        raise ValueError("characters of different groups")
    table = char_table(field)
    chars, image, index = table.chars, table.mirror, table.index
    return VirtualChar(x.group, {chars[image[index[chi.coeffs]]]: k for chi, k in x._m.items()})
