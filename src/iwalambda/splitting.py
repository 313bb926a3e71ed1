"""Decomposition data of rational primes in K and in the cyclotomic tower.

For p with m = p^a * m' (p not dividing m'), inertia in Delta is the image
of the units congruent to 1 mod m', which the generators (Z/m)* keeps for
p (field.units.local_gens) span, and the Frobenius class is the CRT
element congruent to p mod m' and to 1 mod p^a.  The splitting exponent
n_p (the place above p stops splitting at layer n_p of the Z_ell-tower)
has the closed form v_ell(p^(ell-1) - 1) - 1; an independent place-count
oracle keeps that formula honest.

A prime set is checked once: a caller that validated S with
validate_prime_set can pass the result on to chi_S and to the defect
layer, which do not check it again.  A prime must be an int, and the
per-(field, p) cache is typed: it never answers 7.0 with the entry of 7.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .characters import VirtualChar, induce_trivial
from .errors import PrimeSetError
from .exact import crt, is_prime, mult_order, require_odd_prime, valuation
from .fields import FieldSpec
from .groups import GroupElement, Subgroup, subgroup_generated


class PrimeLocalData:
    """Delta_p, I_p and the tower splitting data of one rational prime.

    frobenius is the CRT class generating Delta_p over I_p; weight is
    ell^{n_p}, except that the wild prime is totally non-split in the
    tower and carries n_p = 0, weight 1.
    """

    def __init__(self, p: int, decomposition: Subgroup, inertia: Subgroup, frobenius: GroupElement,
                 n_p: int, weight: int):
        self.p = p
        self.decomposition = decomposition
        self.inertia = inertia
        self.frobenius = frobenius
        self.n_p = n_p
        self.weight = weight

    @cached_property
    def induced_trivial(self) -> VirtualChar:
        """Ind_{Delta_p}^{Delta} 1, built on first use and kept on this
        object, which decomposition_data caches per (field, p)."""
        return induce_trivial(self.decomposition.parent, self.decomposition)


def _require_prime(p) -> None:
    if not is_prime(p):
        raise PrimeSetError(f"{p} is not prime")


def splitting_exponent(ell: int, p: int) -> int:
    """n_p = v_ell(p^(ell-1) - 1) - 1 for a tame prime p.

    Valid whenever ell does not divide [K:Q], which every FieldSpec here
    guarantees; splitting_exponent_oracle checks the formula by counting
    places layer by layer.
    """
    require_odd_prime(PrimeSetError, ell)
    _require_prime(p)
    if p == ell:
        raise PrimeSetError("wild prime has no tame splitting exponent")
    return valuation(pow(p, ell - 1) - 1, ell) - 1


def splitting_exponent_oracle(ell: int, p: int) -> int:
    """Count places over p in each tower layer until the count freezes.

    Layer n has ell^n / ord places, where ord is the ell-part of the order
    of p in (Z/ell^(n+1))*.  The count is ell^n up to layer n_p and
    ell^{n_p} from there on, so it first repeats at layer n_p + 1 and
    the loop ends after n_p + 2 counts.
    """
    if ell == 2 or not is_prime(ell) or not is_prime(p):
        raise PrimeSetError("arguments must be primes, ell odd")
    if p == ell:
        raise PrimeSetError("wild prime has no tame splitting exponent")

    def places(n: int) -> int:
        return ell**n // ell ** valuation(mult_order(p, ell ** (n + 1)), ell)

    prev, n = places(0), 1
    while (cur := places(n)) != prev:
        prev, n = cur, n + 1
    return valuation(cur, ell)


@lru_cache(maxsize=None, typed=True)
def decomposition_data(field: FieldSpec, p: int) -> PrimeLocalData:
    """Delta_p and I_p inside Delta, from residues mod the conductor."""
    _require_prime(p)
    m = m_prime = field.conductor
    while m_prime % p == 0:
        m_prime //= p
    q = m // m_prime

    inertia_gens = [field.delta_element(g) for g in field.units.local_gens.get(p, ())]
    inertia = subgroup_generated(field.delta, inertia_gens)

    frob = field.delta_element(crt([p % m_prime, 1], [m_prime, q]))
    decomposition = subgroup_generated(field.delta, inertia_gens + [frob])

    n_p = 0 if p == field.ell else splitting_exponent(field.ell, p)
    weight = field.ell**n_p
    return PrimeLocalData(p, decomposition, inertia, frob, n_p, weight)


class _PrimeSet(tuple):
    """A prime set validate_prime_set has checked: sorted, distinct primes.

    It equals and hashes as the sorted plain tuple."""

    __slots__ = ()


def validate_prime_set(S) -> tuple[int, ...]:
    """The sorted primes of S, rejecting repeats and non-primes in the
    order given; a set this function returned comes back unchanged."""
    if type(S) is _PrimeSet:
        return S
    S = tuple(S)
    if len(set(S)) != len(S):
        repeated = next(p for i, p in enumerate(S) if p in S[:i])
        raise PrimeSetError(f"{repeated} is repeated: a prime list must be a set")
    for p in S:
        _require_prime(p)
    return _PrimeSet(sorted(S))


def chi_p(field: FieldSpec, p: int) -> VirtualChar:
    """Induction of the trivial character of Delta_p, weighted by the
    splitting index ell^{n_p} (weight 1 for the wild prime)."""
    data = decomposition_data(field, p)
    return data.weight * data.induced_trivial


def chi_S(field: FieldSpec, S) -> VirtualChar:
    """Sum of the weighted inductions over the places of S; empty S gives 0."""
    return sum((chi_p(field, p) for p in validate_prime_set(S)), VirtualChar.zero(field.delta))
