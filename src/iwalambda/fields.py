"""Abelian field specifications.

A field K is cut out of the m-th cyclotomic field by a subgroup H of
(Z/m)*: its Galois group over Q is Delta = (Z/m)*/H.  The spec records
the odd prime ell (with ell | m), complex conjugation tau_bar (the image
of -1), and the two validity flags every mirror/parity computation needs:
K contains the ell-th roots of unity iff H fixes them (h = 1 mod ell for
all h in H), and the character algebra splits over Z_ell iff ell does not
divide |Delta|.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldError
from .exact import require_ints, require_odd_prime
from .groups import GroupElement, quotient, subgroup_generated, unit_group


class FieldSpec:
    """K inside Q(zeta_m), given by the conductor and generators of H."""

    def __init__(self, ell: int, conductor: int, subgroup_gens=()):
        require_odd_prime(FieldError, ell)
        require_ints(FieldError, "conductor or subgroup generator", conductor, *subgroup_gens)
        if conductor % ell != 0:
            raise FieldError("conductor must be divisible by ell")
        self.ell = ell
        self.conductor = conductor
        self.units = unit_group(conductor)  # rejects m < 2 before any residue mod m
        self.subgroup_gens = tuple(sorted(h % conductor for h in subgroup_gens))
        try:
            gens = [self.units.dlog(h) for h in self.subgroup_gens]
        except ValueError as exc:
            raise FieldError(f"subgroup generator not a unit mod {conductor}") from exc
        # Delta is reduced from the Hermite basis of H's lattice, whose size is
        # the rank of (Z/m)*, whatever |H| is
        self._quotient = quotient(self.units.group, subgroup_generated(self.units.group, gens))
        self.delta = self._quotient.group
        self.tau_bar = self.delta_element(conductor - 1)
        # reduction mod ell is a homomorphism and ell | m: the generators decide
        self.contains_mu_ell = all(h % ell == 1 for h in self.subgroup_gens)
        self.degree_prime_to_ell = self.delta.order % ell != 0

    # -- residue <-> Delta bridges ------------------------------------------

    def delta_element(self, a: int) -> GroupElement:
        """Image in Delta of the Artin symbol attached to a unit residue a."""
        return self._quotient.project(self.units.dlog(a))

    def residue_section(self, g: GroupElement) -> int:
        """Some residue mod m mapping onto g (a section of the projection)."""
        return self.units.residue_of(self._quotient.section(g))

    # -- validity ------------------------------------------------------------

    def require_mu_ell(self) -> None:
        if not self.contains_mu_ell:
            raise FieldError("field does not contain ell-th roots of unity")

    def require_mirror_valid(self) -> None:
        self.require_mu_ell()
        if not self.degree_prime_to_ell:
            raise FieldError("ell divides group order")

    def __repr__(self) -> str:
        return (
            f"FieldSpec(ell={self.ell}, conductor={self.conductor}, "
            f"H={list(self.subgroup_gens)}, delta={self.delta.invariant_factors})"
        )


@lru_cache(maxsize=None, typed=True)
def field_spec(ell: int, conductor: int, subgroup_gens: tuple[int, ...] = ()) -> FieldSpec:
    """Cached FieldSpec factory; most sweeps revisit a handful of fields."""
    return FieldSpec(ell, conductor, subgroup_gens)
