"""Defect characters and lambda-shift predictions.

The absolute lambda invariants of a field are not computable without
class-group data, so every prediction here is an affine expression: free
base symbols (the unramified real/imaginary lambda parts or their mirror
reflections) plus a fully computed virtual-character shift.  The defect
character measures how far the semi-local image of imaginary S-units
falls short of the naive count; it has a closed form over the imaginary
ell-adic irreducibles and an independent counting oracle at the finite
tower level where the S-places stop splitting.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .characters import (
    IMAGINARY,
    LadicChar,
    VirtualChar,
    all_abs_chars,
    all_ladic_chars,
    mirror,
    parity_of_value,
    parity_split,
)
from .errors import PrimeSetError, ScaleError
from .fields import FieldSpec
from .splitting import chi_S, decomposition_data, splitting_exponent, validate_prime_set

ORACLE_LEVEL_CAP = 4


class BaseSymbol(Enum):
    """Free symbols the shifts are measured against."""

    LAMBDA_REAL = "lambda_real"
    LAMBDA_IMAG = "lambda_imag"
    LAMBDA_REAL_MIRROR = "lambda_real_mirror"
    LAMBDA_IMAG_MIRROR = "lambda_imag_mirror"


_MIRROR_SYMBOL = {
    BaseSymbol.LAMBDA_REAL: BaseSymbol.LAMBDA_REAL_MIRROR,
    BaseSymbol.LAMBDA_REAL_MIRROR: BaseSymbol.LAMBDA_REAL,
    BaseSymbol.LAMBDA_IMAG: BaseSymbol.LAMBDA_IMAG_MIRROR,
    BaseSymbol.LAMBDA_IMAG_MIRROR: BaseSymbol.LAMBDA_IMAG,
}


def mirror_symbol(sym: BaseSymbol) -> BaseSymbol:
    return _MIRROR_SYMBOL[sym]


class CaseTag(Enum):
    SPECIAL = "special"          # wild ramification allowed, nothing decomposed
    TORSION = "torsion"          # wild places decomposed: defect vanishes
    WILD_MIRROR = "wild_mirror"  # wild ramification with tame decomposition


class LambdaExpr:
    """Affine lambda prediction: integer base symbols + computed shift."""

    def __init__(self, base: dict[BaseSymbol, int], shift: VirtualChar):
        self.base = {s: int(k) for s, k in base.items() if k != 0}
        self.shift = shift

    def __add__(self, other):
        if isinstance(other, LambdaExpr):
            base = dict(self.base)
            for s, k in other.base.items():
                base[s] = base.get(s, 0) + k
            return LambdaExpr(base, self.shift + other.shift)
        if isinstance(other, VirtualChar):
            return LambdaExpr(dict(self.base), self.shift + other)
        return NotImplemented

    def __neg__(self) -> "LambdaExpr":
        return LambdaExpr({s: -k for s, k in self.base.items()}, -self.shift)

    def __sub__(self, other):
        if isinstance(other, (LambdaExpr, VirtualChar)):
            return self + (-other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LambdaExpr)
            and self.base == other.base
            and self.shift == other.shift
        )

    def __repr__(self) -> str:
        parts = [f"{k}*{s.value}" for s, k in sorted(self.base.items(), key=lambda kv: kv[0].value)]
        return "LambdaExpr(" + (" + ".join(parts) or "0") + f", shift={self.shift!r})"


def mirror_lambda_expr(expr: LambdaExpr, field: FieldSpec) -> LambdaExpr:
    """Reflect an affine expression: swap base symbols, mirror the shift."""
    return LambdaExpr(
        {mirror_symbol(s): k for s, k in expr.base.items()},
        mirror(expr.shift, field),
    )


# ---------------------------------------------------------------------------
# S_phi and the defect character

@lru_cache(maxsize=None)
def ladic_chars_of(field: FieldSpec) -> tuple[LadicChar, ...]:
    return tuple(all_ladic_chars(field.delta, field.ell, field.tau_bar))


def imaginary_chars_of(field: FieldSpec) -> list[LadicChar]:
    return [phi for phi in ladic_chars_of(field) if phi.parity == IMAGINARY]


def _validate_tame(field: FieldSpec, S) -> tuple[int, ...]:
    S = validate_prime_set(S)
    if field.ell in S:
        raise PrimeSetError("S must be tame")
    return S


def s_phi(field: FieldSpec, S, phi: LadicChar) -> tuple[int, ...]:
    """The primes of S whose full decomposition subgroup dies in phi.

    A character dies on Delta_p exactly when it occurs in Ind_{Delta_p} 1,
    which decomposition_data keeps per (field, p), so this reads one
    multiplicity per prime.  Orbit members share kernels (ell is prime to
    |Delta|), so the canonical representative decides for the orbit.
    """
    S = _validate_tame(field, S)
    if S and phi.group != field.delta:
        raise ValueError("element of a different group")
    return _s_phi(field, S, phi)


def _s_phi(field: FieldSpec, S: tuple[int, ...], phi: LadicChar) -> tuple[int, ...]:
    """s_phi for an S already validated and a phi of field.delta."""
    return tuple(p for p in S if decomposition_data(field, p).induced_trivial.multiplicity(phi.rep))


def _imaginary_s_phi_weights(field: FieldSpec, S: tuple[int, ...]):
    """Yield (phi, [ell^{n_p} for p in S_phi]) for each imaginary ell-adic
    phi, for an S already validated as tame."""
    for phi in imaginary_chars_of(field):
        yield phi, [decomposition_data(field, p).weight for p in _s_phi(field, S, phi)]


def defect_character(field: FieldSpec, S) -> VirtualChar:
    """Character of the semi-local image of the imaginary S-units.

    Closed form: sum over imaginary ell-adic irreducibles phi with
    nonempty S_phi of ell^(max n_p over S_phi) copies of phi.  Purely
    imaginary and componentwise nonnegative by construction.
    """
    field.require_mirror_valid()
    S = _validate_tame(field, S)
    result = VirtualChar.zero(field.delta)
    for phi, weights in _imaginary_s_phi_weights(field, S):
        if weights:
            result = result + max(weights) * VirtualChar.from_ladic(phi)
    return result


def defect_oracle(field: FieldSpec, S) -> VirtualChar:
    """Counting oracle for the defect at the level where S stops splitting.

    Works in the product group Delta x Z/ell^n0: for each prime p the
    level-n0 decomposition subgroup G_p is generated by inertia (paired
    with 0) and the Frobenius paired with the generator ell^{n_p} of the
    index-ell^{n_p} subgroup of Z/ell^n0.  A character (chi, psi_c) of the
    product is trivial on G_p iff both components die on every element
    (their orders are coprime).  The multiplicity of an imaginary chi is
    the number of c for which some p in S kills (chi, psi_c).
    """
    field.require_mirror_valid()
    S = _validate_tame(field, S)
    if not S:
        return VirtualChar.zero(field.delta)
    data = {p: decomposition_data(field, p) for p in S}
    n0 = max(d.n_p for d in data.values())
    if n0 > ORACLE_LEVEL_CAP:
        raise ScaleError("oracle scale exceeded")
    q0 = field.ell**n0

    subgroups = {}
    for p, d in data.items():
        gens = [(g, 0) for g in d.inertia.generators]
        gens.append((d.frobenius, field.ell**d.n_p % q0 if n0 > 0 else 0))
        elements = {(field.delta.identity().coords, 0)}
        frontier = [(field.delta.identity(), 0)]
        while frontier:
            a, t = frontier.pop()
            for gb, tb in gens:
                nxt = (a + gb, (t + tb) % q0)
                key = (nxt[0].coords, nxt[1])
                if key not in elements:
                    elements.add(key)
                    frontier.append(nxt)
        subgroups[p] = [(field.delta.element(c), t) for c, t in sorted(elements)]

    e = field.delta.exponent
    mults: dict = {}
    for chi in all_abs_chars(field.delta):
        if parity_of_value(chi.value_at(field.tau_bar), e) != IMAGINARY:
            continue
        count = 0
        for c in range(q0):
            if any(
                all(chi.value_at(a) == 0 and (c * t) % q0 == 0 for a, t in subgroups[p])
                for p in S
            ):
                count += 1
        if count:
            mults[chi] = count
    return VirtualChar(field.delta, mults)


# ---------------------------------------------------------------------------
# lambda-shift expressions

def lambda_shift_real(field: FieldSpec, S) -> LambdaExpr:
    """Real-part prediction for tame ramification at S (wild side decomposed).

    Shift: sum over imaginary phi of [(sum of ell^{n_p} over S_phi) minus
    ell^(max n_p over S_phi)] copies of the mirror of phi; zero whenever
    every S_phi has at most one element.
    """
    field.require_mirror_valid()
    S = _validate_tame(field, S)
    shift = VirtualChar.zero(field.delta)
    for phi, weights in _imaginary_s_phi_weights(field, S):
        coeff = sum(weights) - max(weights) if weights else 0
        if coeff:
            shift = shift + coeff * mirror(VirtualChar.from_ladic(phi), field)
    return LambdaExpr({BaseSymbol.LAMBDA_REAL: 1}, shift)


def lambda_shift_imaginary(field: FieldSpec, S) -> LambdaExpr:
    """Imaginary-part prediction: shift is the mirror of (chi_S^real - 1).

    Evaluated literally; for S = {} this yields -omega, which is the
    formula read outside its intended range (the corrected baseline is
    used internally by reflection_check, and the CLI warns).
    """
    field.require_mirror_valid()
    S = _validate_tame(field, S)
    real_part, _ = parity_split(chi_S(field, S), field.tau_bar)
    shift = mirror(real_part - VirtualChar.one(field.delta), field)
    return LambdaExpr({BaseSymbol.LAMBDA_IMAG: 1}, shift)


def lambda_wild(field: FieldSpec, S) -> LambdaExpr:
    """Wild-ramification prediction: everything reflects.

    Requires ell in S; base is the mirror of both unramified symbols and
    the shift is the mirror of (chi_S - 1), the wild place entering with
    weight 1.
    """
    field.require_mirror_valid()
    S = validate_prime_set(S)
    if field.ell not in S:
        raise PrimeSetError("wild case requires ell in S")
    shift = mirror(chi_S(field, S) - VirtualChar.one(field.delta), field)
    return LambdaExpr(
        {BaseSymbol.LAMBDA_REAL_MIRROR: 1, BaseSymbol.LAMBDA_IMAG_MIRROR: 1}, shift
    )


# ---------------------------------------------------------------------------
# the defect in its three regimes, and the reflection identity

class KappaResult:
    def __init__(self, case: CaseTag, value: VirtualChar):
        self.case = case
        self.value = value


def kappa(field: FieldSpec, S, T) -> KappaResult:
    """Case-resolved defect for the (S-ramified, T-decomposed) tower data.

    Validates S, then T, and the hypotheses of the reflection theorem (S
    and T disjoint, ell in one of them).  SPECIAL (ell in S, T empty): the
    formal value -1 (minus the unit character).  TORSION (ell in T): zero.
    WILD_MIRROR (ell in S, tame nonempty T): the defect character of T,
    purely imaginary and >= 0.
    """
    S = validate_prime_set(S)
    T = validate_prime_set(T)
    if set(S) & set(T) or field.ell not in set(S) | set(T):
        raise PrimeSetError("hypotheses of reflection theorem violated")
    if field.ell in T:
        return KappaResult(CaseTag.TORSION, VirtualChar.zero(field.delta))
    if not T:
        return KappaResult(CaseTag.SPECIAL, -VirtualChar.one(field.delta))
    return KappaResult(CaseTag.WILD_MIRROR, defect_character(field, T))


def _lambda_expr_for(field: FieldSpec, ram) -> LambdaExpr:
    """lambda of the ram-ramified module as an affine expr.

    ram wild: the reflected closed form, independent of the decomposed
    set.  ram tame (so the decomposed set contains ell): the two parity
    shifts; for ram = {} both shifts vanish once the special-case
    kappa = -1 is fed through the identity, so the baseline is the bare
    unramified symbols.
    """
    ram = validate_prime_set(ram)
    if field.ell in ram:
        return lambda_wild(field, ram)
    if not ram:
        return LambdaExpr(
            {BaseSymbol.LAMBDA_REAL: 1, BaseSymbol.LAMBDA_IMAG: 1},
            VirtualChar.zero(field.delta),
        )
    return lambda_shift_real(field, ram) + lambda_shift_imaginary(field, ram)


class ReflectionReport:
    """Both sides of the identity and the two case-resolved defects:
    kappa_lhs = kappa(T, S) and kappa_rhs = kappa(S, T)."""

    def __init__(self, holds: bool, lhs: LambdaExpr, rhs: LambdaExpr, kappa_lhs: KappaResult,
                 kappa_rhs: KappaResult):
        self.holds = holds
        self.lhs = lhs
        self.rhs = rhs
        self.kappa_lhs = kappa_lhs
        self.kappa_rhs = kappa_rhs
        self.case_lhs = kappa_lhs.case
        self.case_rhs = kappa_rhs.case


def reflection_check(field: FieldSpec, S, T) -> ReflectionReport:
    """Verify lambda(T,S) - kappa(T,S) + (chi_S - 1) = mirror of the same
    with S and T exchanged.

    Both sides are assembled from independently computed pieces (shift
    formulas with per-orbit maxima on one side, weighted inductions and
    the case-resolved defect on the other), so agreement is an arithmetic
    identity check, not a tautology.  kappa(S, T) runs first and checks
    the prime sets and the hypotheses, S before T.
    """
    field.require_mirror_valid()
    one = VirtualChar.one(field.delta)

    kappa_st = kappa(field, S, T)
    rhs_inner = _lambda_expr_for(field, S) - kappa_st.value + (chi_S(field, T) - one)
    rhs = mirror_lambda_expr(rhs_inner, field)

    kappa_ts = kappa(field, T, S)
    lhs = _lambda_expr_for(field, T) - kappa_ts.value + (chi_S(field, S) - one)

    return ReflectionReport(lhs == rhs, lhs, rhs, kappa_ts, kappa_st)


# ---------------------------------------------------------------------------
# the rational-field example value

def imo_lambda(ell: int, S) -> int:
    """Tame lambda value over the rationals with mu_ell adjoined.

    S_omega is the set of primes of S splitting completely in the
    ell-th cyclotomic field (p = 1 mod ell); the value is the sum of
    their splitting indices minus the largest one, and 0 when S_omega
    is empty.  Must match the trivial-character component of the real
    lambda shift for the conductor-ell field.
    """
    S = validate_prime_set(S)
    if ell in S:
        raise PrimeSetError("S must be tame")
    weights = [ell ** splitting_exponent(ell, p) for p in S if p % ell == 1]
    if not weights:
        return 0
    return sum(weights) - max(weights)
