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
    AbsChar,
    LadicChar,
    VirtualChar,
    all_abs_chars,
    char_table,
    mirror,
    parity_of_value,
    parity_split,
    teichmuller_coeffs,
)
from .errors import PrimeSetError, ScaleError
from .exact import require_ints, require_odd_prime
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
        require_ints(ValueError, "base multiplicity", *base.values())
        self.base = {s: k for s, k in base.items() if k}
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
    return tuple(char_table(field).ladic_chars())


def imaginary_chars_of(field: FieldSpec) -> list[LadicChar]:
    return [phi for phi in ladic_chars_of(field) if phi.parity == IMAGINARY]


def _validate_tame(ell: int, S) -> tuple[int, ...]:
    S = validate_prime_set(S)
    if ell in S:
        raise PrimeSetError("S must be tame")
    return S


def _s_phi(field: FieldSpec, S: tuple[int, ...], phi: LadicChar) -> tuple[int, ...]:
    """The primes of S, already validated as tame, whose full decomposition
    subgroup dies in phi, a character of field.delta.

    A character dies on Delta_p exactly when it occurs in Ind_{Delta_p} 1,
    which decomposition_data keeps per (field, p), so this reads one
    multiplicity per prime.  Orbit members share kernels (ell is prime to
    |Delta|), so the canonical representative decides for the orbit.
    """
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
    S = _validate_tame(field.ell, S)
    mults = {}
    for phi, weights in _imaginary_s_phi_weights(field, S):
        if weights:
            mults.update(dict.fromkeys(phi.orbit, max(weights)))
    return VirtualChar(field.delta, mults)


def _kill_counts(field: FieldSpec, S) -> dict:
    """For each imaginary chi of Delta trivial on D_p for some p in S, the
    list of k_c = #{p in S that kill (chi, psi_c)} over c in Z/ell^n0, at
    the level n0 where S stops splitting."""
    field.require_mirror_valid()
    S = _validate_tame(field.ell, S)
    data = [decomposition_data(field, p) for p in S]
    n0 = max((d.n_p for d in data), default=0)
    if n0 > ORACLE_LEVEL_CAP:
        raise ScaleError(f"oracle scale exceeded: level n0 = {n0} is past the oracle level cap {ORACLE_LEVEL_CAP}")
    q0 = field.ell**n0
    e = field.delta.exponent
    table = {}
    for chi in all_abs_chars(field.delta):
        if parity_of_value(chi.value_at(field.tau_bar), e) != IMAGINARY:
            continue
        steps = [field.ell**d.n_p for d in data if all(chi.value_at(a) == 0 for a in d.decomposition.generators)]
        if steps:
            table[chi] = [sum(c * step % q0 == 0 for step in steps) for c in range(q0)]
    return table


def defect_oracle(field: FieldSpec, S) -> VirtualChar:
    """Counting oracle for the defect at the level n0 where S stops splitting.

    In Delta x Z/ell^n0 the decomposition group G_p is generated by
    (I_p, 0) and (Frob_p, ell^{n_p}), so it projects onto D_p and onto
    <ell^{n_p}>; the orders are coprime, so G_p is the product of the two
    projections and (chi, psi_c) dies on G_p iff chi is trivial on D_p
    (on its generators) and c * ell^{n_p} = 0 mod ell^n0.  The multiplicity of
    an imaginary chi is #{c : k_c >= 1} in the table of _kill_counts.
    """
    counts = _kill_counts(field, S)
    return VirtualChar(field.delta, {chi: sum(k > 0 for k in ks) for chi, ks in counts.items()})


def lambda_shift_real_oracle(field: FieldSpec, S) -> VirtualChar:
    """Counting oracle for the shift of lambda_shift_real, read from the
    same table: sum_c k_c is the sum of ell^{n_p} over S_chi and
    #{c : k_c >= 1} their max, so mirror(chi) has sum_c max(k_c - 1, 0).
    The mirror is the character product omega * chi^{-1}, not a lookup in
    char_table."""
    counts = _kill_counts(field, S)
    omega = AbsChar(field.delta, teichmuller_coeffs(field))
    return VirtualChar(
        field.delta, {omega * chi.inverse(): sum(max(k - 1, 0) for k in ks) for chi, ks in counts.items()}
    )


# ---------------------------------------------------------------------------
# lambda-shift expressions

def lambda_shift_real(field: FieldSpec, S) -> LambdaExpr:
    """Real-part prediction for tame ramification at S (wild side decomposed).

    Shift: sum over imaginary phi of [(sum of ell^{n_p} over S_phi) minus
    ell^(max n_p over S_phi)] copies of the mirror of phi; zero whenever
    every S_phi has at most one element.
    """
    field.require_mirror_valid()
    S = _validate_tame(field.ell, S)
    mults = {}
    for phi, weights in _imaginary_s_phi_weights(field, S):
        if weights:
            mults.update(dict.fromkeys(phi.orbit, sum(weights) - max(weights)))
    return LambdaExpr({BaseSymbol.LAMBDA_REAL: 1}, mirror(VirtualChar(field.delta, mults), field))


def lambda_shift_imaginary(field: FieldSpec, S) -> LambdaExpr:
    """Imaginary-part prediction: shift is the mirror of (chi_S^real - 1).

    Evaluated literally; for S = {} this yields -omega, which is the
    formula read outside its intended range (the corrected baseline is
    used internally by reflection_check, and the CLI warns).
    """
    field.require_mirror_valid()
    return _lambda_shift_imaginary(field, chi_S(field, _validate_tame(field.ell, S)))


def _lambda_shift_imaginary(field: FieldSpec, chi: VirtualChar) -> LambdaExpr:
    """lambda_shift_imaginary for a tame S, given chi = chi_S(field, S)."""
    real_part, _ = parity_split(chi, field.tau_bar)
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
    return _lambda_wild(field, chi_S(field, S))


def _lambda_wild(field: FieldSpec, chi: VirtualChar) -> LambdaExpr:
    """lambda_wild for an S containing ell, given chi = chi_S(field, S)."""
    shift = mirror(chi - VirtualChar.one(field.delta), field)
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


def _lambda_expr_for(field: FieldSpec, ram: tuple[int, ...], chi: VirtualChar) -> LambdaExpr:
    """lambda of the ram-ramified module as an affine expr, for a validated
    ram and chi = chi_S(field, ram).

    ram wild: the reflected closed form, independent of the decomposed
    set.  ram tame (so the decomposed set contains ell): the two parity
    shifts; for ram = {} both shifts vanish once the special-case
    kappa = -1 is fed through the identity, so the baseline is the bare
    unramified symbols.
    """
    if field.ell in ram:
        return _lambda_wild(field, chi)
    if not ram:
        return LambdaExpr(
            {BaseSymbol.LAMBDA_REAL: 1, BaseSymbol.LAMBDA_IMAG: 1},
            VirtualChar.zero(field.delta),
        )
    return lambda_shift_real(field, ram) + _lambda_shift_imaginary(field, chi)


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


def reflection_check(field: FieldSpec, S, T) -> ReflectionReport:
    """Verify lambda(T,S) - kappa(T,S) + (chi_S - 1) = mirror of the same
    with S and T exchanged.

    Both sides are assembled from independently computed pieces (shift
    formulas with per-orbit maxima on one side, weighted inductions and
    the case-resolved defect on the other), so agreement is an arithmetic
    identity check, not a tautology.  S and then T are validated once, up
    front, and kappa(S, T) checks the hypotheses; everything after that
    reads the validated sets, and chi_S of each set is computed once.
    """
    field.require_mirror_valid()
    S = validate_prime_set(S)
    T = validate_prime_set(T)
    one = VirtualChar.one(field.delta)

    kappa_st = kappa(field, S, T)
    chi_s, chi_t = chi_S(field, S), chi_S(field, T)
    rhs_inner = _lambda_expr_for(field, S, chi_s) - kappa_st.value + (chi_t - one)
    rhs = mirror_lambda_expr(rhs_inner, field)

    kappa_ts = kappa(field, T, S)
    lhs = _lambda_expr_for(field, T, chi_t) - kappa_ts.value + (chi_s - one)

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
    require_odd_prime(PrimeSetError, ell)
    S = _validate_tame(ell, S)
    weights = [ell ** splitting_exponent(ell, p) for p in S if p % ell == 1]
    return sum(weights) - max(weights, default=0)
