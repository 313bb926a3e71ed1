"""Tate cohomology of a cyclic action on a finite module, and the
ambiguous-class valuation formula.

A module is a finite abelian group with an automorphism sigma of known
order n.  The two cohomology orders |H^0-hat| = |ker(sigma-1)| / |im N|
and |H^1| = |ker N| / |im(sigma-1)| (N the algebraic norm 1 + sigma +
... + sigma^(n-1), built by doubling in O(log n) products) are equal on
a finite module, where |ker f| = |coker f|: one Smith reduction of each
lifted map against the presentation lattice gives both.  Exhaustive
element enumeration is kept in the tests as the oracle.  The Herbrand
quotient is therefore 1, and multiplicative on stable submodule /
quotient pairs.

The ambiguous-class formula itself consumes ell-valuations only: the
class number of the base, tame ramification indices, the degree, and the
unit-norm index are inputs, never computed here.
"""

from __future__ import annotations

from math import prod

from .errors import InconsistentDataError, IwalambdaError
from .exact import Record, diagonal_matrix, identity_matrix, require_ints, smith_normal_form, transpose
from .groups import FiniteAbelianGroup, GroupElement, Subgroup, quotient, subgroup_generated


class FiniteGammaModule(Record):
    """Finite module with a cyclic action: sigma acts on coordinates.

    sigma must preserve the relation lattice (sigma[i][j] * d_j = 0 mod
    d_i), be invertible, and satisfy sigma^order_n = identity.
    """

    __slots__ = ("module", "sigma", "order_n")

    def __init__(self, module: FiniteAbelianGroup, sigma: tuple[tuple[int, ...], ...], order_n: int):
        self._set_fields(module, sigma, order_n)
        self.__post_init__()

    # looked up on the class at every construction, so the benchmark's
    # tracer (perfbench/tracer.py) can time the check as its own span
    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(map(tuple, self.sigma)))
        entries = (x for row in self.sigma for x in row)
        require_ints(IwalambdaError, "sigma entry or actor order", *entries, self.order_n)
        k = self.module.rank
        d = self.module.invariant_factors
        if len(self.sigma) != k or any(len(r) != k for r in self.sigma):
            raise IwalambdaError("sigma must be a square matrix of the module rank")
        if self.order_n < 1:
            raise IwalambdaError("the actor order must be positive")
        if any((self.sigma[i][j] * d[j]) % d[i] for i in range(k) for j in range(k)):
            raise IwalambdaError("sigma does not preserve the relation lattice")
        # invertibility: sigma must be surjective on the finite module
        if _cokernel_order(list(map(list, self.sigma)), d) != 1:
            raise IwalambdaError("sigma is not an automorphism")
        if _power_and_norm(self.sigma, self.order_n, d)[0] != identity_matrix(k):
            raise IwalambdaError("sigma^order_n is not the identity")

    def apply(self, g: GroupElement) -> GroupElement:
        if g.group != self.module:
            raise ValueError("element of a different module")
        return GroupElement(self.module, (sum(s * c for s, c in zip(row, g.coords)) for row in self.sigma))

    def norm_matrix(self) -> list[list[int]]:
        """1 + sigma + ... + sigma^(order_n - 1), row i reduced mod d_i."""
        return _power_and_norm(self.sigma, self.order_n, self.module.invariant_factors)[1]

    def sigma_minus_one(self) -> list[list[int]]:
        return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(self.sigma)]


def _power_and_norm(sigma, n: int, d: tuple[int, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """(sigma^n, sum_{i<n} sigma^i) by doubling (P_m, N_m) = (sigma^m,
    sum_{i<m} sigma^i) to (P_m P_m, N_m + P_m N_m), plus a step to (P_m sigma,
    N_m + P_m) on each set bit.  Row i is kept mod d_i: every factor preserves
    the lattice, so a multiple of d_t in row t of a right factor dies mod d_i."""
    k = len(d)

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(k)) % d[i] for j in range(k)] for i in range(k)]

    def add(a, b):
        return [[(x + y) % di for x, y in zip(ra, rb)] for ra, rb, di in zip(a, b, d)]

    power = identity_matrix(k)
    norm = [[0] * k for _ in range(k)]
    for bit in bin(n)[2:]:
        power, norm = mul(power, power), add(norm, mul(power, norm))
        if bit == "1":
            power, norm = mul(power, sigma), add(norm, power)
    return power, norm


def _cokernel_order(F: list[list[int]], d: tuple[int, ...]) -> int:
    """|M / im(F)| = |ker F| for the module with invariant factors d: Smith
    form of the columns of F together with the relation lattice."""
    return prod(smith_normal_form([f + r for f, r in zip(F, diagonal_matrix(d))]))


def tate_h0(M: FiniteGammaModule) -> int:
    """|H^0-hat| = |H^1| = |coker(sigma-1)| * |coker N| / |M|, one reduction
    per lattice.  im N in ker(sigma-1) needs |M|/|coker N| to divide
    |coker(sigma-1)|, im(sigma-1) in ker N needs |M|/|coker(sigma-1)| to
    divide |coker N|: both say that |M| divides the product."""
    d = M.module.invariant_factors
    product = _cokernel_order(M.sigma_minus_one(), d) * _cokernel_order(M.norm_matrix(), d)
    if product % M.module.order:
        raise AssertionError("im(norm) and im(sigma-1) do not sit inside ker(sigma-1) and ker(norm)")
    return product // M.module.order


def tate_h1(M: FiniteGammaModule) -> int:
    """|H^1|, equal to |H^0-hat| on a finite module."""
    return tate_h0(M)


def herbrand_quotient(M: FiniteGammaModule) -> int:
    """|H^0-hat| / |H^1|, which is 1 for every finite module."""
    order = tate_h0(M)
    return order // order


# ---------------------------------------------------------------------------
# stable submodules and quotients (multiplicativity checks)

def stable_submodule(M: FiniteGammaModule, gens) -> tuple[FiniteGammaModule, Subgroup]:
    """Smallest sigma-stable submodule containing gens, as its own module."""
    gens = [g if isinstance(g, GroupElement) else GroupElement(M.module, g) for g in gens]
    closed = []
    for g in gens:
        closed.append(g)
        x = M.apply(g)
        while x != g:  # sigma permutes M, so the orbit closes at g
            closed.append(x)
            x = M.apply(x)
    H = subgroup_generated(M.module, closed)
    S, to_parent, from_parent = H.as_group()
    cols = [from_parent(M.apply(to_parent(b))).coords for b in S.basis()]
    return FiniteGammaModule(S, transpose(cols), M.order_n), H


def quotient_module(M: FiniteGammaModule, H: Subgroup) -> FiniteGammaModule:
    """M/H with the induced action; H must be sigma-stable, which its
    generators decide, since sigma is a homomorphism."""
    if any(M.apply(h) not in H for h in H.generators):
        raise ValueError("subgroup is not sigma-stable")
    Q = quotient(M.module, H)
    cols = [Q.project(M.apply(Q.section(b))).coords for b in Q.group.basis()]
    return FiniteGammaModule(Q.group, transpose(cols), M.order_n)


# ---------------------------------------------------------------------------
# the ambiguous-class valuation formula

class AmbiguousInput(Record):
    """ell-valuations feeding the invariant-class count.

    h: of the S-split class number of the base; ram: of the ramification
    indices of the places outside S; deg: of the extension degree;
    unit_index: of the unit-norm index.  All are given data.
    """

    __slots__ = ("h", "ram", "deg", "unit_index")

    def __init__(self, h: int, ram: tuple[int, ...], deg: int, unit_index: int):
        ram = tuple(ram)
        require_ints(IwalambdaError, "valuation", h, *ram, deg, unit_index)
        if h < 0 or deg < 0 or unit_index < 0 or any(r < 0 for r in ram):
            raise IwalambdaError("valuations must be nonnegative")
        self._set_fields(h, ram, deg, unit_index)


def ambiguous_valuation(data: AmbiguousInput) -> int:
    """Valuation of the invariant-class count: h + sum(ram) - deg - unit_index.

    A negative outcome means the inputs cannot come from an actual cyclic
    extension (the left side counts a group), so it is rejected.
    """
    value = data.h + sum(data.ram) - data.deg - data.unit_index
    if value < 0:
        raise InconsistentDataError("inconsistent ambiguous-class data")
    return value
