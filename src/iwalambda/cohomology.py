"""Tate cohomology of a cyclic action on a finite module, and the
ambiguous-class valuation formula.

A module is a finite abelian group with an automorphism sigma of known
order n.  The two cohomology orders |H^0-hat| = |ker(sigma-1)| / |im N|
and |H^1| = |ker N| / |im(sigma-1)| (N the algebraic norm 1 + sigma +
... + sigma^(n-1)) are computed through Smith reduction of the lifted
maps against the presentation lattice; exhaustive element enumeration is
kept in the tests as the oracle.  The Herbrand quotient of a finite
module is 1, which is exactly the counting identity the reduction route
realizes, and it is multiplicative on stable submodule / quotient pairs.

The ambiguous-class formula itself consumes ell-valuations only: the
class number of the base, tame ramification indices, the degree, and the
unit-norm index are inputs, never computed here.
"""

from __future__ import annotations

from .errors import InconsistentDataError
from .exact import Record, identity_matrix, smith_normal_form
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
        object.__setattr__(self, "sigma", tuple(tuple(int(x) for x in row) for row in self.sigma))
        k = self.module.rank
        d = self.module.invariant_factors
        if len(self.sigma) != k or any(len(r) != k for r in self.sigma):
            raise ValueError("sigma must be a square matrix of the module rank")
        if self.order_n < 1:
            raise ValueError("the actor order must be positive")
        for i in range(k):
            for j in range(k):
                if (self.sigma[i][j] * d[j]) % d[i] != 0:
                    raise ValueError("sigma does not preserve the relation lattice")
        # invertibility: sigma must be surjective on the finite module
        if _cokernel_order(list(map(list, self.sigma)), d) != 1:
            raise ValueError("sigma is not an automorphism")
        power = _mat_power(self.sigma, self.order_n)
        for i in range(k):
            for j in range(k):
                want = 1 if i == j else 0
                if (power[i][j] - want) % d[i] != 0:
                    raise ValueError("sigma^order_n is not the identity")

    def apply(self, g: GroupElement) -> GroupElement:
        if g.group != self.module:
            raise ValueError("element of a different module")
        return self.module.element(
            sum(self.sigma[i][j] * g.coords[j] for j in range(self.module.rank))
            for i in range(self.module.rank)
        )

    def norm_matrix(self) -> list[list[int]]:
        k = self.module.rank
        total = [[0] * k for _ in range(k)]
        power = identity_matrix(k)
        for _ in range(self.order_n):
            for i in range(k):
                for j in range(k):
                    total[i][j] += power[i][j]
            power = _mat_mul(power, self.sigma)
        return total

    def sigma_minus_one(self) -> list[list[int]]:
        return _mat_sub_identity(self.sigma)


def _mat_mul(a, b) -> list[list[int]]:
    k = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def _mat_power(a, n: int) -> list[list[int]]:
    out = identity_matrix(len(a))
    base = [list(r) for r in a]
    while n:
        if n & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        n >>= 1
    return out


def _mat_sub_identity(a) -> list[list[int]]:
    k = len(a)
    return [[a[i][j] - (1 if i == j else 0) for j in range(k)] for i in range(k)]


def _cokernel_order(F: list[list[int]], d: tuple[int, ...]) -> int:
    """|M / im(F)| for the module with invariant factors d: Smith form of
    the columns of F together with the relation lattice.

    On a finite module this is also |ker(F)|, by counting: |M| = |ker F| *
    |im F|, so the Tate orders below read kernels off this one function.
    """
    k = len(d)
    if k == 0:
        return 1
    rows = [F[i] + [d[i] if j == i else 0 for j in range(k)] for i in range(k)]
    out = 1
    for x in smith_normal_form(rows):
        out *= x
    return out


def tate_h1(M: FiniteGammaModule) -> int:
    """|H^1| = |ker(norm)| / |im(sigma - 1)|."""
    d = M.module.invariant_factors
    order = M.module.order
    ker_norm = _cokernel_order(M.norm_matrix(), d)
    im_sigma = order // _cokernel_order(M.sigma_minus_one(), d)
    if ker_norm % im_sigma != 0:
        raise AssertionError("im(sigma-1) does not sit inside ker(norm)")
    return ker_norm // im_sigma


def tate_h0(M: FiniteGammaModule) -> int:
    """|H^0-hat| = |ker(sigma - 1)| / |im(norm)|."""
    d = M.module.invariant_factors
    order = M.module.order
    ker_sigma = _cokernel_order(M.sigma_minus_one(), d)
    im_norm = order // _cokernel_order(M.norm_matrix(), d)
    if ker_sigma % im_norm != 0:
        raise AssertionError("im(norm) does not sit inside ker(sigma-1)")
    return ker_sigma // im_norm


def herbrand_quotient(M: FiniteGammaModule) -> "Fraction":
    """|H^0-hat| / |H^1| as an exact rational; 1 for every finite module.

    fractions is imported here, on first call, and nowhere else: no other
    layer needs it, and it costs every CLI process a few milliseconds.
    """
    from fractions import Fraction

    return Fraction(tate_h0(M), tate_h1(M))


# ---------------------------------------------------------------------------
# stable submodules and quotients (multiplicativity checks)

def stable_submodule(M: FiniteGammaModule, gens) -> tuple[FiniteGammaModule, Subgroup]:
    """Smallest sigma-stable submodule containing gens, as its own module."""
    gens = [g if isinstance(g, GroupElement) else M.module.element(g) for g in gens]
    closed = []
    for g in gens:
        x = g
        for _ in range(M.order_n):
            closed.append(x)
            x = M.apply(x)
    H = subgroup_generated(M.module, closed)
    S, to_parent, from_parent = H.as_group()
    k = S.rank
    cols = []
    for i in range(k):
        basis = S.element([1 if j == i else 0 for j in range(k)])
        image = M.apply(to_parent(basis))
        cols.append(from_parent[image.coords].coords)
    sigma = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
    return FiniteGammaModule(S, sigma, M.order_n), H


def quotient_module(M: FiniteGammaModule, H: Subgroup) -> FiniteGammaModule:
    """M/H with the induced action; H must be sigma-stable."""
    for h in H:
        if M.apply(h) not in H:
            raise ValueError("subgroup is not sigma-stable")
    Q = quotient(M.module, H)
    k = Q.group.rank
    cols = []
    for i in range(k):
        basis = Q.group.element([1 if j == i else 0 for j in range(k)])
        image = Q.project(M.apply(Q.section(basis)))
        cols.append(image.coords)
    sigma = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
    return FiniteGammaModule(Q.group, sigma, M.order_n)


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
        ram = tuple(int(r) for r in ram)
        if h < 0 or deg < 0 or unit_index < 0 or any(r < 0 for r in ram):
            raise ValueError("valuations must be nonnegative")
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
