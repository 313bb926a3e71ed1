"""An exhaustive box of small fields, run against every oracle.

The property tests sample a handful of fields; the box enumerates them:
ell in {3, 5, 7}, every conductor m <= 100 with ell | m, and H trivial or
cyclic <h> with h = 1 mod ell (so K contains the ell-th roots of unity),
one field per (ell, m, H), kept when ell does not divide |Delta|.  Every
count is asserted, so a box that shrinks fails.
"""

import itertools
from math import gcd

from iwalambda.characters import all_ladic_chars
from iwalambda.defect import (
    defect_character,
    defect_oracle,
    lambda_shift_real,
    lambda_shift_real_oracle,
    reflection_check,
)
from iwalambda.fields import FieldSpec
from iwalambda.splitting import decomposition_data
from oracles import all_ladic_chars_by_walk, decomposition_by_scan, induce_trivial_by_scan, primes_below

BOX_ELLS = (3, 5, 7)
BOX_MAX_CONDUCTOR = 100
BOX_PRIMES = primes_below(44)


def box_fields() -> list[FieldSpec]:
    """The fields of the box, by ell, then m, then least generator of H."""
    fields = []
    for ell in BOX_ELLS:
        for m in range(ell, BOX_MAX_CONDUCTOR + 1, ell):
            seen = set()
            for h in range(1, m):
                if gcd(h, m) != 1 or h % ell != 1:
                    continue
                H = frozenset(pow(h, k, m) for k in range(m))
                if H in seen:
                    continue
                seen.add(H)
                F = FieldSpec(ell, m, (h,) if h != 1 else ())
                if F.delta.order % ell != 0:
                    fields.append(F)
    return fields


def tame_sets(ell: int) -> list[tuple[int, ...]]:
    """Every set of at most 2 of the first 6 primes below 44 other than ell,
    by size, then lexicographically."""
    tame = [p for p in BOX_PRIMES if p != ell][:6]
    return [S for r in range(3) for S in itertools.combinations(tame, r)]


def test_every_small_field_agrees_with_every_oracle():
    fields = box_fields()
    counts = dict.fromkeys(("decomposition", "defect", "reflection"), 0)
    for F in fields:
        key = (F.ell, F.conductor, F.subgroup_gens)
        assert all_ladic_chars(F.delta, F.ell, F.tau_bar) == all_ladic_chars_by_walk(F.delta, F.ell, F.tau_bar), key
        for p in BOX_PRIMES:
            d = decomposition_data(F, p)
            assert (frozenset(d.decomposition.elements), frozenset(d.inertia.elements)) == decomposition_by_scan(F, p), (key, p)
            assert d.induced_trivial == induce_trivial_by_scan(F.delta, d.decomposition), (key, p)
            counts["decomposition"] += 1
        sets = tame_sets(F.ell)
        for S in sets:
            assert defect_character(F, S) == defect_oracle(F, S), (key, S)
            assert lambda_shift_real(F, S).shift == lambda_shift_real_oracle(F, S), (key, S)
            counts["defect"] += 1
        for S, T in itertools.product(sets[:8], repeat=2):
            if set(S) & set(T):
                continue
            for wild_S, wild_T in (((F.ell, *S), T), (S, (F.ell, *T))):
                assert reflection_check(F, wild_S, wild_T).holds, (key, wild_S, wild_T)
                counts["reflection"] += 1
    assert len(fields) == 205
    assert counts == {"decomposition": 2870, "defect": 4510, "reflection": 21730}
