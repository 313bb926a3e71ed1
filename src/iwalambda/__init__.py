"""iwalambda: exact lambda-shift arithmetic for abelian fields.

Submodules
----------
exact       integer utilities (valuations, orders, CRT, Smith normal form)
groups      finite abelian groups, (Z/m)*, subgroups, quotients
characters  l-adic character algebra (orbits, mirror, parity, induction)
fields      abelian field specifications K inside Q(zeta_m)
splitting   decomposition data of primes and the characters chi_p, chi_S
defect      defect characters, lambda-shift expressions, reflection checks
iwasawa     elementary module order tables and parameter fitting
cohomology  Tate cohomology of cyclic actions and the ambiguous-class formula
cli         command-line interface (JSON / aligned tables)

The names below are loaded on first access (PEP 562): ``import
iwalambda.iwasawa`` loads that layer and what it imports, not the
character algebra, and ``from iwalambda import field_spec`` loads the
field layer and what it imports.
"""

from importlib import import_module as _import_module

_EXPORTS_BY_MODULE = {
    "characters": (
        "AbsChar",
        "LadicChar",
        "VirtualChar",
        "all_ladic_chars",
        "induce_trivial",
        "inner_product",
        "mirror",
        "parity_split",
        "restrict",
        "teichmuller",
    ),
    "cohomology": (
        "AmbiguousInput",
        "FiniteGammaModule",
        "ambiguous_valuation",
        "herbrand_quotient",
        "tate_h0",
        "tate_h1",
    ),
    "defect": (
        "BaseSymbol",
        "CaseTag",
        "LambdaExpr",
        "defect_character",
        "defect_oracle",
        "imo_lambda",
        "kappa",
        "lambda_shift_imaginary",
        "lambda_shift_real",
        "lambda_shift_real_oracle",
        "lambda_wild",
        "reflection_check",
    ),
    "errors": (
        "FieldError",
        "InconsistentDataError",
        "IwalambdaError",
        "PrimeSetError",
        "ScaleError",
    ),
    "exact": ("crt", "mult_order", "smith_normal_form", "valuation"),
    "fields": ("FieldSpec", "field_spec"),
    "groups": (
        "FiniteAbelianGroup",
        "GroupElement",
        "Subgroup",
        "UnitGroupModM",
        "quotient",
        "subgroup_generated",
        "unit_group",
    ),
    "iwasawa": (
        "ElementaryModuleSpec",
        "FitParameters",
        "LevelOrderTable",
        "fit_parameters",
        "level_order",
        "level_order_table",
        "omega_poly",
    ),
    "splitting": (
        "PrimeLocalData",
        "chi_S",
        "chi_p",
        "decomposition_data",
        "splitting_exponent",
        "splitting_exponent_oracle",
    ),
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not stored in globals(): the package always shows the submodule's
    # current binding
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
