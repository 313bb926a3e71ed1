"""Command-line interface: every computation as reproducible JSON or text.

Field inputs come from flags or a flat key=value config file (flags win).
JSON output is byte-identical across runs for identical inputs: keys are
sorted, characters are labeled by canonical orbit representative ("one"
and "omega" for the unit and Teichmueller characters), and no timestamps
enter the payload.  Exit codes: 0 success (and --help), 1 malformed
argument (a missing required flag, a non-integer value, a bad choice, an
unknown subcommand or flag, a malformed list) or failed internal check,
2 invalid field, 3 invalid prime set, 4 scale exceeded, 5 inconsistent
data.  A failure writes one line to stderr and nothing to stdout:
"error: ...", or "internal check failed: ..." for a failed check.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import gcd

from .characters import AbsChar, LadicChar, VirtualChar, mirror_abs, teichmuller
from .cohomology import AmbiguousInput, FiniteGammaModule, ambiguous_valuation, tate_h0, tate_h1
from .defect import (
    LambdaExpr,
    defect_character,
    defect_oracle,
    imo_lambda,
    ladic_chars_of,
    lambda_shift_imaginary,
    lambda_shift_real,
    lambda_wild,
    reflection_check,
)
from .errors import IwalambdaError
from .fields import FieldSpec, field_spec
from .groups import FiniteAbelianGroup
from .iwasawa import (
    ElementaryModuleSpec,
    fit_parameters,
    level_order_table,
    poly_level_valuation_direct,
    poly_level_valuations,
)
from .splitting import splitting_exponent, splitting_exponent_oracle

SCHEMA = "iwalambda/1"


# ---------------------------------------------------------------------------
# rendering

def _char_label(chi: AbsChar, omega: AbsChar | None) -> str:
    if chi.is_trivial:
        return "one"
    if omega is not None and chi == omega:
        return "omega"
    return "chi(" + ",".join(str(c) for c in chi.coeffs) + ")"


def _render_virtual(x: VirtualChar, field: FieldSpec) -> dict[str, int]:
    """Multiplicities by orbit label; x must be a sum of whole orbits."""
    if x.group != field.delta or not x.is_frobenius_stable(field.ell):
        raise AssertionError("virtual character is not Frobenius-stable")
    omega = teichmuller(field).rep if field.contains_mu_ell else None
    reps = (phi.rep for phi in ladic_chars_of(field))
    return {_char_label(chi, omega): m for chi in reps if (m := x.multiplicity(chi))}


def _render_lambda(expr: LambdaExpr, field: FieldSpec) -> dict:
    return {
        "base": {sym.value: k for sym, k in sorted(expr.base.items(), key=lambda kv: kv[0].value)},
        "shift": _render_virtual(expr.shift, field),
    }


def _render_field(field: FieldSpec) -> dict:
    return {
        "ell": field.ell,
        "conductor": field.conductor,
        "subgroup": list(field.subgroup_gens),
        "delta": list(field.delta.invariant_factors),
        "tau_bar": list(field.tau_bar.coords),
        "contains_mu_ell": field.contains_mu_ell,
        "degree_prime_to_ell": field.degree_prime_to_ell,
    }


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    # aligned two-column text, deterministic ordering
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            rows.append((prefix, " ".join(str(v) for v in value)))
        else:
            rows.append((prefix, str(value)))

    walk("", payload)
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        sys.stdout.write(f"{k.ljust(width)}  {v}\n")


# ---------------------------------------------------------------------------
# input parsing

def _int_list(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise IwalambdaError(f"not a comma list of integers: {text!r}") from None


_TERM = re.compile(r"^([+-]?\d*)\*?(T(?:\^(\d+))?)?$")


def parse_poly(text: str) -> tuple[int, ...]:
    """Parse 'T^3+3T^2+3T' into ascending coefficients (0, 3, 3, 1)."""
    s = text.replace(" ", "").replace("-", "+-")
    terms = [t for t in s.split("+") if t]
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM.match(term)
        if not m or (m.group(1) in ("", "+", "-") and m.group(2) is None):
            raise IwalambdaError(f"cannot parse polynomial term {term!r}")
        sign_part, t_part, exp_part = m.group(1), m.group(2), m.group(3)
        coeff = int(sign_part) if sign_part not in ("", "+", "-") else (-1 if sign_part == "-" else 1)
        deg = 0 if t_part is None else (int(exp_part) if exp_part else 1)
        coeffs[deg] = coeffs.get(deg, 0) + coeff
    if not coeffs:
        raise IwalambdaError(f"empty polynomial: {text!r}")
    top = max(coeffs)
    return tuple(coeffs.get(k, 0) for k in range(top + 1))


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise IwalambdaError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _field_from_args(args) -> FieldSpec:
    return field_spec(int(args.ell), int(args.conductor), _int_list(args.subgroup))


# ---------------------------------------------------------------------------
# subcommands

def cmd_chars(args) -> dict:
    field = _field_from_args(args)
    field.require_mirror_valid()
    omega = teichmuller(field).rep
    chars = ladic_chars_of(field)
    orbit_label = {chi.coeffs: _char_label(phi.rep, omega) for phi in chars for chi in phi.orbit}

    def mirror_label(phi: LadicChar) -> str:
        label = orbit_label.get(mirror_abs(phi.rep, omega).coeffs)
        if label is None:
            raise AssertionError("mirror partner missing")
        return label

    result = [
        {
            "label": _char_label(phi.rep, omega),
            "coords": list(phi.rep.coeffs),
            "degree": phi.degree,
            "parity": phi.parity,
            "mirror": mirror_label(phi),
        }
        for phi in chars
    ]
    return {"field": _render_field(field), "input": {}, "result": {"characters": result}, "oracle_checked": False}


def cmd_defect(args) -> dict:
    field = _field_from_args(args)
    S = _int_list(args.primes)
    value = defect_character(field, S)
    checked = False
    if args.verify:
        if defect_oracle(field, S) != value:
            raise AssertionError("defect oracle disagrees with the closed form")
        checked = True
    return {
        "field": _render_field(field),
        "input": {"S": sorted(S)},
        "result": _render_virtual(value, field),
        "oracle_checked": checked,
    }


def cmd_lambda(args) -> dict:
    field = _field_from_args(args)
    S = _int_list(args.primes)
    parity = args.parity
    if parity == "real":
        expr = lambda_shift_real(field, S)
    elif parity == "imaginary":
        expr = lambda_shift_imaginary(field, S)
        if not S:  # after the checks, so a rejected input gets one error line only
            sys.stderr.write(
                "warning: the imaginary shift formula evaluated at S = {} is the literal "
                "out-of-range value (shift -omega); the baseline has no shift\n"
            )
    else:
        expr = lambda_wild(field, S)
    checked = False
    if args.verify:
        for p in S:
            if p != field.ell and splitting_exponent(field.ell, p) != splitting_exponent_oracle(field.ell, p):
                raise AssertionError("splitting exponent oracle disagrees")
        checked = True
    payload = {"S": sorted(S), "parity": parity}
    if field.ell == field.conductor and parity == "real" and field.ell not in S:
        payload["imo_lambda"] = imo_lambda(field.ell, S)
    return {
        "field": _render_field(field),
        "input": payload,
        "result": _render_lambda(expr, field),
        "oracle_checked": checked,
    }


def cmd_reflect(args) -> dict:
    field = _field_from_args(args)
    S = _int_list(args.set_s)
    T = _int_list(args.set_t)
    report = reflection_check(field, S, T)
    checked = False
    if args.verify:
        for tame in (S, T):
            tame = tuple(p for p in tame if p != field.ell)
            if tame and defect_character(field, tame) != defect_oracle(field, tame):
                raise AssertionError("defect oracle disagrees with the closed form")
        checked = True
    return {
        "field": _render_field(field),
        "input": {"S": sorted(S), "T": sorted(T)},
        "result": {
            "identity_holds": report.holds,
            "case": report.kappa_rhs.case.value,
            "kappa": _render_virtual(report.kappa_rhs.value, field),
            "lhs": _render_lambda(report.lhs, field),
            "rhs": _render_lambda(report.rhs, field),
        },
        "oracle_checked": checked,
    }


def cmd_simulate(args) -> dict:
    polys = tuple(parse_poly(p) for p in (args.poly or ()))
    try:
        spec = ElementaryModuleSpec(int(args.ell), rho=args.rho, polys=polys, mus=_int_list(args.mu))
    except ValueError as exc:
        raise IwalambdaError(str(exc)) from exc
    n_min, n_max = args.n_min, args.n
    if n_max < n_min:
        raise IwalambdaError("--n must be at least --n-min")
    if n_min < 0 or args.offset < 0:
        raise IwalambdaError("--n-min and --offset must be nonnegative")
    table = level_order_table(spec, n_min, n_max, exponent_offset=args.offset)
    fit = fit_parameters(table, spec.ell) if len(table.entries) >= 4 else None
    checked = False
    if args.verify:
        for f in spec.polys:
            for n in range(n_min, n_max + 1):
                cap = n + args.offset
                if sum(poly_level_valuations(f, spec.ell, n, cap)) != poly_level_valuation_direct(f, spec.ell, n, cap):
                    raise AssertionError("relation-lattice construction disagrees")
        checked = True
    return {
        "field": None,
        "input": {
            "ell": spec.ell,
            "rho": spec.rho,
            "polys": [list(f) for f in spec.polys],
            "mus": list(spec.mus),
            "levels": list(range(n_min, n_max + 1)),
            "exponent_offset": args.offset,
        },
        "result": {
            "orders": [table.entries[n] for n in range(n_min, n_max + 1)],
            "fit": (
                {"rho": fit.rho, "mu": fit.mu, "lambda": fit.lam, "nu": fit.nu}
                if fit is not None
                else "not yet stable"
            ),
        },
        "oracle_checked": checked,
    }


def cmd_ambig(args) -> dict:
    try:
        data = AmbiguousInput(args.class_val, _int_list(args.ram), args.deg, args.unit_index)
    except ValueError as exc:
        raise IwalambdaError(str(exc)) from exc
    return {
        "field": None,
        "input": {"h": data.h, "ram": list(data.ram), "deg": data.deg, "unit_index": data.unit_index},
        "result": {"valuation": ambiguous_valuation(data)},
        "oracle_checked": False,
    }


def cmd_cohomology(args) -> dict:
    factors = _int_list(args.factors)
    try:
        group = FiniteAbelianGroup(factors)
        sigma = tuple(_int_list(row) for row in args.sigma.split(";"))
        module = FiniteGammaModule(group, sigma, args.order)
    except ValueError as exc:
        raise IwalambdaError(str(exc)) from exc
    h0, h1 = tate_h0(module), tate_h1(module)
    g = gcd(h0, h1)  # the Herbrand quotient h0/h1 in lowest terms, as str(Fraction) prints it
    herbrand = str(h0 // g) if h1 == g else f"{h0 // g}/{h1 // g}"
    return {
        "field": None,
        "input": {"factors": list(factors), "sigma": [list(r) for r in sigma], "order": args.order},
        "result": {"h0": h0, "h1": h1, "herbrand": herbrand},
        "oracle_checked": False,
    }


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one "error:" line through main, not with
    argparse's usage block and exit 2 (the code of an invalid field);
    add_subparsers builds the subcommand parsers from this class too."""

    def error(self, message):
        raise IwalambdaError(message)


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=int, required=True, help="odd prime ell")
    p.add_argument("--conductor", type=int, required=True, help="cyclotomic conductor m (ell | m)")
    p.add_argument("--subgroup", default="", help="comma list of residues generating H (empty: K = Q(zeta_m))")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verify", action="store_true", help="run the independent oracle before reporting")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--config", default=None, help="flat key=value file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iwalambda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="list the ell-adic irreducible characters")
    _add_field_args(p)
    _add_common(p)
    p.set_defaults(fn=cmd_chars)

    p = sub.add_parser("defect", help="defect character of a tame prime set")
    _add_field_args(p)
    p.add_argument("--primes", default="", help="comma list of tame primes S")
    _add_common(p)
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("lambda", help="lambda-shift prediction for a prime set")
    _add_field_args(p)
    p.add_argument("--primes", default="", help="comma list of primes S")
    p.add_argument("--parity", choices=("real", "imaginary", "wild"), default="real")
    _add_common(p)
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("reflect", help="check the reflection identity for (S, T)")
    _add_field_args(p)
    p.add_argument("--S", dest="set_s", default="", help="comma list: ramified side")
    p.add_argument("--T", dest="set_t", default="", help="comma list: decomposed side")
    _add_common(p)
    p.set_defaults(fn=cmd_reflect)

    p = sub.add_parser("simulate", help="order table and parameter fit of an elementary module")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--rho", type=int, default=0)
    p.add_argument("--poly", action="append", default=None, help="distinguished polynomial, e.g. 'T^2+3T+3' (repeatable)")
    p.add_argument("--mu", default="", help="comma list of ell-power exponents m_j")
    p.add_argument("--n", type=int, required=True, help="largest level")
    p.add_argument("--n-min", type=int, default=0, help="smallest level (default 0)")
    p.add_argument("--offset", type=int, default=0, help="exponent offset k: cut to exponent ell^(n+k)")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ambig", help="ambiguous-class valuation formula")
    p.add_argument("--class-val", type=int, required=True, help="valuation of the base class number")
    p.add_argument("--ram", default="", help="comma list of ramification-index valuations")
    p.add_argument("--deg", type=int, required=True, help="valuation of the extension degree")
    p.add_argument("--unit-index", type=int, default=0, help="valuation of the unit-norm index")
    _add_common(p)
    p.set_defaults(fn=cmd_ambig)

    p = sub.add_parser("cohomology", help="Tate cohomology of a cyclic action")
    p.add_argument("--factors", required=True, help="invariant factors, comma list")
    p.add_argument("--sigma", required=True, help="action matrix, rows ; separated, entries , separated")
    p.add_argument("--order", type=int, required=True, help="order of the acting cyclic group")
    _add_common(p)
    p.set_defaults(fn=cmd_cohomology)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # config file pre-pass: inject values the flags do not already set
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is not None:
        try:
            config = _load_config(path)
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        present = {a.split("=")[0] for a in argv if a.startswith("--")}
        for key, value in sorted(config.items()):
            flag = "--" + key.replace("_", "-")
            if flag in present:
                continue
            if value.lower() in ("true", "false"):  # boolean switches
                if value.lower() == "true":
                    argv.append(flag)
            else:
                argv.extend([flag, value])
    try:
        # argparse reads '--flag=--' as an empty list, not as the value '--'
        for a in argv:
            if a.startswith("--") and a.endswith("=--"):
                raise IwalambdaError(f"missing value: {a!r}")
        args = parser.parse_args(argv)
        payload = args.fn(args)
        payload["schema"] = SCHEMA
        _emit(payload, args.format)
        return 0
    except IwalambdaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except AssertionError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
