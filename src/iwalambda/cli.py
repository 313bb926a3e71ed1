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
Each call compiles only the layers its subcommand runs; library imports
of iwalambda and its submodules load as they always have.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys

from .errors import IwalambdaError, ScaleError


def _lazy(name: str):
    """Register iwalambda.<name>, to be executed on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:  # already imported: returned unchanged
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)  # as the import system binds a submodule
    return module


# every layer is in sys.modules from here on, where perfbench/tracer.py looks for it
exact, groups, fields, characters, splitting, defect, iwasawa, _kernels, cohomology = map(
    _lazy, ("exact", "groups", "fields", "characters", "splitting", "defect", "iwasawa", "_kernels", "cohomology"))


def __getattr__(name: str):  # PEP 562: iwalambda.cli.<public name> is the package's current binding
    if name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


SCHEMA = "iwalambda/1"


# ---------------------------------------------------------------------------
# rendering

def _label(table: characters.CharTable, i: int) -> str:
    """The label of the orbit whose least member is position i of the table."""
    if i == 0:  # the trivial character
        return "one"
    if i == table.omega:
        return "omega"
    return "chi(" + ",".join(map(str, table.chars[i].coeffs)) + ")"


def _render_virtual(x: characters.VirtualChar, field: fields.FieldSpec) -> dict[str, int]:
    """Multiplicities by orbit label; x must be a sum of whole orbits."""
    if x.group != field.delta or not x.is_frobenius_stable(field.ell):
        raise AssertionError("virtual character is not Frobenius-stable")
    table = characters.char_table(field)
    return {_label(table, orbit[0]): m for orbit in table.orbits if (m := x.multiplicity(table.chars[orbit[0]]))}


def _render_lambda(expr: defect.LambdaExpr, field: fields.FieldSpec) -> dict:
    return {
        "base": {sym.value: k for sym, k in sorted(expr.base.items(), key=lambda kv: kv[0].value)},
        "shift": _render_virtual(expr.shift, field),
    }


def _render_field(field: fields.FieldSpec) -> dict:
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
    """Write the payload; every int is converted to decimal before the first
    byte goes out, so one past sys.get_int_max_str_digits() is a ScaleError
    with nothing on stdout."""
    try:
        text = _render_text(payload, fmt)
    except ValueError:  # the int-to-str digit limit, the only ValueError here
        raise ScaleError(f"an output integer has more than {sys.get_int_max_str_digits()} digits") from None
    sys.stdout.write(text)


def _render_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # aligned two-column text of JSON values: a dict's keys and the indices
    # of a list that holds containers extend the path; any other value, a
    # list of scalars included, is one row
    rows: list[tuple[str, str]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            value = dict(enumerate(value))
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            rows.append((prefix, json.dumps(value)))

    walk("", payload)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


# ---------------------------------------------------------------------------
# input parsing

def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise IwalambdaError(f"not a comma list of integers: {text!r}") from None


_TERM = re.compile(r"^([+-]?\d*)(?:(?<=\d)\*(?=T))?(T(?:\^(\d+))?)?$")  # "*" only between digits and T, as in 3*T


def parse_poly(text: str) -> tuple[int, ...]:
    """Parse 'T^3+3T^2+3T' into ascending coefficients (0, 3, 3, 1).

    A degree past iwasawa.MATRIX_DIM_CAP (the --verify lattice has dimension
    ell^n + deg f, which cmd_simulate bounds as a whole) or a term past the
    int-from-str digit limit is a ScaleError, raised before any coefficient
    tuple is built."""
    s = text.replace(" ", "").replace("-", "+-")
    terms = [t for t in s.split("+") if t]
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM.match(term)
        if not m or (m.group(1) in ("", "+", "-") and m.group(2) is None):
            raise IwalambdaError(f"cannot parse polynomial term {term!r}")
        sign_part, t_part, exp_part = m.group(1), m.group(2), m.group(3)
        try:
            coeff = int(sign_part) if sign_part not in ("", "+", "-") else (-1 if sign_part == "-" else 1)
            deg = 0 if t_part is None else (int(exp_part) if exp_part else 1)
        except ValueError:  # the int-from-str digit limit, the only ValueError here
            raise ScaleError(f"a polynomial term has more than {sys.get_int_max_str_digits()} digits") from None
        if deg > iwasawa.MATRIX_DIM_CAP:
            raise ScaleError(f"polynomial degree {deg} exceeds the matrix dimension cap {iwasawa.MATRIX_DIM_CAP}")
        coeffs[deg] = coeffs.get(deg, 0) + coeff
    if not coeffs:
        raise IwalambdaError(f"empty polynomial: {text!r}")
    top = max((deg for deg, c in coeffs.items() if c), default=0)  # terms may cancel
    return tuple(coeffs.get(k, 0) for k in range(top + 1))


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IwalambdaError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise IwalambdaError(f"config file is not UTF-8: byte {exc.start} of {path!r}") from None
    out: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise IwalambdaError(f"bad config line: {line!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_chars(args, field) -> tuple[dict, dict, bool]:
    field.require_mirror_valid()
    table = characters.char_table(field)
    labels = [_label(table, orbit[0]) for orbit in table.orbits]
    result = [
        {
            "label": label,
            "coords": list(table.chars[orbit[0]].coeffs),
            "degree": len(orbit),
            "parity": characters.IMAGINARY if table.odd[orbit[0]] else characters.REAL,
            "mirror": labels[table.orbit_of[table.mirror[orbit[0]]]],
        }
        for label, orbit in zip(labels, table.orbits)
    ]
    return {}, {"characters": result}, False


def cmd_defect(args, field) -> tuple[dict, dict, bool]:
    S = _int_list(args.primes)
    value = defect.defect_character(field, S)
    if args.verify:
        if defect.defect_oracle(field, S) != value:
            raise AssertionError("defect oracle disagrees with the closed form")
    return {"S": sorted(S)}, _render_virtual(value, field), args.verify


def cmd_lambda(args, field) -> tuple[dict, dict, bool]:
    S = _int_list(args.primes)
    parity = args.parity
    if parity == "real":
        expr = defect.lambda_shift_real(field, S)
    elif parity == "imaginary":
        expr = defect.lambda_shift_imaginary(field, S)
        if not S:  # after the checks, so a rejected input gets one error line only
            sys.stderr.write(
                "warning: the imaginary shift formula evaluated at S = {} is the literal "
                "out-of-range value (shift -omega); the baseline has no shift\n"
            )
    else:
        expr = defect.lambda_wild(field, S)
    if args.verify:
        exponents = {p: splitting.splitting_exponent(field.ell, p) for p in S if p != field.ell}
        if any(n_p != splitting.splitting_exponent_oracle(field.ell, p) for p, n_p in exponents.items()):
            raise AssertionError("splitting exponent oracle disagrees")
        # the counting oracle of the real shift (S is tame here) raises
        # ScaleError past its level cap rather than go unchecked
        if parity == "real" and defect.lambda_shift_real_oracle(field, S) != expr.shift:
            raise AssertionError("lambda-shift oracle disagrees with the closed form")
    given = {"S": sorted(S), "parity": parity}
    if field.ell == field.conductor and parity == "real" and field.ell not in S:
        given["imo_lambda"] = defect.imo_lambda(field.ell, S)
    return given, _render_lambda(expr, field), args.verify


def cmd_reflect(args, field) -> tuple[dict, dict, bool]:
    S = _int_list(args.set_s)
    T = _int_list(args.set_t)
    report = defect.reflection_check(field, S, T)
    if args.verify:
        # a wild_mirror kappa(T, S) is the defect character of S, kappa(S, T) that of T
        for tame, k in ((S, report.kappa_lhs), (T, report.kappa_rhs)):
            tame = tuple(p for p in tame if p != field.ell)
            if not tame:
                continue
            value = k.value if k.case is defect.CaseTag.WILD_MIRROR else defect.defect_character(field, tame)
            if value != defect.defect_oracle(field, tame):
                raise AssertionError("defect oracle disagrees with the closed form")
    result = {
        "identity_holds": report.holds,
        "case": report.kappa_rhs.case.value,
        "kappa": _render_virtual(report.kappa_rhs.value, field),
        "lhs": _render_lambda(report.lhs, field),
        "rhs": _render_lambda(report.rhs, field),
    }
    return {"S": sorted(S), "T": sorted(T)}, result, args.verify


def cmd_simulate(args, field) -> tuple[dict, dict, bool]:
    polys = tuple(parse_poly(p) for p in (args.poly or ()))
    spec = iwasawa.ElementaryModuleSpec(args.ell, rho=args.rho, polys=polys, mus=_int_list(args.mu))
    n_min, n_max = args.n_min, args.n
    if n_max < n_min:
        raise IwalambdaError("--n must be at least --n-min")
    if n_min < 0 or args.offset < 0:
        raise IwalambdaError("--n-min and --offset must be nonnegative")
    # the orders, of the size of ell^n_max, print in decimal, and a polynomial
    # summand is reduced mod ell^(n_max + offset); ell >= 2^(bit_length-1) and
    # 16^limit > 10^limit, so deep exponents fail the first test without ell^e
    e, power = (n_max + args.offset, "ell^(n+offset)") if spec.polys and args.offset else (n_max, "ell^n")
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 or absent: no limit
    if limit and (e * (spec.ell.bit_length() - 1) >= 4 * limit or spec.ell**e >= 10**limit):
        raise ScaleError(f"{power} has more than {limit} digits")
    # --verify reduces a Sylvester lattice of ell^n + deg f columns at each level
    size = max((spec.ell**n_max + len(f) - 1 for f in spec.polys), default=0) if args.verify else 0
    if size > (dim_cap := iwasawa.MATRIX_DIM_CAP):
        raise ScaleError(f"the --verify lattice dimension {size} exceeds the matrix dimension cap {dim_cap}")
    table = iwasawa.level_order_table(spec, n_min, n_max, exponent_offset=args.offset)
    fit = iwasawa.fit_parameters(table, spec.ell) if len(table.entries) >= 4 else None
    if args.verify:
        for f in spec.polys:
            for n in range(n_min, n_max + 1):
                level = (f, spec.ell, n, n + args.offset)
                if iwasawa.poly_level_valuation(*level) != iwasawa.poly_level_valuation_direct(*level):
                    raise AssertionError("relation-lattice construction disagrees")
    given = {
        "ell": spec.ell,
        "rho": spec.rho,
        "polys": [list(f) for f in spec.polys],
        "mus": list(spec.mus),
        "levels": list(range(n_min, n_max + 1)),
        "exponent_offset": args.offset,
    }
    result = {
        "orders": [table.entries[n] for n in range(n_min, n_max + 1)],
        "fit": (
            {"rho": fit.rho, "mu": fit.mu, "lambda": fit.lam, "nu": fit.nu}
            if fit is not None
            else "not yet stable"
        ),
    }
    return given, result, args.verify


def cmd_ambig(args, field) -> tuple[dict, dict, bool]:
    data = cohomology.AmbiguousInput(args.class_val, _int_list(args.ram), args.deg, args.unit_index)
    given = {"h": data.h, "ram": list(data.ram), "deg": data.deg, "unit_index": data.unit_index}
    return given, {"valuation": cohomology.ambiguous_valuation(data)}, False


def cmd_cohomology(args, field) -> tuple[dict, dict, bool]:
    factors = _int_list(args.factors)
    group = groups.FiniteAbelianGroup(factors)
    sigma = tuple(_int_list(row) for row in args.sigma.split(";"))
    module = cohomology.FiniteGammaModule(group, sigma, args.order)
    order = cohomology.tate_h0(module)  # = |H^1|: the Herbrand quotient of a finite module is 1
    given = {"factors": list(factors), "sigma": [list(r) for r in sigma], "order": args.order}
    return given, {"h0": order, "h1": order, "herbrand": "1"}, False


# subcommand -> (handler, help line), in the order --help lists them
_COMMANDS = {
    "chars": (cmd_chars, "list the ell-adic irreducible characters"),
    "defect": (cmd_defect, "defect character of a tame prime set"),
    "lambda": (cmd_lambda, "lambda-shift prediction for a prime set"),
    "reflect": (cmd_reflect, "check the reflection identity for (S, T)"),
    "simulate": (cmd_simulate, "order table and parameter fit of an elementary module"),
    "ambig": (cmd_ambig, "ambiguous-class valuation formula"),
    "cohomology": (cmd_cohomology, "Tate cohomology of a cyclic action"),
}
_FIELD_COMMANDS = ("chars", "defect", "lambda", "reflect")  # take --ell, --conductor, --subgroup


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one "error:" line through main, not with
    argparse's usage block and exit 2 (the code of an invalid field);
    add_subparsers builds the subcommand parsers from this class too.
    Flags must be spelled in full, so the config pre-pass in main sees
    exactly the flags that argparse will read."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise IwalambdaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iwalambda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    for name in _FIELD_COMMANDS:
        p[name].add_argument("--ell", type=int, required=True, help="odd prime ell")
        p[name].add_argument("--conductor", type=int, required=True, help="cyclotomic conductor m (ell | m)")
        p[name].add_argument("--subgroup", default="", help="comma list of residues generating H (empty: K = Q(zeta_m))")

    p["defect"].add_argument("--primes", default="", help="comma list of tame primes S")
    p["lambda"].add_argument("--primes", default="", help="comma list of primes S")
    p["lambda"].add_argument("--parity", choices=("real", "imaginary", "wild"), default="real")
    p["reflect"].add_argument("--S", dest="set_s", default="", help="comma list: ramified side")
    p["reflect"].add_argument("--T", dest="set_t", default="", help="comma list: decomposed side")

    sim = p["simulate"]
    sim.add_argument("--ell", type=int, required=True)
    sim.add_argument("--rho", type=int, default=0)
    sim.add_argument("--poly", action="append", default=None, help="distinguished polynomial, e.g. 'T^2+3T+3' (repeatable)")
    sim.add_argument("--mu", default="", help="comma list of ell-power exponents m_j")
    sim.add_argument("--n", type=int, required=True, help="largest level")
    sim.add_argument("--n-min", type=int, default=0, help="smallest level (default 0)")
    sim.add_argument("--offset", type=int, default=0, help="exponent offset k: cut to exponent ell^(n+k)")

    amb = p["ambig"]
    amb.add_argument("--class-val", type=int, required=True, help="valuation of the base class number")
    amb.add_argument("--ram", default="", help="comma list of ramification-index valuations")
    amb.add_argument("--deg", type=int, required=True, help="valuation of the extension degree")
    amb.add_argument("--unit-index", type=int, default=0, help="valuation of the unit-norm index")

    coh = p["cohomology"]
    coh.add_argument("--factors", required=True, help="invariant factors, comma list")
    coh.add_argument("--sigma", required=True, help="action matrix, rows ; separated, entries , separated")
    coh.add_argument("--order", type=int, required=True, help="order of the acting cyclic group")

    for name, q in p.items():  # after each subcommand's own flags, where --help lists them
        if name != "ambig":  # a formula over given valuations, with no oracle to run
            q.add_argument("--verify", action="store_true", help="run the independent oracle before reporting")
        q.add_argument("--format", choices=("json", "table"), default="json")
        q.add_argument("--config", default=None, help="flat key=value file; flags take precedence")
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    A handler takes (args, field) and returns (input, result, oracle_checked).
    main builds field for _FIELD_COMMANDS, --subgroup first, and passes None
    otherwise; it writes those three, the rendered field and the schema."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # config file pre-pass: inject values the flags do not already set
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    try:
        if path is not None:
            present = {a.split("=")[0] for a in argv if a.startswith("--")}
            for key, value in sorted(_load_config(path).items()):
                flag = "--" + key.replace("_", "-")
                if flag in present:
                    continue
                if value.lower() in ("true", "false"):  # boolean switches
                    if value.lower() == "true":
                        argv.append(flag)
                else:
                    argv.extend([flag, value])
        # argparse reads '--flag=--' as an empty list, not as the value '--'
        for a in argv:
            if a.startswith("--") and a.endswith("=--"):
                raise IwalambdaError(f"missing value: {a!r}")
        args = parser.parse_args(argv)
        field = None
        if args.command in _FIELD_COMMANDS:
            field = fields.field_spec(args.ell, args.conductor, _int_list(args.subgroup))
        given, result, checked = _COMMANDS[args.command][0](args, field)
        payload = {
            "field": None if field is None else _render_field(field),
            "input": given,
            "result": result,
            "oracle_checked": checked,
            "schema": SCHEMA,
        }
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
