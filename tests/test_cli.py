import contextlib
import io
import json
import pathlib
import resource
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwalambda.characters
import iwalambda.cohomology
import iwalambda.defect
import iwalambda.errors
import iwalambda.fields
import iwalambda.groups
import iwalambda.iwasawa
import cli_corpus
from iwalambda.cli import main, parse_poly
from oracles import primes_below


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "iwalambda.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsePoly:
    def test_forms(self):
        assert parse_poly("T") == (0, 1)
        assert parse_poly("T^3+3T^2+3T") == (0, 3, 3, 1)
        assert parse_poly("T^2-3T+9") == (9, -3, 1)
        assert parse_poly("3*T + T^2") == (0, 3, 1)

    def test_cancelled_terms_set_no_degree(self):
        assert parse_poly("T^2-T^2+T") == (0, 1)
        assert parse_poly("T^3+2T-T^3+1-2T") == (1,)
        assert parse_poly("T-T") == (0,)
        argv = ["simulate", "--ell", "3", "--n", "3", "--poly"]
        assert run_inprocess([*argv, "T^2-T^2+T"]) == run_inprocess([*argv, "T"])
        rc, out, err = run_inprocess([*argv, "T-T"])
        assert (rc, out, err) == (1, "", "error: polynomials must be monic of degree >= 1\n")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("T^x")


class TestChars:
    def test_conductor_3(self):
        rc, out, _ = run_cli("chars", "--ell", "3", "--conductor", "3")
        assert rc == 0
        data = json.loads(out)
        assert data["schema"] == "iwalambda/1"
        chars = data["result"]["characters"]
        assert [c["label"] for c in chars] == ["one", "omega"]
        assert chars[0]["mirror"] == "omega" and chars[1]["mirror"] == "one"

    def test_conductor_15(self):
        rc, out, _ = run_cli("chars", "--ell", "3", "--conductor", "15")
        data = json.loads(out)
        assert sorted(c["degree"] for c in data["result"]["characters"]) == [1, 1, 1, 1, 2, 2]

    def test_invalid_field(self):
        rc, _, err = run_cli("chars", "--ell", "3", "--conductor", "9")
        assert rc == 2 and "group order" in err

    def test_conductor_over_cap_is_scale_error(self):
        rc, out, err = run_cli("chars", "--ell", "3", "--conductor", "120003")
        assert rc == 4 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0] == "error: conductor too large"

    def test_large_subgroup_under_1gib(self):
        # |H| = 16664; the field lacks the cube roots of unity, which is
        # only found after the quotient is built
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "iwalambda.cli", "chars", "--ell", "3",
             "--conductor", "99987", "--subgroup", "2"],
            capture_output=True, text=True, preexec_fn=limit,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("m", [165, 2805])
    def test_mirror_labels_name_the_orbit_of_omega_over_rep(self, m):
        rc, out, _ = run_cli("chars", "--ell", "3", "--conductor", str(m))
        assert rc == 0
        data = json.loads(out)
        ell, d = data["field"]["ell"], data["field"]["delta"]
        chars = data["result"]["characters"]
        omega = next(c["coords"] for c in chars if c["label"] == "omega")

        def orbit(coords):
            members, cur = set(), tuple(coords)
            while cur not in members:
                members.add(cur)
                cur = tuple(ell * x % di for x, di in zip(cur, d))
            return members

        orbits = [(c["label"], orbit(c["coords"])) for c in chars]
        for c in chars:
            target = tuple((w - x) % di for w, x, di in zip(omega, c["coords"], d))
            owners = [label for label, members in orbits if target in members]
            assert owners == [c["mirror"]], c["label"]

    def test_an_even_omega_fails_the_table_check(self, monkeypatch):
        # char_table is cached per FieldSpec, so the field is built afresh
        monkeypatch.setattr(iwalambda.fields, "field_spec", iwalambda.fields.FieldSpec)
        monkeypatch.setattr(iwalambda.characters, "teichmuller_coeffs", lambda F: (0,) * F.delta.rank)
        rc, out, err = run_inprocess(["chars", "--ell", "3", "--conductor", "15"])
        assert (rc, out) == (1, "")
        assert err == "internal check failed: Teichmueller character must be an imaginary degree-1 orbit\n"


class TestDefect:
    def test_example_with_verify(self):
        rc, out, _ = run_cli(
            "defect", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--verify"
        )
        data = json.loads(out)
        assert rc == 0
        assert data["result"] == {"omega": 1}
        assert data["oracle_checked"] is True

    def test_no_verify_flag(self):
        rc, out, _ = run_cli("defect", "--ell", "3", "--conductor", "3", "--primes", "7,13")
        assert json.loads(out)["oracle_checked"] is False

    def test_duplicate_primes(self):
        rc, _, err = run_cli("defect", "--ell", "3", "--conductor", "3", "--primes", "7,7")
        assert rc == 3

    def test_wild_prime_rejected(self):
        rc, _, _ = run_cli("defect", "--ell", "3", "--conductor", "3", "--primes", "3,7")
        assert rc == 3


class TestLambda:
    def test_real_with_imo(self):
        rc, out, _ = run_cli(
            "lambda", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--parity", "real", "--verify"
        )
        data = json.loads(out)
        assert data["result"]["base"] == {"lambda_real": 1}
        assert data["result"]["shift"] == {"one": 1}
        assert data["input"]["imo_lambda"] == 1
        assert data["oracle_checked"] is True

    def test_imaginary_empty_warns(self):
        rc, out, err = run_cli(
            "lambda", "--ell", "3", "--conductor", "3", "--primes", "", "--parity", "imaginary"
        )
        assert rc == 0 and "warning" in err
        assert json.loads(out)["result"]["shift"] == {"omega": -1}

    def test_imaginary_empty_on_rejected_field_gives_only_the_error(self):
        # the S = {} warning waits for the field checks
        rc, out, err = run_cli(
            "lambda", "--ell", "5", "--conductor", "5", "--subgroup", "4", "--primes", "", "--parity", "imaginary"
        )
        assert rc == 2 and out == ""
        assert err == "error: field does not contain ell-th roots of unity\n"

    def test_wild_needs_ell(self):
        rc, _, _ = run_cli("lambda", "--ell", "3", "--conductor", "3", "--primes", "7", "--parity", "wild")
        assert rc == 3

    def test_verify_deep_splitting_prime(self):
        # 39367 stops splitting at layer n_p = 8, past the real-shift oracle's
        # level cap of 4: --verify cannot check the shift, so it claims nothing
        rc, out, err = run_inprocess(["lambda", "--ell", "3", "--conductor", "3", "--primes", "39367", "--verify"])
        assert (rc, out) == (4, "")
        assert err == "error: oracle scale exceeded: level n0 = 8 is past the oracle level cap 4\n"
        # the closed form itself has no depth cap
        rc, out, err = run_inprocess(["lambda", "--ell", "3", "--conductor", "3", "--primes", "39367"])
        assert (rc, err) == (0, "") and json.loads(out)["oracle_checked"] is False

    def test_verify_runs_the_real_shift_oracle(self, monkeypatch):
        calls = []  # the stub records S and returns None, which no shift equals
        monkeypatch.setattr(iwalambda.defect, "lambda_shift_real_oracle", lambda F, S: calls.append(S))
        field = ["lambda", "--ell", "3", "--conductor", "15"]
        rc, out, err = run_inprocess([*field, "--primes", "7,13", "--verify"])
        assert (rc, out, err) == (1, "", "internal check failed: lambda-shift oracle disagrees with the closed form\n")
        assert calls == [(7, 13)]
        # imaginary and wild shifts have no counting oracle
        for argv in (["--primes", "7,13", "--parity", "imaginary", "--verify"],
                     ["--primes", "3,7", "--parity", "wild", "--verify"],
                     ["--primes", "7,13"]):
            rc, out, err = run_inprocess([*field, *argv])
            assert rc == 0 and err == "", argv
        assert calls == [(7, 13)]


class TestReflect:
    def test_example(self):
        rc, out, _ = run_cli("reflect", "--ell", "3", "--conductor", "3", "--S", "3", "--T", "7")
        data = json.loads(out)
        assert data["result"]["identity_holds"] is True
        assert data["result"]["case"] == "wild_mirror"

    def test_special_case(self):
        rc, out, _ = run_cli("reflect", "--ell", "3", "--conductor", "3", "--S", "3", "--T", "")
        data = json.loads(out)
        assert data["result"]["identity_holds"] is True
        assert data["result"]["case"] == "special"
        assert data["result"]["kappa"] == {"one": -1}

    def test_bad_hypotheses(self):
        rc, _, _ = run_cli("reflect", "--ell", "3", "--conductor", "3", "--S", "7", "--T", "13")
        assert rc == 3

    def test_duplicate_in_T_names_the_prime(self):
        rc, out, err = run_cli("reflect", "--ell", "3", "--conductor", "15", "--S", "3", "--T", "7,7")
        assert rc == 3 and out == ""
        assert err == "error: 7 is repeated: a prime list must be a set\n"

    def test_kappa_read_from_the_report(self, monkeypatch):
        # kappa(S, T) is computed once, inside reflection_check
        calls = []
        original = iwalambda.defect.defect_character

        def counted(field, S):
            calls.append(tuple(S))
            return original(field, S)

        monkeypatch.setattr(iwalambda.defect, "defect_character", counted)
        rc, out, _ = run_inprocess(["reflect", "--ell", "3", "--conductor", "15", "--S", "3", "--T", "7,13"])
        assert rc == 0 and json.loads(out)["result"]["case"] == "wild_mirror"
        assert calls == [(7, 13)]


class TestSimulate:
    def test_example(self):
        rc, out, _ = run_cli("simulate", "--ell", "3", "--rho", "0", "--poly", "T", "--n", "3")
        data = json.loads(out)
        assert data["result"]["orders"] == [0, 1, 2, 3]
        assert data["result"]["fit"] == {"rho": 0, "mu": 0, "lambda": 1, "nu": 0}

    def test_verify_runs_lattice_oracle(self):
        rc, out, _ = run_cli(
            "simulate", "--ell", "3", "--poly", "T^2+3", "--n", "3", "--n-min", "1", "--verify"
        )
        data = json.loads(out)
        assert rc == 0 and data["oracle_checked"] is True

    def test_verify_catches_a_wrong_matrix_build(self, monkeypatch):
        # a mutant whose column 0 truncates f instead of reducing it mod
        # omega_n; deg f = ell^n here, so the truncation drops T^3
        original = iwalambda.iwasawa._mult_matrix_mod

        def truncating(f, ell, n, q):
            return original(f[: ell**n], ell, n, q)

        monkeypatch.setattr(iwalambda.iwasawa, "_mult_matrix_mod", truncating)
        argv = ["simulate", "--ell", "3", "--poly", "T^3-6T^2-6T", "--n", "1", "--offset", "1"]
        assert run_inprocess(argv)[0] == 0
        rc, out, err = run_inprocess([*argv, "--verify"])
        assert (rc, out, err) == (1, "", "internal check failed: relation-lattice construction disagrees\n")

    def test_unstable_reported(self):
        rc, out, _ = run_cli("simulate", "--ell", "3", "--mu", "2", "--n", "5", "--n-min", "1")
        assert json.loads(out)["result"]["fit"] == "not yet stable"

    def test_scale_exceeded(self):
        rc, out, err = run_cli("simulate", "--ell", "3", "--poly", "T", "--n", "6")
        assert (rc, out, err) == (4, "", "error: ell^n = 729 exceeds the matrix dimension cap 250\n")

    @pytest.mark.parametrize("poly, message", [
        ("T^99999999", "polynomial degree 99999999 exceeds the matrix dimension cap 250"),
        ("T^251+3", "polynomial degree 251 exceeds the matrix dimension cap 250"),
        ("T^" + "9" * 5000, "a polynomial term has more than 4300 digits"),
        ("3" * 5000 + "T+3", "a polynomial term has more than 4300 digits"),
    ])
    def test_poly_past_the_caps_exit_4_at_once(self, poly, message):
        # no coefficient tuple of that length is built
        rc, out, err = run_inprocess(["simulate", "--ell", "3", "--poly", poly, "--n", "2"])
        assert (rc, out, err) == (4, "", f"error: {message}\n")

    def test_verify_lattice_past_the_cap_exit_4_at_once(self):
        # N = 3^5 + 250 = 493 columns: refused before the order table is built
        start = time.perf_counter()
        rc, out, err = run_inprocess(["simulate", "--ell", "3", "--n", "5", "--poly", "T^250", "--verify"])
        assert time.perf_counter() - start < 1
        assert (rc, out, err) == (4, "", "error: the --verify lattice dimension 493 exceeds the matrix dimension cap 250\n")

    def test_verify_lattice_at_the_cap_runs(self):
        # N = 3^5 + 7 = 250, the largest lattice --verify accepts
        rc, out, err = run_inprocess(["simulate", "--ell", "3", "--n", "5", "--n-min", "5", "--poly", "T^7+3", "--verify"])
        assert (rc, err) == (0, "") and json.loads(out)["oracle_checked"] is True

    def test_bad_poly_rejected(self):
        rc, _, err = run_cli("simulate", "--ell", "3", "--poly", "T+1", "--n", "3")
        assert rc == 1 and "divisible" in err


class TestAmbigAndCohomology:
    def test_ambig(self):
        rc, out, _ = run_cli("ambig", "--class-val", "1", "--ram", "1,1", "--deg", "1", "--unit-index", "1")
        assert json.loads(out)["result"]["valuation"] == 1

    def test_ambig_inconsistent(self):
        rc, _, err = run_cli("ambig", "--class-val", "0", "--ram", "", "--deg", "1")
        assert rc == 5 and "inconsistent" in err

    def test_ambig_rejects_verify(self, tmp_path):
        # a formula over given valuations: there is no oracle for --verify to run
        argv = ["ambig", "--class-val", "1", "--ram", "1,1", "--deg", "1", "--unit-index", "1"]
        rejected = (1, "", "error: unrecognized arguments: --verify\n")
        assert run_cli(*argv, "--verify") == rejected
        cfg = tmp_path / "job.cfg"
        cfg.write_text("verify = true\n")
        assert run_inprocess([*argv, "--config", str(cfg)]) == rejected
        cfg.write_text("verify = false\n")
        assert run_inprocess([*argv, "--config", str(cfg)]) == run_inprocess(argv)

    def test_cohomology(self):
        rc, out, _ = run_cli("cohomology", "--factors", "4", "--sigma", "-1", "--order", "2")
        assert json.loads(out)["result"] == {"h0": 2, "h1": 2, "herbrand": "1"}

    def test_cohomology_matrix(self):
        rc, out, _ = run_cli("cohomology", "--factors", "3,3", "--sigma", "0,1;1,0", "--order", "2")
        data = json.loads(out)
        assert rc == 0 and data["result"]["herbrand"] == "1"

    def test_one_reduction_per_lattice(self, monkeypatch):
        # the automorphism check, then coker(sigma-1) and coker(N) once each
        calls = []
        original = iwalambda.cohomology.smith_normal_form

        def counted(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(iwalambda.cohomology, "smith_normal_form", counted)
        rc, out, _ = run_inprocess(["cohomology", "--factors", "3,9", "--sigma", "1,0;0,4", "--order", "3"])
        assert rc == 0 and json.loads(out)["result"] == {"h0": 3, "h1": 3, "herbrand": "1"}
        assert len(calls) == 3

    def test_actor_order_10_to_the_12(self):
        rc, out, err = run_cli("cohomology", "--factors", "3", "--sigma=2", "--order", "1000000000000")
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"] == {"h0": 1, "h1": 1, "herbrand": "1"}


# each check of the four constructors that read command-line data, fed one
# bad input: (constructor call, message)
G4 = iwalambda.groups.FiniteAbelianGroup((4,))
CONSTRUCTOR_ERRORS = [
    (lambda: iwalambda.iwasawa.ElementaryModuleSpec(9), "ell must be an odd prime"),
    (lambda: iwalambda.iwasawa.ElementaryModuleSpec(3, rho=-1), "rho must be nonnegative"),
    (lambda: iwalambda.iwasawa.ElementaryModuleSpec(3, polys=((3, 2),)), "polynomials must be monic of degree >= 1"),
    (lambda: iwalambda.iwasawa.ElementaryModuleSpec(3, polys=((1, 1),)), "non-leading coefficients must be divisible by ell"),
    (lambda: iwalambda.iwasawa.ElementaryModuleSpec(3, mus=(0,)), "ell-power exponents must be positive"),
    (lambda: iwalambda.cohomology.AmbiguousInput(1, (1, -1), 0, 0), "valuations must be nonnegative"),
    (lambda: iwalambda.groups.FiniteAbelianGroup((1,)), "invariant factors must be >= 2"),
    (lambda: iwalambda.groups.FiniteAbelianGroup((4, 6)), "invariant factors must form a divisibility chain"),
    (lambda: iwalambda.cohomology.FiniteGammaModule(G4, ((1, 0),), 1), "sigma must be a square matrix of the module rank"),
    (lambda: iwalambda.cohomology.FiniteGammaModule(G4, ((1,),), 0), "the actor order must be positive"),
    (lambda: iwalambda.cohomology.FiniteGammaModule(
        iwalambda.groups.FiniteAbelianGroup((2, 4)), ((1, 0), (1, 1)), 2), "sigma does not preserve the relation lattice"),
    (lambda: iwalambda.cohomology.FiniteGammaModule(G4, ((2,),), 2), "sigma is not an automorphism"),
    (lambda: iwalambda.cohomology.FiniteGammaModule(G4, ((3,),), 3), "sigma^order_n is not the identity"),
]


class TestConstructorErrors:
    @pytest.mark.parametrize("build, message", CONSTRUCTOR_ERRORS, ids=[m.replace(" ", "_") for _, m in CONSTRUCTOR_ERRORS])
    def test_input_error_with_exit_code_1(self, build, message):
        # the base class itself, so main reports it as exit 1 with no translation
        with pytest.raises(iwalambda.errors.IwalambdaError) as info:
            build()
        assert type(info.value) is iwalambda.errors.IwalambdaError
        assert info.value.exit_code == 1 and str(info.value) == message


class TestReflectVerify:
    @pytest.mark.parametrize(
        "S, T, sets",
        [
            ("3", "7,13", [(7, 13)]),
            ("3,19", "7,13", [(7, 13), (19,)]),
            ("7", "3,13", [(7,), (13,)]),
        ],
    )
    def test_one_defect_character_per_tame_set(self, monkeypatch, S, T, sets):
        # the wild_mirror side's kappa is the defect character the oracle checks
        calls = []
        original = iwalambda.defect.defect_character

        def counted(field, primes):
            calls.append(tuple(primes))
            return original(field, primes)

        monkeypatch.setattr(iwalambda.defect, "defect_character", counted)
        rc, out, _ = run_inprocess(["reflect", "--ell", "3", "--conductor", "15", "--S", S, "--T", T, "--verify"])
        assert rc == 0 and json.loads(out)["oracle_checked"] is True
        assert calls == sets


class TestSimulateDigitLimit:
    @pytest.mark.parametrize("levels", [("--n", "9100", "--n-min", "9097"), ("--n", "1000000000")])
    def test_orders_past_the_int_str_limit_exit_4(self, levels):
        rc, out, err = run_cli("simulate", "--ell", "3", "--mu", "1", *levels)
        assert (rc, out, err) == (4, "", "error: ell^n has more than 4300 digits\n")

    def test_polynomial_modulus_past_the_limit_exit_4(self):
        # the kernel reduces mod ell^(n + offset), so the offset counts
        rc, out, err = run_inprocess(["simulate", "--ell", "3", "--poly", "T+3", "--n", "3", "--offset", "1000000"])
        assert (rc, out, err) == (4, "", "error: ell^(n+offset) has more than 4300 digits\n")

    def test_offsets_inside_the_limit(self):
        rc, out, err = run_inprocess(["simulate", "--ell", "3", "--mu", "1", "--n", "3", "--offset", "1000000"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"]["orders"] == [1, 3, 9, 27]
        argv = ["simulate", "--ell", "3", "--poly", "T^3+3T+3", "--n", "5", "--offset", "9000"]
        rc, out, err = run_inprocess(argv)
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"]["fit"] == {"rho": 0, "mu": 0, "lambda": 3, "nu": 0}

    def test_orders_inside_the_limit(self):
        rc, out, err = run_cli("simulate", "--ell", "3", "--mu", "1", "--n", "9010", "--n-min", "9009")
        assert (rc, err) == (0, "")
        assert json.loads(out)["result"]["orders"][-1] == 3**9010

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "argv",
        [
            # ell^n fits, but the order 100 * 3^9010 has 4302 digits
            ("simulate", "--ell", "3", "--mu", "100", "--n", "9010", "--n-min", "9009"),
            ("ambig", "--class-val", "9" * 4300, "--ram", "9" * 4300, "--deg", "0"),
        ],
        ids=["simulate", "ambig"],
    )
    def test_printed_integer_past_the_limit_exit_4(self, argv, fmt):
        rc, out, err = run_inprocess([*argv, "--format", fmt])
        assert (rc, out, err) == (4, "", "error: an output integer has more than 4300 digits\n")


class TestPrimalityRange:
    @pytest.mark.parametrize(
        "argv, code",
        [
            # a strong pseudoprime to the bases 2..37, composite
            (("lambda", "--ell", "3", "--conductor", "3", "--primes", "318665857834031151167461"), 3),
            # 2^89 - 1 is prime, but past the range where the test is exact
            (("lambda", "--ell", "3", "--conductor", "3", "--primes", "618970019642690137449562111"), 4),
            (("simulate", "--ell", "3317044064679887385961981", "--rho", "1", "--n", "2"), 4),
        ],
    )
    def test_exit_code_with_one_error_line(self, argv, code):
        rc, out, err = run_inprocess(list(argv))
        assert (rc, out) == (code, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestMalformedIntegerLists:
    @pytest.mark.parametrize(
        "argv",
        [
            ("defect", "--ell", "3", "--conductor", "15", "--primes", "7,x"),
            ("cohomology", "--factors", "3,x", "--sigma=1,0;0,1", "--order", "3"),
            ("chars", "--ell", "3", "--conductor", "15", "--subgroup", "4,x"),
            ("simulate", "--ell", "3", "--poly", "T+3", "--mu", "1,x", "--n", "3"),
            ("ambig", "--class-val", "1", "--ram", "1,x", "--deg", "1"),
            ("cohomology", "--factors", "3,9", "--sigma=1,0;0,x", "--order", "3"),
        ],
    )
    def test_exit_1_with_one_error_line(self, argv):
        rc, out, err = run_cli(*argv)
        assert rc == 1 and out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: not a comma list of integers")


class TestOutOfRangeArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("simulate", "--ell", "3", "--poly=", "--n", "3"), "empty polynomial: ''"),
            (("simulate", "--ell", "3", "--poly", "+", "--n", "3"), "empty polynomial: '+'"),
            (("simulate", "--ell", "3", "--mu", "1", "--n-min", "-1", "--n", "3"), "must be nonnegative"),
            (("simulate", "--ell", "3", "--mu", "1", "--offset", "-5", "--n", "3"), "must be nonnegative"),
            (("ambig", "--class-val", "-1", "--deg", "-3"), "valuations must be nonnegative"),
            (("simulate", "--ell", "3", "--poly=--", "--n", "3"), "missing value: '--poly=--'"),
        ],
    )
    def test_exit_1_with_one_error_line(self, argv, message):
        rc, out, err = run_cli(*argv)
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def run_inprocess(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_contract(argv):
    """Exit 0 with JSON carrying the schema, or 1..5 with one error line."""
    rc, out, err = run_inprocess(argv)
    if rc == 0:
        assert json.loads(out)["schema"] == "iwalambda/1", argv
    else:
        assert 1 <= rc <= 5 and out == "", (argv, rc)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    return rc, err


small = st.integers(-2, 4)
field_args = st.tuples(
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([0, 3, 5, 7, 9, 14, 15, 21, 33, 35]),
    st.sampled_from(["", "4", "2", "-1", "4,11", "x"]),
).map(lambda f: [f"--ell={f[0]}", f"--conductor={f[1]}", f"--subgroup={f[2]}"])
prime_lists = st.lists(st.sampled_from([*map(str, primes_below(60)), "x", "0", "1", "-7", "9", ""]),
                       max_size=4).map(",".join)
verify = st.sampled_from([[], ["--verify"]])


class TestArgvContract:
    @given(field=field_args)
    def test_chars(self, field):
        assert_contract(["chars", *field])

    @given(field=field_args, primes=prime_lists, check=verify)
    def test_defect(self, field, primes, check):
        assert_contract(["defect", *field, f"--primes={primes}", *check])

    @given(field=field_args, primes=prime_lists, parity=st.sampled_from(["real", "imaginary", "wild"]),
           check=verify)
    def test_lambda(self, field, primes, parity, check):
        assert_contract(["lambda", *field, f"--primes={primes}", f"--parity={parity}", *check])

    @given(field=field_args, s=prime_lists, t=prime_lists, check=verify)
    def test_reflect(self, field, s, t, check):
        assert_contract(["reflect", *field, f"--S={s}", f"--T={t}", *check])

    @given(factors=st.lists(st.integers(-1, 9), max_size=3), sigma=st.text("0123456789,;", max_size=10),
           order=st.integers(-1, 5))
    def test_cohomology(self, factors, sigma, order):
        factors_text = ",".join(map(str, factors))
        assert_contract(["cohomology", f"--factors={factors_text}", f"--sigma={sigma}", f"--order={order}"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["defect", "--ell", "3"], "the following arguments are required: --conductor"),
            (["simulate", "--ell", "3", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["lambda", "--ell", "3", "--conductor", "3", "--parity", "even"],
             "argument --parity: invalid choice: 'even'"),
            (["frobenius", "--ell", "3"], "argument command: invalid choice: 'frobenius'"),
            ([], "the following arguments are required: command"),
            (["chars", "--ell", "3", "--conductor", "3", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_errors(self, argv, message):
        rc, err = assert_contract(argv)
        assert rc == 1 and err.startswith(f"error: {message}")

    @given(
        ell=st.sampled_from([2, 3, 4, 5]),
        rho=st.integers(-1, 2),
        polys=st.lists(st.text("T^+-0123", max_size=6), max_size=2),
        n=small,
        n_min=small,
        offset=st.integers(-2, 3),
    )
    def test_simulate(self, ell, rho, polys, n, n_min, offset):
        argv = ["simulate", f"--ell={ell}", f"--rho={rho}", f"--n={n}", f"--n-min={n_min}",
                f"--offset={offset}", *(f"--poly={f}" for f in polys)]
        assert_contract(argv)

    @given(class_val=small, ram=st.lists(small, max_size=3), deg=small, unit_index=small)
    def test_ambig(self, class_val, ram, deg, unit_index):
        ram_text = ",".join(map(str, ram))
        assert_contract(["ambig", f"--class-val={class_val}", f"--ram={ram_text}", f"--deg={deg}",
                         f"--unit-index={unit_index}"])


class TestUsageErrors:
    def test_usage_error_exits_1_with_one_line(self):
        rc, out, err = run_cli("defect", "--ell", "3")
        assert rc == 1 and out == ""
        assert err == "error: the following arguments are required: --conductor\n"

    @pytest.mark.parametrize("argv", [("--help",), ("defect", "--help")])
    def test_help_exits_0(self, argv):
        rc, out, err = run_cli(*argv)
        assert rc == 0 and err == ""
        assert out.startswith("usage: iwalambda")


def leaf_count(value) -> int:
    """The rows --format table prints for a JSON value: one per scalar or
    list of scalars."""
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        value = dict(enumerate(value))
    return sum(map(leaf_count, value.values())) if isinstance(value, dict) else 1


# the corpus argvs that exit 0 with JSON output, as text
TABLE_ARGVS = [
    " ".join(line["argv"]) for line in cli_corpus.load() if line["code"] == 0 and "--format" not in line["argv"]
]


class TestConfigAndFormats:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("ell = 3\nconductor = 3\nprimes = 7,13\nverify = true\n")
        rc, out, _ = run_cli("defect", "--config", str(cfg))
        data = json.loads(out)
        assert data["result"] == {"omega": 1} and data["oracle_checked"] is True

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("ell = 3\nconductor = 3\nprimes = 7,13\n")
        rc, out, _ = run_cli("defect", "--config", str(cfg), "--primes", "2")
        assert json.loads(out)["result"] == {}

    def test_config_value_beaten_by_full_flag_only(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("primes = 13\n")
        field = ["defect", "--ell", "3", "--conductor", "3"]
        rc, out, _ = run_inprocess([*field, "--config", str(cfg), "--primes", "7"])
        assert rc == 0 and json.loads(out)["input"]["S"] == [7]
        for argv in ([*field, "--config", str(cfg), "--prim", "7"], [*field, "--conf", str(cfg)]):
            rc, out, err = run_inprocess(argv)
            assert (rc, out) == (1, "")
            assert err.startswith("error: unrecognized arguments: --") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("content, message", [
        (b"\xff\n", "error: config file is not UTF-8: byte 0 of "),
        (b"=3\nell = 3\n", "error: bad config line: '=3'"),
        (b"ell 3\n", "error: bad config line: 'ell 3'"),
        (None, "error: [Errno 2] No such file or directory: "),
    ])
    def test_bad_config_file_exits_1_with_one_line(self, tmp_path, content, message):
        cfg = tmp_path / "job.cfg"
        if content is not None:
            cfg.write_bytes(content)
        rc, out, err = run_inprocess(["chars", "--config", str(cfg), "--conductor", "15"])
        assert (rc, out) == (1, "")
        assert err.startswith(message) and len(err.splitlines()) == 1

    def test_table_format(self):
        rc, out, _ = run_cli(
            "defect", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--format", "table"
        )
        assert rc == 0
        assert "result.omega" in out and "1" in out

    def test_table_example(self):
        rc, out, _ = run_inprocess(["cohomology", "--factors", "3,9", "--sigma", "2,0;0,4", "--order", "6",
                                    "--format", "table"])
        assert rc == 0 and out == (
            'field            null\n'
            'input.factors    [3, 9]\n'
            'input.order      6\n'
            'input.sigma.0    [2, 0]\n'
            'input.sigma.1    [0, 4]\n'
            'oracle_checked   false\n'
            'result.h0        1\n'
            'result.h1        1\n'
            'result.herbrand  "1"\n'
            'schema           "iwalambda/1"\n'
        )

    def test_table_rows_keep_list_shape(self):
        def rows(*argv):
            rc, out, _ = run_inprocess([*argv, "--format", "table"])
            assert rc == 0
            return dict(line.split(None, 1) for line in out.splitlines())

        reflect = rows("reflect", "--ell", "3", "--conductor", "15", "--S=3,7", "--T=13")
        assert (reflect["input.T"], reflect["input.S"], reflect["field.subgroup"]) == ("[13]", "[3, 7]", "[]")
        assert rows("simulate", "--ell", "3", "--mu", "1", "--n", "2")["input.mus"] == "[1]"

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(TABLE_ARGVS))
    @example("chars --ell 3 --conductor 15")
    @example("simulate --ell 3 --poly T^2+3T --poly T+3 --mu 1 --n 2")
    @example("cohomology --factors 3,9 --sigma=2,0;0,4 --order 6")
    @example("lambda --ell 3 --conductor 3 --primes 7,13 --parity real --verify")
    def test_every_table_value_is_json(self, argv):
        """Each row is a path into the JSON payload and the JSON text of the
        leaf there, and each leaf has one row."""
        argv = [a.replace("{data}", str(cli_corpus.DATA)) for a in argv.split(" ")]
        rc, out, _ = run_inprocess(argv)
        assert rc == 0
        payload = json.loads(out)
        rc, table, err = run_inprocess([*argv, "--format", "table"])
        assert (rc, err) == (0, "")
        rows = [line.partition(" ")[::2] for line in table.splitlines()]
        for path, text in rows:
            leaf = payload
            for key in path.split("."):
                leaf = leaf[int(key)] if isinstance(leaf, list) else leaf[key]
            assert json.loads(text.lstrip(" ")) == leaf, (path, text)
        assert len({path for path, _ in rows}) == len(rows) == leaf_count(payload)

    def test_main_callable_inprocess(self, capsys):
        assert main(["defect", "--ell", "3", "--conductor", "3", "--primes", "7,13"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"] == {"omega": 1}


class TestFieldInputs:
    def test_bad_subgroup_generator(self):
        rc, _, err = run_cli("chars", "--ell", "3", "--conductor", "15", "--subgroup", "5")
        assert rc == 2 and "not a unit" in err

    def test_nontrivial_subgroup(self):
        # K = fixed field of <4> inside Q(zeta_15): degree 4, still has mu_3
        rc, out, _ = run_cli("chars", "--ell", "3", "--conductor", "15", "--subgroup", "4")
        data = json.loads(out)
        assert rc == 0
        assert data["field"]["subgroup"] == [4]
        assert sum(c["degree"] for c in data["result"]["characters"]) == 4

    def test_conductor_below_two(self):
        for m in ("0", "-3"):
            rc, _, err = run_cli("chars", "--ell", "3", "--conductor", m)
            assert rc == 2 and err == "error: conductor must be at least 2\n"

    def test_conductor_below_two_with_subgroup(self):
        # the residues of H are not reduced mod 0
        rc, out, err = run_cli("chars", "--ell", "3", "--conductor", "0", "--subgroup", "4")
        assert rc == 2 and out == "" and err == "error: conductor must be at least 2\n"

    def test_conductor_not_divisible(self):
        rc, _, err = run_cli("chars", "--ell", "3", "--conductor", "10")
        assert rc == 2 and "divisible" in err

    def test_large_subgroup_is_never_enumerated(self, monkeypatch):
        # |H| = 8332; a fresh field, so no cache holds its D_p or characters
        def refuse(_):
            raise AssertionError("a subgroup was enumerated")

        monkeypatch.setattr(iwalambda.groups.Subgroup, "elements", property(refuse))
        field = iwalambda.fields.FieldSpec(3, 99987, (4,))
        monkeypatch.setattr(iwalambda.fields, "field_spec", lambda *args: field)
        args = ["--ell", "3", "--conductor", "99987", "--subgroup", "4"]
        for argv in (["chars", *args],
                     ["defect", *args, "--primes", "7,13", "--verify"],
                     ["reflect", *args, "--S=3,7", "--T=13", "--verify"]):
            rc, out, err = run_inprocess(argv)
            assert (rc, err) == (0, ""), argv
            assert json.loads(out)["field"]["delta"] == [2, 4]


def readme_cli_lines():
    """The iwalambda command lines of the README's CLI example block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("iwalambda ")]


class TestReadmeExamples:
    def test_block_found(self):
        assert len(readme_cli_lines()) == 7

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_runs_as_one_command(self, line):
        # as sh splits it: an unquoted ';' or '|' would end the command early
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        assert tokens[0] == "iwalambda"
        assert not [t for t in tokens if set(t) <= set(lexer.punctuation_chars)], tokens
        rc, out, err = run_inprocess(tokens[1:])
        assert (rc, err) == (0, ""), line
        assert json.loads(out)["schema"] == "iwalambda/1"
