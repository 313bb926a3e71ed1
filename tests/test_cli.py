import contextlib
import io
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_unstable_reported(self):
        rc, out, _ = run_cli("simulate", "--ell", "3", "--mu", "2", "--n", "5", "--n-min", "1")
        assert json.loads(out)["result"]["fit"] == "not yet stable"

    def test_scale_exceeded(self):
        rc, _, _ = run_cli("simulate", "--ell", "3", "--poly", "T", "--n", "6")
        assert rc == 4

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

    def test_cohomology(self):
        rc, out, _ = run_cli("cohomology", "--factors", "4", "--sigma", "-1", "--order", "2")
        assert json.loads(out)["result"] == {"h0": 2, "h1": 2, "herbrand": "1"}

    def test_cohomology_matrix(self):
        rc, out, _ = run_cli("cohomology", "--factors", "3,3", "--sigma", "0,1;1,0", "--order", "2")
        data = json.loads(out)
        assert rc == 0 and data["result"]["herbrand"] == "1"


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

    def test_table_format(self):
        rc, out, _ = run_cli(
            "defect", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--format", "table"
        )
        assert rc == 0
        assert "result.omega" in out and "1" in out

    def test_main_callable_inprocess(self, capsys):
        assert main(["defect", "--ell", "3", "--conductor", "3", "--primes", "7,13"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["result"] == {"omega": 1}


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        commands = [
            ("chars", "--ell", "3", "--conductor", "15"),
            ("defect", "--ell", "3", "--conductor", "15", "--primes", "2,7,13", "--verify"),
            ("lambda", "--ell", "3", "--conductor", "3", "--primes", "7,13", "--parity", "real"),
            ("reflect", "--ell", "3", "--conductor", "3", "--S", "3", "--T", "7,13"),
            ("simulate", "--ell", "3", "--poly", "T^2+3T", "--n", "4", "--n-min", "1"),
            ("ambig", "--class-val", "1", "--ram", "1", "--deg", "1"),
            ("cohomology", "--factors", "9", "--sigma", "4", "--order", "3"),
        ]
        for cmd in commands:
            rc1, out1, _ = run_cli(*cmd)
            rc2, out2, _ = run_cli(*cmd)
            assert rc1 == rc2 == 0, cmd
            assert out1 == out2, cmd


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
