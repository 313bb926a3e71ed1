import contextlib
import hashlib
import io
import json
import pathlib
import resource
import shlex
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import iwalambda.cli
import iwalambda.cohomology
import iwalambda.defect
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

    def test_verify_deep_splitting_prime(self):
        # 39367 stops splitting at layer n_p = 8; the place count has no depth cap
        rc, out, err = run_inprocess(["lambda", "--ell", "3", "--conductor", "3", "--primes", "39367", "--verify"])
        assert rc == 0 and err == ""
        assert json.loads(out)["oracle_checked"] is True


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

        for module in (iwalambda.cli, iwalambda.defect):
            monkeypatch.setattr(module, "defect_character", counted)
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

    def test_each_tate_order_computed_once(self, monkeypatch):
        # the Herbrand quotient is rendered from the h0 and h1 already computed
        calls = {"tate_h0": 0, "tate_h1": 0}
        for name in calls:
            original = getattr(iwalambda.cohomology, name)

            def counted(M, name=name, original=original):
                calls[name] += 1
                return original(M)

            for module in (iwalambda.cli, iwalambda.cohomology):
                monkeypatch.setattr(module, name, counted)
        rc, out, _ = run_inprocess(["cohomology", "--factors", "3,9", "--sigma", "1,0;0,4", "--order", "3"])
        assert rc == 0 and json.loads(out)["result"]["herbrand"] == "1"
        assert calls == {"tate_h0": 1, "tate_h1": 1}


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


# (argv, exit code, sha256 of stdout), recorded before S_phi became a lookup
# in Ind_{D_p} 1; every subcommand, --verify on and off, the mid-size
# conductor 2805 and the large field 98403 with H = <93484>
PINNED_OUTPUT = [
    ("chars --ell 3 --conductor 15", 0, "fb5581021eae0e413bf41b92b7934423f0d5533dbb2d89a7ed274a5da1d5a895"),
    ("chars --ell 3 --conductor 165 --format table", 0, "c54d1e5cd54b09294196a18e560780a5da938ce9cab445749644d45e282036d3"),
    ("chars --ell 5 --conductor 35", 0, "3799ab09694207734e6ff675a6cb55ac3a097d6948f1fd5f537d5c6996aceea6"),
    ("chars --ell 3 --conductor 15 --subgroup 4", 0, "2db7cc3fad0ef1c6d1105ba6d1e8f77f43f7eb3ad63137ad6f7023dd2f073f9d"),
    ("chars --ell 3 --conductor 2805", 0, "72b737268749a0abdf640a938f3446e8b9329b8fa21ec9804cbd9b98666818c0"),
    ("chars --ell 3 --conductor 98403 --subgroup 93484", 0, "ff6a7cb0264f9a876e1d1fc828cb378c4eba868ad6322a70919ab498198477e8"),
    ("defect --ell 3 --conductor 3 --primes 7,13 --verify", 0, "b0fc0d4d8f8e12d43e57f0bc68e3330fa67b85c7adac22aff55cb9059fc52ffc"),
    ("defect --ell 3 --conductor 15 --primes 2,7,17", 0, "f859e078e5c2331ac464b65504fc14279097a30a375853bdbb544ba732c4e132"),
    ("defect --ell 3 --conductor 165 --primes 7,13,19 --verify", 0, "5c9044e1fa4331b9745b36fe296d803591ef4ce75756d507e08b6117ab5fe31f"),
    ("defect --ell 5 --conductor 35 --primes 11,31,41", 0, "4e2621d7ac8a8f269da80fb7ceff342535c93afe6bea3fbba34c4676321793e1"),
    ("defect --ell 3 --conductor 2805 --primes 7,13 --verify", 0, "9778eda325fa8c5375c937c80a23d3e78490293bcd55393ef5bc87a43f0e52fb"),
    ("defect --ell 3 --conductor 98403 --subgroup 93484 --primes 7,13 --verify", 0, "94f4ed245e74a884f5b92a0ff815ba8d5316d620b2a04e7f777f04ee6884daf6"),
    ("lambda --ell 3 --conductor 3 --primes 7,13 --parity real --verify", 0, "b199c7c2522bdcf6e1bbfcabe8a945a28c739980bdf9a2a97053d2d7964eedd2"),
    ("lambda --ell 3 --conductor 15 --primes 2,7 --parity imaginary", 0, "db44295ada69efc6e7e33c644b22058c5a05cefb9189c2877e8b867f65dcb4d6"),
    ("lambda --ell 3 --conductor 33 --primes 3,7 --parity wild --verify", 0, "2c71c238fa73c1b5294dca16675dfffce99c58ee9ac12582b3e09ee3a5f92d31"),
    ("lambda --ell 3 --conductor 2805 --primes 7,13,19 --parity real", 0, "3ba02eeeadaeb7b8fa9eaa213f1bdded3af9d8e167172377721d0ba9f226e658"),
    ("lambda --ell 3 --conductor 3 --primes= --parity imaginary", 0, "fa338ef1f8ed99487350824210c9f7e1e1adda769dff621fb38165ee3b0737c4"),
    ("reflect --ell 3 --conductor 3 --S 3 --T=", 0, "c2b7ada1a66067bc845661bd0e25f350f1185020f34092df89884863184a7803"),
    ("reflect --ell 3 --conductor 15 --S 3,2 --T 7,13 --verify", 0, "9823f348a08fcdffda290435f78df7d9fa213bcbc459d63d7945f01f7f143afc"),
    ("reflect --ell 3 --conductor 165 --S 7,13 --T 3,19", 0, "78cb6c255c1707214a9e20df93596f2b11391c20bd410cc3420bb8ba9b632214"),
    ("reflect --ell 5 --conductor 35 --S 5 --T 11,31 --verify", 0, "8505ed1aa89c2f13418acd545fb3b03e1c8f78f48c0d399da58873e61bd91bb3"),
    ("reflect --ell 3 --conductor 98403 --subgroup 93484 --S 3,7 --T 13", 0, "fbffbf4d01b57261682d5443012c24439224f0591fce45fdbf0f8385a109a15b"),
    ("simulate --ell 3 --rho 1 --poly T^2+3T --mu 1 --n 4 --n-min 1", 0, "8b1fa750c0180b019440e560fa2386c16b8c2149470fa7f3ca171446750759fe"),
    ("simulate --ell 3 --poly T+3 --n 3 --verify", 0, "ef4883ca2149073b37085b6cdf85c73b0eb138e2a38b7b78e4e51f108729cfd6"),
    ("simulate --ell 5 --poly T^2+5 --n 2 --offset 1 --verify", 0, "72bf1a8236433df1e6d5edc14919841f84776755b50e7e16c6c15ebacd5e1d00"),
    ("ambig --class-val 1 --ram 1,1 --deg 1 --unit-index 1", 0, "bb774e950dd7fc551127b981d3a5faf1b2be6596d82de20f75f9622b3a3a545d"),
    ("ambig --class-val 3 --ram 0,2,1 --deg 2", 0, "3ebbb7d3b3ebdf43d3ee50785df7107549d89ac7617d0332d2f8dc7308cea4ca"),
    ("cohomology --factors 3,9 --sigma=2,0;0,4 --order 6", 0, "3ee43a11c196bcac237e0d5b739d0a5976f57660f3453709e79e1953e2259d97"),
    ("cohomology --factors 9 --sigma 4 --order 3 --verify", 0, "bc7f217b83d597b0acc9db64c3066fe909d2b82fe56763989e7d3bc66152b364"),
    ("defect --ell 3 --conductor 15 --primes 7,7", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reflect --ell 3 --conductor 33 --S 7 --T 2", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("chars --ell 3 --conductor 14", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("chars --ell 3 --conductor 120003", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --ell 3 --poly T+3 --n 9", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, code, digest", PINNED_OUTPUT, ids=[a for a, _, _ in PINNED_OUTPUT])
    def test_stdout_bytes(self, argv, code, digest):
        rc, out, _ = run_inprocess(argv.split(" "))
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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
