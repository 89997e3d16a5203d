import ast
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp

import jsonschema
import pytest

from conftest import DATA, GOLDEN, child_env, run_cli
from torsionfree.cli import entrypoint
from torsionfree.config import KEYS, Config
from torsionfree.polyalg import IntPoly, discriminant
from torsionfree.report import number_str

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "torsionfree" / "schemas" /
     "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

GOLDEN_CASES = {
    "level_find_q.json": ["level", "find", str(DATA / "q.poly"), "--dimg", "3"],
    "field_analyze_sqrt2.json": ["field", "analyze", str(DATA / "sqrt2.poly")],
    "grh_threshold_d1.json": ["grh", "threshold", "--d", "1", "--logd", "0"],
    "bound_grh.json": ["bound", "grh", "--v", "100", "--dimh", "3"],
    "bound_unconditional.json": ["bound", "unconditional", "--d", "1",
                                 "--dimh", "3"],
    "torsion_table_n6.csv": ["torsion", "table", "--nmax", "6", "--d", "1"],
    "torsion_table_n4.json": ["torsion", "table", "--nmax", "4", "--d", "1",
                              "--format", "json"],
    "construct_p5.json": ["construct", "--p", "5"],
    "construct_p5_probe.json": ["construct", "--p", "5", "--probe-k", "2"],
    "construct_sweep_p13.csv": ["construct", "sweep", "--pmax", "13"],
    "construct_sweep_p13.json": ["construct", "sweep", "--pmax", "13",
                                 "--format", "json"],
    "apply_generators.json": ["apply", "generators", "--v", "1000000",
                              "--alpha", "0.5", "--c", "1.0"],
}


def _eisenstein_150():
    rng = random.Random(150)
    coeffs = [2 * rng.randint(-2, 2) for _ in range(150)]
    coeffs[0] = 2 * rng.choice([-1, 1])
    return ", ".join(map(str, coeffs + [1]))


EISENSTEIN_150 = _eisenstein_150()


def strip_generated_by(text):
    return re.sub(r'"generated_by": "[^"]*"', '"generated_by": "X"', text)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, out, _err = run_cli(*GOLDEN_CASES[name])
    assert code == 0
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        assert strip_generated_by(out) == strip_generated_by(want)
    else:
        assert out == want


@pytest.mark.parametrize("name",
                         sorted(n for n in GOLDEN_CASES if n.endswith(".json")))
def test_json_outputs_validate_against_schema(name):
    code, out, _err = run_cli(*GOLDEN_CASES[name])
    assert code == 0
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    assert doc["generated_by"].startswith("torsionfree ")


class TestExitCodes:
    def test_usage_error_is_64(self):
        code, _out, err = run_cli("level", "find")
        assert code == 64
        assert "usage error" in err

    def test_unknown_option_is_64(self):
        code, _out, _err = run_cli("construct", "--nope", "5")
        assert code == 64

    def test_help_is_zero(self):
        code, out, _err = run_cli("--help")
        assert code == 0
        assert "Usage" in out

    def test_domain_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("# (x^2-2)^2\n4, 0, -4, 0, 1\n")
        code, _out, err = run_cli("field", "analyze", str(bad))
        assert code == 2
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "NotSquarefreeError"

    def test_rational_root_is_2(self, tmp_path):
        # x^2 - N^2 with N = 2^32 + 15 prime
        bad = tmp_path / "square.poly"
        bad.write_text(f"{-(2**32 + 15) ** 2}, 0, 1\n")
        code, out, err = run_cli("field", "analyze", str(bad))
        assert code == 2 and not out
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "PreconditionError"
        assert "rational root" in payload["error"]["message"]

    def test_malformed_poly_file_is_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("1, two, 3\n")
        code, _out, err = run_cli("field", "analyze", str(bad))
        assert code == 2
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "PreconditionError"

    def test_missing_file_is_2(self):
        code, _out, err = run_cli("field", "analyze", "/nonexistent.poly")
        assert code == 2

    def test_resource_cap_is_3(self):
        code, _out, err = run_cli("construct", "--p", "5", "--probe-k", "25")
        assert code == 3
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    def test_unfactorable_discriminant_is_3(self, tmp_path):
        # x^2 - N, N the product of the first primes above 1e19 and
        # 1e19 + 1e6: splitting 4N is beyond the Pollard-rho budget
        poly = tmp_path / "semiprime.poly"
        poly.write_text(f"{-(10**19 + 51) * (10**19 + 10**6 + 27)}, 0, 1\n")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "torsionfree.cli", "field", "analyze",
             str(poly)], capture_output=True, text=True, env=child_env(),
            timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert time.monotonic() - start < 30
        payload = json.loads(proc.stderr.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    def test_large_discriminant_exits_3_in_bounded_time(self, tmp_path):
        # the degree-150 2-Eisenstein input: its discriminant leaves a
        # 1858-bit cofactor, and rho steps on it are charged by its size,
        # so the budget runs out within seconds, not after 40 s
        poly = tmp_path / "f.poly"
        poly.write_text(EISENSTEIN_150 + "\n")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "torsionfree.cli", "field", "analyze",
             str(poly)], capture_output=True, text=True, env=child_env(),
            timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert time.monotonic() - start < 15
        payload = json.loads(proc.stderr.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    @pytest.mark.parametrize("coeffs, norm, skipped", [
        # the degree-12 generic-fields input of seed 2001: splitting its
        # discriminant's 26-digit cofactor takes Pollard rho
        ("-15, -10, 10, -5, 0, -10, -10, 0, 10, 5, -5, -10, 1", "3", []),
        # the semiprime above, whose field analyze exits 3; 2 fails
        # Dedekind's criterion for x^2 - N, N = 1 mod 4
        (f"{-(10**19 + 51) * (10**19 + 10**6 + 27)}, 0, 1", "7", ["2"]),
        # a degree-150 2-Eisenstein polynomial: its discriminant has 611
        # digits, and field analyze exits 3 in rho after about 3 s
        (EISENSTEIN_150, "11", []),
    ], ids=("seed-2001-degree-12", "semiprime", "eisenstein-150"))
    def test_level_find_factors_no_discriminant(self, tmp_path, coeffs, norm,
                                                skipped):
        # the level scan decides index primes only at the primes it visits,
        # so it answers whether or not the discriminant can be factored
        poly = tmp_path / "f.poly"
        poly.write_text(coeffs + "\n")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "torsionfree.cli", "level", "find",
             str(poly), "--dimg", "3"], capture_output=True, text=True,
            env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert time.monotonic() - start < 10
        report = json.loads(proc.stdout)["report"]
        assert (report["norm"], report["skipped_index_divisible"]) == \
            (norm, skipped)

    def test_discriminant_above_str_digit_limit_prints(self, tmp_path):
        # disc(x^64 - 2^250) has 4,857 digits, above Python's default
        # int-to-str limit of 4,300
        f = IntPoly((-2**250,) + (0,) * 63 + (1,))
        poly = tmp_path / "x64.poly"
        poly.write_text(", ".join(map(str, f.coeffs)) + "\n")
        code, out, _err = run_cli("field", "analyze", str(poly))
        assert code == 0
        printed = json.loads(out)["report"]["disc_poly"]
        # this process may hold the default limit; lift it to compare
        lift = getattr(sys, "set_int_max_str_digits", lambda n: None)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        lift(0)
        try:
            assert printed == str(discriminant(f))
        finally:
            lift(limit)

    @pytest.mark.parametrize("args", [
        ["bound", "grh", "--v", "nan", "--dimh", "3"],
        ["bound", "grh", "--v", "inf", "--dimh", "3"],
        ["apply", "generators", "--v", "nan", "--alpha", "0.5", "--c", "1.0"],
        ["apply", "generators", "--v", "1e6", "--alpha", "nan", "--c", "1.0"],
        ["grh", "threshold", "--d", "1", "--logd", "nan"],
    ], ids=lambda a: " ".join(a))
    def test_non_finite_float_is_2(self, args):
        code, out, err = run_cli(*args)
        assert code == 2
        assert out == ""
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "PreconditionError"

    def test_unconditional_exponent_cap_is_3(self):
        start = time.monotonic()
        code, _out, err = run_cli("bound", "unconditional",
                                  "--d", "100000", "--dimh", "100000")
        assert code == 3
        assert time.monotonic() - start < 30
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    def test_level_dimg_cap_is_3(self):
        # norm^dim_G is refused before the scan, not computed for minutes
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "torsionfree.cli", "level", "find",
             str(DATA / "q.poly"), "--dimg", "10000000"],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert time.monotonic() - start < 30
        payload = json.loads(proc.stderr.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    def test_unconditional_at_cap_is_0(self):
        code, out, _err = run_cli("bound", "unconditional",
                                  "--d", "8", "--dimh", "1024")
        assert code == 0
        assert json.loads(out)["report"]["bound"] == str(3 ** 8192)

    def test_threads_option_is_gone(self):
        for args in (["--threads", "1", "level", "find",
                      str(DATA / "q.poly"), "--dimg", "3"],
                     ["construct", "--p", "5", "--dencap", "1024"]):
            code, _out, _err = run_cli(*args)
            assert code == 64, args

    @pytest.mark.parametrize("args", [
        ["construct", "--p", "100003"],
        ["construct", "sweep", "--pmax", "100003"],
    ], ids=lambda a: " ".join(a))
    def test_p_above_cap_is_3(self, args):
        start = time.monotonic()
        code, out, err = run_cli(*args)
        assert code == 3
        assert time.monotonic() - start < 30
        assert out == ""
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"

    def test_p89_builds_with_all_checks(self):
        code, out, _err = run_cli("construct", "--p", "89")
        assert code == 0
        checks = json.loads(out)["report"]["checks"]
        assert len(checks) == 5
        assert all(v is True for v in checks.values())

    def test_probe_guard_is_3(self):
        # 6 coordinates at 13 bits each blows the enumeration budget
        code, _out, _err = run_cli("construct", "--p", "13", "--probe-k", "3")
        assert code == 3


class TestExponentRange:
    """The analytic context has decimal's widest exponent range: values far
    beyond its default limit of 10^999999 print, and only a value beyond
    10^MAX_EMAX is refused, with exit 3."""

    @pytest.mark.parametrize("args, key, want", [
        (["bound", "grh", "--v", "1e300", "--dimh", "1000000"], "bound",
         "3.7331421255054873e+6594770"),
        (["apply", "generators", "--v", "1e300", "--alpha", "-5000",
          "--c", "3"], "value", "3.7338951380122047e+1542598"),
    ], ids=["bound grh", "apply generators"])
    def test_huge_value_prints(self, args, key, want):
        code, out, _err = run_cli(*args)
        assert code == 0
        assert json.loads(out)["report"][key] == want

    @pytest.mark.parametrize("args", [
        ["bound", "grh", "--v", "1e300", "--dimh", str(10**18)],
        ["apply", "generators", "--v", "1e300", "--alpha", "-1e300",
         "--c", "3"],
    ], ids=lambda a: " ".join(a[:2]))
    def test_beyond_max_emax_is_3(self, args):
        code, out, err = run_cli(*args)
        assert code == 3 and not out
        payload = json.loads(err.splitlines()[-1])
        assert payload["error"]["type"] == "ResourceCapError"


class TestNumberFormat:
    """number_str prints what mpmath's nstr(mpf(x), 17) printed at 30
    digits, which every golden was made with."""

    def test_against_mpmath_nstr(self):
        rng = random.Random(17)
        xs = [10 ** rng.uniform(-12, 25) for _ in range(100_000)]
        xs += [-x for x in xs[:1000]] + [
            0, 0.0, -0.0, 1, 1.0, 100.0, 0.5, 2.5, 1e-5, 1e-4, 9.99999e-6,
            1e16, 1e17, 99999999999999999.0, 9.999999999999999e16,
            90421320913028.8125, -2.5e17, 1e300, 5e-324, 2**64]
        with mp.workdps(30):
            bad = [x for x in xs if number_str(x) != mp.nstr(mp.mpf(x), 17)]
        assert bad == []
        # an exact binary tie rounds half up
        assert number_str(90421320913028.8125) == "90421320913028.813"


class TestConfig:
    def test_default_warns_on_stderr(self):
        # each command warns about the illustrative constants it reads and
        # no others. Only a command that
        # reads a config value notes that no config file was given.
        note = "no config file given; defaults in effect"
        reads_no_config = {("field", "analyze"), ("bound", "unconditional"),
                           ("torsion", "table"), ("apply", "generators")}
        reads = {
            ("level", "find", str(DATA / "q.poly"), "--dimg", "3"): set(),
            ("construct", "sweep", "--pmax", "13"):
                {"belolipetsky_a", "belolipetsky_b"},
            ("construct", "--p", "5"): {"belolipetsky_a", "belolipetsky_b"},
            ("bound", "grh", "--v", "100", "--dimh", "3"):
                {"epsilon", "prasad_c1", "prasad_c2", "lemma_C"},
            ("field", "analyze", str(DATA / "q.poly")): set(),
            ("bound", "unconditional", "--d", "1", "--dimh", "3"): set(),
            ("torsion", "table", "--nmax", "2"): set(),
            ("apply", "generators", "--v", "1000000", "--alpha", "0.5",
             "--c", "1.0"): set(),
        }
        for args, names in reads.items():
            code, _out, err = run_cli(*args)
            assert code == 0, args
            warned = set(re.findall(r"warning: (\w+) = .* is an illustrative "
                                    "default", err))
            assert warned == names, args
            assert (note in err) == (args[:2] not in reads_no_config), args

    def test_stdout_stays_clean(self):
        _code, out, _err = run_cli("construct", "sweep", "--pmax", "13")
        assert "warning" not in out

    def test_config_file_shifts_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"belolipetsky_a": 2.0}))
        _c, base, _e = run_cli("construct", "sweep", "--pmax", "7")
        _c, shifted, err = run_cli("--config", str(cfg),
                                   "construct", "sweep", "--pmax", "7")
        assert base != shifted
        # overridden constant no longer warns
        assert "belolipetsky_a" not in err
        assert "belolipetsky_b" in err

    def test_env_var_honored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"belolipetsky_a": 2.0}))
        _c, _o, err = run_cli("construct", "sweep", "--pmax", "7")
        assert "warning: belolipetsky_a" in err
        _c, _o, err = run_cli("construct", "sweep", "--pmax", "7",
                              env_extra={"TORSIONFREE_CONFIG": str(cfg)})
        assert "belolipetsky_a" not in err
        assert "warning: belolipetsky_b" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        code, _o, err = run_cli("--config", str(cfg),
                                "construct", "sweep", "--pmax", "7")
        assert code == 2

    def test_jordan_index_is_unknown_key(self, tmp_path):
        # no command reads a Jordan index, so the config holds none
        message = self.refused(tmp_path, '{"jordan_index": 60}',
                               "construct", "sweep", "--pmax", "7")
        assert message == "unknown config keys: jordan_index"

    @staticmethod
    def refused(tmp_path, text, *args):
        """Exit 2, nothing on stdout and a JSON PreconditionError on stderr
        for the config file holding text."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli("--config", str(cfg), *args)
        assert (code, out) == (2, ""), (text, args, err)
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert error["type"] == "PreconditionError"
        return error["message"]

    def test_keys_are_the_documented_seven(self):
        assert sorted(KEYS) == ["belolipetsky_a", "belolipetsky_b", "epsilon",
                                "lemma_C", "prasad_c1", "prasad_c2",
                                "prime_scan_cap"]

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_non_finite_value_refused(self, tmp_path, key):
        # json reads NaN, Infinity and 1e400 as non-finite floats
        for value in ("NaN", "Infinity", "-Infinity", "1e400"):
            message = self.refused(tmp_path, f'{{"{key}": {value}}}',
                                   "level", "find", str(DATA / "q.poly"),
                                   "--dimg", "3")
            assert message == f"{key} must be finite"

    @pytest.mark.parametrize("args", [("construct", "--p", "5"),
                                      ("construct", "sweep", "--pmax", "7")],
                             ids=" ".join)
    def test_non_finite_constant_prints_nothing(self, tmp_path, args):
        # these commands printed "nan" or "+inf" with exit 0 before
        for text in ('{"belolipetsky_a": NaN}',
                     '{"belolipetsky_b": Infinity}'):
            self.refused(tmp_path, text, *args)

    def test_integral_float_scan_cap(self, tmp_path):
        # 3.0 is the integer 3; 3.5 is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"prime_scan_cap": 3.0}')
        args = ("level", "find", str(DATA / "q.poly"), "--dimg", "3")
        code, out, err = run_cli("--config", str(cfg), *args)
        assert code == 0, err
        assert out == run_cli(*args)[1]
        assert Config(prime_scan_cap=3.0).prime_scan_cap == 3
        assert type(Config(prime_scan_cap=3.0).prime_scan_cap) is int
        assert self.refused(tmp_path, '{"prime_scan_cap": 3.5}', *args) == \
            "prime_scan_cap must be an integer"

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code, _o, _e = run_cli("--config", str(cfg),
                               "construct", "sweep", "--pmax", "7")
        assert code == 2

    def test_missing_config_file_rejected(self, tmp_path):
        absent = str(tmp_path / "absent.json")
        for opts, env in ((("--config", absent), None),
                          ((), {"TORSIONFREE_CONFIG": absent})):
            code, out, err = run_cli(*opts, "construct", "sweep", "--pmax", "7",
                                     env_extra=env)
            assert code == 2
            assert out == ""
            error = json.loads(err.strip().splitlines()[-1])["error"]
            assert error["type"] == "PreconditionError"
            assert "not found" in error["message"]


class TestDeterminism:
    CASES = [
        ["level", "find", str(DATA / "sqrt2.poly"), "--dimg", "3"],
        ["construct", "--p", "7"],
        ["torsion", "table", "--nmax", "6", "--d", "1"],
        ["construct", "sweep", "--pmax", "13"],
        ["grh", "threshold", "--d", "1", "--logd", "0"],
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda a: " ".join(a[:2]))
    def test_repeat_runs_identical(self, args):
        _c1, out1, _e = run_cli(*args)
        _c2, out2, _e = run_cli(*args)
        assert out1 == out2

    def test_no_random_import_in_package(self):
        # reports are deterministic by construction: no module draws from
        # the random module, seeded or not
        src = Path(__file__).parent.parent / "src" / "torsionfree"
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Import)
                     and any(a.name.split(".")[0] == "random"
                             for a in node.names)
                     or isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "random"]
            assert not lines, f"{path.name}: random imported at lines {lines}"


class TestOptimizedInterpreter:
    """Certificates are explicit checks, so python -O changes nothing."""

    def test_no_assert_in_package(self):
        src = Path(__file__).parent.parent / "src" / "torsionfree"
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name}: assert at lines {lines}"

    @pytest.mark.parametrize("args", [
        ["grh", "threshold", "--d", "1", "--logd", "0"],
        ["construct", "--p", "7"],
        ["construct", "sweep", "--pmax", "13"],
    ], ids=lambda a: " ".join(a[:2]))
    def test_same_report_under_O(self, args):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "torsionfree.cli", *args],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        _code, want, _err = run_cli(*args)
        assert proc.stdout == want


class TestPackageSurface:
    """Every top-level public function has a reader in the package, or a
    stated reason to stay without one."""

    NO_CALLER_IN_PACKAGE = {
        "count_prime_ideals": "a library entry; the benchmark's workloads "
                              "call it",
        "naive_max_order": "the brute-force oracle that max_torsion_order "
                           "is checked against",
        "witness_matrix": "the integer matrix of a torsion witness, whose "
                          "order check the torsion report is to print",
        "matrix_order_is": "the exact order check of a witness matrix",
        "finite_subgroup_bound": "acceptance criterion 7 reads it, and the "
                                 "two-sided bound at one lattice is to",
    }

    def test_public_functions_have_readers(self):
        src = Path(__file__).parent.parent / "src" / "torsionfree"
        trees = {path: ast.parse(path.read_text())
                 for path in sorted(src.rglob("*.py"))}
        loaded = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
        public = {node.name: path.stem
                  for path, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")}
        unread = sorted(f"{mod}.{name}" for name, mod in public.items()
                        if name not in loaded
                        and name not in self.NO_CALLER_IN_PACKAGE)
        assert not unread, f"public functions nothing in src/ calls: {unread}"
        stale = sorted(name for name in self.NO_CALLER_IN_PACKAGE
                       if name not in public or name in loaded)
        assert not stale, f"allowlisted but gone or now called: {stale}"


class TestPolyFileParsing:
    def test_comments_and_whitespace(self, tmp_path):
        f = tmp_path / "ok.poly"
        f.write_text("# a comment\n\n  -2,  0, 1  \n# trailing\n")
        code, out, _e = run_cli("field", "analyze", str(f))
        assert code == 0
        assert json.loads(out)["report"]["poly"] == [-2, 0, 1]

    def test_two_data_lines_rejected(self, tmp_path):
        f = tmp_path / "two.poly"
        f.write_text("-2, 0, 1\n-3, 0, 1\n")
        code, _o, _e = run_cli("field", "analyze", str(f))
        assert code == 2


class TestLevelSkipsIndexPrimes:
    """level find passes over a prime that may divide [O : Z[theta]] and
    lists it under skipped_index_divisible."""

    @pytest.mark.parametrize("coeffs, norm, bound, skipped", [
        # theta = 3 sqrt 7: 3 divides the index of Z[theta]
        ("-63, 0, 1", "7", "343", ["3"]),
        # Dedekind's cubic x^3 - x^2 - 2x - 8: 2 divides every index
        ("-8, -2, -1, 1", "5", "125", ["2"]),
    ])
    def test_skipped_primes_reported(self, tmp_path, coeffs, norm, bound,
                                     skipped):
        poly = tmp_path / "f.poly"
        poly.write_text(coeffs + "\n")
        code, out, _err = run_cli("level", "find", str(poly), "--dimg", "3")
        assert code == 0
        doc = json.loads(out)
        VALIDATOR.validate(doc)
        report = doc["report"]
        assert (report["norm"], report["index_bound"]) == (norm, bound)
        assert report["skipped_index_divisible"] == skipped


class TestProbeReport:
    def test_probe_block_contents(self):
        _c, out, _e = run_cli("construct", "--p", "5", "--probe-k", "2")
        probe = json.loads(out)["report"]["isotropy_probe"]
        assert probe["k"] == 2
        assert probe["solution_count"] == 192
        assert len(probe["solutions_sample"]) == 8

    def test_no_probe_block_without_flag(self):
        _c, out, _e = run_cli("construct", "--p", "5")
        assert "isotropy_probe" not in json.loads(out)["report"]


class TestParser:
    COMMANDS = [[], ["field"], ["field", "analyze"], ["level"],
                ["level", "find"], ["grh"], ["grh", "threshold"], ["bound"],
                ["bound", "grh"], ["bound", "unconditional"], ["torsion"],
                ["torsion", "table"], ["construct"], ["construct", "sweep"],
                ["apply"], ["apply", "generators"]]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=lambda c: " ".join(c) or "top")
    def test_help(self, command, capsys):
        assert entrypoint([*command, "--help"]) == 0
        assert "Usage" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["torsion", "table", "--nmax", "3", "--format", "xml"],
        ["construct", "sweep", "--pmax", "13", "--format", "yaml"],
        ["torsion", "table", "--nmax", "2.5"],
        ["torsion", "table", "--nmax", "three"],
        ["construct", "sweep"],
        ["grh", "threshold", "--d", "1"],
        ["construct"],
        ["construct", "--probe-k", "2"],
        ["torsion", "table", "--nm", "3"],
        ["-h"],
    ], ids=lambda a: " ".join(a))
    def test_usage_error_is_64(self, args, capsys):
        assert entrypoint(args) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("args", [
        ["grh", "threshold", "--d", "1", "--logd", "-1e3"],
        ["grh", "threshold", "--d", "1", "--logd", "-inf"],
        ["bound", "grh", "--v", "-1E2", "--dimh", "3"],
    ], ids=lambda a: " ".join(a))
    def test_negative_numbers_are_values(self, args, capsys):
        """Parsed as the option's value and refused by the domain check
        (exit 2), not taken for an unknown option (exit 64)."""
        assert entrypoint(args) == 2
        err = capsys.readouterr().err
        error = json.loads(err.splitlines()[-1])["error"]
        assert error["type"] == "PreconditionError"

    def test_config_before_subcommand_is_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"belolipetsky_a": 2.0}))
        code, out, err = run_cli("--config", str(cfg), "construct", "--p", "5")
        assert code == 0
        with mp.workdps(30):
            want = mp.nstr(mp.log(2) + mp.log(5), 17)
        assert json.loads(out)["report"]["log_volume_estimate"] == want
        assert "belolipetsky_a" not in err
        assert "belolipetsky_b" in err


LOADED_SCRIPT = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
{body}
print(" ".join(m for m in ("click", "mpmath", "numpy", "dataclasses", "inspect")
               if sys.modules.get(m) is not None))
"""


def loaded_modules(*lines):
    """Which of click, mpmath, numpy, dataclasses and inspect a fresh
    interpreter has loaded after running lines (with stdout discarded)."""
    body = "\n".join("    " + line for line in lines)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT.format(body=body)],
        capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def golden_lines(names):
    # a check that raises, not an assert, so that the commands also run
    # under python -O
    return ["from torsionfree.cli import entrypoint"] + [
        f"if entrypoint({GOLDEN_CASES[name]!r}) != 0: sys.exit(1)"
        for name in names]


class TestImportCost:
    """Start-up loads no command-line framework and neither dataclasses nor
    inspect (the package's records are plain classes), and no command
    loads mpmath; the checks run in fresh interpreters."""

    def test_cli_import(self):
        assert loaded_modules("import torsionfree.cli") == set()

    def test_mpmath_free_commands(self):
        # an import of mpmath raises ImportError, and the command fails
        assert loaded_modules('sys.modules["mpmath"] = None',
                              *golden_lines(sorted(GOLDEN_CASES))) == set()

    def test_golden_commands_load_no_numpy(self):
        assert loaded_modules(*golden_lines(sorted(GOLDEN_CASES))) == set()

    def test_cosine_pipeline(self):
        assert loaded_modules(
            "from torsionfree.construct import build_construction",
            "from torsionfree.numfield import count_prime_ideals, "
            "make_cosine_field",
            "from torsionfree.selberg import find_congruence_level",
            "K = make_cosine_field(11)",
            "find_congruence_level(K, 3)",
            "if not build_construction(11).all_checks_pass(): sys.exit(1)",
            "count_prime_ideals(K, 10**5)") == set()

    def test_generic_pipeline(self):
        # numpy itself imports inspect
        assert loaded_modules(
            "from torsionfree.numfield import count_prime_ideals, make_field",
            "from torsionfree.selberg import find_congruence_level",
            "K = make_field((2, -2, 0, 2, 1))",
            "find_congruence_level(K, 3)",
            "count_prime_ideals(K, 2000)") == {"numpy", "inspect"}
