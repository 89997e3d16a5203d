"""Tests of the benchmark itself: inputs, oracles, tracer, contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import speed
import tracer
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7, ROOT)
    b = workloads.make_inputs(workload, 7, ROOT)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seeds_change_the_drawn_inputs():
    cosine = {json.dumps(workloads.cosine_inputs(s)) for s in range(8)}
    generic = {json.dumps(workloads.generic_inputs(s)) for s in range(8)}
    assert len(cosine) > 1 and len(generic) > 1


def test_cosine_inputs_take_one_prime_per_stratum():
    for seed in range(20):
        tasks = workloads.cosine_inputs(seed)
        primes = [t["p"] for t in tasks]
        assert len(primes) == len(workloads.COSINE_STRATA)
        for stratum in workloads.COSINE_STRATA:
            assert sum(p in stratum for p in primes) == 1
        assert len({t["X"] for t in tasks}) == 1
        assert workloads.COSINE_X[0] <= tasks[0]["X"] <= workloads.COSINE_X[1]


def test_generic_inputs_are_eisenstein():
    for task in workloads.generic_inputs(3):
        c, r = task["coeffs"], task["eisenstein_prime"]
        assert c[-1] == 1
        assert all(x % r == 0 for x in c[:-1]) and c[0] % (r * r) != 0
    degrees = sorted(len(t["coeffs"]) - 1 for t in workloads.generic_inputs(3))
    assert degrees == list(workloads.GENERIC_DEGREES)


def test_cli_inputs_are_the_golden_cases():
    names = {t["name"] for t in workloads.cli_inputs(0, ROOT)}
    assert names == {p.name for p in (ROOT / "tests" / "golden").iterdir()
                     if p.suffix in (".json", ".csv")}


# --------------------------------------------------------------- oracles

def _cosine_answer(p, X):
    return workloads.run_cosine({"p": p, "X": X})


def test_cosine_oracles_accept_the_program_and_reject_corruption():
    p, X = 13, 10**5
    ans = _cosine_answer(p, X)
    classes = oracles.count_classes_pm1(X, [p])[p]
    assert oracles.check_cosine_level(p, ans["level"]) == []
    assert oracles.check_T(p, ans["T"], ans["all_checks_pass"]) == []
    assert oracles.check_cosine_count(p, X, ans["count"], classes) == []

    level = list(ans["level"])
    level[0] += 1
    assert oracles.check_cosine_level(p, level)
    assert oracles.check_cosine_count(p, X, ans["count"] + 1, classes)
    assert oracles.check_T(p, ans["T"], False)
    assert oracles.check_T(p, str(Fraction(ans["T"]) + 1), True)


def test_class_count_matches_a_plain_count():
    X, p = 30011, 31
    plain = sum(1 for q in oracles.primes_upto(X) if q % p in (1, p - 1))
    assert oracles.count_classes_pm1(X, [p], block=4096)[p] == plain


def test_generic_oracle_accepts_the_program_and_rejects_corruption():
    task = {"coeffs": [6, 0, -6, -6, 0, 3, 0, 3, 1], "X": 3000}
    ans = workloads.run_generic(task)
    assert oracles.check_irreducible(tuple(task["coeffs"])) == []
    assert oracles.check_generic(task["coeffs"], task["X"], ans["level"],
                                 ans["count"]) == []
    assert oracles.check_generic(task["coeffs"], task["X"], ans["level"],
                                 ans["count"] + 1)
    level = list(ans["level"])
    level[0] += 1
    assert oracles.check_generic(task["coeffs"], task["X"], level,
                                 ans["count"])


def test_generic_oracle_skips_index_divisible_primes():
    # x^2 - 20402 = x^2 - 2 * 101^2: 101 divides the index of Z[101 sqrt 2]
    from torsionfree.numfield import count_prime_ideals, make_field

    coeffs, X = (-20402, 0, 1), 20000
    unreliable = []
    want = count_prime_ideals(make_field(coeffs), X, unreliable)
    assert unreliable == [101]
    assert oracles.generic_count(coeffs, X) == want


def test_reducible_input_is_flagged():
    assert oracles.check_irreducible((-4, 0, 1))


def test_cli_oracle_rejects_changed_stdout(tmp_path):
    (tmp_path / "a.json").write_text('{"generated_by": "v1", "x": 1}\n')
    (tmp_path / "b.csv").write_text("n,d\n1,1\n")
    ok = '{"generated_by": "v2", "x": 1}\n'
    assert oracles.check_cli("a.json", 0, ok, tmp_path) == []
    assert oracles.check_cli("a.json", 0, ok.replace("1}", "2}"), tmp_path)
    assert oracles.check_cli("a.json", 3, ok, tmp_path)
    assert oracles.check_cli("b.csv", 0, "n,d\n1,1\n", tmp_path) == []
    assert oracles.check_cli("b.csv", 0, "n,d\n1,1", tmp_path)


# ---------------------------------------------------------------- tracer

def _bindings():
    """Every (module, attribute) -> object in the loaded program."""
    import torsionfree.cli  # noqa: F401  (loads every module)

    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "torsionfree" or name.startswith("torsionfree.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tr = tracer.Tracer().install()
    try:
        patched = {key for key, value in _bindings().items()
                   if value is not before[key]}
        assert ("torsionfree.numfield", "factor_mod_p") in patched
        assert ("torsionfree.construct", "interval_certificate") in patched
        assert ("torsionfree._kernels", "poly_root_count_over_primes") in patched
    finally:
        tr.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert tr.absent == []


RESTORE_SCRIPT = """
import importlib, sys
sys.path.insert(0, {bench!r})
import torsionfree.numfield, torsionfree.selberg
import tracer

def bindings():
    return {{(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("torsionfree")
            for attr, value in vars(mod).items() if callable(value)}}

before = bindings()
tr = tracer.Tracer().install()
assert tr.absent == [], tr.absent
import torsionfree.cli    # imported while wrapped: binds wrappers
tr.uninstall()
after = bindings()
for key, value in before.items():
    assert after[key] is value, key
wrapped = [key for key, value in after.items()
           if getattr(getattr(value, "__code__", None), "co_name", "")
           == "traced"]
assert wrapped == [], wrapped
print("restored", len(after))
"""


def test_tracer_restores_modules_it_or_the_program_imported_later():
    """Starting with only numfield and selberg loaded, install() imports
    construct, torsion, ... and the run imports cli; uninstall() must leave
    no wrapper in any of them."""
    proc = subprocess.run(
        [sys.executable, "-c", RESTORE_SCRIPT.format(bench=str(BENCH))],
        capture_output=True, text=True, timeout=120,
        env={**run.child_env(), "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("restored")


def test_absent_names_are_reported_not_fatal():
    targets = tracer.TARGETS + (
        tracer.Target("selberg", "torsionfree.selberg", "no_such_function"),
        tracer.Target("gone", "torsionfree.no_such_module", "f"),
    )
    with tracer.Tracer(targets) as tr:
        from torsionfree.numfield import make_cosine_field
        make_cosine_field(7)
    assert tr.absent == ["torsionfree.selberg.no_such_function",
                         "torsionfree.no_such_module.f"]
    assert any(s.name == "numfield.make_field" for s in tr.spans)


def test_spans_nest_and_self_time_is_not_negative():
    with tracer.Tracer() as tr:
        workloads.run_cosine({"p": 11, "X": 10**5})
        workloads.run_generic({"coeffs": [2, -2, 0, 2, 1], "X": 2000})
    spans = tr.spans
    assert spans
    for s in spans:
        assert s.end >= s.start
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    assert all(t >= 0 for t in tracer.self_times(spans))
    raw = tracer.raw_counts(spans)
    total_self = sum(raw[f"{layer}.self_s"] for layer in tracer.LAYERS)
    roots = sum(s.duration for s in spans if s.parent < 0)
    assert total_self == pytest.approx(roots)
    assert raw["trace.spans"] == len(spans)
    out = tracer.finalize(raw)
    assert out["selberg.find_congruence_level.primes_scanned"] > 0
    assert out["construct.T_candidates"] > 0
    assert 0 < out["construct.T_hit_ratio"] <= 1
    assert out["kernels.poly_root_count_over_primes.primes"] == \
        tracer.prime_count(45, 2001)


# ----------------------------------------------------------------- speed

def test_sampler_follows_a_process_on_its_cpu_until_exit():
    import os
    import time

    affinity = os.sched_getaffinity(0)
    with speed.Sampler(interval=0.005) as sampler:
        time.sleep(0.05)
        assert sampler.samples == []        # nothing to follow yet
        busy = "import time\nt = time.time() + 0.3\nwhile time.time() < t: pass"
        with subprocess.Popen([sys.executable, "-c", busy]) as child:
            sampler.pid = child.pid
            assert speed.running_cpu(child.pid) in affinity
        sampler.pid = None
    assert not sampler._thread.is_alive()
    assert os.sched_getaffinity(0) == affinity
    n = len(sampler.samples)
    assert n > speed.MIN_SAMPLES
    assert sampler.followed >= n - 1        # the last may find it exited
    stamps = [t for t, _d in sampler.samples]
    assert stamps == sorted(stamps)
    assert sampler.between(stamps[0], stamps[-1]) == \
        [d for _t, d in sampler.samples]
    assert len(sampler.between(stamps[1], stamps[1])) == speed.MIN_SAMPLES


def test_a_set_up_runs_on_one_core():
    env = run.child_env()
    _setup, _none, cores = run.spawn("setup", "generic-fields", 1, False, env,
                                     run.perf_counter() + 60)
    assert 0 < cores <= speed.MULTI_CORE_RATIO


def test_speed_factor_is_nominal_over_the_median_probe():
    assert speed.factor([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert speed.factor([2 * speed.NOMINAL_S] * 2 + [9.0]) == pytest.approx(0.5)


def test_rescale_uses_the_probes_taken_during_each_task():
    sampler = speed.Sampler()
    sampler.samples = ([(t / 10, speed.NOMINAL_S) for t in range(10)]
                       + [(1 + t / 10, 2 * speed.NOMINAL_S) for t in range(10)])
    one_pass = {"tasks": [{"start": 0.0, "seconds": 0.95},
                          {"start": 1.0, "seconds": 0.95}]}
    run.rescale([one_pass], sampler)
    assert [t["speed"] for t in one_pass["tasks"]] == [1.0, 0.5]
    assert one_pass["speed"] == pytest.approx(2 / 3)


# -------------------------------------------------------------- contract

def test_end_to_end_metrics_match_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    one_pass = {"peak_rss_mb": 30.0,
                "tasks": [{"seconds": 2.0, "speed": 0.5}] * 3}
    values = run.end_to_end([one_pass], [(0.3, 2.0), (0.2, 1.0), (0.4, 2.0)])
    assert list(values) == [m["name"] for m in spec["end_to_end"]]
    assert values["setup_s"] == pytest.approx(0.6)
    assert values["wall_s"] == pytest.approx(3.0)
    assert values["task_p50_s"] == pytest.approx(1.0)
    raw = run.end_to_end([one_pass], [(0.3, 2.0)], scale=False)
    assert raw["setup_s"] == pytest.approx(0.3)
    assert raw["wall_s"] == pytest.approx(6.0)


def test_trace_overhead_is_spans_times_the_call_cost():
    units = {"trace.overhead_s": "s", "polyalg.compare_root.calls": "count"}
    one_pass = {"speed": 0.5, "import_s": [], "trace_call_s": 2e-6,
                "trace": {"trace.spans": 1000,
                          "polyalg.compare_root.calls": 40}}
    values = run.per_layer([one_pass], units)
    assert values["trace.overhead_s"] == pytest.approx(1e-3)
    assert values["polyalg.compare_root.calls"] == 40
    assert run.per_layer([one_pass], units, scale=False)[
        "trace.overhead_s"] == pytest.approx(2e-3)
    assert 0 <= tracer.call_cost_s(calls=2000, repeats=3) < 1e-3


def test_every_per_layer_metric_is_measured(capsys):
    """Each per-layer name in BENCHMARK.json comes out of the tracer on the
    golden commands and one task of each in-process workload, except the
    three the worker measures itself."""
    import torsionfree.cli as cli

    with tracer.Tracer() as tr:
        for case in workloads.cli_inputs(0, ROOT):
            assert cli.entrypoint(case["args"]) == 0
        workloads.run_cosine({"p": 11, "X": 10**5})
        workloads.run_generic({"coeffs": [2, -2, 0, 2, 1], "X": 2000})
    capsys.readouterr()
    produced = tracer.finalize(tracer.raw_counts(tr.spans))
    by_worker = {"cli.interpreter_s", "cli.import_s", "trace.overhead_s"}
    for metric in run.load_spec()["per_layer"]:
        name = metric["name"]
        assert name in by_worker or produced.get(name, 0) > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(backend, seed, wall):
    return json.dumps({"perfbench": {
        "workload": "cli-cold", "trace": False,
        "stamp": {"backend": backend, "seed": seed},
        "metrics": {"wall_s": {"value": wall, "unit": "s"}}}})


def test_compare_refuses_different_backends(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(_record("pure", 1, 1.0) + "\n")
    b.write_text(_record("compiled", 1, 1.0) + "\n")
    proc = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                           str(a), str(b)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "backends" in proc.stderr


def test_compare_flags_a_regression(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(_record("pure", s, 1.0) + "\n" for s in range(3)))
    b.write_text("".join(_record("pure", s, 1.5) + "\n" for s in range(3)))
    proc = subprocess.run([sys.executable, str(BENCH / "compare.py"),
                           str(a), str(b)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "REGRESSED" in proc.stdout and "wins 0/3" in proc.stdout
