"""The torsionfree benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every pass of the task list runs in
a fresh interpreter (cold module caches, as for a CLI user), one pass at a
time, one task at a time: a closed loop with a single client. Passes repeat
until S seconds have been measured. Answers are checked against independent
oracles after the timed region; a wrong answer makes `correct` false.

Every reported time is in nominal seconds: rescaled to a nominal machine
speed that this process samples while the workers run; see speed.py.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. The line before it is the
full record: stamp, sample counts, every sample. Append stdout to a file
(`>> FILE`) to keep the records for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import oracles
import speed
import workloads
from tracer import finalize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_BUDGET_S = 165       # a run must end well within 180 s

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env.pop("TORSIONFREE_CONFIG", None)
    # One core, as the closed loop intends: numpy's BLAS pool would start a
    # second thread at import. The program makes no BLAS calls.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def spawn(mode: str, workload: str, seed: int, trace: bool, env: dict,
          deadline: float, sampler: speed.Sampler | None = None
          ) -> tuple[float, dict | None, float]:
    """Start one worker, followed by sampler while it runs; return (seconds
    until READY, its JSON result, the CPU seconds it and its children used
    per second of its wall time)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    cpu0 = _child_cpu_s()
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        if sampler is not None:
            sampler.pid = proc.pid
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            if sampler is not None:
                sampler.pid = None
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    cores = (_child_cpu_s() - cpu0) / (perf_counter() - t0)
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {mode} exited with code {code}")
    if mode == "setup":
        return setup, None, cores
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup, json.loads(lines[-1]), cores


# ------------------------------------------------------------- checking

def check_answers(workload: str, passes: list[dict]) -> list[str]:
    """Every pass must give the same answer to the same task, and every
    answer must agree with its oracle."""
    answers: dict[str, tuple[dict, dict]] = {}
    errors = []
    for res in passes:
        for rec in res["tasks"]:
            if rec["answer"] is None or rec["error"] is not None:
                continue
            key = json.dumps(rec["task"], sort_keys=True)
            if key in answers and answers[key][1] != rec["answer"]:
                errors.append(f"answers differ between passes for {key}")
            answers.setdefault(key, (rec["task"], rec["answer"]))
    distinct = list(answers.values())
    if workload == "cosine-fields":
        errors += check_cosine(distinct)
    elif workload == "generic-fields":
        for task, ans in distinct:
            errors += oracles.check_irreducible(tuple(task["coeffs"]))
            errors += oracles.check_generic(task["coeffs"], task["X"],
                                            ans["level"], ans["count"])
    else:
        golden = ROOT / "tests" / "golden"
        for task, ans in distinct:
            errors += oracles.check_cli(task["name"], ans["code"],
                                        ans["stdout"], golden)
    return errors


def check_cosine(distinct) -> list[str]:
    errors = []
    by_x: dict[int, list[int]] = {}
    for task, _ans in distinct:
        by_x.setdefault(task["X"], []).append(task["p"])
    classes = {X: oracles.count_classes_pm1(X, ps) for X, ps in by_x.items()}
    for task, ans in distinct:
        p, X = task["p"], task["X"]
        errors += oracles.check_cosine_level(p, ans["level"])
        errors += oracles.check_T(p, ans["T"], ans["all_checks_pass"])
        errors += oracles.check_cosine_count(p, X, ans["count"],
                                             classes[X][p])
    return errors


# --------------------------------------------------------------- stamp

def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix != ".so":
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def stamp(backends: set[str], seed: int) -> dict:
    if len(backends) != 1:
        raise BenchError(f"passes ran on different kernel backends {backends}")
    return {
        "backend": backends.pop(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "click": _version("click"),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ------------------------------------------------------------- metrics

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(passes: list[dict], setups: list[tuple[float, float]],
               scale: bool = True) -> dict[str, float]:
    """The end-to-end metrics. A set-up is (raw seconds, speed factor);
    scale=False gives every time in raw seconds."""
    def seconds(raw, f):
        return raw * (f if scale else 1.0)

    return {
        "setup_s": statistics.median(seconds(*s) for s in setups),
        "wall_s": statistics.median(
            sum(seconds(t["seconds"], t["speed"]) for t in r["tasks"])
            for r in passes),
        "task_p50_s": statistics.median(
            seconds(t["seconds"], t["speed"]) for r in passes
            for t in r["tasks"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def per_layer(traced: list[dict], units: dict[str, str],
              scale: bool = True) -> dict[str, float]:
    """The per-layer metrics named in units, the times in nominal seconds
    unless scale=False. trace.overhead_s is the time the wrappers added:
    the spans recorded times one wrapper's cost per call."""
    per_pass = []
    for r in traced:
        f = r["speed"] if scale else 1.0
        values = finalize(r["trace"])
        values["cli.interpreter_s"] = r.get("interpreter_s", 0.0)
        imports = r["import_s"]
        values["cli.import_s"] = statistics.median(imports) if imports else 0.0
        values["trace.overhead_s"] = values["trace.spans"] * r["trace_call_s"]
        per_pass.append({name: values.get(name, 0.0) * (f if unit == "s" else 1)
                         for name, unit in units.items()})
    return {name: statistics.median(p[name] for p in per_pass)
            for name in units}


def rescale(passes: list[dict], sampler: speed.Sampler) -> None:
    """Give every task and every pass its speed factor."""
    for r in passes:
        for t in r["tasks"]:
            t["speed"] = speed.factor(
                sampler.between(t["start"], t["start"] + t["seconds"]))
        first, last = r["tasks"][0], r["tasks"][-1]
        r["speed"] = speed.factor(
            sampler.between(first["start"], last["start"] + last["seconds"]))


def measure(workload: str, seed: int, seconds: int, trace: bool,
            spec: dict) -> dict:
    start = perf_counter()
    deadline = start + RUN_BUDGET_S
    env = child_env()
    # Byte-compile the program and the benchmark, unmeasured, as installing
    # a package does: no worker compiles, whatever PYTHONDONTWRITEBYTECODE
    # says, and no run pays for compiling that an earlier run did not.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
         str(BENCH)], env=env, capture_output=True, timeout=RUN_BUDGET_S)
    if compiled.returncode != 0:
        raise BenchError("could not byte-compile the sources")
    setups, passes, cores = [], [], []
    with speed.Sampler() as sampler:
        for _ in range(0 if trace else SETUP_SAMPLES):
            t0 = perf_counter()
            raw, _none, used = spawn("setup", workload, seed, False, env,
                                     deadline, sampler)
            setups.append((raw, speed.factor(sampler.between(t0, t0 + raw))))
            cores.append(used)
        t_measure = perf_counter()
        while True:
            t0 = perf_counter()
            _setup, result, used = spawn("pass", workload, seed, trace, env,
                                         deadline, sampler)
            passes.append(result)
            cores.append(used)
            now = perf_counter()
            if now - t_measure >= seconds or now + 1.5 * (now - t0) > deadline:
                break
    rescale(passes, sampler)
    # the probe cannot tell a busy neighbour from a program on two cores
    normalised = max(cores) <= speed.MULTI_CORE_RATIO
    if not normalised:
        print(f"perfbench: a worker used {max(cores):.2f} cores; times are "
              "reported in raw seconds", file=sys.stderr)

    errors = check_answers(workload, passes)
    tasks = [t for r in passes for t in r["tasks"]]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        values = per_layer(passes, units, normalised)
        raw_values = per_layer(passes, units, scale=False)
    else:
        values = end_to_end(passes, setups, normalised)
        raw_values = end_to_end(passes, setups, scale=False)
    absent = sorted({name for r in passes for name in r["absent"]})
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "stamp": stamp({r["backend"] for r in passes}, seed),
        "correct": not errors,
        "errors": errors[:20],
        "attempted": len(tasks),
        "failed": sum(1 for t in tasks if t["error"] is not None),
        "failures": sorted({t["error"] for t in tasks if t["error"]}),
        "absent": absent,
        "samples": {"passes": len(passes), "tasks": len(tasks),
                    "setups": len(setups), "probes": len(sampler.samples),
                    "probes_on_worker_cpu": sampler.followed},
        "normalised": normalised,
        "cores_used": cores,
        "pass_wall_s": [r["wall_s"] for r in passes],
        "pass_speed_factor": [r["speed"] for r in passes],
        "task_s_and_speed": [[[t["seconds"], t["speed"]] for t in r["tasks"]]
                             for r in passes],
        "setup_s_and_speed": setups,
        "raw_metrics": raw_values,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
        "run_s": perf_counter() - start,
    }
    if trace:
        record["trace_spans"] = [r["trace"]["trace.spans"] for r in passes]
        record["trace_call_s"] = [r["trace_call_s"] for r in passes]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops the worker it started (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "torsionfree" / "__init__.py").is_file():
        print("perfbench: no torsionfree source under src/; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        workloads.make_inputs(args.workload, args.seed, ROOT)
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), spec)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps({"perfbench": record}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
