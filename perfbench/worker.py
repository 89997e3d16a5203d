"""One fresh interpreter of the benchmark.

    python3 perfbench/worker.py pass  --workload W --seed N [--trace]
    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py cli ARGS...

`pass` imports the program, makes the inputs, prints READY, runs every task
once in a closed loop and prints one JSON line with the answers and, for
each task, its start on the shared perf_counter() clock and its seconds;
run.py rescales them with the speed it sampled meanwhile (see speed.py).
`setup` stops after READY. `cli` runs one CLI command with the tracer on and
writes its per-layer sums to the last line of stderr.

The program is found through PYTHONPATH, which run.py sets.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_PREFIX = "PERFBENCH_TRACE "
BARE_INTERPRETER_RUNS = 5


def backend() -> str:
    try:
        kernels = importlib.import_module("torsionfree._kernels")
    except ImportError:
        return "absent"
    return str(getattr(kernels, "IMPLEMENTATION", "absent"))


def child_env() -> dict:
    env = os.environ.copy()
    env.pop("TORSIONFREE_CONFIG", None)
    return env


def bare_interpreter_s(env: dict) -> float:
    times = []
    for _ in range(BARE_INTERPRETER_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    for name in workloads.PROGRAM_MODULES[workload]:
        importlib.import_module(name)
    tasks = workloads.make_inputs(workload, seed, ROOT)
    print("READY", flush=True)

    env = child_env()
    out: dict = {"trace": None, "absent": [], "import_s": []}
    if workload == "cli-cold":
        argv = ([sys.executable, str(Path(__file__).resolve()), "cli"]
                if trace else [sys.executable, "-m", "torsionfree.cli"])
        if trace:
            out["interpreter_s"] = bare_interpreter_s(env)

        def run(task):
            return workloads.run_cli(task, argv, env, ROOT)
    else:
        run = (workloads.run_cosine if workload == "cosine-fields"
               else workloads.run_generic)

    tr = tracing.Tracer().install() if trace and workload != "cli-cold" else None
    results = []
    raws = []
    try:
        for task in tasks:
            t0 = perf_counter()
            error = None
            answer = None
            try:
                answer = run(task)
            except Exception as exc:  # a failed task is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            results.append((task, t0, perf_counter() - t0, answer, error))
    finally:
        if tr is not None:
            tr.uninstall()
    records = []
    for task, start, elapsed, answer, error in results:
        if answer is not None and workload == "cli-cold":
            if answer["code"] != 0:
                error = f"exit code {answer['code']}"
            stderr = answer.pop("stderr")
            if trace:
                raws.append(_child_trace(stderr, out))
        records.append({"task": task, "start": start, "seconds": elapsed,
                        "answer": answer, "error": error})
    if tr is not None:
        raws.append(tracing.raw_counts(tr.spans))
        out["absent"] = tr.absent
    if trace:
        out["trace"] = tracing.merge(*raws)
        out["trace_call_s"] = tracing.call_cost_s()
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    out.update({
        "wall_s": sum(r["seconds"] for r in records),
        "tasks": records,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "backend": backend(),
    })
    return out


def _child_trace(stderr: str, out: dict) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_PREFIX):
            doc = json.loads(line[len(TRACE_PREFIX):])
            out["import_s"].append(doc["import_s"])
            out["absent"] = sorted(set(out["absent"]) | set(doc["absent"]))
            return doc["raw"]
    raise RuntimeError("traced CLI call wrote no trace line")


def run_traced_cli(args: list[str]) -> int:
    t0 = perf_counter()
    cli = importlib.import_module("torsionfree.cli")
    import_s = perf_counter() - t0
    with tracing.Tracer() as tr:
        code = cli.entrypoint(args)
        sys.stdout.flush()
    doc = {"import_s": import_s, "absent": tr.absent,
           "raw": tracing.raw_counts(tr.spans)}
    print(TRACE_PREFIX + json.dumps(doc), file=sys.stderr, flush=True)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli":
        return run_traced_cli(argv[1:])
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("pass", "setup"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        for name in workloads.PROGRAM_MODULES[args.workload]:
            importlib.import_module(name)
        workloads.make_inputs(args.workload, args.seed, ROOT)
        print("READY", flush=True)
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
