"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files to which the stdout of several run.py calls was
appended (one record line and one result line per run;
perfbench/baseline.jsonl holds this form too). For each
workload and metric it prints the median and quartile spread of each side,
the change of the medians, and, where both sides ran the same seeds, how
many paired runs the new side won. End-to-end metrics whose median got
worse by more than their bound in BENCHMARK.json are marked REGRESSED.

Results from different kernel backends measure different programs, so the
comparison is refused (exit 2) when the backends differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load(path: Path) -> list[dict]:
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith('{"perfbench"'):
            records.append(json.loads(line)["perfbench"])
    if not records:
        raise SystemExit(f"{path}: no benchmark records")
    return records


def backends(records: list[dict]) -> set[str]:
    return {r["stamp"]["backend"] for r in records}


def summary(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not b or not n:
            continue
        lines.append(f"{workload} (trace={int(trace)}): "
                     f"{len(b)} base runs, {len(n)} new runs")
        b_seed = {r["stamp"]["seed"]: r for r in b}
        n_seed = {r["stamp"]["seed"]: r for r in n}
        paired = sorted(set(b_seed) & set(n_seed))
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not nv:
                continue
            (bm, bs), (nm, ns) = summary(bv), summary(nv)
            sign = 1 if better.get(name, "lower") == "lower" else -1
            change = (nm - bm) / abs(bm) if bm else 0.0
            wins = sum(1 for s in paired
                       if sign * (n_seed[s]["metrics"][name]["value"]
                                  - b_seed[s]["metrics"][name]["value"]) < 0)
            flag = ""
            if name in bound and sign * change > bound[name]:
                flag = "  REGRESSED"
            lines.append(
                f"  {name:<46} base {bm:.6g} (spread {bs:.3f})  "
                f"new {nm:.6g} (spread {ns:.3f})  change {change:+.3f}  "
                f"wins {wins}/{len(paired)}{flag}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two result files")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    kinds = backends(base) | backends(new)
    if len(kinds) != 1:
        print(f"refusing to compare results from different kernel backends: "
              f"{sorted(kinds)}", file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    print("\n".join(compare(base, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
