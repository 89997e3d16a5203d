"""Regenerate the golden CLI outputs in this directory.

Run from the repository root:

    python3 tests/golden/regenerate.py

The CLI runs from this checkout's src/, which goes first on PYTHONPATH,
so no install is needed. Outputs are committed; the test suite compares
fresh CLI output against them (JSON modulo the generated_by line, CSV
byte-exact).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
DATA = HERE.parent / "data"
SRC = HERE.parent.parent / "src"

CASES = {
    "level_find_q.json": ["level", "find", str(DATA / "q.poly"), "--dimg", "3"],
    "field_analyze_sqrt2.json": ["field", "analyze", str(DATA / "sqrt2.poly")],
    "grh_threshold_d1.json": ["grh", "threshold", "--d", "1", "--logd", "0"],
    "bound_grh.json": ["bound", "grh", "--v", "100", "--dimh", "3"],
    "bound_unconditional.json": ["bound", "unconditional", "--d", "1", "--dimh", "3"],
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


def main() -> int:
    env = os.environ.copy()
    env.pop("TORSIONFREE_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.resolve()), env.get("PYTHONPATH")) if p)
    for name, args in CASES.items():
        proc = subprocess.run([sys.executable, "-m", "torsionfree.cli", *args],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        (HERE / name).write_text(proc.stdout)
        print(f"wrote {name} ({len(proc.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
