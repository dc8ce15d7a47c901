"""Tiny-scale self-check of the benchmark.

    python3 e2ebench/selfcheck.py

For every workload, at ``--tiny`` scale, runs ``run.py`` twice
untraced with one seed and once traced, and fails unless:

* each run exits 0 and its last line carries exactly the metrics
  ``BENCHMARK.json`` names for its mode, each with its unit;
* all three runs print the same input fingerprint, and a run with
  another seed prints a different one;
* the traced run wrote a trace-event file whose spans each carry a
  name, start, end, parent and job id.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: FAIL: {message}")


def run(workload: str, seed: int, trace: int):
    """``(fingerprint, result)`` of one tiny run."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited {done.returncode}:\n"
             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    prints = [line.split()[-1] for line in lines
              if line.startswith("fingerprint sha256 ")]
    if len(prints) != 1:
        fail(f"{workload}: expected one fingerprint line, got {prints}")
    return prints[0], json.loads(lines[-1])


def check_metrics(workload: str, result: dict, declared: list) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    if emitted != expected:
        fail(f"{workload}: metrics/units {emitted} != declared {expected}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: run not correct: {result}")


def check_trace_file(workload: str, seed: int) -> None:
    path = HERE / "out" / f"{workload}-seed{seed}-tiny.trace.json"
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    if not spans:
        fail(f"{path}: no spans")
    for event in spans:
        if not ({"name", "ts", "dur"} <= set(event)
                and {"parent", "job"} <= set(event["args"])):
            fail(f"{path}: incomplete span {event}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        first, plain = run(workload, SEED, trace=0)
        second, _ = run(workload, SEED, trace=0)
        third, traced = run(workload, SEED, trace=1)
        if not first == second == third:
            fail(f"{workload}: fingerprints differ for seed {SEED}: "
                 f"{first} {second} {third}")
        other, _ = run(workload, SEED + 1, trace=0)
        if other == first:
            fail(f"{workload}: seeds {SEED} and {SEED + 1} share a "
                 "fingerprint")
        check_metrics(workload, plain, spec["end_to_end"])
        check_metrics(workload, traced, spec["per_layer"])
        check_trace_file(workload, SEED)
        print(f"selfcheck: {workload} ok (fingerprint {first[:16]})")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
