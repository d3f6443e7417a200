#!/usr/bin/env python3
"""Tiny-size smoke run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Runs each workload for two rounds per pass and checks that every metric
BENCHMARK.json names is printed with its unit (as a report line and in the
final JSON object), that failed_frac is 0, that the run reports itself
correct, and that two untraced runs with one seed give the same digest.
Exits 1 on the first problem it reports, 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SmokeFailure(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)


def run(workload: str, trace: int, seed: int = 1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--rounds", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SmokeFailure(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = dict(line.split(" = ", 1) for line in lines[:-1])
    return report, json.loads(lines[-1])


def check_run(spec: dict, workload: str, trace: int, report: dict, result: dict) -> str:
    where = f"{workload} --trace {trace}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(sorted(result["metrics"]) == sorted(names), (
        f"{where}: metrics {sorted(result['metrics'])} != {sorted(names)}"))
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
        line = report.get(m["name"], "")
        expect(line.endswith(" " + m["unit"]), f"{where}: report line {m['name']} = {line!r}")
    expect(report["failed_frac"] == "0.0 ratio", f"{where}: failed_frac {report['failed_frac']}")
    expect(result["failed"] == 0 and result["attempted"] > 0, where)
    expect(result["correct"] is True, f"{where}: not correct")
    return report["digest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for w in (w["name"] for w in spec["workloads"]):
            first = check_run(spec, w, 0, *run(w, 0))
            again = check_run(spec, w, 0, *run(w, 0))
            expect(first == again, f"{w}: digest differs between runs with one seed")
            check_run(spec, w, 1, *run(w, 1))
            print(f"smoke {w}: ok (digest {first[:16]})")
    except SmokeFailure as exc:
        print(f"smoke failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
