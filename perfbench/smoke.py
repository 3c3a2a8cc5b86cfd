#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 perfbench/smoke.py            # every workload
    python3 perfbench/smoke.py kg_graph   # one workload

For each workload it runs ``run.py --scale tiny`` untraced and traced,
and requires: exit code 0; a last stdout line with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
of ``BENCHMARK.json`` printed with its unit; no failed operation
(``error_rate`` 0); and, traced, a span file whose layer self times
cover at least 90% of the traced round.  Finally it checks that the
benchmark refuses to run, without a result, in a directory holding
only ``BENCHMARK.json`` and ``perfbench/``.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if p.returncode:
        sys.stderr.write(p.stderr[-3000:])
    return p.returncode, p.stdout.strip().splitlines()


def check_workload(spec: dict, workload: str) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run(ROOT, workload, trace)
        tag = f"{workload} --trace {trace}"
        if code or len(lines) < 2:
            problems.append(f"{tag}: exit {code}, {len(lines)} stdout lines")
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or detail["error_rate"] != 0:
            problems.append(f"{tag}: failed ops: {detail['errors']}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{tag}: metrics differ from BENCHMARK.json {section}: "
                            f"{sorted(set(got) ^ set(want))}")
        if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
            problems.append(f"{tag}: a metric value is not a number")
        if trace:
            cover = result["metrics"]["trace.self_coverage"]["value"]
            if cover < 0.9:
                problems.append(f"{tag}: layer self times cover {cover:.2f} of the round")
        print(f"ok  {tag}" if not problems else f"BAD {tag}", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail, no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(bare, "kg_build", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{\"correct\"") for line in lines):
        return [f"bare directory: exit {code}, printed a result"]
    print("ok  bare directory refused", flush=True)
    return []


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    problems = check_bare_directory()
    for w in workloads:
        problems += check_workload(spec, w)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
