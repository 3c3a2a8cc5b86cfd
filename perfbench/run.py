#!/usr/bin/env python3
"""Benchmark of the obsidian_parser_ray KG engine.

Run from the repository root::

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 15 --trace 0

One run = one fresh process and one fresh local Ray session with a
fixed ``--num-cpus``.  It generates the workload's input from
``--seed`` (set-up, timed several times), then runs closed-loop
rounds of the workload's operations for ``--seconds`` seconds,
checks every output, and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` one untraced and one traced
round run and the metrics are the ``per_layer`` list, and the spans
are written to ``.perfbench/traces/``.  The line before the result
holds the per-workload metrics under their own names (``detail``).
Exits non-zero without a result when the package is not next to this
directory or a run cannot complete.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3
# Unix socket paths are capped at 107 bytes; Ray puts its sockets
# about 64 bytes below its temp dir.
_MAX_RAY_TMP = 40


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, default=3)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _import_package():
    """Import the package from this checkout only (never an installed
    copy) and export the checkout on PYTHONPATH, so that Ray worker
    processes import the same code from any working directory."""
    pkg = os.path.join(ROOT, "obsidian_parser_ray")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no obsidian_parser_ray package in {ROOT}")
    sys.path.insert(0, ROOT)
    sys.path.insert(1, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import obsidian_parser_ray

    if os.path.dirname(os.path.abspath(obsidian_parser_ray.__file__)) != pkg:
        raise SystemExit("perfbench: imported obsidian_parser_ray from outside the checkout")


def _ray_tmp(work: str) -> str:
    d = os.path.join(work, f"ray{os.getpid()}")
    if len(d) > _MAX_RAY_TMP:
        return tempfile.mkdtemp(prefix="pbray")
    os.makedirs(d)
    return d


def _start_ray(num_cpus: int, tmp: str) -> None:
    import ray
    import ray.data as rd
    from ray.data import DataContext

    # no usage-stats reporting (it would read ~/.ray and try to send)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=tmp,
             _system_config={"metrics_report_interval_ms": 60_000,
                             "idle_worker_killing_time_threshold_ms": 600_000})
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.min_parallelism = 2 * num_cpus
    # warm the worker pool: the first executions of a session fork the
    # workers and import the package in each (seconds), which would
    # otherwise land on the first timed operations
    for _ in range(2):
        rd.range(4 * num_cpus, override_num_blocks=2 * num_cpus) \
            .map_batches(_import_in_worker).materialize()


def _import_in_worker(batch):
    import importlib
    import pkgutil

    import obsidian_parser_ray

    for m in pkgutil.walk_packages(obsidian_parser_ray.__path__, "obsidian_parser_ray."):
        importlib.import_module(m.name)
    return batch


def _steal_s() -> float:
    """Seconds of CPU time the hypervisor took from this host so far."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_ray(timeout_s: float = 30.0) -> None:
    """``ray.shutdown()``, then wait until every process the session
    started has ended (workers outlive the raylet briefly and are
    re-parented, so they are listed before the shutdown); processes
    still alive at the deadline are killed and waited for."""
    import ray

    from tracing import descendant_pids

    def pending() -> list[int]:
        return [p for p in started | set(descendant_pids(os.getpid())) if _alive(p)]

    started = set(descendant_pids(os.getpid()))
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while pending() and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in pending():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while pending() and time.monotonic() < deadline + 10:
        time.sleep(0.2)


def _noop_s() -> float:
    import ray.data as rd

    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        rd.range(8).materialize()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _layer_metrics(wl, tracer, rec) -> dict:
    """Traced round, then one more untraced round to compare it with:
    the first round of a session also pays its lazy set-up, so the
    overhead is taken against the untraced round that follows."""
    counts = wl.traced_round(tracer, rec)
    rec.begin_round()
    wl.round(rec)
    rec.end_round()
    roots = [s for s in tracer.spans if s["layer"] == "bench"]
    wall = next(s["end"] - s["start"] for s in roots if s["name"] == "round")
    selfs = tracer.self_times()
    ops = [o["wall_s"] for s in tracer.spans for o in s["ray_ops"]]
    counts.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": rec.rounds[-1],
        "trace.overhead_s": wall - rec.rounds[-1],
        # share of the traced wall (round and probes) inside layer spans
        "trace.self_coverage": 1.0 - selfs.get("bench", 0.0)
        / sum(s["end"] - s["start"] for s in roots),
        "rayexec.noop_s": _noop_s(),
        "rayexec.top_op_wall_s": max(ops, default=0.0),
        "rayexec.ops_wall_s": sum(ops),
    })
    for layer, s in selfs.items():
        if layer != "bench":
            counts[f"{layer}.self_s"] = s
    return counts


def run(args, spec) -> tuple[dict, dict]:
    from tracing import PeakMemory, Tracer
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    num_cpus = max(1, min(args.num_cpus, len(os.sched_getaffinity(0))))
    work = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    ray_tmp = _ray_tmp(work)
    ctx = SimpleNamespace(seed=args.seed, scale=args.scale, num_cpus=num_cpus,
                          run_dir=run_dir, data_root=os.path.join(run_dir, "inputs"))
    rec = Recorder()
    steal0 = _steal_s()
    try:
        with PeakMemory() as mem:
            t0 = time.perf_counter()
            _start_ray(num_cpus, ray_tmp)
            session_s = time.perf_counter() - t0
            wl = WORKLOADS[args.workload](ctx)
            reps = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                wl.setup()
                reps.append(time.perf_counter() - t0)
            wl.prepare(rec)
            # the checker's reference data is long-lived: keep the
            # collector from re-scanning it during timed operations
            gc.collect()
            gc.freeze()
            # a fixed number of rounds; --seconds caps the run on a slow host
            start = time.perf_counter()
            for _ in range(1 if args.trace else wl.size["rounds"]):
                failed = rec.failed
                rec.begin_round()
                wl.round(rec)
                rec.end_round()
                if rec.failed > failed or time.perf_counter() - start > args.seconds:
                    break
            if args.trace:
                tracer = Tracer(args.workload, f"{args.workload}-s{args.seed}-{os.getpid()}")
                layers = _layer_metrics(wl, tracer, rec)
            mem.sample_now()
        detail = {"workload": args.workload, "seed": args.seed,
                  "num_cpus": num_cpus, "rounds": len(rec.rounds),
                  "session_s": session_s, "setup_reps_s": reps, "rounds_s": rec.rounds,
                  "samples_s": dict(rec.samples),
                  "error_rate": rec.failed / max(1, rec.attempted),
                  "cpu_steal_s": _steal_s() - steal0,
                  "errors": rec.errors, **wl.detail(rec)}
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = {n: float(layers.get(n, 0.0)) for n in names}
            tracer.write(os.path.join(work, "traces", f"{tracer.run_id}.json"),
                         {"per_layer": layers, "detail": detail})
        else:
            values = {"setup_s": session_s + statistics.median(reps),
                      "peak_mem_mb": mem.peak_mb, **wl.e2e(rec)}
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        _stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    correct = rec.failed == 0 and (args.trace or all(values[n] > 0 for n in names))
    result = {"correct": bool(correct), "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    return detail, result


def _terminate(signum, frame):
    # unwind through the finally blocks that stop Ray and clean up
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _args(argv)
    _import_package()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    detail, result = run(args, spec)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
