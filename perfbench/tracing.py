"""Spans, per-layer self time, Ray operator stats and peak memory.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer of ``obsidian_parser_ray``; nothing inside the
package is instrumented.  They are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, name, layer, start, end, ray_ops)``; the
    parent is the span open on the stack when it started.  All spans
    of one run share ``run_id`` and ``workload``.
    """

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "ray_ops": [],
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the part of
        its interval that its direct children cover (children of one
        span never overlap — the loop is closed, one call at a time)."""
        child_cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_cover[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_cover[s["id"]]
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = {
            "workload": self.workload,
            "run_id": self.run_id,
            "self_time_s": self.self_times(),
            "spans": self.spans,
            **extra,
        }
        with open(path, "w") as f:
            json.dump(body, f, indent=1)


_OP_LINE = re.compile(r"^Operator \d+ (.+?): .*?in ([0-9.]+)s\s*$")
_ROWS_LINE = re.compile(r"Output num rows per block: .*?, (\d+) total")


def ray_operator_stats(ds) -> list[dict]:
    """``(operator, wall_s, rows)`` per operator from ``Dataset.stats()``
    of a materialized Dataset.  Operator names are reduced to letters,
    digits, ``_``, ``.`` and ``-``."""
    try:
        text = ds.stats()
    except Exception:  # stats are diagnostics; a missing one is not a failure
        return []
    ops: list[dict] = []
    for line in text.splitlines():
        m = _OP_LINE.match(line.strip())
        if m:
            name = re.sub(r"[^A-Za-z0-9_.-]+", "_", m.group(1)).strip("_")
            ops.append({"op": name[:64], "wall_s": float(m.group(2)), "rows": 0})
            continue
        r = _ROWS_LINE.search(line)
        if r and ops:
            ops[-1]["rows"] = int(r.group(1))
    return ops


def descendant_pids(root_pid: int) -> list[int]:
    """Live (non-zombie) processes below ``root_pid``."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the comm field may hold spaces; state and ppid follow the last ')'
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            parent[int(entry)] = int(ppid)
    children: dict[int, list[int]] = {}
    for pid, ppid in parent.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], list(children.get(root_pid, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _hwm_kb(pids) -> int:
    """Summed peak RSS (``VmHWM``) of ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class PeakMemory:
    """Background sampler of the summed peak RSS of this process and Ray's.

    Each process's own peak is kept by the kernel, so a slow sampling
    rate loses only processes that start and exit between samples."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample_now()
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)

    def sample_now(self) -> None:
        pid = os.getpid()
        self.peak_kb = max(self.peak_kb, _hwm_kb([pid] + descendant_pids(pid)))

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
