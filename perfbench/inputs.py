"""Seeded input generators for the four workloads.

Every input is a pure function of ``(workload, seed, size)`` and of
this file's source (its digest is part of the key).  Each generator
writes into a directory named after that key, and writes a manifest
last; :func:`load_manifest` refuses a directory whose manifest does
not match the key or whose files changed size, so a stale or partial
input is never read.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "_INPUT_MANIFEST.json"

# Sizes per workload.  "full" is what the benchmark measures; "tiny"
# only drives the smoke test through every code path.  ``rounds`` is
# the fixed number of rounds one run makes: a Ray session slows as it
# ages, so runs compare only when they do the same work.
SIZES = {
    "full": {
        "kg_build": {"rounds": 2, "docs": 1000, "links_per_doc": 10, "lookups_per_round": 25},
        "kg_graph": {"rounds": 1, "nodes": 2000, "edges": 10000, "hubs": 20,
                     "hub_share": 0.3, "pagerank_iters": 1, "bfs_per_round": 8},
        "kg_ingest": {"rounds": 1, "notes": 1000, "deltas": 2, "changed_per_delta": 8,
                      "new_per_delta": 2},
        "doc_dedup": {"rounds": 2, "docs": 5000, "words_per_doc": 60, "vocab": 20000,
                      "dup_share": 0.2, "token_freq_per_round": 5},
    },
    "tiny": {
        "kg_build": {"rounds": 1, "docs": 60, "links_per_doc": 10, "lookups_per_round": 5},
        "kg_graph": {"rounds": 1, "nodes": 120, "edges": 500, "hubs": 5,
                     "hub_share": 0.3, "pagerank_iters": 1, "bfs_per_round": 2},
        "kg_ingest": {"rounds": 1, "notes": 60, "deltas": 2, "changed_per_delta": 3,
                      "new_per_delta": 1},
        "doc_dedup": {"rounds": 1, "docs": 300, "words_per_doc": 60, "vocab": 3000,
                      "dup_share": 0.2, "token_freq_per_round": 2},
    },
}


def generator_digest() -> str:
    with open(__file__, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def input_key(workload: str, seed: int, scale: str) -> dict:
    return {"workload": workload, "seed": int(seed),
            "size": SIZES[scale][workload], "digest": generator_digest()}


def input_dir(root: str, key: dict) -> str:
    return os.path.join(
        root, f"{key['workload']}-s{key['seed']}-{key['digest']}"
    )


def _write_manifest(d: str, key: dict) -> None:
    files = {
        name: os.path.getsize(os.path.join(d, name))
        for name in sorted(os.listdir(d)) if name != MANIFEST
    }
    with open(os.path.join(d, MANIFEST), "w") as f:
        json.dump({**key, "files": files}, f, sort_keys=True)


def load_manifest(d: str, key: dict) -> dict:
    """The manifest of ``d``, after checking it was written for ``key``
    and that every file it lists still has its recorded size."""
    path = os.path.join(d, MANIFEST)
    with open(path) as f:
        man = json.load(f)
    for k, v in key.items():
        if man.get(k) != v:
            raise ValueError(f"stale input {d}: {k}={man.get(k)!r}, want {v!r}")
    for name, size in man["files"].items():
        if os.path.getsize(os.path.join(d, name)) != size:
            raise ValueError(f"input file {name} in {d} changed size")
    return man


def generate(root: str, key: dict) -> str:
    """Write the input for ``key`` under ``root`` (replacing any earlier
    copy) and return its directory."""
    d = input_dir(root, key)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    rng = np.random.default_rng([key["seed"], _WORKLOAD_IDS[key["workload"]]])
    _GENERATORS[key["workload"]](d, rng, key["size"])
    _write_manifest(d, key)
    return d


# ---------------------------------------------------------------- kg_build

_FILLER = (
    "graph vault note link index span batch arrow shuffle actor "
    "stream block parquet lance ray data schema column row table"
).split()


def _gen_kg_build(d: str, rng, size: dict) -> None:
    """Long notes in the reference-bench shape: frontmatter ``id: i``,
    then ``links_per_doc`` sections of 50-100 six-word filler lines,
    each section ending in one ``[[note_t]]`` link (about 27 KB/doc)."""
    from obsidian_parser_ray.corpus import make_span, spans_table

    n, k = size["docs"], size["links_per_doc"]
    words = np.asarray(_FILLER)
    pool = [" ".join(r) for r in words[rng.integers(0, len(words), (4096, 6))]]
    targets = rng.integers(0, n, (n, k))
    rows = []
    for i in range(n):
        parts = []
        for j in range(k):
            lines = rng.integers(0, len(pool), int(rng.integers(50, 101)))
            parts.append("\n".join(pool[x] for x in lines)
                         + f"\nLink [[note_{targets[i, j]}]]")
        rows.append((f"note_{i}", [make_span("frontmatter", f"id: {i}", offset=0),
                                   make_span("text", "\n".join(parts), offset=1)]))
    pq.write_table(spans_table(rows), os.path.join(d, "docs.parquet"),
                   row_group_size=max(1, n // 16))
    np.save(os.path.join(d, "targets.npy"), targets)


def kg_build_expected(d: str) -> Counter:
    """Canonical triples the generator planted: one ``links_to`` per
    link occurrence, weight = multiplicity (no tags, no folders)."""
    targets = np.load(os.path.join(d, "targets.npy"))
    return Counter(
        (f"note_{i}", "links_to", f"note_{t}")
        for i, row in enumerate(targets.tolist()) for t in row
    )


# ---------------------------------------------------------------- kg_graph

def _gen_kg_graph(d: str, rng, size: dict) -> None:
    """Random directed ``links_to`` edges with hub skew: a ``hub_share``
    of edge heads land on ``hubs`` Zipf-weighted hub nodes, the rest
    uniformly; self-loops dropped, parallel edges folded into weight."""
    n, e, h = size["nodes"], size["edges"], size["hubs"]
    src = rng.integers(0, n, e)
    hub_w = 1.0 / np.arange(1, h + 1)
    hub_pick = rng.choice(h, e, p=hub_w / hub_w.sum())
    dst = np.where(rng.random(e) < size["hub_share"], hub_pick,
                   rng.integers(0, n, e))
    keep = src != dst
    pairs = Counter(zip(src[keep].tolist(), dst[keep].tolist()))
    subj = [f"v{a:05d}" for a, _ in pairs]
    obj = [f"v{b:05d}" for _, b in pairs]
    pq.write_table(pa.table({
        "subj": pa.array(subj, pa.string()),
        "pred": pa.array(["links_to"] * len(subj), pa.string()),
        "obj": pa.array(obj, pa.string()),
        "weight": pa.array(list(pairs.values()), pa.int64()),
    }), os.path.join(d, "triples.parquet"), row_group_size=max(1, len(subj) // 8))
    pq.write_table(pa.table({"doc_id": [f"v{i:05d}" for i in range(n)]}),
                   os.path.join(d, "nodes.parquet"))


# --------------------------------------------------------------- kg_ingest

def _gen_kg_ingest(d: str, rng, size: dict) -> None:
    """A ``synth_vault``-shaped base (``documents.parquet``: doc_id,
    lang) plus a sequence of deltas.  Each delta rewrites
    ``changed_per_delta`` base notes (links to notes, aliases, a
    dangling target, tags) and adds ``new_per_delta`` notes; delta 0
    also adds a note that steals ``alias_0`` (it sorts first, so every
    ``[[alias_0]]`` must re-resolve) and delta 1 removes one base note.
    No note is touched by two deltas."""
    n = size["notes"]
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "lang": pa.array(rng.choice(["en", "de", "fr"], n).tolist(), pa.string()),
    }), os.path.join(d, "documents.parquet"))
    # base notes are note_<d>; d % 5 == 0 ones carry alias_<d>, so
    # rewriting one drops an alias and re-resolves its citers: keep
    # them out of the pool so every seed does the same kind of work
    # (the thief is the one alias change)
    ids = np.arange(1, n)
    pool = rng.permutation(ids[ids % 5 != 0]).tolist()
    deltas = []
    for k in range(size["deltas"]):
        items = []
        for _ in range(size["changed_per_delta"]):
            doc = pool.pop()
            a, b = rng.integers(0, n, 2)
            al = 5 * int(rng.integers(0, max(1, n // 5)))
            items.append((f"note_{doc}",
                          f"---\ntags: [edited]\n---\nNow see [[note_{a}]], "
                          f"[[note_{b}|again]] and [[alias_{al}]]. "
                          f"Gone [[missing_{k}_{doc}]]. #delta_{k}"))
        for j in range(size["new_per_delta"]):
            a = int(rng.integers(0, n))
            items.append((f"new/d{k}_{j}",
                          f"Fresh note {k}.{j} citing [[note_{a}]]. #new"))
        removed = []
        if k == 0:
            items.append(("aaa/thief", "---\naliases: [alias_0]\n---\nSteals alias_0."))
        if k == 1:
            removed.append(f"note_{pool.pop()}")
        deltas.append({"items": items, "removed": removed})
    with open(os.path.join(d, "deltas.json"), "w") as f:
        json.dump(deltas, f)


# --------------------------------------------------------------- doc_dedup

def _gen_doc_dedup(d: str, rng, size: dict) -> None:
    """Random-word documents; a ``dup_share`` of them are copies of an
    earlier document with one interior word replaced (word-3-shingle
    Jaccard ≈ 0.90 to their source, near 0 between unrelated docs)."""
    n, w, v = size["docs"], size["words_per_doc"], size["vocab"]
    vocab = np.asarray([f"t{i}" for i in range(v)])
    texts: list[str] = []
    planted = []
    is_dup = rng.random(n) < size["dup_share"]
    is_dup[0] = False
    words_of: list[np.ndarray] = []
    for i in range(n):
        if is_dup[i]:
            src = int(rng.integers(0, i))
            ws = words_of[src].copy()
            ws[int(rng.integers(3, w - 3))] = f"x{i}"
            planted.append((src, i))
        else:
            ws = vocab[rng.integers(0, v, w)]
            ws[0] = ws[0].upper()
        words_of.append(ws)
        texts.append(" ".join(ws))
    pq.write_table(pa.table({
        "doc_id": [f"d{i:05d}" for i in range(n)],
        "text": texts,
    }), os.path.join(d, "docs.parquet"), row_group_size=max(1, n // 8))
    with open(os.path.join(d, "planted.json"), "w") as f:
        json.dump(planted, f)


_GENERATORS = {
    "kg_build": _gen_kg_build,
    "kg_graph": _gen_kg_graph,
    "kg_ingest": _gen_kg_ingest,
    "doc_dedup": _gen_doc_dedup,
}
_WORKLOAD_IDS = {name: i for i, name in enumerate(_GENERATORS)}
