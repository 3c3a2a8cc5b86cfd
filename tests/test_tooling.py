"""Source hygiene checks that need no Ray session."""

from __future__ import annotations

import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sources():
    for pattern in ("obsidian_parser_ray/**/*.py", "scripts/**/*.py"):
        yield from sorted(ROOT.glob(pattern))
    yield ROOT / "bench.py"
    yield ROOT / "__ray_entry__.py"


def test_sources_compile_without_warnings():
    """Every module compiles with syntax and deprecation warnings as
    errors, so an invalid escape sequence in a docstring cannot hide
    among the warnings a test run prints."""
    failures = []
    for path in _sources():
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except (SyntaxError, SyntaxWarning, DeprecationWarning) as e:
                failures.append(f"{path.relative_to(ROOT)}: {e}")
    assert len(list(_sources())) > 10
    assert not failures, "\n".join(failures)


def test_keyed_shuffles_go_through_exchange():
    """The hash-partition shuffle is ``joins.exchange``: no hand-built
    partition column is grouped on in the modules moved onto it, and in
    ``joins.py`` only ``exchange`` and the two salted join exchanges
    (``hash_join``, ``hash_join_unique``) group on one."""
    import ast
    import re

    pat = re.compile(r"""groupby\(\s*["'](\w*part|pp)["']""")
    stages = ROOT / "obsidian_parser_ray" / "stages"
    for name in ("canonicalize.py", "linking.py", "graphops.py",
                 "dedup.py"):
        src = (stages / name).read_text(encoding="utf-8")
        hits = [i + 1 for i, line in enumerate(src.splitlines())
                if pat.search(line)]
        assert not hits, f"{name}: partition groupby at lines {hits}"

    src = (stages / "joins.py").read_text(encoding="utf-8")
    owners = []
    for fn in ast.parse(src).body:
        if isinstance(fn, ast.FunctionDef) and pat.search(
                ast.get_source_segment(src, fn)):
            owners.append(fn.name)
    assert sorted(owners) == ["exchange", "hash_join", "hash_join_unique"]


def test_adjacency_reads_stay_on_the_caller():
    """Adjacency lookups read their shard files with pyarrow on the
    caller: neither reader in ``pipelines/graph.py`` plans a Ray Data
    Parquet read again."""
    import ast

    src = (ROOT / "obsidian_parser_ray" / "pipelines" / "graph.py").read_text(
        encoding="utf-8")
    readers = {
        fn.name: ast.get_source_segment(src, fn)
        for fn in ast.parse(src).body
        if isinstance(fn, ast.FunctionDef)
        and fn.name in ("read_adjacency", "read_adjacency_many")
    }
    assert sorted(readers) == ["read_adjacency", "read_adjacency_many"]
    hits = sorted(name for name, seg in readers.items()
                  if "read_parquet(" in seg)
    assert not hits, f"Dataset parquet read in {hits}"


def test_linker_and_minhash_defaults_start_no_actor_pool():
    """``build_graph`` and ``analyze`` always link in stateless tasks
    (no pool-size option), ``link_mentions`` does unless a pool size is
    passed, and the MinHash entry points and ``lang_id`` take no
    ``concurrency``."""
    import inspect

    from obsidian_parser_ray.pipelines.analyzer import analyze
    from obsidian_parser_ray.pipelines.graph import build_graph
    from obsidian_parser_ray.stages.dedup import (
        drop_minhash_duplicates,
        minhash_lsh_pairs,
    )
    from obsidian_parser_ray.stages.linking import link_mentions
    from obsidian_parser_ray.stages.text import lang_id

    def params(fn):
        return inspect.signature(fn).parameters

    for fn in (build_graph, analyze):
        assert "linker_concurrency" not in params(fn), fn.__name__
    assert params(link_mentions)["concurrency"].default is None
    for fn in (minhash_lsh_pairs, drop_minhash_duplicates, lang_id):
        assert "concurrency" not in params(fn), fn.__name__


def test_only_publish_makes_a_store_live():
    """``state/publish.py`` is the one module that makes a persisted
    store live: no other module under ``obsidian_parser_ray/`` calls
    ``os.replace``, calls ``shutil.rmtree`` (every call left outside it
    removed a store root or its tmp twin), or opens a ``*MANIFEST*.json``
    for writing.

    ``chunking.export_jsonl_shards`` is allowed by name: its
    ``shard-NNNNN.jsonl[.gz]`` file names are the export's interface,
    which ``sources.read_jsonl_shards`` parses, and its bytes must be
    reproducible, so it keeps its own ``.next`` + ``os.replace`` per
    shard and writes its manifest last."""
    import ast

    allowed = {("stages/chunking.py", "export_jsonl_shards")}
    pkg = ROOT / "obsidian_parser_ray"
    hits = []
    for path in sorted(pkg.glob("**/*.py")):
        rel = path.relative_to(pkg).as_posix()
        if rel == "state/publish.py":
            continue
        src = path.read_text(encoding="utf-8")
        for fn in ast.parse(src).body:
            if not isinstance(fn, ast.FunctionDef) or (rel, fn.name) in allowed:
                continue
            # a path held in a local name is checked by what it was bound to
            bound = {
                t.id: ast.get_source_segment(src, node.value)
                for node in ast.walk(fn) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)
            }
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.get_source_segment(src, node.func)
                if name in ("os.replace", "os.rename", "shutil.rmtree"):
                    hits.append(f"{rel}:{node.lineno} {name}")
                elif name == "open" and len(node.args) > 1:
                    mode = ast.get_source_segment(src, node.args[1])
                    target = node.args[0]
                    text = (bound.get(target.id, "")
                            if isinstance(target, ast.Name)
                            else ast.get_source_segment(src, target))
                    if "MANIFEST" in text.upper() and set("wax") & set(mode):
                        hits.append(f"{rel}:{node.lineno} manifest write")
    assert not hits, hits
