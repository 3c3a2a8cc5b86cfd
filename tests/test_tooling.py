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
    passed, and the MinHash entry points take no ``concurrency``."""
    import inspect

    from obsidian_parser_ray.pipelines.analyzer import analyze
    from obsidian_parser_ray.pipelines.graph import build_graph
    from obsidian_parser_ray.stages.dedup import (
        drop_minhash_duplicates,
        minhash_lsh_pairs,
    )
    from obsidian_parser_ray.stages.linking import link_mentions

    def params(fn):
        return inspect.signature(fn).parameters

    for fn in (build_graph, analyze):
        assert "linker_concurrency" not in params(fn), fn.__name__
    assert params(link_mentions)["concurrency"].default is None
    for fn in (minhash_lsh_pairs, drop_minhash_duplicates):
        assert "concurrency" not in params(fn), fn.__name__
