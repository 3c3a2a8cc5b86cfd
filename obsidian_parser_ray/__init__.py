"""obsidian_parser_ray — a Ray-Data-native knowledge-graph construction
engine with the query/data-processing capabilities of
CryptoGladi/obsidian-parser (v0.9.4), rebuilt from scratch for
cluster-scale interleaved text+media corpora.

Never calls ``ray.init``/``ray.shutdown`` — sessions are owned by the
caller (driver, bench.py, or the pytest fixture).
"""

from .corpus import DOCUMENTS_SCHEMA, SPAN_TYPE, bench_corpus, spans_from_raw, synth_vault
from .pipelines.graph import (
    GraphResult,
    build_graph,
    duplicates_by_content,
    duplicates_by_name,
    read_adjacency,
    read_adjacency_many,
    write_adjacency,
    write_graph,
)

__all__ = [
    "DOCUMENTS_SCHEMA",
    "SPAN_TYPE",
    "GraphResult",
    "bench_corpus",
    "build_graph",
    "duplicates_by_content",
    "duplicates_by_name",
    "read_adjacency",
    "read_adjacency_many",
    "spans_from_raw",
    "synth_vault",
    "write_adjacency",
    "write_graph",
]

__version__ = "0.1.0"
