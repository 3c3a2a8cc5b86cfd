"""KG-construction job entry point (`ray job submit` compatible).

    ray job submit --working-dir . -- \
        python scripts/kg_job.py --input vault.parquet --output /out/kg \
        [--checkpoint-dir /ckpt] [--undirected] [--streaming] \
        [--num-blocks B]

Runs the flagship pipeline (extract → entity-link → canonicalize →
sorted materialize) and prints a one-line JSON job report (row counts,
wall time, per-partition manifests).  Owns its Ray session when run
standalone; inside `ray job submit` it attaches to the cluster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
# Ray workers don't inherit the driver's sys.path — export it so UDFs
# deserialize in workers regardless of cwd (harmless under
# `ray job submit`, which ships the working dir instead)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="documents parquet/lance path")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--checkpoint-dir", default=None)
    ap.add_argument("--undirected", action="store_true")
    ap.add_argument("--no-tags", action="store_true")
    ap.add_argument("--no-child-of", action="store_true")
    ap.add_argument("--streaming", action="store_true",
                    help="force the single-pass streaming build (no "
                         "notes barrier); default auto-selects it unless "
                         "a filter/checkpoint needs the barrier")
    ap.add_argument("--materialize-notes", action="store_true",
                    help="force pinning the notes table (multi-consumer "
                         "small-vault case)")
    ap.add_argument("--num-blocks", type=int, default=None)
    ap.add_argument("--output-partitions", type=int, default=None,
                    help="coalesce output files (order-preserving)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # honor RAY_ADDRESS (the `ray job submit` contract: attach to the
        # cluster that launched us); standalone runs fall back to a
        # fresh local instance
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")

    from obsidian_parser_ray import build_graph, write_graph
    from obsidian_parser_ray.sources import read_documents

    t0 = time.perf_counter()
    docs = read_documents(args.input, override_num_blocks=args.num_blocks)
    g = build_graph(
        docs,
        directed=not args.undirected,
        include_tags=not args.no_tags,
        include_child_of=not args.no_child_of,
        checkpoint_dir=args.checkpoint_dir,
        materialize_notes=(
            False if args.streaming
            else True if args.materialize_notes
            else None
        ),
    )
    manifests = write_graph(g, args.output, num_partitions=args.output_partitions)
    report = {
        "input": args.input,
        "output": args.output,
        "triples": manifests["triples"]["rows"],
        "nodes": manifests["nodes"]["rows"],
        "wall_sec": round(time.perf_counter() - t0, 3),
        "partitions": {
            k: len(m["partitions"]) for k, m in manifests.items()
        },
    }
    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
