"""CLI: ``python -m pyppmd_ray <command>`` — the engine's job entry points.

Commands (each owns its Ray session; `ray job submit` compatible):

  encode  INPUT OUT_DIR [--columns a,b] [--block-bytes N] [--no-resume]
          resumable distributed encode of a parquet table/dir
  decode  OUT_DIR DEST [--quarantine] [--columns a,b]
          decode blocks back to parquet rows; --columns decodes only the
          requested per-column blobs (projection pushdown into the codec)
  join    LEFT RIGHT DEST --on K [--right-on K2] [--how inner|left]
          [--broadcast]  general equi-join of two parquet tables
  verify  INPUT OUT_DIR  per-row sha256 + column-hash verification
  ingest  SRC_DIR DEST   directory of source files → north-rule parquet
  stats   OUT_DIR        per-unit lineage/metrics summary from manifests
  dedup   INPUT DEST [--method exact|minhash] [--threshold T]
          deduplicate a documents-shaped table (exact keeps min-id rows;
          minhash writes the near-dup pair list)
  analyze INPUT DEST [--ops tokens,lang,quality,simhash,winnow,repetition,chunks]
          per-document text-analysis columns → parquet
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )


def main(argv: list[str] | None = None) -> int:
    from pyppmd_ray.stages.encode import DEFAULT_BLOCK_BYTES, DEFAULT_UNIT_BYTES

    p = argparse.ArgumentParser(prog="pyppmd_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("encode")
    e.add_argument("input")
    e.add_argument("out_dir")
    e.add_argument("--columns", default=None)
    e.add_argument("--block-bytes", type=int, default=DEFAULT_BLOCK_BYTES)
    e.add_argument("--unit-bytes", type=int, default=DEFAULT_UNIT_BYTES)
    e.add_argument("--no-resume", action="store_true")

    d = sub.add_parser("decode")
    d.add_argument("out_dir")
    d.add_argument("dest")
    d.add_argument("--quarantine", action="store_true",
                   help="skip corrupt blocks; park them under out_dir/_quarantine")
    d.add_argument("--columns", default=None,
                   help="decode only these columns (comma-separated)")

    j = sub.add_parser("join")
    j.add_argument("left")
    j.add_argument("right")
    j.add_argument("dest")
    j.add_argument("--on", required=True)
    j.add_argument("--right-on", default=None)
    j.add_argument("--how", choices=("inner", "left"), default="inner")
    j.add_argument("--broadcast", action="store_true",
                   help="broadcast the right side (dimension-table shape)")

    v = sub.add_parser("verify")
    v.add_argument("input")
    v.add_argument("out_dir")

    i = sub.add_parser("ingest")
    i.add_argument("src_dir")
    i.add_argument("dest")
    i.add_argument("--repo", default=None)

    s = sub.add_parser("stats")
    s.add_argument("out_dir")

    dd = sub.add_parser("dedup")
    dd.add_argument("input")
    dd.add_argument("dest")
    dd.add_argument(
        "--method", choices=("exact", "minhash", "clusters"), default="exact",
        help="exact: min-id rows; minhash: near-dup pair list; "
        "clusters: (doc_id, cluster_id) labels via connected components",
    )
    dd.add_argument("--threshold", type=float, default=0.5)

    an = sub.add_parser("analyze")
    an.add_argument("input")
    an.add_argument("dest")
    an.add_argument("--ops", default="tokens,lang,quality")

    args = p.parse_args(argv)

    if args.cmd == "stats":  # no Ray needed
        from pyppmd_ray.state.manifest import load_all_manifests

        mans = load_all_manifests(args.out_dir)
        bi = sum(m.get("bytes_in", 0) for m in mans)
        bo = sum(m.get("bytes_out", 0) for m in mans)
        print(
            json.dumps(
                {
                    "units": len(mans),
                    "rows": sum(m.get("n_rows", 0) for m in mans),
                    "blocks": sum(m.get("n_blocks", 0) for m in mans),
                    "bytes_in": bi,
                    "bytes_out": bo,
                    "ratio": round(bi / bo, 3) if bo else None,
                }
            )
        )
        return 0

    _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "encode":
            from pyppmd_ray.pipelines import run_encode_job

            cols = args.columns.split(",") if args.columns else None
            out = run_encode_job(
                args.input,
                args.out_dir,
                columns=cols,
                target_block_bytes=args.block_bytes,
                unit_bytes=args.unit_bytes,
                resume=not args.no_resume,
            )
            print(json.dumps(out))
        elif args.cmd == "decode":
            from pyppmd_ray.pipelines import run_decode_job, run_decode_to_parquet
            from pyppmd_ray.state.manifest import completed_units

            cols = args.columns.split(",") if args.columns else None
            if args.quarantine or not completed_units(args.out_dir):
                # streaming path: quarantine handling, or blocks without
                # an encode manifest ledger
                if os.path.isdir(args.dest) and any(
                    f.startswith("unit-") and f.endswith(".parquet")
                    for f in os.listdir(args.dest)
                ):
                    raise SystemExit(
                        f"dest {args.dest} holds unit-*.parquet from a "
                        "resumable decode — mixing layouts would duplicate "
                        "rows; use a clean destination"
                    )
                run_decode_job(
                    args.out_dir, quarantine=args.quarantine, columns=cols
                ).write_parquet(args.dest)
                print(json.dumps({"dest": args.dest, "status": "done"}))
            else:
                # resumable path: one atomic parquet per encode unit;
                # reruns skip finished units
                out = run_decode_to_parquet(args.out_dir, args.dest, columns=cols)
                out["dest"] = args.dest
                print(json.dumps(out))
        elif args.cmd == "join":
            import ray.data as rd

            from pyppmd_ray.functions.relational import hash_join

            out_ds = hash_join(
                rd.read_parquet(args.left),
                rd.read_parquet(args.right),
                on=args.on,
                right_on=args.right_on,
                how=args.how,
                broadcast=args.broadcast,
            ).materialize()
            out_ds.write_parquet(args.dest)
            print(json.dumps({"dest": args.dest, "rows": out_ds.count()}))
        elif args.cmd == "verify":
            from pyppmd_ray.pipelines import run_verify_job

            out = run_verify_job(args.input, args.out_dir)
            print(json.dumps(out))
            return 0 if out["ok"] else 1
        elif args.cmd == "ingest":
            from pyppmd_ray.sources.source_table import read_source_files

            ds = read_source_files(args.src_dir, repo=args.repo)
            ds.write_parquet(args.dest)
            print(json.dumps({"dest": args.dest, "rows": ds.count()}))
        elif args.cmd == "dedup":
            import ray.data as rd

            ds = rd.read_parquet(args.input)
            if args.method == "exact":
                from pyppmd_ray.functions.dedup import dedup_exact

                out_ds = dedup_exact(ds)
            elif args.method == "clusters":
                import pyarrow as pa
                import pyarrow.compute as pc

                from pyppmd_ray.functions.dedup import minhash_lsh_pairs
                from pyppmd_ray.functions.graph import connected_components
                from pyppmd_ray.functions.relational import hash_join

                cc = connected_components(
                    minhash_lsh_pairs(ds, threshold=args.threshold)
                )
                # broadcast only while the label table is small (on a
                # duplicate-heavy corpus it scales with the corpus);
                # cc is materialized so count() is a metadata read
                joined = hash_join(
                    ds.select_columns(["doc_id"]), cc,
                    on="doc_id", right_on="node", how="left",
                    broadcast=cc.count() <= 5_000_000,
                )

                def finish(batch: pa.Table) -> pa.Table:
                    cl = pc.coalesce(batch["lbl"], batch["doc_id"])
                    return pa.table(
                        {
                            "doc_id": batch["doc_id"],
                            "cluster_id": pc.cast(cl, pa.int64()),
                        }
                    )

                out_ds = joined.map_batches(finish, batch_format="pyarrow")
            else:
                from pyppmd_ray.functions.dedup import minhash_lsh_pairs

                out_ds = minhash_lsh_pairs(ds, threshold=args.threshold)
            out_ds = out_ds.materialize()  # one execution: write + count
            out_ds.write_parquet(args.dest)
            print(json.dumps({"dest": args.dest, "rows": out_ds.count(), "method": args.method}))
        elif args.cmd == "analyze":
            import ray.data as rd

            from pyppmd_ray.functions.dedup import SimHasher
            from pyppmd_ray.functions.text import (
                LangId,
                QualityScorer,
                TokenCounter,
                WinnowFingerprinter,
            )

            from pyppmd_ray.functions.text import chunk_documents, repetition_scores

            stages = {
                "tokens": TokenCounter,
                "lang": LangId,
                "quality": QualityScorer,
                "simhash": SimHasher,
                "winnow": WinnowFingerprinter,
            }
            # dataset-level ops (not per-batch actor classes)
            ds_ops = {
                "repetition": repetition_scores,
                "chunks": lambda d: chunk_documents(d, max_tokens=512),
            }
            ds = rd.read_parquet(args.input)
            counts = {}
            for op in args.ops.split(","):
                op = op.strip()
                if op not in stages and op not in ds_ops:
                    raise SystemExit(
                        f"unknown op {op!r}; choose from "
                        f"{sorted(stages) + sorted(ds_ops)}"
                    )
                if op in ds_ops:
                    out_ds = ds_ops[op](ds).materialize()
                else:
                    out_ds = ds.map_batches(stages[op](), batch_format="pyarrow").materialize()
                dest = os.path.join(args.dest, op)
                out_ds.write_parquet(dest)
                counts[op] = out_ds.count()
            print(json.dumps({"dest": args.dest, "rows": counts}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
