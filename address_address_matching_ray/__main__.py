"""CLI — the reference's ``main()`` surface (optimized.py:996-1104)
re-expressed for the Ray engine.

    python -m address_address_matching_ray link  --pages DIR --out DIR [--checkpoint DIR]
    python -m address_address_matching_ray match --batch-file F --records DIR --out PATH
    python -m address_address_matching_ray match --address "55 Berry St …" --records DIR
    python -m address_address_matching_ray tables DIR
    python -m address_address_matching_ray synth --n 10000 --out DIR

``--batch-file`` (one address per line), ``--address`` and the
interactive prompt mirror S1/S2; ``--config`` loads a
``PipelineConfig`` JSON/YAML like ``MatchConfig.from_file``
(O:148-157); small CSV export mirrors S6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        # RAY_ADDRESS decides the session: unset/"local" starts a
        # local Ray (this sandbox); inside `ray job submit` the job
        # env carries the cluster address and the CLI inherits it
        # (num_cpus is a local-mode-only knob, so it is dropped there).
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr == "local":
            ray.init(address="local", num_cpus=num_cpus,
                     include_dashboard=False, logging_level="ERROR")
        else:
            ray.init(address=addr, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False


def _load_cfg(path: str | None):
    from address_address_matching_ray.config import PipelineConfig

    return PipelineConfig.from_file(path) if path else PipelineConfig()


def cmd_link(args) -> int:
    import ray.data as rd

    from address_address_matching_ray.pipelines.linkage import (
        run_linkage, tier_distribution,
    )
    from address_address_matching_ray.state.checkpoint import input_fingerprint

    _init_ray(args.num_cpus)
    cfg = _load_cfg(args.config)
    pages = rd.read_parquet(args.pages)
    fp = input_fingerprint([args.pages])
    # parquet row counts are metadata-only — feeds the auto-spill
    # decision
    res = run_linkage(pages, cfg=cfg, checkpoint_root=args.checkpoint,
                      input_fp=fp, buckets=args.buckets,
                      approx_rows=pages.count())
    os.makedirs(args.out, exist_ok=True)
    res.clusters.write_parquet(os.path.join(args.out, "clusters"))
    res.edges.write_parquet(os.path.join(args.out, "edges"))
    dist = tier_distribution(
        res.edges.filter(expr="accepted == True")).to_pandas()
    print(dist.to_string(index=False))
    print(f"clusters + edges written under {args.out}")
    return 0


def cmd_match(args) -> int:
    import pyarrow as pa
    import ray.data as rd

    from address_address_matching_ray.pipelines.matching import (
        attach_failed, match_queries,
    )
    from address_address_matching_ray.sources.catalog import export_csv

    _init_ray(args.num_cpus)
    cfg = _load_cfg(args.config)

    if args.batch_file:
        with open(args.batch_file) as f:
            addresses = [ln.strip() for ln in f if ln.strip()]
    elif args.address:
        addresses = [args.address]
    else:                                           # interactive (S2)
        try:
            addresses = [input("address> ").strip()]
        except EOFError:
            print("no input", file=sys.stderr)
            return 2
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(range(len(addresses)), pa.uint64()),
        "query": pa.array(addresses, pa.string())}))
    records = rd.read_parquet(args.records)
    matches = match_queries(queries, records, cfg=cfg).materialize()
    full = attach_failed(queries, matches)
    if args.out:
        if args.out.endswith(".csv"):
            export_csv(full, args.out)
        else:
            full.write_parquet(args.out)
        print(f"results written to {args.out}")
    else:
        df = full.to_pandas().sort_values("query_id")
        for _, r in df.iterrows():
            print(json.dumps({
                "query": r["query"], "match_level": r["match_level"],
                "address_id": r["pid"], "matched": r["ADDRESS"],
                "confidence": round(float(r["confidence"]), 2),
                "reliability": r["reliability"]}))
    return 0


def cmd_tables(args) -> int:
    from address_address_matching_ray.sources.catalog import list_tables

    for t in list_tables(args.root):
        print(json.dumps(t))
    return 0


def cmd_synth(args) -> int:
    from address_address_matching_ray.sources.synth import synth_pages

    _init_ray(args.num_cpus)
    synth_pages(args.n, seed=args.seed).write_parquet(args.out)
    print(f"{args.n} pages written to {args.out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="address_address_matching_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("link", help="cluster a pages parquet table")
    p.add_argument("--pages", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--buckets", type=int, default=64)
    p.set_defaults(fn=cmd_link)

    p = sub.add_parser("match", help="match addresses against a records table")
    p.add_argument("--batch-file", default=None)
    p.add_argument("--address", default=None)
    p.add_argument("--records", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("tables", help="list parquet datasets (catalog)")
    p.add_argument("root")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("synth", help="generate deterministic synthetic pages")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    args = ap.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
