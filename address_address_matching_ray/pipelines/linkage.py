"""The flagship record-linkage pipeline (SURVEY §3.4 / §7.1).

    pages ─► extract/normalize/parse (stateless map_batches)
          ─► blocking keys (cached MinHash perms per worker) [shuffle-free]
          ─► hot-key pass 0 → bucketed groupby → candidate pairs (capped,
             salted-by-window, canonicalized, one row per pair)
                                                            [shuffles 1-2;
             one local task when the key table is small:    none ≤ bound]
             pass 0 runs inside it, on the table it pairs
          ─► tiered scorer tasks → edges, each pair
             scored once                                    [shuffle-free]
          ─► iterative min-label propagation → clusters     [shuffles 3..k]
          ─► metrics aggregates (tier distribution, A1-A4)

Every wide step goes through hash partitioning.  ``run_linkage`` is one
plan: each stage that is read again is persisted by one rule — pinned
in the object store, or, under a checkpoint root, written as a Parquet
checkpoint with lineage so re-runs resume (state/checkpoint.py).  Each
stage is one Ray Data execution: nothing probes a lazy stage's schema
or re-pulls a table the plan already holds.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.stages.cluster import (
    attach_singletons, connected_components,
)
from address_address_matching_ray.stages.extract import extract_stage
from address_address_matching_ray.stages.keys import keys_stage
from address_address_matching_ray.stages.pairs import pairs_stage
from address_address_matching_ray.stages.score import score_stage
from address_address_matching_ray.state.checkpoint import CheckpointManager


@dataclass
class LinkageResult:
    extracted: object
    edges: object
    clusters: object
    from_checkpoint: dict


def _spill_root() -> str:
    """A throwaway checkpoint root, removed when the interpreter exits
    (the returned Datasets read from it until then)."""
    root = tempfile.mkdtemp(prefix="linkage_spill_")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def run_linkage(pages_ds, cfg: PipelineConfig | None = None,
                checkpoint_root: str | None = None,
                input_fp: str = "", buckets: int = 64,
                num_partitions: int = 16,
                cc_driver_threshold: int = 300_000_000,
                approx_rows: int | None = None,
                auto_spill_rows: int = 8_000_000,
                doc_universe=None):
    """pages Dataset → (extracted, edges, clusters) Datasets.

    One plan: extract → keys → edges → clusters.  Every stage that is
    read again is persisted by one rule: pinned in the object store
    (``materialize``) without ``checkpoint_root``, and with it written
    as a Parquet checkpoint with lineage (``extracted``, ``keys``,
    ``edges``, ``clusters``) that re-runs reuse.  The key table is
    always persisted: its size for shuffle sizing comes from that
    persisted copy, and above the local-exchange bound it is read twice
    (hot-key pass 0 and pair generation).

    ``doc_universe``: optional Dataset with a ``doc_id`` column that is
    CHEAP to re-produce (e.g. ``read_parquet(pages_dir,
    columns=["doc_id"])``) covering every input page.  When given,
    singleton attachment reads the universe from it, so ``extracted``
    has one consumer and stays lazy: extract fuses with key derivation
    into one streaming stage, and ``res.extracted`` re-executes if
    consumed.  Without it ``extracted`` is the universe and is
    persisted.

    ``approx_rows`` only triggers auto-spill: above ``auto_spill_rows``
    a run without ``checkpoint_root`` checkpoints into a throwaway
    directory (Parquet spill-through), removed at interpreter exit.
    The 8M default follows the pinned-bytes math on a 128-GiB node:
    extracted + keys + edges ≈ 2.5 KB/page ⇒ 8M pages ≈ 20 GB ≈ half
    the default object store — beyond that, pinning trades streaming
    backpressure for Ray's emergency disk spilling.
    """
    cfg = cfg or PipelineConfig()
    hit = {}

    if (checkpoint_root is None and approx_rows is not None
            and approx_rows > auto_spill_rows):
        checkpoint_root = _spill_root()
        input_fp = input_fp or f"auto_spill_{approx_rows}"

    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.target_max_block_size = cfg.target_max_block_size_mb * 1024 * 1024
    mgr = (CheckpointManager(checkpoint_root, input_fp, cfg.fingerprint())
           if checkpoint_root else None)

    def persist(stage: str, build, part_by: str | None = None):
        """Pin ``build()`` or checkpoint it as ``<root>/<stage>``;
        ``part_by`` lays a checkpoint out as one ``part=`` directory per
        hash range of that id column."""
        if mgr is None:
            return build().materialize()
        if part_by is None:
            ds, hit[stage] = mgr.load_or_compute(stage, build)
            return ds

        def add_part(t: pa.Table) -> pa.Table:
            ids = t[part_by].to_numpy(zero_copy_only=False)
            return t.append_column("part", pa.array(
                (ids % np.uint64(num_partitions)).astype("int64")))

        ds, hit[stage] = mgr.load_or_compute(
            stage, lambda: build().map_batches(add_part,
                                               batch_format="pyarrow"),
            partition_col="part")
        return ds

    def columns_of(stage: str, ds, columns: list[str]):
        """``columns`` of a persisted stage: a projection of the pinned
        copy, or a read of only those Parquet columns (the checkpoint
        keeps all of them)."""
        return (ds.select_columns(columns) if mgr is None
                else mgr.read(stage, columns))

    if doc_universe is None:
        extracted = persist("extracted", lambda: extract_stage(pages_ds))
    else:
        extracted = extract_stage(pages_ds)

    keys = persist("keys", lambda: keys_stage(extracted, cfg))
    keys_size = (mgr.raw_bytes("keys") if mgr is not None
                 else keys.size_bytes())

    def build_edges():
        pairs = pairs_stage(keys, cfg, buckets=buckets,
                            keys_size_bytes=keys_size)
        # streaming split-repartition between pair generation and
        # scoring: pair blocks come out of the bucketed groupby one per
        # group and up to ~4× skewed, and Ray fuses map_groups with the
        # downstream map_batches — so without this, scoring parallelism
        # is capped at the shuffle partition count and the wall clock
        # rides the fattest bucket.  Splitting to fixed-row blocks
        # (no exchange, no barrier) lets the scorer fan out evenly
        # across every core regardless of bucket skew.
        return score_stage(pairs.repartition(
            target_num_rows_per_block=cfg.score_block_rows), cfg)

    edges = persist("edges", build_edges, part_by="left_id")

    def build_clusters():
        accepted = columns_of("edges", edges,
                              ["left_id", "right_id", "accepted"])
        labels = connected_components(accepted.filter(expr="accepted == True"),
                                      num_partitions=num_partitions,
                                      driver_threshold=cc_driver_threshold,
                                      assume_unique=True)
        universe = (columns_of("extracted", extracted, ["doc_id"])
                    if doc_universe is None
                    else doc_universe.select_columns(["doc_id"]))
        return attach_singletons(universe, labels,
                                 num_partitions=num_partitions)

    clusters = persist("clusters", build_clusters)
    return LinkageResult(extracted=extracted, edges=edges, clusters=clusters,
                         from_checkpoint=hit)


def rejects_summary(extracted_ds):
    """A3 analog (optimized.py:882,1096-1098): distinct reject reasons
    with counts, top-5 — an aggregate, never a driver loop."""
    return (extracted_ds.filter(expr='reject_reason != ""')
            .groupby("reject_reason").count()
            .sort("count()", descending=True).limit(5))


def cluster_representatives(clusters_ds, extracted_ds, num_partitions: int = 8):
    """One representative row per cluster: min doc_id member carries the
    cluster's canonical address (deterministic tie-break, SURVEY §2.10)
    plus member count — the K1 'best per query' / P9 result-assembly
    analog for self-join linkage."""
    import numpy as np
    import pandas as pd

    # bucketed per-cluster aggregate: ONE vectorized pandas groupby per
    # hash bucket — a Ray ``groupby(cluster_id)`` makes one group per
    # cluster (O(docs) tiny groups at crawl scale, the Python-per-group
    # finalize trap)
    buckets = max(2 * num_partitions, 16)

    def add_b(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        cid = df["cluster_id"].to_numpy(dtype="uint64")
        with np.errstate(over="ignore"):
            h = cid * np.uint64(0x9E3779B97F4A7C15)
        df["_b"] = (h % np.uint64(buckets)).astype("int64")
        return df

    def agg_bucket(g: pd.DataFrame) -> pd.DataFrame:
        gm = (g.groupby("cluster_id", sort=False)["doc_id"]
               .agg(["min", "size"]).reset_index())
        return pd.DataFrame({
            "cluster_id": gm["cluster_id"].to_numpy(dtype="uint64"),
            "rep_doc_id": gm["min"].to_numpy(dtype="uint64"),
            "n_members": gm["size"].to_numpy(dtype="int64")})

    agg = (clusters_ds.map_batches(add_b, batch_format="pandas")
           .groupby("_b").map_groups(
               lambda g: agg_bucket(g.drop(columns=["_b"])),
               batch_format="pandas"))
    payload = extracted_ds.select_columns(
        ["doc_id", "addr", "norm_addr", "city", "state", "zip"])
    joined = agg.join(payload, join_type="inner",
                      num_partitions=num_partitions,
                      on=("rep_doc_id",), right_on=("doc_id",))

    def tidy(df: pd.DataFrame) -> pd.DataFrame:
        return df[["cluster_id", "rep_doc_id", "n_members", "addr",
                   "norm_addr", "city", "state", "zip"]]

    return joined.map_batches(tidy, batch_format="pandas")


def resolve_entity_ids(clusters_ds, id_table_ds, num_partitions: int = 8):
    """J3 analog (U:994-1055 ``_find_address_id_in_base``): attach an
    external entity id to every doc by joining cluster labels against an
    id-dimension table keyed by cluster_id.  Small dim tables should be
    broadcast instead (see relational.nation_order_counts)."""
    return clusters_ds.join(id_table_ds, join_type="left_outer",
                            num_partitions=num_partitions,
                            on=("cluster_id",), right_on=("cluster_id",))


def to_export(clusters_ds, edges_ds=None,
              broadcast_threshold: int = 5_000_000,
              num_partitions: int = 16):
    """Downstream projection — ``to_n8n_format`` analog (U:128-135):
    (doc_id, address_id, success) with success ⇔ non-singleton cluster.

    ``cluster_id != doc_id`` alone mislabels the min-id REPRESENTATIVE
    of every real cluster as unmatched; the representative is successful
    iff its cluster id also appears on some non-representative row.
    That id set (≤ non-rep members, ≪ docs) is broadcast sorted below
    the threshold, joined above it."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    nonrep = clusters_ds.filter(expr="doc_id != cluster_id") \
                        .select_columns(["cluster_id"])
    n = nonrep.count()

    if n <= broadcast_threshold:
        import ray

        multi = np.unique(
            nonrep.to_pandas()["cluster_id"].to_numpy(dtype="uint64")) \
            if n else np.array([], dtype="uint64")
        ref = ray.put(multi)

        def f(df: pd.DataFrame) -> pd.DataFrame:
            k = ray.get(ref)
            doc = df["doc_id"].to_numpy(dtype="uint64")
            cid = df["cluster_id"].to_numpy(dtype="uint64")
            member = cid != doc
            if len(k):
                pos = np.minimum(np.searchsorted(k, doc), len(k) - 1)
                rep_of_multi = k[pos] == doc
            else:
                rep_of_multi = np.zeros(len(doc), dtype=bool)
            return pd.DataFrame({"doc_id": doc, "address_id": cid,
                                 "success": member | rep_of_multi})

        return clusters_ds.map_batches(f, batch_format="pandas")

    # large path: distinct multi-member cluster ids via a bucketed
    # distinct (per-batch np.unique → 64 hash buckets → per-bucket
    # np.unique; a native groupby("cluster_id") would pay Ray's
    # Python-per-distinct-key reduce over ~cluster-cardinality keys),
    # then a marker join on doc_id (reps carry doc_id == cluster_id)
    _nb = 64

    def part_unique(t: pa.Table) -> pa.Table:
        u = np.unique(t["cluster_id"].to_numpy(zero_copy_only=False)
                      .astype("uint64"))
        return pa.table({
            "cluster_id": pa.array(u, pa.uint64()),
            "_b": pa.array((u % np.uint64(_nb)).astype("int64"))})

    def bucket_unique(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"cluster_id": np.unique(
            df["cluster_id"].to_numpy(dtype="uint64"))})

    distinct = (nonrep.map_batches(part_unique, batch_format="pyarrow")
                .groupby("_b").map_groups(bucket_unique,
                                          batch_format="pandas"))

    def marker(t: pa.Table) -> pa.Table:
        return pa.table({
            "_mc": pc.cast(t["cluster_id"], pa.uint64()),
            "_hit": pa.array(np.ones(t.num_rows, dtype=np.int8))})

    joined = clusters_ds.join(
        distinct.map_batches(marker, batch_format="pyarrow"),
        join_type="left_outer", num_partitions=num_partitions,
        on=("doc_id",), right_on=("_mc",))

    def g(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype("uint64")
        cid = t["cluster_id"].to_numpy(zero_copy_only=False).astype("uint64")
        hit = pc.is_valid(t["_hit"]).to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(doc, pa.uint64()),
                         "address_id": pa.array(cid, pa.uint64()),
                         "success": pa.array((cid != doc) | hit)})

    return joined.map_batches(g, batch_format="pyarrow")


def tier_distribution(edges_ds):
    """A2 analog: per-tier accepted-edge counts (U:1583-1598)."""
    return (edges_ds.groupby("tier").count()
            .rename_columns({"count()": "n_edges"}))


def edge_stats(edges_ds):
    """A1 analog: global counters/means over scored pairs
    (optimized.py:869-900) — one small aggregate, no driver loop."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    return edges_ds.aggregate(
        Count(),
        Sum("accepted", alias_name="n_accepted"),
        Mean("confidence", alias_name="mean_confidence"),
        Mean("similarity", alias_name="mean_similarity"),
        Max("quality", alias_name="max_quality"),
        Min("confidence", alias_name="min_confidence"),
    )

def _jaro_key_rows(df: pd.DataFrame) -> pd.DataFrame:
    """md5-keyed blocking rows over part pseudo-addresses — the
    SQL-replayable keyer shared by ``linkage_jaro`` and
    ``incremental_linkage_jaro`` (four families: e/h/f/k)."""
    from address_address_matching_ray.functions.minhash import md5_lower64
    from address_address_matching_ray.pipelines.matching import _jaro_struct

    f = _jaro_struct(df, queries=False)
    first = f["street"].str.split(" ").str[0].fillna("")
    fams = (("e", f["norm"]),
            ("h", f["house"] + "|" + f["street"] + "|" + f["zip"]),
            ("f", f["house"] + "|" + first + "|" + f["zip"]),
            ("k", first + "|" + f["state"]))
    outs = []
    for kind, vals in fams:
        keys = np.array(
            [f"{kind}:{int(v)}" for v in md5_lower64(vals.tolist())],
            dtype=object)
        outs.append(pd.DataFrame({
            "doc_id": f["ck"].to_numpy().astype("uint64"),
            "block_key": keys,
            "key_kind": kind,
            "norm_addr": f["norm"].to_numpy(object),
            "house": f["house"].to_numpy(object),
            "street_name": f["street"].to_numpy(object),
            "street_type": "",
            "unit": f["unit"].to_numpy(object),
            "city": f["city"].to_numpy(object),
            "state": f["state"].to_numpy(object),
            "zip": f["zip"].to_numpy(object)}))
    return pd.concat(outs, ignore_index=True)


def _jaro_score_pairs(df: pd.DataFrame,
                      accept_threshold: float = 55.0) -> pd.DataFrame:
    """SQL-replayable pair scorer over the ``pairs_stage`` payload:
    plain-Jaro street/city comps, exact-equality house/zip/state/unit,
    ONE pinned weighted sum, wrong-unit veto.  Emits
    (left_id, right_id, accepted)."""
    from address_address_matching_ray.pipelines.matching import (
        _jaro_confidence,
    )

    if not len(df):
        return pd.DataFrame({
            "left_id": pd.array([], dtype="uint64"),
            "right_id": pd.array([], dtype="uint64"),
            "accepted": pd.array([], dtype="bool")})

    _, conf, wrong_unit = _jaro_confidence(
        df["l_street_name"].to_numpy(object),
        df["r_street_name"].to_numpy(object),
        df["l_house"].to_numpy(object), df["r_house"].to_numpy(object),
        df["l_city"].to_numpy(object), df["r_city"].to_numpy(object),
        df["l_zip"].to_numpy(object), df["r_zip"].to_numpy(object),
        df["l_state"].to_numpy(object), df["r_state"].to_numpy(object),
        df["l_unit"].to_numpy(object), df["r_unit"].to_numpy(object))
    return pd.DataFrame({
        "left_id": df["left_id"].to_numpy("uint64"),
        "right_id": df["right_id"].to_numpy("uint64"),
        "accepted": (conf >= accept_threshold) & ~wrong_unit})


def linkage_jaro(parts_ds, cfg=None, buckets: int = 32,
                 accept_threshold: float = 55.0):
    """The flagship linkage SPINE with SQL-replayable seams — the
    DuckDB-ORACLED twin of ``run_linkage`` (round 5): md5-keyed
    blocking rows (four families over part-table pseudo-addresses, the
    ``match_queries_jaro`` derivation) feed the REAL ``pairs_stage``
    (hot-key salting, per-block caps, cross-key dedup — all live), a
    Jaro-only scorer with ONE pinned weighted sum + the wrong-unit
    veto replaces the rapidfuzz ``PairScorer``, and the accepted edges
    run the production ``connected_components`` + ``attach_singletons``
    to (doc_id, cluster_id) for every input row.  The rapidfuzz
    kernels themselves stay pytest-parity-gated; everything else the
    flagship executes is now hash-checkable end-to-end.

    Oracle validity: cap-free/salt-free regime at oracle scales
    (no block near ``cfg.max_block_size`` — pytest-asserted)."""
    from address_address_matching_ray.config import PipelineConfig
    from address_address_matching_ray.stages.cluster import (
        attach_singletons, connected_components,
    )
    from address_address_matching_ray.stages.pairs import pairs_stage

    cfg = cfg or PipelineConfig()

    keys = parts_ds.map_batches(_jaro_key_rows, batch_format="pandas")
    pairs = pairs_stage(keys, cfg, buckets=buckets)
    edges = pairs.map_batches(
        lambda df: _jaro_score_pairs(df, accept_threshold)
        .loc[lambda d: d["accepted"], ["left_id", "right_id"]],
        batch_format="pandas")
    labels = connected_components(edges.materialize())
    universe = parts_ds.map_batches(
        lambda t: pa.table({"doc_id": pa.compute.cast(t["p_partkey"],
                                                      pa.uint64())}),
        batch_format="pyarrow")
    return attach_singletons(universe, labels)

def incremental_linkage_jaro(parts_ds, cfg=None, buckets: int = 32,
                             accept_threshold: float = 55.0):
    """DuckDB-ORACLED twin of the incremental absorb (round 5): build
    the prior clustering with ``linkage_jaro`` over the 80% prior
    split (p_partkey % 5 != 0), then absorb the 20% delta through the
    REAL ``incremental_linkage`` machinery — delta key semi-filter,
    new-side pair masking, old-endpoint contraction to prior labels,
    merged relabel — with the md5 keyer and Jaro scorer plugged into
    its two seams.  Because blocking keys and pair scores are
    per-doc/per-pair (corpus-composition-independent) and the oracle
    scales are cap/salt-free, the absorbed result is label-identical
    to a full ``linkage_jaro`` over ALL parts — so the oracle IS the
    full-rerun SQL, making the incremental machinery itself
    hash-checkable end-to-end."""
    from address_address_matching_ray.config import PipelineConfig
    from address_address_matching_ray.pipelines.incremental import (
        incremental_linkage,
    )

    cfg = cfg or PipelineConfig()

    def split(pred):
        def f(t: pa.Table) -> pa.Table:
            ids = t["p_partkey"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(pred(ids)))
        return f

    prior_parts = parts_ds.map_batches(split(lambda i: i % 5 != 0),
                                       batch_format="pyarrow")
    delta_parts = parts_ds.map_batches(split(lambda i: i % 5 == 0),
                                       batch_format="pyarrow")

    prior_clusters = linkage_jaro(prior_parts, cfg, buckets=buckets,
                                  accept_threshold=accept_threshold
                                  ).materialize()
    delta_universe = delta_parts.map_batches(
        lambda t: pa.table({"doc_id": pa.compute.cast(t["p_partkey"],
                                                      pa.uint64())}),
        batch_format="pyarrow")
    res = incremental_linkage(
        delta_parts, prior_clusters,
        prior_keys_ds=prior_parts.map_batches(_jaro_key_rows,
                                              batch_format="pandas"),
        new_keys_ds=delta_parts.map_batches(_jaro_key_rows,
                                            batch_format="pandas"),
        new_universe=delta_universe,
        score_fn=lambda pairs: pairs.map_batches(
            lambda df: _jaro_score_pairs(df, accept_threshold),
            batch_format="pandas"),
        cfg=cfg, buckets=buckets)
    return res.clusters

