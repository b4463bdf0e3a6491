"""Transitive clustering: distributed connected components over edges.

Iterative hash-partitioned min-label propagation (SURVEY §7.1 step 5;
the reference has no clustering — its best-match-per-query collapses to
this under self-join semantics; BTS/ICDE'24 in PAPERS.md is the
load-balanced refinement if tree depth ever bites):

    labels ← node id
    repeat: label(n) ← min(label(n), min over neighbors' labels)
    until the global label sum stops changing (labels only decrease,
    so an unchanged sum ⇔ a fixpoint — no join needed for the test)

Each iteration is one ``Dataset.join`` (hash shuffle on node id) + one
``groupby().min()``.  Labels are materialized per iteration (they are
one slim row per node — tiny next to the input); iteration count is
bounded by the cluster diameter, which blocking keeps small.

Determinism: cluster id = min doc_id of the component (stable under
retries and partitioning — SURVEY §4.2).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from address_address_matching_ray.pipelines.join import (
    bucket_exchange, pull_ids,
)


def _project(ds, mapping: dict[str, str]):
    """select+rename as an Arrow map_batches, forcing id columns back to
    uint64 (groupby/join stages re-infer int64; mixed key types break
    ``Dataset.join``).  Portable across block types —
    ``Dataset.rename_columns`` fails on pandas-backed blocks in this
    Ray version."""
    src = list(mapping)
    dst = list(mapping.values())

    def f(t: pa.Table) -> pa.Table:
        t = t.select(src).rename_columns(dst)
        for name in t.column_names:
            if t.schema.field(name).type != pa.uint64():
                t = t.set_column(t.column_names.index(name), name,
                                 pa.compute.cast(t[name], pa.uint64()))
        # pandas-origin blocks carry an unhashable b'pandas' metadata
        # dict that makes downstream shuffles log schema-dedup warnings
        return t.replace_schema_metadata(None)

    return ds.map_batches(f, batch_format="pyarrow")


# Default edge count up to which CC pulls its edges to the driver
# (``connected_components``): a memory guard, not a speed crossover.
DRIVER_CC_EDGES = 100_000_000


def connected_components(edges_ds, num_partitions: int = 16,
                         max_iters: int = 25,
                         driver_threshold: int = DRIVER_CC_EDGES,
                         assume_unique: bool = False):
    """edges(left_id,right_id) → labels Dataset (doc_id, cluster_id).

    Adaptive: when the edge list fits the driver (≤ ``driver_threshold``
    rows of two uint64s), the slim id pairs are pulled and union-found
    directly.  Round-5 measurement (BASELINE.md): the driver path wins
    at EVERY size that fits memory — 13.7 s at 57M edges (distributed:
    102.8 s) and 38.3 s at 150M edges (distributed: 215.7 s) on one
    32-CPU box — so the threshold guards MEMORY, not a speed
    crossover: 100M edges ≈ 1.6 GB pull, int32 compressed indices are
    valid to 2³¹ edges.  Above the threshold the condense prelude +
    iterative hash-partitioned label propagation run — the ≳2B-edge /
    driver-less regime, where no single machine holds the edge list.
    Both paths produce identical labels (cluster id = min member id);
    a property test asserts it.

    Only edge endpoints appear; isolated docs are attached by
    ``attach_singletons``.  The distributed fixpoint raises
    ``RuntimeError`` if it has not converged after ``max_iters`` rounds.

    The slim id pairs are materialized once up front, so a lazy input's
    upstream runs once for both the count and the pull.
    """
    edges_ds = edges_ds.select_columns(["left_id", "right_id"]).materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            "doc_id": pd.array([], dtype="uint64"),
            "cluster_id": pd.array([], dtype="uint64")}))
    if n_edges <= driver_threshold:
        return _driver_union_find(edges_ds, assume_unique=assume_unique)

    # contraction prelude: two bucketed local union-find rounds shrink
    # dup-/cycle-heavy edge lists geometrically for one slim-pair
    # shuffle each (see ``condense_edges`` — label-identical by the
    # spanning-forest-union argument).  Often the condensed set fits the
    # driver path; otherwise the join fixpoint runs on far fewer rows.
    condensed = condense_edges(edges_ds,
                               buckets=max(2 * num_partitions, 32),
                               num_partitions=num_partitions).materialize()
    n_cond = condensed.count()
    if n_cond == 0:
        # degenerate: every edge was a self-loop
        return _project(edges_ds.select_columns(["left_id"]),
                        {"left_id": "doc_id"}).map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"],
                                "cluster_id": t["doc_id"]}),
            batch_format="pyarrow")
    if n_cond <= driver_threshold:
        return _driver_union_find(condensed, assume_unique=True)
    edges_ds = condensed

    fwd = _project(edges_ds, {"left_id": "node", "right_id": "nbr"})
    rev = _project(edges_ds, {"right_id": "node", "left_id": "nbr"})
    adj = fwd.union(rev).materialize()

    def min_by_node(ds):
        """(node, cluster_id) rows → one min-label row per node.

        Bucketed: hash(node) % B partitions + ONE vectorized pandas
        groupby-min per bucket.  A plain ``groupby("node").min()``
        makes one Ray group per node — tens of millions of tiny groups
        whose per-group finalize stalled the first iteration for 20+
        minutes at 57M edges."""
        buckets = max(2 * num_partitions, 32)

        def bucket(t: pa.Table) -> np.ndarray:
            node = t["node"].to_numpy(zero_copy_only=False).astype("uint64")
            with np.errstate(over="ignore"):
                h = node * np.uint64(0x9E3779B97F4A7C15)
            return (h % np.uint64(buckets)).astype("int64")

        def bucket_min(t: pa.Table) -> pa.Table:
            m = t.group_by("node").aggregate([("cluster_id", "min")])
            return pa.table({
                "node": pc.cast(m["node"], pa.uint64()),
                "cluster_id": pc.cast(m["cluster_id_min"], pa.uint64())})

        return bucket_exchange(ds, bucket_min, bucket)

    # initial label = min(self, min neighbor) — first propagation free
    def init_label(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": df["node"].astype("uint64"),
            "cluster_id": np.minimum(df["node"].to_numpy(dtype="uint64"),
                                     df["nbr"].to_numpy(dtype="uint64"))})

    labels = min_by_node(
        adj.map_batches(init_label, batch_format="pandas")).materialize()
    prev_sum = labels.sum("cluster_id")

    for _ in range(max_iters):
        # candidate labels flow across edges: node ← label(nbr)
        cand = adj.join(labels, join_type="inner",
                        num_partitions=num_partitions,
                        on=("nbr",), right_on=("node",),
                        left_suffix="", right_suffix="_r")
        cand = _project(cand, {"node": "node", "cluster_id": "cluster_id"})
        labels = min_by_node(cand.union(labels)).materialize()
        # pointer jump: label(n) ← label(label(n)) — collapses chains
        # exponentially (O(log diameter) rounds total instead of
        # O(diameter)); every label value is itself a labeled node
        # (the min member), so the self-join is total.
        jump = labels.join(labels, join_type="inner",
                           num_partitions=num_partitions,
                           on=("cluster_id",), right_on=("node",),
                           left_suffix="", right_suffix="_r")
        labels = _project(jump, {"node": "node",
                                 "cluster_id_r": "cluster_id"}).materialize()
        cur_sum = labels.sum("cluster_id")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"connected_components: label propagation did not reach a "
            f"fixpoint in max_iters={max_iters} rounds")

    return _project(labels, {"node": "doc_id", "cluster_id": "cluster_id"})


def dedup_edge_pairs(pairs_ds, buckets: int = 64,
                     size_bytes: int | None = None):
    """Distributed (left_id, right_id) pair dedup — the one pair-hash
    exchange (shuffle #2 of ``pairs_stage`` above the local bound):
    bucket rows by a hash of the pair, then one Arrow sort/mask per
    bucket keeps the full row with max specificity (ties → smallest
    block_key).  Pairs co-blocked under several keys thus reach the
    scorer once.  ``size_bytes`` sizes the exchange
    (``bucket_exchange``)."""
    from address_address_matching_ray.stages.pairs import (
        _dedup_pairs_bucket_arrow,
    )

    def bucket(t: pa.Table) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (t["left_id"].to_numpy(zero_copy_only=False).astype("uint64")
                 * np.uint64(0x9E3779B97F4A7C15)
                 ^ t["right_id"].to_numpy(zero_copy_only=False).astype("uint64"))
        return (h % np.uint64(buckets)).astype("int64")

    return bucket_exchange(pairs_ds, _dedup_pairs_bucket_arrow, bucket,
                           size_bytes)


def _cc_arrays(left: np.ndarray, right: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the edge list ``(left, right)`` (uint64
    id arrays): vectorized hook + pointer jumping, no per-edge Python.
    Returns ``(nodes, roots)``: the sorted distinct ids and each one's
    component label, the component's minimum id (``nodes`` is sorted
    and labels start as compressed indices, so the minimum index per
    component IS the minimum id — the canonical label invariant for
    free).  The one CC kernel: the driver path, each
    ``condense_edges`` bucket and the incremental absorb's contracted
    graph all run it.

    polars (multi-threaded) does the heavy sorts/uniques: on the
    driver path this is the pipeline's one single-process phase, so
    its wall time is pure serial residue for the scaling ratio.
    numpy's unique(return_inverse=True) alone measured 55 s on 28M
    ids."""
    import polars as pl

    nodes = (pl.Series(np.concatenate([left, right])).unique().sort()
             .to_numpy().astype("uint64", copy=False))
    m = len(nodes)
    if m == 0:
        return nodes, nodes
    # node-id → compressed-index inverse via a multi-threaded polars
    # hash join (a numpy searchsorted over 2E ids was single-thread
    # serial residue in the scaling ratio).  Compressed indices are
    # int32: the driver path is gated at ≤100M edges (≤200M nodes <
    # 2^31), and halving the element width halves the memory traffic of
    # every concat/gather/reduceat below — this phase is pure serial
    # residue in the scaling ratio, so bytes moved ≈ wall time.
    rank = pl.DataFrame({"_id": nodes,
                         "_ix": np.arange(m, dtype=np.int32)})
    inv_df = pl.DataFrame({"_id": np.concatenate([left, right])}) \
        .join(rank, on="_id", how="left", maintain_order="left")
    inv = inv_df["_ix"].to_numpy().astype(np.int32, copy=False)
    li, ri = inv[: len(left)], inv[len(left):]
    # sorted adjacency (with self-loops so every node owns a segment):
    # the hook step becomes one gather + one ``minimum.reduceat`` —
    # buffered C kernels, ~10× the throughput of unbuffered
    # ``np.minimum.at`` on the same edges.  Order within a segment is
    # irrelevant to a min-reduction, so any sort works; the polars
    # DataFrame sort fuses the parallel sort with the dst gather
    # (arg_sort + two numpy fancy-index gathers measured ~4× slower).
    self_ix = np.arange(m, dtype=np.int32)
    adj = pl.DataFrame({"_s": np.concatenate([li, ri, self_ix]),
                        "_d": np.concatenate([ri, li, self_ix])}).sort("_s")
    src_s = adj["_s"].to_numpy().astype(np.int32, copy=False)
    dst_s = adj["_d"].to_numpy().astype(np.int32, copy=False)
    seg_starts = np.flatnonzero(
        np.concatenate([[True], src_s[1:] != src_s[:-1]]))
    label = np.arange(m, dtype=np.int32)
    while True:
        prev = label
        # hook: label(n) ← min(label(n), min over neighbors' labels);
        # reduceat output is node-ordered because src covers 0..m-1
        label = np.minimum.reduceat(label[dst_s], seg_starts)
        # compress: pointer jumping until stable
        while True:
            nl = label[label]
            if np.array_equal(nl, label):
                break
            label = nl
        if np.array_equal(prev, label):
            break
    return nodes, nodes[label]


def condense_edges(edges_ds, buckets: int = 64, rounds: int = 2,
                   num_partitions: int = 16):
    """Bucketed local union-find contraction (star contraction): each
    round hash-partitions the slim (left_id, right_id) pairs by LEFT
    endpoint, runs the vectorized CC kernel per bucket, and emits one
    ``(node → local-min-root)`` star edge per non-root node.

    The union of per-bucket spanning forests has exactly the input's
    connected components (a spanning forest of each edge-subset
    preserves connectivity of that subset, and the union restores the
    rest), so ANY downstream CC on the condensed set yields identical
    labels.  Duplicate, parallel and cyclic edges vanish locally;
    chains that span buckets collapse across rounds
    (pointer-doubling-like).  One cheap slim-pair shuffle per round —
    the prelude that shrinks a >``driver_threshold`` edge list before
    the join-per-iteration fixpoint (or below the threshold entirely,
    onto the driver path)."""
    cur = edges_ds.select_columns(["left_id", "right_id"])

    def bucket(t: pa.Table) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (t["left_id"].to_numpy(zero_copy_only=False).astype("uint64")
                 * np.uint64(0x9E3779B97F4A7C15))
        return (h % np.uint64(buckets)).astype("int64")

    def local_cc(t: pa.Table) -> pa.Table:
        l = t["left_id"].to_numpy(zero_copy_only=False).astype("uint64")
        r = t["right_id"].to_numpy(zero_copy_only=False).astype("uint64")
        nodes, roots = _cc_arrays(l, r)
        keep = nodes != roots                  # roots carry no edge
        return pa.table({
            "left_id": pa.array(nodes[keep], pa.uint64()),
            "right_id": pa.array(roots[keep], pa.uint64()),
        })

    for _ in range(rounds):
        cur = bucket_exchange(cur, local_cc, bucket)
    return cur


def _driver_union_find(edges_ds, assume_unique: bool = False):
    """Small-graph path: pull the two id columns once (``pull_ids``:
    one parallel block fetch; the sequential iter_batches stream
    measured ~2.5× slower for the same 5M-edge pull) and run
    ``_cc_arrays`` on the driver.  The labels come back as one
    in-memory Arrow table."""
    import polars as pl
    import ray.data as rd

    ids = pull_ids(edges_ds, ["left_id", "right_id"])
    if not assume_unique:
        # callers whose edges come from ``pairs_stage`` (one row per
        # pair by construction) pass assume_unique=True and skip this
        # serial hash pass; contracted or hand-built edge lists may
        # repeat pairs.
        ids = pl.from_arrow(ids).unique().to_arrow()
    nodes, roots = _cc_arrays(
        ids["left_id"].to_numpy().astype("uint64", copy=False),
        ids["right_id"].to_numpy().astype("uint64", copy=False))
    return rd.from_arrow(pa.table({"doc_id": pa.array(nodes, pa.uint64()),
                                   "cluster_id": pa.array(roots,
                                                          pa.uint64())}))


def filter_out_ids(ds, ids_ds, id_col: str = "doc_id",
                   ids_col: str | None = None,
                   broadcast_threshold: int = 5_000_000,
                   num_partitions: int = 16):
    """Scale-safe left-anti semi-join: drop ``ds`` rows whose ``id_col``
    appears in ``ids_ds[ids_col]``.

    Below ``broadcast_threshold`` the id set is broadcast ONCE as a
    sorted numpy array (zero-copy from the object store, searchsorted
    membership test per batch) — never a Python set, whose per-task
    deserialization and driver residency are unbounded at crawl scale.
    Above it, the shared bucketed anti-membership shuffle
    (``pipelines.join.membership_join``, keep=False) — one union
    exchange of probe + slim key rows, no driver materialization, and
    none of ``Dataset.join``'s fixed actor-pool setup cost.  Both
    paths produce identical output; a pytest runs one dedup with
    ``broadcast_threshold=0`` to assert it.
    """
    ids_col = ids_col or id_col
    # one execution: the count and the pull read the pinned id column
    ids_ds = ids_ds.select_columns([ids_col]).materialize()
    n = ids_ds.count()
    if n == 0:
        return ds
    if n <= broadcast_threshold:
        import ray

        arr = np.sort(pull_ids(ids_ds, [ids_col])[ids_col].to_numpy())
        ref = ray.put(arr)

        def drop(df: pd.DataFrame) -> pd.DataFrame:
            k = ray.get(ref)
            v = df[id_col].to_numpy(dtype="uint64")
            pos = np.minimum(np.searchsorted(k, v), len(k) - 1)
            return df[k[pos] != v]

        return ds.map_batches(drop, batch_format="pandas")

    from address_address_matching_ray.pipelines.join import membership_join

    return membership_join(ds, ids_ds, id_col=id_col, ids_col=ids_col,
                           keep=False, buckets=max(num_partitions, 16))


def attach_singletons(extracted_ds, labels_ds, num_partitions: int = 16,
                      broadcast_threshold: int = 50_000_000):
    """Left-attach cluster labels to every doc; docs with no accepted
    edge become singleton clusters (cluster_id = own doc_id) — the
    anti-join semantics of SURVEY §2.4.

    Adaptive like ``connected_components``: a small labels table (one
    slim row per *edge endpoint*, usually ≪ docs) is broadcast once via
    ``ray.put`` and applied as a map — no shuffle; a large one goes
    through the hash-partitioned left-outer ``Dataset.join``.

    The 50M-row threshold is two sorted uint64 arrays ≈ 800 MB — one
    shared-memory copy per NODE (zero-copy reads from plasma), cheap
    against the join path, which measured ~20× the broadcast path when
    8M pages first crossed the old 5M cutoff.  Beyond ~50M endpoints
    the broadcast would crowd worker heaps and the join is the honest
    10^9-row shape."""
    docs = extracted_ds.select_columns(["doc_id"])
    n_labels = labels_ds.count()

    if n_labels <= broadcast_threshold:
        import polars as pl
        import ray

        # parallel fetch + multi-threaded sort: this broadcast prep is
        # driver-serial, so it shows up 1:1 in the scaling ratio
        lab = pl.from_arrow(pull_ids(labels_ds, ["doc_id", "cluster_id"])) \
            .sort("doc_id")
        keys_arr = lab["doc_id"].to_numpy().astype("uint64", copy=False)
        vals_arr = lab["cluster_id"].to_numpy().astype("uint64", copy=False)
        # numpy arrays broadcast zero-copy from the object store (a dict
        # would be re-deserialized in every task); lookup = searchsorted
        ref = ray.put((keys_arr, vals_arr))

        def fill_map(df: pd.DataFrame) -> pd.DataFrame:
            k, v = ray.get(ref)
            doc = df["doc_id"].to_numpy(dtype="uint64")
            if len(k):
                pos = np.searchsorted(k, doc)
                pos = np.minimum(pos, len(k) - 1)
                hit = k[pos] == doc
                cid = np.where(hit, v[pos], doc)
            else:
                cid = doc
            return pd.DataFrame({"doc_id": doc,
                                 "cluster_id": cid.astype("uint64")})

        return docs.map_batches(fill_map, batch_format="pandas")

    joined = docs.join(labels_ds, join_type="left_outer",
                       num_partitions=num_partitions,
                       on=("doc_id",), right_on=("doc_id",))

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["cluster_id"]
        doc = df["doc_id"].astype("uint64")
        return pd.DataFrame({
            "doc_id": doc,
            "cluster_id": cid.fillna(doc).astype("uint64"),
        })

    return joined.map_batches(fill, batch_format="pandas")
