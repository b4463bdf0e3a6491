"""Candidate-pair generation: the blocking shuffle.

Replaces the reference's per-query search retrieval (SURVEY §2.4 J1)
with ONE hash-partitioned exchange: key rows are bucketed by
``hash(block_key) % B`` and each bucket is processed by a single
vectorized task (the "explicit partitioned hash join" idiom — a
``groupby(bucket)`` shuffle whose groups are big enough that per-group
Python overhead vanishes; millions of tiny per-key ``map_groups`` calls
would be driver-side-loop slow at scale).  A key table at or below
``pipelines.join.LOCAL_EXCHANGE_BYTES`` skips the shuffle: the same
kernel runs once over the whole table (``bucket_exchange``).

Inside a bucket (all rows of a block land in the same bucket):

- pairs are canonicalized ``left_id < right_id`` (SURVEY §2.8 D3)
- full cross-pairing for normal blocks; blocks beyond
  ``cfg.max_block_size``/``cfg.max_pairs_per_block`` are *window-paired*
  over doc_id-sorted members — each member pairs with its next W
  neighbors.  This keeps the block connected (adjacent pairs chain all
  members ⇒ no transitive-clustering recall loss) while capping the
  quadratic blow-up; dropped-pair counts are emitted per row
  (``dropped_pairs``) — no silent truncation (SURVEY §7.2 hard part 2).
- ``specificity = min(100/|block|, 20)`` — deterministic stand-in for
  the reference's retrieval relevance (``es_score``, quality bonus
  U:813-814; SURVEY §7.2 hard part 3).
- pairs arising from several keys are deduped per bucket keeping max
  specificity; cross-bucket duplicates are impossible for the same key
  and resolved by a second, pair-bucketed dedup pass for different keys
  (not needed on the local path: its one "bucket" is the whole table).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.stages.keys import PAYLOAD_COLS


def _pair_indices(n: int, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Local (left, right) index pairs for a block of n sorted members.

    Capped blocks get window pairs (each member × next W neighbors)
    PLUS star pairs to the block minimum: the star keeps the *accepted*
    subgraph's diameter ~2, so transitive clustering converges in O(1)
    label-propagation rounds instead of O(block size) along a window
    chain (pathological for the distributed fixpoint).
    """
    total = n * (n - 1) // 2
    if n <= cfg.max_block_size and total <= cfg.max_pairs_per_block:
        li, ri = np.triu_indices(n, k=1)
        return li, ri, 0
    w = max(1, min(n - 1, cfg.max_pairs_per_block // n))
    li = np.concatenate([np.arange(n - d) for d in range(1, w + 1)]
                        + [np.zeros(n - 1 - w, dtype=np.int64)])
    ri = np.concatenate([np.arange(d, n) for d in range(1, w + 1)]
                        + [np.arange(w + 1, n)])
    return li, ri, total - len(li)


def pairs_for_groups(starts: np.ndarray, sizes: np.ndarray, cfg: PipelineConfig
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
    """Vectorized (gl, gr, group_start, specificity, dropped) pair-index
    generation for MANY blocks at once.

    Blocks under the caps are cross-paired in bulk, grouped by block
    SIZE — one ``triu_indices`` per DISTINCT size, broadcast over every
    block of that size.  A per-tiny-block Python loop (the previous
    shape) was the measured linkage hot spot at 1M docs: millions of
    2-5-member blocks each paying a Python iteration + several tiny
    numpy allocations.  Oversized blocks (rare) still take the
    windowed+star path individually.
    """
    total = sizes * (sizes - 1) // 2
    normal = (sizes <= cfg.max_block_size) & (total <= cfg.max_pairs_per_block)
    GL, GR, OWN, SP, DP = [], [], [], [], []
    st_n, sz_n = starts[normal], sizes[normal]
    for n in np.unique(sz_n):
        li, ri = np.triu_indices(int(n), k=1)
        s = st_n[sz_n == n]                      # all blocks of this size
        npair = len(li)
        GL.append((s[:, None] + li[None, :]).ravel())
        GR.append((s[:, None] + ri[None, :]).ravel())
        OWN.append(np.repeat(s, npair))
        SP.append(np.full(len(s) * npair, min(100.0 / int(n), 20.0)))
        DP.append(np.zeros(len(s) * npair, dtype="uint64"))
    for s, n in zip(starts[~normal], sizes[~normal]):
        li, ri, dropped = _pair_indices(int(n), cfg)
        GL.append(s + li)
        GR.append(s + ri)
        OWN.append(np.full(len(li), s))
        SP.append(np.full(len(li), min(100.0 / int(n), 20.0)))
        DP.append(np.full(len(li), dropped, dtype="uint64"))
    if not GL:
        z = np.array([], dtype=np.int64)
        return z, z, z, np.array([], dtype=np.float64), np.array([], dtype="uint64")
    return (np.concatenate(GL), np.concatenate(GR), np.concatenate(OWN),
            np.concatenate(SP), np.concatenate(DP))


def make_pairs_bucket_arrow(t: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """One bucket of key rows → canonical candidate pairs, entirely in
    Arrow: C++ sort, boundary masks on numpy views, pair payload built
    with ``pc.take`` gathers — no Python-object string materialization
    (a pandas group conversion built ~1.4M PyUnicode objects per 60k-row
    bucket and dominated the stage)."""
    if t.num_rows == 0:
        return _empty_pairs_arrow()
    t = t.sort_by([("block_key", "ascending"), ("doc_id", "ascending")])
    n = t.num_rows
    bk = t["block_key"].combine_chunks()
    doc = t["doc_id"].to_numpy(zero_copy_only=False)
    if n > 1:
        new_bk = pc.not_equal(bk.slice(1), bk.slice(0, n - 1)) \
                   .to_numpy(zero_copy_only=False)
        dup = (~new_bk) & (doc[1:] == doc[:-1])
        if dup.any():                      # same doc under same key twice
            t = t.filter(pa.array(np.concatenate([[True], ~dup])))
            n = t.num_rows
            bk = t["block_key"].combine_chunks()
            doc = t["doc_id"].to_numpy(zero_copy_only=False)
            new_bk = pc.not_equal(bk.slice(1), bk.slice(0, n - 1)) \
                       .to_numpy(zero_copy_only=False)
    else:
        new_bk = np.array([], dtype=bool)
    starts = np.flatnonzero(np.concatenate([[True], new_bk]))
    ends = np.concatenate([starts[1:], [n]])
    sizes = ends - starts
    multi = sizes >= 2
    if not multi.any():
        return _empty_pairs_arrow()
    gl, gr, own, sp, dp = pairs_for_groups(starts[multi], sizes[multi], cfg)
    if not len(gl):
        return _empty_pairs_arrow()
    # one row per (left_id, right_id) on the narrow index arrays: max
    # specificity, ties to the smallest block_key, i.e. the smallest
    # ``own`` (the block's first row in the block_key-sorted table) —
    # ``_dedup_pairs_bucket_arrow``'s rule — then the payload is
    # gathered for the kept pairs only
    left, right = doc[gl], doc[gr]
    order = np.lexsort((own, -sp, right, left))
    l, r = left[order], right[order]
    keep = order[np.concatenate([[True], (l[1:] != l[:-1]) | (r[1:] != r[:-1])])]
    gl_a, gr_a, own_a = (pa.array(x[keep]) for x in (gl, gr, own))
    # members are doc_id-sorted within a block → left < right already
    cols = {
        "left_id": pa.array(left[keep], pa.uint64()),
        "right_id": pa.array(right[keep], pa.uint64()),
        "block_key": pc.take(bk, own_a),
        "key_kind": pc.take(t["key_kind"], own_a),
        "specificity": pa.array(sp[keep], pa.float64()),
        "dropped_pairs": pa.array(dp[keep], pa.uint64()),
    }
    for c in PAYLOAD_COLS:
        col = t[c]
        cols[f"l_{c}"] = pc.take(col, gl_a)
        cols[f"r_{c}"] = pc.take(col, gr_a)
    return pa.table(cols)


def _dedup_pairs_bucket_arrow(t: pa.Table) -> pa.Table:
    """Cross-key pair dedup within a bucket, keeping max specificity
    (ties → lexicographically first block_key) — Arrow sort + boundary
    mask.  Shuffle #2 (``stages.cluster.dedup_edge_pairs``) runs it on
    full pair rows; ``make_pairs_bucket_arrow`` applies the same rule
    before it gathers the payload."""
    if t.num_rows == 0:
        return t
    t = t.sort_by([("left_id", "ascending"), ("right_id", "ascending"),
                   ("specificity", "descending"), ("block_key", "ascending")])
    l = t["left_id"].to_numpy(zero_copy_only=False)
    r = t["right_id"].to_numpy(zero_copy_only=False)
    keep = np.concatenate([[True], (l[1:] != l[:-1]) | (r[1:] != r[:-1])])
    return t.filter(pa.array(keep)) if not keep.all() else t


def _pairs_schema() -> pa.Schema:
    fields = [("left_id", pa.uint64()), ("right_id", pa.uint64()),
              ("block_key", pa.string()), ("key_kind", pa.string()),
              ("specificity", pa.float64()), ("dropped_pairs", pa.uint64())]
    fields += [(f"l_{c}", pa.string()) for c in PAYLOAD_COLS]
    fields += [(f"r_{c}", pa.string()) for c in PAYLOAD_COLS]
    return pa.schema(fields)


def _empty_pairs_arrow() -> pa.Table:
    """Typed empty table — schema-stable empty blocks (untyped empties
    triggered 'RefBundle with a different schema' executor warnings)."""
    return _pairs_schema().empty_table()


def _key_bucket(t: pa.Table, buckets: int) -> np.ndarray:
    """Bucket of each key row: ``hash(block_key) % buckets``."""
    return (_hash_strings(t["block_key"]) % np.uint64(buckets)).astype("int64")


def _hash_strings(arr) -> np.ndarray:
    """Deterministic uint64 hash of an Arrow string array WITHOUT
    per-element Python-object materialization (polars xxhash runs over
    the Arrow buffers directly).  Used only for partition/bucket
    placement — never for values — so cross-version stability is not
    load-bearing."""
    import polars as pl

    return pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64)


# pass 0 counts a deterministic 1/_HOT_SAMPLE_MOD doc_id sample (a power
# of 2, so the sample is a bit mask)
_HOT_SAMPLE_MOD = 8


def _hot_rule(threshold: int):
    """Pass 0's counting rule: ``(sample, cut)`` — a row filter keeping
    the doc_id sample, and the threshold scaled to it.  A key is hot
    when its sampled row count exceeds ``cut``.

    Salting is a load guard, not an exact count: a hot key's members
    are uniform in doc_id, and at threshold ≥ 1600 the sampled
    estimate's noise (±√(threshold/mod)) cannot flip a materially hot
    key.  Sample keys stay stable across runs/retries, so salting
    decisions stay deterministic."""
    mask = np.uint64(_HOT_SAMPLE_MOD - 1)

    def sample(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((ids & mask) == 0))

    return sample, max(2, threshold // _HOT_SAMPLE_MOD)


def _hot_keys_in(t: pa.Table, threshold: int) -> set:
    """Pass 0 over one in-memory key table (``_hot_rule``'s sample and
    cut): the local pair task's hot set, equal to ``_find_hot_keys``
    over the same rows."""
    sample, cut = _hot_rule(threshold)
    vc = pc.value_counts(sample(t)["block_key"].combine_chunks())
    return set(vc.field("values").filter(
        pc.greater(vc.field("counts"), cut)).to_pylist())


def _find_hot_keys(keys_ds, threshold: int, buckets: int = 64,
                   keys_size_bytes: int | None = None,
                   driver_bytes_threshold: int = 2**32) -> set:
    """Pass 0 as its own step: keys whose row count exceeds
    ``threshold``, counted by ``_hot_rule``.

    Shape matters: a ``groupby(block_key).sum`` would create millions of
    single-row groups (Python-per-group in the aggregate finalize — it
    measured 570 s on 12M keys).  Instead: project to the bare key
    column, per-batch partial counts (combiner), bucket by
    ``hash(key) % B``, ONE vectorized value_counts per bucket.
    """
    sample, threshold = _hot_rule(threshold)
    keys_ds = keys_ds.map_batches(sample, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        # Arrow-native per-batch combiner: value_counts, no
        # pandas/object conversion (the shuffle then moves compact
        # Arrow string buffers, not pickled object arrays)
        vc = pc.value_counts(t["block_key"].combine_chunks())
        return pa.table({"block_key": vc.field("values"),
                         "c": pc.cast(vc.field("counts"), pa.int64())})

    def hot_in_bucket(t: pa.Table) -> pa.Table:
        sums = t.group_by("block_key").aggregate([("c", "sum")])
        return sums.filter(pc.greater(sums["c_sum"], threshold)) \
                   .select(["block_key"])

    partials = keys_ds.select_columns(["block_key"]) \
                      .map_batches(partial, batch_format="pyarrow")

    if keys_size_bytes is not None and \
            keys_size_bytes // _HOT_SAMPLE_MOD <= driver_bytes_threshold:
        # small/medium path: the sampled per-batch partials are a few
        # MB — one driver-side vectorized sum beats a second Ray
        # shuffle's fixed cost (~1.5 s) by ~3×.  The distributed
        # bucketed path below stays the shape for corpus-scale key
        # tables (sampled partials can reach 10^10 rows at 100 TB).
        pdf = partials.to_pandas()
        if not len(pdf):
            return set()
        sums = pdf.groupby("block_key", sort=False)["c"].sum()
        return set(sums.index[sums > threshold])

    from address_address_matching_ray.pipelines.join import bucket_exchange

    hot_pdf = bucket_exchange(
        partials, hot_in_bucket, lambda t: _key_bucket(t, buckets)
    ).to_pandas()
    return set(hot_pdf["block_key"]) if len(hot_pdf) else set()


def _salt(t: pa.Table, hotset: set, salt_n: int) -> pa.Table:
    """Rewrite hot keys to ``key#s{doc_id % salt_n}`` and append the
    ``key#bridge`` rows (see ``pairs_stage``).  Arrow in/out: blocks
    stay compact string buffers through the exchange (pandas object
    blocks pickled to 5× the bytes and dominated it)."""
    if not hotset:
        return t
    is_hot = pc.is_in(
        t["block_key"], value_set=pa.array(sorted(hotset), pa.string()),
    ).to_numpy(zero_copy_only=False)
    if not is_hot.any():
        return t
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    # bridge block: a deterministic ~1/salt sample of the hot key's
    # members keeps cross-salt connectivity
    bridge_mask = is_hot & (((ids // salt_n) % salt_n) == 0)
    bridge = t.filter(pa.array(bridge_mask))
    bridge = bridge.set_column(
        bridge.column_names.index("block_key"), "block_key",
        pc.binary_join_element_wise(
            bridge["block_key"], pa.array(["#bridge"] * bridge.num_rows), ""))
    bk = t["block_key"].to_numpy(zero_copy_only=False).copy()
    salts = (ids % np.uint64(salt_n)).astype("int64")
    hot_idx = np.flatnonzero(is_hot)
    bk[hot_idx] = (bk[hot_idx] + "#s"
                   + salts[hot_idx].astype(str).astype(object))
    t = t.set_column(t.column_names.index("block_key"), "block_key",
                     pa.array(bk, pa.string()))
    return pa.concat_tables([t, bridge])


def pairs_stage(keys_ds, cfg: PipelineConfig | None = None,
                buckets: int = 64, salt_hot: bool = True,
                keys_size_bytes: int | None = None):
    """keys → deduped candidate pairs.

    When ``keys_size_bytes`` is at or below
    ``pipelines.join.LOCAL_EXCHANGE_BYTES``, ONE task holds the whole
    key table: it counts hot keys in place (pass 0, ``_hot_keys_in``),
    salts, pairs and dedups, so every pair is already unique and the
    stage is one Ray execution.  Above the bound (or with the size
    unknown), pass 0 is its own step (``_find_hot_keys``,
    combiner-pre-aggregated), then two exchanges: shuffle #1,
    ``groupby(key_bucket)`` (key = hash(block_key) % B), pairs and
    dedups per bucket; shuffle #2, ``dedup_edge_pairs``
    (``groupby(pair_bucket)``), collapses pairs co-blocked under keys in
    different buckets.  Either way every pair is scored once, and the
    rows are identical: both passes 0 apply one rule (``_hot_rule``),
    and a block never spans buckets.

    Skew: keys hotter than ``8 × cfg.max_block_size`` are SALTED —
    ``key#s{doc_id % salt_buckets}`` spreads one mega-block's ingestion
    across tasks (window capping alone bounds compute but still lands
    the whole block on one reducer).  Cross-salt connectivity for
    genuinely-duplicate content is kept by a ``key#bridge`` block
    holding a deterministic ~1/salt sample of the hot key's members
    (SURVEY §4.2: score cross-salt pairs against a capped sample).

    Above the bound pass 0 and pair generation both read ``keys_ds``,
    so callers hand in a persisted (pinned or checkpointed) key table,
    and its measured size as ``keys_size_bytes`` — ``None`` sends pass
    0 and the pair exchange to their distributed paths.
    """
    import ray

    from address_address_matching_ray.pipelines.join import (
        bucket_exchange, exchange_is_local,
    )

    cfg = cfg or PipelineConfig()
    threshold = 8 * cfg.max_block_size
    salt_n = max(2, cfg.salt_buckets)

    def key_bucket(t: pa.Table) -> np.ndarray:
        return _key_bucket(t, buckets)

    if exchange_is_local(keys_size_bytes):
        # a key's rows, and so its count and its salted sub-blocks, stay
        # in one bucket: the whole table is one bucket here
        def pair_all(t: pa.Table) -> pa.Table:
            hot = (_hot_keys_in(t, threshold) if salt_hot and t.num_rows
                   else set())
            return make_pairs_bucket_arrow(_salt(t, hot, salt_n), cfg)

        return bucket_exchange(keys_ds, pair_all, key_bucket,
                               keys_size_bytes)

    hot = (_find_hot_keys(keys_ds, threshold=threshold, buckets=buckets,
                          keys_size_bytes=keys_size_bytes)
           if salt_hot else set())
    hot_ref = ray.put(hot)

    def salt(t: pa.Table) -> pa.Table:
        return _salt(t, ray.get(hot_ref), salt_n)

    # a block (and so each of its pairs) never spans key buckets
    pairs = bucket_exchange(
        keys_ds.map_batches(salt, batch_format="pyarrow"),
        lambda t: make_pairs_bucket_arrow(t, cfg), key_bucket,
        keys_size_bytes)

    # one row per (left_id, right_id): a pair co-blocked under keys in
    # different key buckets is collapsed here, before scoring
    from address_address_matching_ray.stages.cluster import dedup_edge_pairs

    return dedup_edge_pairs(pairs, buckets=buckets,
                            size_bytes=keys_size_bytes)
