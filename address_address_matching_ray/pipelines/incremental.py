"""Incremental entity resolution: absorb a NEW batch of pages into an
already-clustered corpus without re-linking old×old pairs.

The 100-TB shape this implements: a crawl ingests a daily delta that is
orders of magnitude smaller than the resolved corpus.  Re-running the
flagship linkage over (corpus ∪ delta) re-scores every old×old pair —
work whose outcome is already encoded in the prior cluster labels.
Instead:

1. derive blocking keys for the NEW batch only (delta-sized);
2. stream ONCE over the prior corpus keys, keeping only rows whose
   ``block_key`` collides with a new key (broadcast hash-set filter —
   a semi-join against the delta, so the shuffle that follows is
   delta-sized, not corpus-sized);
3. run the standard bucketed pair generation over the union and keep
   only pairs touching ≥1 new doc (old×old pairs inside mixed blocks
   are generated then masked — bounded by the block caps — while
   all-old blocks were already dropped in step 2);
4. score the delta pairs with the production tier scorer;
5. CONTRACT old endpoints to their prior cluster label and run
   connected components over the contracted delta graph (delta-sized);
6. publish: relabel prior clusters through the (old label → merged
   label) map — one streaming pass, no shuffle — and attach the new
   docs (merged label, or singleton = own doc_id).

Below the broadcast gate (``n_new_docs <= broadcast_threshold``, and at
most ``stages.cluster.DRIVER_CC_EDGES`` scored edges) steps 5-6 run on
driver arrays: the accepted pairs are pulled once, the old endpoints'
prior labels come from one streaming pass over the prior cluster table,
pulled once, the contracted graph goes through the shared CC kernel
(``stages.cluster._cc_arrays``), and the new docs' labels are built
from their pulled ids — two Ray executions between scoring and the
publish.  Above the gate the bucketed joins below run instead.

Exactness: cluster labels are min-member doc_ids in both the batch and
incremental paths (``stages.cluster.connected_components``), and an old
node's contracted id is its prior label = min of its members — so the
merged component's min equals the batch run's min and **incremental
output is label-identical to a full re-run over (corpus ∪ delta)**
whenever pair generation sees the same co-blocked pairs (i.e. block
caps/salting don't truncate differently; ``tests/test_incremental.py``
asserts equality on corpora below the caps).

Scale notes: the delta artifacts (new keys, filtered prior keys, delta
edges, label maps) are all O(delta); the only corpus-sized passes are
the one streaming key filter (step 2) and the final relabel map over
the prior cluster table (step 6) — both shuffle-free map_batches with a
broadcast small side, gated by row-count thresholds that fall back to
the bucketed ``membership_join`` / ``equi_join`` shuffle paths above
the broadcast budget.  Callers at corpus scale should pass
``prior_keys_ds`` from a checkpoint instead of re-deriving keys from
pages (the reference re-queries its search index per batch — SURVEY
§2.4 J1; here the "index" is the persisted key table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from address_address_matching_ray.config import PipelineConfig


@dataclass
class IncrementalResult:
    clusters: object        # updated corpus-wide (doc_id, cluster_id)
    new_clusters: object    # assignments for the new docs only
    delta_edges: object     # accepted edges touching >=1 new doc
    merged_labels: object   # (old cluster_id -> merged cluster_id) map


def _key_hashes(keys_ds) -> np.ndarray:
    """Distinct uint64 hashes of ``block_key`` (delta-sized pull)."""
    from address_address_matching_ray.stages.pairs import _hash_strings

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        uniq = pc.unique(t["block_key"].combine_chunks())
        return pa.table({"h": pa.array(_hash_strings(uniq), pa.uint64())})

    parts = keys_ds.select_columns(["block_key"]) \
                   .map_batches(partial, batch_format="pyarrow").to_pandas()
    return np.unique(parts["h"].to_numpy(dtype="uint64"))


def _in_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if len(sorted_arr) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_arr, vals), len(sorted_arr) - 1)
    return sorted_arr[pos] == vals


def incremental_linkage(new_pages_ds, prior_clusters_ds, *,
                        prior_pages_ds=None, prior_extracted_ds=None,
                        prior_keys_ds=None, new_universe=None,
                        new_keys_ds=None, score_fn=None,
                        cfg: PipelineConfig | None = None,
                        buckets: int = 32, num_partitions: int = 8,
                        broadcast_threshold: int = 50_000_000) -> IncrementalResult:
    """New pages + prior (doc_id, cluster_id) table → updated clusters.

    Exactly one of ``prior_keys_ds`` / ``prior_extracted_ds`` /
    ``prior_pages_ds`` supplies the prior corpus's blocking keys
    (preferred in that order: a checkpointed key table avoids the
    corpus re-extract).  ``new_universe``: optional cheap Dataset with
    one ``doc_id`` row per new page (defaults to a column projection of
    ``new_pages_ds``).  ``broadcast_threshold`` gates every small-side
    driver pull; above it the bucketed shuffle paths run instead.
    """
    import ray
    import ray.data as rd

    from address_address_matching_ray.pipelines.join import (
        equi_join, membership_join, pull_ids, semi_join_ids,
    )
    from address_address_matching_ray.stages.cluster import (
        DRIVER_CC_EDGES, attach_singletons, connected_components,
    )
    from address_address_matching_ray.stages.extract import extract_stage
    from address_address_matching_ray.stages.keys import keys_stage
    from address_address_matching_ray.stages.pairs import (
        _hash_strings, pairs_stage,
    )
    from address_address_matching_ray.stages.score import score_stage

    cfg = cfg or PipelineConfig()
    if new_keys_ds is not None and new_universe is None:
        # fail at the call site: new_pages_ds may not carry doc_id when
        # the keyer is overridden, and the late select_columns error is
        # far from the misuse
        raise ValueError("new_keys_ds requires new_universe")

    # ── delta keys (materialized: consumed by the hash-set pull AND the
    # union shuffle; delta-sized by definition).  ``new_keys_ds``
    # overrides the extract→keys derivation (the oracle-twin seam —
    # callers supplying it must also pass ``new_universe``) ──
    new_keys = (new_keys_ds if new_keys_ds is not None
                else keys_stage(extract_stage(new_pages_ds), cfg)
                ).materialize()

    if prior_keys_ds is None:
        src = prior_extracted_ds
        if src is None:
            if prior_pages_ds is None:
                raise ValueError("need prior_keys_ds, prior_extracted_ds "
                                 "or prior_pages_ds")
            src = extract_stage(prior_pages_ds)
        prior_keys_ds = keys_stage(src, cfg)

    # ── step 2: corpus keys → delta-colliding keys, ONE streaming pass.
    # Membership is tested on the xxhash of the key (8 B/key broadcast);
    # a hash collision only lets a uselessly-old block through to pair
    # generation, where the new-side mask drops its pairs — exactness
    # is never hash-dependent. ──
    n_new_keys = new_keys.count()
    if n_new_keys == 0:
        # empty delta: prior clustering is already the answer
        empty = rd.from_pandas(pd.DataFrame({
            "doc_id": pd.array([], dtype="uint64"),
            "cluster_id": pd.array([], dtype="uint64")}))
        return IncrementalResult(clusters=prior_clusters_ds,
                                 new_clusters=empty,
                                 delta_edges=None, merged_labels=empty)

    if n_new_keys <= broadcast_threshold:
        hset = _key_hashes(new_keys)
        href = ray.put(hset)

        def keep_colliding(t: pa.Table) -> pa.Table:
            hs = ray.get(href)
            h = _hash_strings(t["block_key"]).astype("uint64")
            return t.filter(pa.array(_in_sorted(hs, h)))

        prior_delta_keys = prior_keys_ds.map_batches(
            keep_colliding, batch_format="pyarrow")
    else:
        # corpus-scale delta: bucketed semi-join on the key hash
        def add_kh(t: pa.Table) -> pa.Table:
            return t.append_column(
                "_kh", pa.array(_hash_strings(t["block_key"]), pa.uint64()))

        probe = prior_keys_ds.map_batches(add_kh, batch_format="pyarrow")
        idset = new_keys.map_batches(add_kh, batch_format="pyarrow") \
                        .select_columns(["_kh"])
        prior_delta_keys = membership_join(
            probe, idset, id_col="_kh", keep=True,
            buckets=max(num_partitions, 16)).drop_columns(["_kh"])

    # delta-sized by construction: pin it so the pair stage's hot-key
    # pass doesn't re-stream the corpus key filter
    union_keys = new_keys.union(prior_delta_keys).materialize()

    # ── steps 3-4: standard bucketed pair generation + tier scoring,
    # masked to pairs touching >=1 new doc ──
    pairs = pairs_stage(union_keys, cfg, buckets=buckets,
                        keys_size_bytes=union_keys.size_bytes())

    new_universe = (new_universe or new_pages_ds.select_columns(["doc_id"]))
    n_new_docs = new_universe.count()
    small = n_new_docs <= broadcast_threshold
    if small:
        new_ids = np.sort(
            pull_ids(new_universe, ["doc_id"])["doc_id"].to_numpy())
        nref = ray.put(new_ids)

        def keep_new_side(t: pa.Table) -> pa.Table:
            ids = ray.get(nref)
            l = t["left_id"].to_numpy(zero_copy_only=False)
            r = t["right_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(_in_sorted(ids, l) | _in_sorted(ids, r)))

        pairs = pairs.map_batches(keep_new_side, batch_format="pyarrow")
    else:
        semi_l = membership_join(pairs, new_universe, id_col="left_id",
                                 ids_col="doc_id", keep=True,
                                 buckets=max(num_partitions, 16))
        anti_l = membership_join(pairs, new_universe, id_col="left_id",
                                 ids_col="doc_id", keep=False,
                                 buckets=max(num_partitions, 16))
        semi_r = membership_join(anti_l, new_universe, id_col="right_id",
                                 ids_col="doc_id", keep=True,
                                 buckets=max(num_partitions, 16))
        pairs = semi_l.union(semi_r)

    pairs = pairs.repartition(target_num_rows_per_block=cfg.score_block_rows)
    # ``score_fn``: pairs → edges with an ``accepted`` column — the
    # other oracle-twin seam (default: the production tiered scorer)
    delta_edges = (score_fn(pairs) if score_fn is not None
                   else score_stage(pairs, cfg)).materialize()
    slim = delta_edges.filter(expr="accepted == True") \
                      .select_columns(["left_id", "right_id"])

    if small and delta_edges.count() <= DRIVER_CC_EDGES:
        # ── steps 5-6 on driver arrays: the accepted pairs, the old
        # endpoints' prior labels and the new ids are delta-sized ──
        edges = pull_ids(slim, ["left_id", "right_id"])
        new_cid, rl_old, rl_new = _absorb_arrays(
            edges["left_id"].to_numpy(), edges["right_id"].to_numpy(),
            new_ids, prior_clusters_ds)
        new_clusters = rd.from_pandas(pd.DataFrame({
            "doc_id": new_ids, "cluster_id": new_cid}))
        return _publish(prior_clusters_ds, new_clusters, delta_edges,
                        rl_old, rl_new)

    # ── above the gate, steps 5-6 run through bucketed joins.  Step 5:
    # contract old endpoints to their prior cluster label ──
    slim = slim.materialize()
    if slim.count() == 0:
        new_clusters = attach_singletons(new_universe, _empty_labels(),
                                         num_partitions=num_partitions)
        return IncrementalResult(
            clusters=prior_clusters_ds.union(new_clusters),
            new_clusters=new_clusters, delta_edges=delta_edges,
            merged_labels=_empty_labels())

    def endpoints(t: pa.Table) -> pa.Table:
        both = np.unique(np.concatenate([
            t["left_id"].to_numpy(zero_copy_only=False),
            t["right_id"].to_numpy(zero_copy_only=False)]))
        return pa.table({"doc_id": pa.array(both, pa.uint64())})

    old_ep = membership_join(
        slim.map_batches(endpoints, batch_format="pyarrow"),
        new_universe, id_col="doc_id", keep=False,
        buckets=max(num_partitions, 16))

    # prior labels for old endpoints: semi-filter the corpus cluster
    # table (streaming pass against the delta-sized endpoint set), then
    # a delta-sized pull → broadcast map
    old_labels = semi_join_ids(
        prior_clusters_ds, old_ep, id_col="doc_id",
        broadcast_threshold=broadcast_threshold,
        buckets=max(num_partitions, 16)).materialize()
    n_old = old_labels.count()
    if n_old <= broadcast_threshold:
        lbl = old_labels.to_pandas()
        lbl_doc = lbl["doc_id"].to_numpy(dtype="uint64")
        order = np.argsort(lbl_doc, kind="mergesort")
        lref = ray.put((lbl_doc[order],
                        lbl["cluster_id"].to_numpy(dtype="uint64")[order]))

        def contract(t: pa.Table) -> pa.Table:
            lo, hi = _contract(t["left_id"].to_numpy(zero_copy_only=False),
                               t["right_id"].to_numpy(zero_copy_only=False),
                               *ray.get(lref))
            return pa.table({"left_id": pa.array(lo, pa.uint64()),
                             "right_id": pa.array(hi, pa.uint64())})

        contracted = slim.map_batches(contract, batch_format="pyarrow")
    else:
        # corpus-scale delta: two bucketed left joins (disjoint column
        # names per equi_join's contract).  Left-join null-padding
        # widens the label columns to float64; ids are exact in float64
        # up to 2^53 — min-member cluster ids stay in doc_id space, so
        # this holds wherever doc_ids do.
        def _lbl(nm: str):
            return old_labels.map_batches(
                lambda t, nm=nm: pa.table({"doc_id": t["doc_id"],
                                           nm: t["cluster_id"]}),
                batch_format="pyarrow")

        j = equi_join(slim, _lbl("_lcid"), on="left_id", right_on="doc_id",
                      how="left", buckets=max(num_partitions, 16))
        j = equi_join(j.drop_columns(["doc_id"]), _lbl("_rcid"),
                      on="right_id", right_on="doc_id", how="left",
                      buckets=max(num_partitions, 16))

        def finish(df: pd.DataFrame) -> pd.DataFrame:
            l = df["_lcid"].fillna(df["left_id"]).to_numpy(dtype="uint64")
            r = df["_rcid"].fillna(df["right_id"]).to_numpy(dtype="uint64")
            lo, hi = np.minimum(l, r), np.maximum(l, r)
            keep = lo != hi
            return pd.DataFrame({"left_id": lo[keep], "right_id": hi[keep]})

        contracted = j.map_batches(finish, batch_format="pandas")

    labels = connected_components(contracted, num_partitions=num_partitions)

    # ── step 6: split delta labels into new-doc assignments vs the
    # (old label → merged label) relabel map; publish ──
    labels = labels.materialize()
    new_lab = membership_join(labels, new_universe, id_col="doc_id",
                              keep=True, buckets=max(num_partitions, 16))
    relabel = membership_join(labels, new_universe, id_col="doc_id",
                              keep=False,
                              buckets=max(num_partitions, 16)).to_pandas()
    rl_old = relabel["doc_id"].to_numpy(dtype="uint64")
    order = np.argsort(rl_old, kind="mergesort")
    new_clusters = attach_singletons(new_universe, new_lab,
                                     num_partitions=num_partitions)
    return _publish(prior_clusters_ds, new_clusters, delta_edges,
                    rl_old[order],
                    relabel["cluster_id"].to_numpy(dtype="uint64")[order])


def _contract(left: np.ndarray, right: np.ndarray, docs: np.ndarray,
              cids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges with each endpoint found in the sorted ``docs`` replaced
    by its prior cluster label ``cids``, as canonical ``(lo, hi)``
    pairs; edges that fall inside one prior cluster drop out."""
    def remap(v: np.ndarray) -> np.ndarray:
        v = v.astype("uint64")
        out = v.copy()
        if len(docs):
            pos = np.minimum(np.searchsorted(docs, v), len(docs) - 1)
            hit = docs[pos] == v
            out[hit] = cids[pos[hit]]
        return out

    l, r = remap(left), remap(right)
    lo, hi = np.minimum(l, r), np.maximum(l, r)
    keep = lo != hi
    return lo[keep], hi[keep]


def _absorb_arrays(left: np.ndarray, right: np.ndarray, new_ids: np.ndarray,
                   prior_clusters_ds):
    """Steps 5-6 on driver arrays, for accepted delta edges
    ``(left, right)`` and the sorted new doc ids: contract old
    endpoints to their prior labels, run the CC kernel on the
    contracted graph and split its labels.  Returns ``(new_cid, rl_old,
    rl_new)``: each new doc's cluster id (its own id when it joined no
    component) and the sorted (old label → merged label) map.  The one
    Ray execution is a streaming pass over ``prior_clusters_ds`` that
    keeps the old endpoints' rows, pulled once."""
    import ray

    from address_address_matching_ray.pipelines.join import pull_ids
    from address_address_matching_ray.stages.cluster import _cc_arrays

    ends = np.unique(np.concatenate([left, right]).astype("uint64"))
    old_ep = ends[~_in_sorted(new_ids, ends)]
    docs = cids = np.array([], dtype="uint64")
    if len(old_ep):
        oref = ray.put(old_ep)

        def keep_old(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(_in_sorted(ray.get(oref), ids)))

        lbl = pull_ids(prior_clusters_ds.map_batches(
            keep_old, batch_format="pyarrow"), ["doc_id", "cluster_id"])
        docs = lbl["doc_id"].to_numpy()
        order = np.argsort(docs, kind="mergesort")
        docs, cids = docs[order], lbl["cluster_id"].to_numpy()[order]
    nodes, roots = _cc_arrays(*_contract(left, right, docs, cids))
    is_new = _in_sorted(new_ids, nodes)
    new_cid = new_ids.copy()
    hit = _in_sorted(nodes, new_ids)
    new_cid[hit] = roots[np.searchsorted(nodes, new_ids[hit])]
    return new_cid, nodes[~is_new], roots[~is_new]


def _publish(prior_clusters_ds, new_clusters, delta_edges,
             rl_old: np.ndarray, rl_new: np.ndarray) -> IncrementalResult:
    """Step 6's publish: relabel the prior cluster table through the
    sorted (old label → merged label) map in one streaming pass (no
    shuffle) and append the new docs' assignments."""
    import ray
    import ray.data as rd

    rref = ray.put((rl_old, rl_new))

    def relabel_prior(t: pa.Table) -> pd.DataFrame:
        # pandas out to match attach_singletons' block format — a mixed
        # Arrow/pandas union logs per-block schema warnings downstream
        olds, news = ray.get(rref)
        cid = t["cluster_id"].to_numpy(zero_copy_only=False).astype("uint64")
        out = cid.copy()
        if len(olds):
            pos = np.minimum(np.searchsorted(olds, cid), len(olds) - 1)
            hit = olds[pos] == cid
            out[hit] = news[pos[hit]]
        return pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)
                                 .astype("uint64"),
            "cluster_id": out})

    updated_prior = prior_clusters_ds.map_batches(
        relabel_prior, batch_format="pyarrow")
    merged = rd.from_pandas(pd.DataFrame({
        "doc_id": rl_old, "cluster_id": rl_new})) if len(rl_old) \
        else _empty_labels()
    return IncrementalResult(clusters=updated_prior.union(new_clusters),
                             new_clusters=new_clusters,
                             delta_edges=delta_edges, merged_labels=merged)


def _empty_labels():
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame({
        "doc_id": pd.array([], dtype="uint64"),
        "cluster_id": pd.array([], dtype="uint64")}))
