"""Incremental linkage: absorbing a new batch into prior clusters must
be label-identical to a full batch re-run over the union (the module's
min-label contraction argument, exercised end-to-end)."""

import pandas as pd

from address_address_matching_ray.pipelines.incremental import (
    incremental_linkage,
)
from address_address_matching_ray.pipelines.linkage import run_linkage
from address_address_matching_ray.sources.synth import synth_pages


def _canon(ds) -> pd.DataFrame:
    # an empty Dataset reads back with no columns
    df = ds.to_pandas().reindex(columns=["doc_id", "cluster_id"])
    df = df.astype({"doc_id": "uint64", "cluster_id": "uint64"})
    return df.sort_values("doc_id").reset_index(drop=True)


def _parity(ds, want: int):
    import pyarrow as pa

    def f(t: pa.Table, want=want) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((ids % 2) == want))

    return ds.map_batches(f, batch_format="pyarrow")


def _split(n: int, seed: int):
    """Evens = prior corpus, odds = new batch: every multi-member
    synthetic cluster spans both sides, so the delta merges prior
    clusters AND absorbs fresh members in one pass."""
    prior = _parity(synth_pages(n, seed=seed), 0)
    new = _parity(synth_pages(n, seed=seed), 1)
    return prior, new


def test_incremental_matches_full_rerun(ray_session):
    n, seed = 1600, 11
    prior_pages, new_pages = _split(n, seed)

    full = run_linkage(synth_pages(n, seed=seed), buckets=8,
                       num_partitions=4)
    prior = run_linkage(prior_pages, buckets=8, num_partitions=4)

    inc = incremental_linkage(new_pages, prior.clusters,
                              prior_extracted_ds=prior.extracted,
                              buckets=8, num_partitions=4)
    got = _canon(inc.clusters)
    want = _canon(full.clusters)
    assert got.equals(want)
    # each delta pair is scored once
    delta = inc.delta_edges.to_pandas()
    assert len(delta)
    assert not delta.duplicated(["left_id", "right_id"]).any()
    # the new-docs view covers exactly the odd ids
    new_df = _canon(inc.new_clusters)
    assert (new_df["doc_id"].to_numpy() % 2 == 1).all()
    assert len(new_df) == n // 2


def test_keys_checkpoint_feeds_incremental(ray_session, tmp_path):
    """``run_linkage``'s ``keys`` checkpoint is the prior key table that
    ``incremental_linkage`` takes as ``prior_keys_ds``."""
    import os

    import ray.data as rd

    n, seed = 400, 23
    prior_pages, new_pages = _split(n, seed)
    root = str(tmp_path / "ckpt")
    prior = run_linkage(prior_pages, checkpoint_root=root, input_fp="prior",
                        buckets=8, num_partitions=4)
    inc = incremental_linkage(
        new_pages, prior.clusters,
        prior_keys_ds=rd.read_parquet(os.path.join(root, "keys")),
        buckets=8, num_partitions=4)
    full = run_linkage(synth_pages(n, seed=seed), buckets=8,
                       num_partitions=4)
    assert _canon(inc.clusters).equals(_canon(full.clusters))


def _edge_rows(res) -> list:
    df = res.delta_edges.to_pandas()
    return sorted(zip(df.left_id.astype("uint64"), df.right_id.astype("uint64"),
                      df.accepted.astype(bool)))


def _assert_paths_match(a, b):
    for view in ("clusters", "new_clusters", "merged_labels"):
        assert _canon(getattr(a, view)).equals(_canon(getattr(b, view))), view
    assert _edge_rows(a) == _edge_rows(b)


def test_incremental_forced_shuffle_paths_match(ray_session):
    """broadcast_threshold=0 pushes every small-side gate onto the
    bucketed membership/equi-join fallbacks; every output must be
    identical to the driver-array path below the gate."""
    n, seed = 400, 23
    prior_pages, new_pages = _split(n, seed)
    prior = run_linkage(prior_pages, buckets=8, num_partitions=4)

    a = incremental_linkage(new_pages, prior.clusters,
                            prior_extracted_ds=prior.extracted,
                            buckets=8, num_partitions=4)
    b = incremental_linkage(new_pages, prior.clusters,
                            prior_extracted_ds=prior.extracted,
                            buckets=8, num_partitions=4,
                            broadcast_threshold=0)
    _assert_paths_match(a, b)
    assert _canon(a.merged_labels).shape[0]
    assert any(acc for _, _, acc in _edge_rows(a))


def test_incremental_no_accepted_edge(ray_session):
    """A delta whose pairs are all rejected: every new doc becomes its
    own cluster, prior labels are untouched and the relabel map is
    empty — on both the driver-array and the bucketed path."""
    n, seed = 400, 23
    prior_pages, new_pages = _split(n, seed)
    prior = run_linkage(prior_pages, buckets=8, num_partitions=4)
    prior_clusters = prior.clusters.materialize()

    def reject_all(pairs):
        return pairs.map_batches(lambda df: pd.DataFrame({
            "left_id": df["left_id"].astype("uint64"),
            "right_id": df["right_id"].astype("uint64"),
            "accepted": False}), batch_format="pandas")

    runs = [incremental_linkage(new_pages, prior_clusters,
                                prior_extracted_ds=prior.extracted,
                                score_fn=reject_all, buckets=8,
                                num_partitions=4, broadcast_threshold=t)
            for t in (50_000_000, 0)]
    for res in runs:
        assert res.delta_edges.count() > 0
        new_df = _canon(res.new_clusters)
        assert len(new_df) == n // 2
        assert (new_df.cluster_id == new_df.doc_id).all()
        assert res.merged_labels.count() == 0
        want = pd.concat([_canon(prior_clusters), new_df])
        assert _canon(res.clusters).equals(
            want.sort_values("doc_id").reset_index(drop=True))
    _assert_paths_match(*runs)


def test_incremental_empty_delta(ray_session):
    n, seed = 300, 7
    pages = synth_pages(n, seed=seed)
    prior = run_linkage(pages, buckets=8, num_partitions=4)
    empty_new = synth_pages(n, seed=seed).filter(expr=f"doc_id >= {n}")
    inc = incremental_linkage(empty_new, prior.clusters,
                              prior_extracted_ds=prior.extracted,
                              buckets=8, num_partitions=4)
    assert _canon(inc.clusters).equals(_canon(prior.clusters))
    assert inc.new_clusters.count() == 0


def test_incremental_chained_absorbs_match_full(ray_session):
    """Steady-state ingest: absorbing two successive deltas (ids ≡ 1,
    then ids ≡ 2 mod 3) must land on the same labels as one full run
    over everything — the absorb is closed under composition, not just
    a one-shot shortcut."""
    import pyarrow as pa

    n, seed = 1500, 31

    def third(ds, want: int):
        def f(t: pa.Table, want=want) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 3) == want))

        return ds.map_batches(f, batch_format="pyarrow")

    def mod_le(ds, hi: int):
        def f(t: pa.Table, hi=hi) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 3) <= hi))

        return ds.map_batches(f, batch_format="pyarrow")

    pages = lambda: synth_pages(n, seed=seed)  # noqa: E731
    prior = run_linkage(third(pages(), 0), buckets=8, num_partitions=4)

    step1 = incremental_linkage(third(pages(), 1), prior.clusters,
                                prior_extracted_ds=prior.extracted,
                                buckets=8, num_partitions=4)
    # second absorb: prior state is step1's output; keys re-derived
    # from the union-so-far extracted stream (ids % 3 <= 1)
    from address_address_matching_ray.stages.extract import extract_stage

    step2 = incremental_linkage(
        third(pages(), 2), step1.clusters.materialize(),
        prior_extracted_ds=extract_stage(mod_le(pages(), 1)),
        buckets=8, num_partitions=4)

    full = run_linkage(pages(), buckets=8, num_partitions=4)
    assert _canon(step2.clusters).equals(_canon(full.clusters))
