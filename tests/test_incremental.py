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
    df = ds.to_pandas()
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


def test_incremental_forced_shuffle_paths_match(ray_session):
    """broadcast_threshold=0 pushes every small-side gate onto the
    bucketed membership/equi-join fallbacks; output must be identical
    to the broadcast path."""
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
    assert _canon(a.clusters).equals(_canon(b.clusters))


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
