"""Tests for the shared scale-safe joins (pipelines/join.py) and the
Bloom membership sketch (functions/sketch.py).

Every multi-path operator is pinned path-against-path on the same
input: broadcast vs bucketed-shuffle equi-join, and all three
semi-join tiers (broadcast exact / Bloom-prefiltered bucketed /
bucketed exact) — the small-scale contract that lets the thresholds
move freely at 100 TB.
"""

import numpy as np
import pandas as pd
import pytest

from address_address_matching_ray.functions import sketch as sk

SF = "/root/testdata/sf0.001"


# ── Bloom filter unit properties ────────────────────────────────────

def test_bloom_no_false_negatives_and_fpp_bound():
    rng = np.random.default_rng(11)
    keys = rng.choice(2 ** 62, 50_000, replace=False).astype(np.uint64)
    probes = rng.choice(2 ** 62, 50_000, replace=False).astype(np.uint64)
    h, hp = sk.hash_values(keys), sk.hash_values(probes)
    m_words, k = sk.bloom_params(len(keys), fpp=0.01)
    f = sk.bloom_partial(h, m_words, k)
    assert sk.bloom_contains(f, h, k).all()          # never a false neg
    # probes are disjoint from keys w.h.p.; fpp within 3x of target
    fp = sk.bloom_contains(f, hp, k).mean()
    assert fp < 0.03


def test_bloom_merge_is_union_and_associative():
    rng = np.random.default_rng(12)
    a = sk.hash_values(rng.integers(0, 2 ** 62, 10_000).astype(np.uint64))
    b = sk.hash_values(rng.integers(0, 2 ** 62, 10_000).astype(np.uint64))
    c = sk.hash_values(rng.integers(0, 2 ** 62, 10_000).astype(np.uint64))
    m_words, k = sk.bloom_params(30_000, fpp=0.01)
    fa, fb, fc = (sk.bloom_partial(x, m_words, k) for x in (a, b, c))
    left = sk.bloom_merge(sk.bloom_merge(fa, fb), fc)
    right = sk.bloom_merge(fa, sk.bloom_merge(fb, fc))
    assert np.array_equal(left, right)
    whole = sk.bloom_partial(np.concatenate([a, b, c]), m_words, k)
    assert np.array_equal(left, whole)               # OR == union build
    for x in (a, b, c):
        assert sk.bloom_contains(left, x, k).all()


# ── equi_join: broadcast vs shuffle parity, against pandas ─────────

def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return (df[cols].sort_values(cols, kind="mergesort")
            .reset_index(drop=True))


@pytest.mark.parametrize("how", ["inner", "left"])
def test_equi_join_paths_match_pandas(ray_session, how):
    import ray.data as rd

    from address_address_matching_ray.pipelines.join import equi_join

    rng = np.random.default_rng(21)
    left = pd.DataFrame({
        "o_key": rng.integers(0, 400, 2_000).astype("int64"),
        "val": rng.random(2_000).round(6)})
    right = pd.DataFrame({
        "c_key": np.arange(0, 300, dtype="int64"),
        "tag": [f"t{i % 7}" for i in range(300)]})
    expect = left.merge(right, how=how, left_on="o_key", right_on="c_key")
    if how == "left":
        expect["c_key"] = expect["c_key"].astype(np.float64)

    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)
    got_b = equi_join(lds, rds, on="o_key", right_on="c_key", how=how)
    got_s = equi_join(lds, rds, on="o_key", right_on="c_key", how=how,
                      broadcast_threshold=0, buckets=7)
    a, b, e = (_sorted(x) for x in
               (got_b.to_pandas(), got_s.to_pandas(), expect))
    pd.testing.assert_frame_equal(a, e)
    pd.testing.assert_frame_equal(b, e)


# ── semi_join_ids: all three tiers agree with DuckDB ───────────────

def test_semi_join_tiers_agree(ray_session):
    import duckdb

    from address_address_matching_ray.pipelines.relational import (
        orders_with_returns,
    )

    expect = duckdb.sql(f"""
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM read_parquet('{SF}/orders.parquet')
        WHERE o_orderkey IN (SELECT l_orderkey
                             FROM read_parquet('{SF}/lineitem.parquet')
                             WHERE l_returnflag = 'R')
        ORDER BY o_orderkey""").fetchdf()
    assert len(expect) > 0

    tiers = {
        "broadcast": {},
        "bloom": {"broadcast_threshold": 0},
        "bucketed": {"broadcast_threshold": 0, "bloom_max_bytes": 0},
    }
    for name, kw in tiers.items():
        got = orders_with_returns(SF, **kw).to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect), name


def test_semi_join_empty_key_side(ray_session):
    import ray.data as rd

    from address_address_matching_ray.pipelines.join import semi_join_ids

    ds = rd.from_pandas(pd.DataFrame({"id": np.arange(10, dtype="int64"),
                                      "v": np.arange(10) * 1.5}))
    empty = rd.from_pandas(pd.DataFrame({"id": np.array([], dtype="int64")}))
    out = semi_join_ids(ds, empty, id_col="id")
    assert out.count() == 0


def test_broadcast_membership_reads_lazy_key_side_once(ray_session, tmp_path):
    """``semi_join_ids`` and ``filter_out_ids`` on their broadcast tier
    run a lazy key side once: its count and its driver pull read one
    materialized copy."""
    import ray.data as rd

    from address_address_matching_ray.pipelines.join import semi_join_ids
    from address_address_matching_ray.stages.cluster import filter_out_ids

    ds = rd.from_pandas(pd.DataFrame({"id": np.arange(10, dtype="int64"),
                                      "v": np.arange(10) * 1.5}))
    for name, fn, want in (("semi", semi_join_ids, [2, 5, 7]),
                           ("anti", filter_out_ids,
                            [0, 1, 3, 4, 6, 8, 9])):
        log = tmp_path / f"{name}.log"

        def tap(df: pd.DataFrame, log=log) -> pd.DataFrame:
            with open(log, "a") as f:
                f.write("batch\n")
            return df

        ids = rd.from_pandas(pd.DataFrame({"id": np.array([5, 2, 7, 5])})) \
            .map_batches(tap, batch_format="pandas", batch_size=None)
        out = fn(ds, ids, id_col="id").to_pandas()
        assert sorted(out["id"]) == want, name
        assert log.read_text().splitlines() == ["batch"], name
