"""Blocking kernels: URL canonicalization, MinHash/LSH, SimHash, pairs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.functions.minhash import (
    MinHasher, SimHasher, hamming_distance, lsh_band_keys, shingles,
    simhash_band_keys,
)
from address_address_matching_ray.stages.keys import canonical_url
from address_address_matching_ray.stages.pairs import (
    _dedup_pairs_bucket_arrow, _hot_keys_in, _pair_indices, _salt,
    make_pairs_bucket_arrow,
)
from address_address_matching_ray.stages.keys import PAYLOAD_COLS


def test_canonical_url():
    variants = [
        "https://www.example.com/a/b?utm_source=x&utm_campaign=y",
        "http://example.com/a/b/",
        "https://example.com/a/b?ref=7",
        "https://example.com/a/b#frag",
        "HTTPS://example.com/a/b",
    ]
    canon = {canonical_url(u) for u in variants}
    assert canon == {"example.com/a/b"}
    # non-tracking params survive, sorted
    assert canonical_url("http://e.com/x?b=2&a=1") == "e.com/x?a=1&b=2"
    assert canonical_url("") == ""


def test_minhash_deterministic_and_similar():
    mh = MinHasher(64, seed=42)
    mh2 = MinHasher(64, seed=42)
    a = shingles("the quick brown fox jumps over the lazy dog".split(), 3)
    b = shingles("the quick brown fox jumps over a lazy dog".split(), 3)
    c = shingles("completely different text about something else entirely ok".split(), 3)
    sa = mh.batch_signatures([a, b, c])
    sa2 = mh2.batch_signatures([a, b, c])
    assert (sa == sa2).all()                       # deterministic
    sim_ab = (sa[0] == sa[1]).mean()
    sim_ac = (sa[0] == sa[2]).mean()
    assert sim_ab > 0.3 > sim_ac                   # near-dup >> unrelated
    # near-dups co-block in at least one band: J≈0.5 at r=64/32=2 rows
    # per band ⇒ P(miss) = (1−J²)^32 ≈ 1e-4
    ka = lsh_band_keys(sa, 32)
    assert set(ka[0]) & set(ka[1])
    assert not set(ka[0]) & set(ka[2])
    # empty docs don't crash and don't co-block with content
    se = mh.batch_signatures([[], a])
    assert not set(lsh_band_keys(se, 32)[0]) & set(ka[0])


def test_simhash():
    sh = SimHasher()
    toks_a = "the quick brown fox jumps over the lazy dog".split()
    toks_b = "the quick brown fox jumps over a lazy dog".split()
    toks_c = "totally unrelated content words here banana".split()
    sigs = sh.batch_signatures([toks_a, toks_b, toks_c])
    d_ab = hamming_distance(sigs[:1], sigs[1:2])[0]
    d_ac = hamming_distance(sigs[:1], sigs[2:3])[0]
    assert d_ab < d_ac
    assert sh.signature(np.array([], dtype=np.uint64)) == 0
    keys = simhash_band_keys(sigs, 4)
    assert len(keys[0]) == 4


def _key_rows(block_key, ids):
    n = len(ids)
    d = {"doc_id": pd.array(ids, dtype="uint64"),
         "block_key": [block_key] * n, "key_kind": ["exact"] * n}
    for c in PAYLOAD_COLS:
        d[c] = [f"{c}{i}" for i in ids]
    return pd.DataFrame(d)


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False)


def test_make_pairs_full_and_window():
    cfg = PipelineConfig()
    df = _key_rows("k1", [5, 1, 3, 3])          # dup doc within block
    out = make_pairs_bucket_arrow(_arrow(df), cfg).to_pandas()
    assert len(out) == 3                         # C(3,2)
    assert (out.left_id < out.right_id).all()
    assert (out.dropped_pairs == 0).all()
    assert out.specificity.iloc[0] == 20.0       # min(100/3, 20)
    # payload travels with the pair
    assert out.iloc[0]["l_norm_addr"].startswith("norm_addr")

    # hot block → window pairing, connected, logged drops
    cfg2 = PipelineConfig(max_block_size=10, max_pairs_per_block=100)
    big = _key_rows("hot", list(range(50)))
    out2 = make_pairs_bucket_arrow(_arrow(big), cfg2).to_pandas()
    total = 50 * 49 // 2
    assert len(out2) < total
    assert out2.dropped_pairs.iloc[0] == total - len(out2)
    # adjacency chain present → block stays connected
    adj = set(zip(out2.left_id, out2.right_id))
    assert all((i, i + 1) in adj for i in range(49))


def test_pair_dedup_keeps_max_specificity():
    cfg = PipelineConfig()
    small = _key_rows("rare", [1, 2])            # block of 2 → spec 50→20 cap
    big = _key_rows("common", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    out = make_pairs_bucket_arrow(_arrow(pd.concat([big, small])),
                                   cfg).to_pandas()
    row = out[(out.left_id == 1) & (out.right_id == 2)]
    assert len(row) == 1
    assert row.specificity.iloc[0] == 20.0       # min(100/2,20) beats 100/10
    assert row.block_key.iloc[0] == "rare"


def _full_gather(t: pa.Table, cfg) -> pa.Table:
    """Every generated pair with its payload, not yet deduped: each
    block is paired on its own."""
    return pa.concat_tables([make_pairs_bucket_arrow(
        t.filter(pa.compute.equal(t["block_key"], k)), cfg)
        for k in sorted(set(t["block_key"].to_pylist()))])


def test_pair_task_dedups_like_full_gather():
    """The pair task dedups on narrow id arrays and gathers the payload
    of the kept pairs only; its table equals gathering every generated
    pair first and deduping the full rows, on the salting corpus (salt
    sub-blocks, bridge, capped blocks, cross-key repeats)."""
    cfg = PipelineConfig(max_block_size=4, max_pairs_per_block=40,
                         salt_buckets=3)
    rows = pd.concat([_key_rows("mega", list(range(120))),
                      _key_rows("a", [1, 2, 3, 200, 201]),
                      _key_rows("b", [2, 3, 200, 202])], ignore_index=True)
    t = _arrow(rows)
    t = _salt(t, _hot_keys_in(t, 8 * cfg.max_block_size), cfg.salt_buckets)
    got = make_pairs_bucket_arrow(t, cfg)
    full = _full_gather(t, cfg)
    assert got.num_rows < full.num_rows           # cross-key repeats
    assert got.equals(_dedup_pairs_bucket_arrow(full))
    assert {"mega#bridge", "a", "b"} <= set(got["block_key"].to_pylist())


def test_pair_task_equal_specificity_keeps_smaller_block_key():
    """A pair co-blocked under two keys of equal specificity keeps the
    lexicographically smaller block_key, whichever order the rows
    arrive in."""
    cfg = PipelineConfig()
    rows = pd.concat([_key_rows("zeta", [7, 9]), _key_rows("alpha", [7, 9]),
                      _key_rows("mid", [7, 9])], ignore_index=True)
    got = make_pairs_bucket_arrow(_arrow(rows), cfg)
    assert got.num_rows == 1
    assert got["block_key"].to_pylist() == ["alpha"]
    full = _full_gather(_arrow(rows), cfg)
    assert full.num_rows == 3
    assert got.equals(_dedup_pairs_bucket_arrow(full))


def test_pair_indices_window_bounds():
    cfg = PipelineConfig(max_block_size=10, max_pairs_per_block=40)
    li, ri, dropped = _pair_indices(20, cfg)
    assert len(li) <= 40 + 20
    assert dropped == 20 * 19 // 2 - len(li)
    assert (li < ri).all()


def test_hot_key_salting(ray_session):
    """A mega-block is split into salt sub-blocks + a bridge block; the
    union of emitted pairs still connects the whole block."""
    import ray.data as rd
    from address_address_matching_ray.stages.pairs import pairs_stage

    cfg = PipelineConfig(max_block_size=4, max_pairs_per_block=40,
                         salt_buckets=3)
    rows = _key_rows("mega", list(range(120)))
    out = pairs_stage(rd.from_pandas(rows), cfg, buckets=4,
                      salt_hot=True).to_pandas()
    # salted sub-blocks + bridge present
    assert set(out.block_key) >= {"mega#s0", "mega#s1", "mega#s2", "mega#bridge"}
    # connectivity: union-find over the emitted pairs joins all 120 ids
    parent = {i: i for i in range(120)}
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for l, r in zip(out.left_id, out.right_id):
        a, b = find(int(l)), find(int(r))
        if a != b:
            parent[max(a, b)] = min(a, b)
    assert len({find(i) for i in range(120)}) == 1

    # salting off → single block, window+star capped
    out2 = pairs_stage(rd.from_pandas(rows), cfg, buckets=4,
                       salt_hot=False).to_pandas()
    assert set(out2.block_key) == {"mega"}


def _exchange_keys():
    """A hot key above ``8 × max_block_size`` (salted, bridged, capped)
    plus overlapping normal keys, so pairs repeat across keys."""
    import ray.data as rd

    rows = pd.concat([_key_rows("mega", list(range(120))),
                      _key_rows("a", [1, 2, 3, 200, 201]),
                      _key_rows("b", [2, 3, 200, 202]),
                      _key_rows("c", [200, 201, 202, 203])],
                     ignore_index=True)
    return rd.from_pandas(rows).repartition(5).materialize()


def _pairs_via(monkeypatch, bound, keys, cfg):
    from address_address_matching_ray.pipelines import join
    from address_address_matching_ray.stages import cluster
    from address_address_matching_ray.stages.pairs import pairs_stage

    calls = []
    real = cluster.dedup_edge_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cluster, "dedup_edge_pairs", counting)
    monkeypatch.setattr(join, "LOCAL_EXCHANGE_BYTES", bound)
    out = pairs_stage(keys, cfg, buckets=4, salt_hot=True,
                      keys_size_bytes=keys.size_bytes()).to_pandas()
    return (out.sort_values(["left_id", "right_id"]).reset_index(drop=True),
            len(calls))


def test_local_and_bucketed_pairs_match(ray_session, monkeypatch):
    """Pair generation as one local task equals the two bucketed
    exchanges row for row, on every column; only the bucketed path runs
    the pair-dedup exchange."""
    cfg = PipelineConfig(max_block_size=4, max_pairs_per_block=40,
                         salt_buckets=3)
    keys = _exchange_keys()
    local, local_dedups = _pairs_via(monkeypatch, 1 << 62, keys, cfg)
    bucketed, bucketed_dedups = _pairs_via(monkeypatch, 0, keys, cfg)
    assert (local_dedups, bucketed_dedups) == (0, 1)
    assert {"mega#s0", "mega#bridge", "a", "b"} <= set(local.block_key)
    assert (local.dropped_pairs > 0).any()
    assert not local.duplicated(["left_id", "right_id"]).any()
    pd.testing.assert_frame_equal(local, bucketed)


def test_hot_key_pass_paths_match(ray_session):
    """Pass 0's driver-side sum, its bucketed exchange and the local
    pair task's in-place count (``_hot_keys_in``) find the same hot
    keys, on both sides of the sampled cut."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from address_address_matching_ray.stages.pairs import (
        _find_hot_keys, _hot_keys_in,
    )

    # the test_hot_key_salting corpus: 15 of its 120 docs fall in the
    # 1/8 doc_id sample, so the cut (threshold // 8) flips between
    # 112 and 120
    salting = rd.from_pandas(_key_rows("mega", list(range(120)))) \
        .repartition(3).materialize()
    cases = [(_exchange_keys(), 40, {"mega"}), (salting, 32, {"mega"}),
             (salting, 112, {"mega"}), (salting, 120, set())]
    for keys, threshold, want in cases:
        driver = _find_hot_keys(keys, threshold=threshold, buckets=4,
                                keys_size_bytes=keys.size_bytes())
        bucketed = _find_hot_keys(keys, threshold=threshold, buckets=4)
        in_task = _hot_keys_in(
            pa.concat_tables(ray.get(keys.to_arrow_refs())), threshold)
        assert driver == bucketed == in_task == want, threshold
