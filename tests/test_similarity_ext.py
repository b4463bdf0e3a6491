"""Distributed spherical k-means and SemDeDup-style semantic dedup —
planted-Gaussian-blob recovery, duplicate-removal and determinism
gates (iterative ops; no SQL oracle by nature)."""

import numpy as np
import pandas as pd
import ray


def _blobs(n_per: int = 60, k: int = 4, d: int = 64, seed: int = 7,
           spread: float = 0.05):
    """k well-separated unit-norm centers with tight Gaussian clouds."""
    rng = np.random.RandomState(seed)
    centers = rng.randn(k, d)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows, labels = [], []
    for j in range(k):
        pts = centers[j] + spread * rng.randn(n_per, d)
        rows.append(pts)
        labels += [j] * n_per
    m = np.vstack(rows)
    ids = np.arange(len(m), dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids,
                       "embedding": [r.astype(np.float32) for r in m],
                       "label": np.array(labels, dtype=np.int64)})
    return df


def test_embedding_kmeans_recovers_planted_blobs(ray_session):
    from address_address_matching_ray.pipelines.similarity import (
        embedding_kmeans,
    )

    df = _blobs()
    ds = ray.data.from_pandas(df).repartition(6)
    out, centroids = embedding_kmeans(ds, k=4, iters=8)
    got = out.to_pandas().merge(df[["vec_id", "label"]], on="vec_id")
    assert len(got) == len(df)
    # purity: every planted blob maps to one recovered cluster
    purity = (got.groupby("cluster")["label"]
              .agg(lambda s: s.value_counts().iloc[0]).sum()) / len(got)
    assert purity >= 0.95
    assert centroids.shape == (4, 64)
    # cosine to own centroid is high for a tight blob
    assert got["sim"].median() > 0.9


def test_embedding_kmeans_deterministic(ray_session):
    from address_address_matching_ray.pipelines.similarity import (
        embedding_kmeans,
    )

    df = _blobs(seed=11)
    a, _ = embedding_kmeans(ray.data.from_pandas(df).repartition(4),
                            k=4, iters=5)
    b, _ = embedding_kmeans(ray.data.from_pandas(df).repartition(4),
                            k=4, iters=5)
    pd.testing.assert_frame_equal(a.to_pandas(), b.to_pandas())


def test_semantic_dedup_drops_planted_near_dups(ray_session):
    from address_address_matching_ray.pipelines.similarity import (
        semantic_dedup,
    )

    rng = np.random.RandomState(3)
    df = _blobs(n_per=40, k=3, seed=5)
    base = df.copy()
    # plant near-duplicates of the first 15 vectors (tiny perturbation
    # -> cosine > 0.999), with fresh ids
    dup_src = df.iloc[:15]
    dup_vecs = [
        (np.asarray(v, dtype=np.float64)
         + 1e-4 * rng.randn(64)).astype(np.float32)
        for v in dup_src["embedding"]]
    dups = pd.DataFrame({
        "vec_id": np.arange(10_000, 10_015, dtype=np.int64),
        "embedding": dup_vecs,
        "label": dup_src["label"].to_numpy()})
    full = pd.concat([base, dups], ignore_index=True)
    ds = ray.data.from_pandas(full[["vec_id", "embedding"]]).repartition(5)
    out = semantic_dedup(ds, threshold=0.995, k=3, iters=8).to_pandas()
    assert len(out) == len(full)
    # each planted (original, dup) pair keeps exactly one member
    for orig, dup in zip(dup_src["vec_id"], dups["vec_id"]):
        kept = out.set_index("vec_id").loc[[orig, dup], "keep"]
        assert kept.sum() == 1, (orig, dup, kept.tolist())
    # vectors without a planted twin survive (blob spread is far below
    # the 0.995 threshold for distinct points with overwhelming prob.)
    untouched = out[~out["vec_id"].isin(
        np.concatenate([dup_src["vec_id"].to_numpy(),
                        dups["vec_id"].to_numpy()]))]
    assert untouched["keep"].mean() > 0.99


def test_semantic_dedup_deterministic(ray_session):
    from address_address_matching_ray.pipelines.similarity import (
        semantic_dedup,
    )

    df = _blobs(n_per=30, k=3, seed=9)
    ds1 = ray.data.from_pandas(df[["vec_id", "embedding"]]).repartition(4)
    ds2 = ray.data.from_pandas(df[["vec_id", "embedding"]]).repartition(4)
    a = semantic_dedup(ds1, threshold=0.99, k=3, iters=5).to_pandas()
    b = semantic_dedup(ds2, threshold=0.99, k=3, iters=5).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_pq_topk_recall_and_self(ray_session):
    """PQ+rerank sanity: every query's own vector is rank 1 (exact
    re-rank guarantees it once the self code lands in the shortlist),
    and recall@5 vs brute force stays useful on the structureless
    synthetic corpus (measured 0.6-0.8 at rerank=128 — random gaussian
    data is PQ's worst case; the rerank knob is the recall lever)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from address_address_matching_ray.pipelines.similarity import (
        brute_force_topk,
        pq_topk,
    )

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet").slice(0, 3)
    qv = np.stack([np.asarray(v, dtype="float32")
                   for v in t["embedding"].to_pylist()])

    def emb():
        return rd.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    out = pq_topk(emb(), qv, k=5).to_pandas()
    bf = brute_force_topk(emb(), qv, k=5).to_pandas()
    recs = []
    for qi in range(3):
        got = out[out.query_idx == qi].sort_values("rank")
        assert got.iloc[0]["vec_id"] == qi          # self at rank 1
        recs.append(len(set(got["vec_id"])
                        & set(bf[bf.query_idx == qi]["vec_id"])) / 5)
    assert sum(recs) / len(recs) >= 0.5, recs


def test_pq_rerank_batch_skips_empty_and_compares_uint64():
    """The exact re-rank kernel: a query whose shortlist is empty or
    misses the batch contributes no rows (an empty shortlist used to
    raise IndexError), and ids above 2⁵³ match exactly (an int64 vs
    uint64 compare used to promote both to float64)."""
    from address_address_matching_ray.pipelines.similarity import (
        _rerank_batch,
    )

    big = 2**53
    ids = np.array([big, big + 1, 7], dtype=np.int64)
    m = np.eye(3)
    q = np.eye(3)
    short = (np.array([], dtype="uint64"),             # empty shortlist
             np.array([big + 1], dtype="uint64"),      # one exact hit
             np.array([3, 4], dtype="uint64"))         # misses the batch
    out = _rerank_batch(m, ids, q, short, "vec_id")
    assert out["query_idx"].tolist() == [1]
    assert out["vec_id"].tolist() == [big + 1]
    assert out["vec_id"].dtype == np.int64
    assert out["score"].tolist() == [1.0]

    none = _rerank_batch(m, ids, q, short[:1], "vec_id")
    assert len(none) == 0 and none["vec_id"].dtype == np.int64


def test_topk_cut_ties_match_oracle_under_any_layout():
    """Per-batch shortlists cut in (dist, id) order: with distances tied
    across the cut, the union of per-batch top-R lists, re-cut, equals
    a pandas ``ORDER BY dist, id`` over all rows, for two batch
    layouts."""
    from address_address_matching_ray.pipelines.similarity import _topk_cols

    rng = np.random.default_rng(3)
    n, nq, r = 64, 3, 5
    ids = rng.permutation(np.arange(1000, 1000 + n)).astype("uint64")
    dist = rng.integers(0, 3, size=(nq, n))          # heavy ties
    oracle = (pd.DataFrame({"q": np.repeat(np.arange(nq), n),
                            "id": np.tile(ids, nq),
                            "d": dist.ravel()})
              .sort_values(["q", "d", "id"]).groupby("q").head(r)
              .reset_index(drop=True))
    for batch in (7, 16):
        parts = []
        for s in range(0, n, batch):
            d, i = dist[:, s:s + batch], ids[s:s + batch]
            cols = _topk_cols(d, i, min(r, len(i)))
            parts.append(pd.DataFrame({
                "q": np.repeat(np.arange(nq), cols.shape[1]),
                "id": i[cols.ravel()],
                "d": np.take_along_axis(d, cols, axis=1).ravel()}))
        got = (pd.concat(parts).sort_values(["q", "d", "id"])
               .groupby("q").head(r).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, oracle)
