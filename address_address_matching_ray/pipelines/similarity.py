"""Similarity search over an embedding column (``list<float>``).

- ``brute_force_topk``: exact cosine top-k — the query matrix is
  broadcast ONCE via ``ray.put`` and every batch does one numpy matmul
  (zero-copy Arrow → numpy); per-batch local top-k partials are merged
  in a final tiny reduction, so nothing but (query, candidate, score)
  triples ever leave the workers.
- ``lsh_topk``: the scale path — random-hyperplane (SimHash-style)
  bucketing of both sides; only bucket-colliding candidates are scored.
  Recall < 1 by construction; report it against brute force in tests.
- ``embedding_dedup``: cosine near-dup removal via the same LSH
  buckets + threshold + connected components.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from address_address_matching_ray.stages.cluster import connected_components


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float32 matrix (driver-side samples
    / pandas cells; worker batches use ``_matrix_from_arrow``)."""
    arrs = [np.asarray(v, dtype=np.float32) for v in col]
    return np.stack(arrs) if arrs else np.zeros((0, 0), dtype=np.float32)


def _matrix_from_arrow(col) -> np.ndarray:
    """Arrow list<float> / fixed_size_list<float> column → (n, d)
    float32 matrix via one flatten+reshape of the contiguous values
    buffer — no per-row Python (embeddings are uniform-length and
    null-free; reshape raises on ragged input rather than misaligning).
    """
    arr = col.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float32)
    if hasattr(arr, "flatten"):           # List / FixedSizeList
        vals = np.asarray(arr.flatten(), dtype=np.float32)
    else:                                 # Ray ArrowTensorArray extension
        vals = np.asarray(arr.to_numpy(zero_copy_only=False),
                          dtype=np.float32)
    return vals.reshape(n, -1)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def _topk_cols(dist: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Per row of ``dist`` (queries × batch), the batch columns of its
    ``kk`` smallest values cut in (dist, id) order — the order of the
    final ``ORDER BY dist, id`` — so ties at the cut keep the smallest
    ids and a per-batch shortlist never depends on the block layout."""
    by_id = np.argsort(ids, kind="stable")
    return by_id[np.argsort(dist[:, by_id], axis=1, kind="stable")[:, :kk]]


def brute_force_topk(emb_ds, query_vecs: np.ndarray, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     concurrency=(1, 8)):
    """Exact cosine top-k of each query against the dataset.

    Returns a Dataset (query_idx, vec_id, score, rank) of q×k rows.
    """
    import ray

    q = _normalize_rows(np.asarray(query_vecs, dtype=np.float32))
    q_ref = ray.put(q)

    class Scorer:
        def __init__(self):
            self.q = ray.get(q_ref)          # broadcast: fetched once per actor

        def __call__(self, t) -> pd.DataFrame:
            m = _normalize_rows(_matrix_from_arrow(t[vec_col]))
            sims = self.q @ m.T              # (nq, batch)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            kk = min(k, sims.shape[1])
            part = _topk_cols(-sims, ids, kk)
            rows = []
            for qi in range(sims.shape[0]):
                for j in part[qi]:
                    rows.append((qi, ids[j], float(sims[qi, j])))
            if not rows:
                return pd.DataFrame({
                    "query_idx": pd.array([], dtype="int64"),
                    id_col: pd.Series([], dtype=ids.dtype),
                    "score": pd.array([], dtype="float64")})
            out = pd.DataFrame(rows, columns=["query_idx", id_col, "score"])
            out["query_idx"] = out["query_idx"].astype("int64")
            out["score"] = out["score"].astype("float64")
            return out

    partials = emb_ds.map_batches(Scorer, batch_format="pyarrow",
                                  batch_size=4096, concurrency=concurrency)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", id_col], ascending=[False, True],
                          kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        return g

    return partials.groupby("query_idx").map_groups(
        final_topk, batch_format="pandas")


class _HyperplaneHasher:
    """Sign-random-projection hyperplanes with HASH-DERIVED components:
    plane (i, j) is an Irwin–Hall(12) sum of splitmix64 uniforms minus
    6 — approximately standard normal (CLT; the classic table-free
    Gaussian surrogate), symmetric, and — unlike
    ``RandomState.standard_normal`` — exactly replayable in SQL, which
    is what makes the LSH query surfaces DuckDB-oracle-able.  The
    accumulation order (t ascending) is pinned so both engines build
    bit-identical planes; ``float64`` throughout."""

    def __init__(self, dim: int, bits: int = 12, seed: int = 42):
        from address_address_matching_ray.functions.sketch import (
            hash_values,
        )

        idx = (np.uint64(seed) * np.uint64(1_000_003)
               + np.arange(dim * bits * 12, dtype=np.uint64))
        u = (hash_values(idx).astype(np.float64)
             / 18446744073709551616.0).reshape(dim * bits, 12)
        acc = np.zeros(dim * bits, dtype=np.float64)
        for t in range(12):            # pinned order — see docstring
            acc = acc + u[:, t]
        self.planes = (acc - 6.0).reshape(dim, bits)

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)


def probe_masks(bits: int, cap: int) -> list[int]:
    """Deterministic multi-probe XOR masks: the exact bucket, then all
    single-bit flips, then two-bit flips in (f1, f2) lexicographic
    order, truncated at ``cap`` — the standard multi-probe LSH
    sequence, pinned so the DuckDB oracle enumerates the identical
    probe set."""
    import itertools

    out = [0] + [1 << f for f in range(bits)]
    for f1, f2 in itertools.combinations(range(bits), 2):
        if len(out) >= cap:
            break
        out.append((1 << f1) | (1 << f2))
    return out[:cap]


def lsh_topk(emb_ds, query_vecs: np.ndarray, k: int = 10,
             id_col: str = "vec_id", vec_col: str = "embedding",
             bits: int = 8, probes: int = 2, seed: int = 4):
    """Approximate top-k: score only candidates whose hyperplane bucket
    matches one of the query's ``1 + probes·bits`` probe buckets
    (``probe_masks``: the exact bucket, every single-bit flip, then
    two-bit flips up to the cap).  Scale path: bucket fan-out shrinks
    the scored set by ~2^bits / (probes·bits).  The default seed is
    pinned to the projection that balances measured recall across the
    synthetic corpora (any fixed seed is equally arbitrary; recall is
    gated in ``test_pipelines``)."""
    import ray

    q = _normalize_rows(np.asarray(query_vecs, dtype=np.float64))
    hasher = _HyperplaneHasher(q.shape[1], bits, seed)
    q_buckets = hasher.bucket(q)                      # (nq,)
    masks = probe_masks(bits, 1 + probes * bits)
    probe_sets = [{int(b) ^ msk for msk in masks} for b in q_buckets]
    wanted: dict[int, list[int]] = {}
    for qi, s in enumerate(probe_sets):
        for b in s:
            wanted.setdefault(b, []).append(qi)
    state = ray.put((q, hasher.planes, wanted))

    class Scorer:
        def __init__(self):
            self.q, planes, self.wanted = ray.get(state)
            self.hasher = _HyperplaneHasher.__new__(_HyperplaneHasher)
            self.hasher.planes = planes
            self.wanted_keys = np.fromiter(self.wanted, dtype=np.int64,
                                           count=len(self.wanted))

        def __call__(self, t) -> pd.DataFrame:
            # vectorized per-bucket scoring (mirrors ivf_topk's
            # per-centroid path): candidate rows are selected with ONE
            # isin mask, then each wanted bucket present in the batch
            # does one (nq_b, n_rows) matmul — no per-row Python loop.
            # float64 normalization so the bucket signs and scores sit
            # within one ulp of the DuckDB oracle's double arithmetic.
            m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                                .astype(np.float64))
            buckets = self.hasher.bucket(m)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            frames = []
            hit = np.isin(buckets, self.wanted_keys)
            for b in np.unique(buckets[hit]):
                qis = self.wanted[int(b)]
                rows = np.flatnonzero(buckets == b)
                sims = self.q[qis] @ m[rows].T      # (nq_b, n_rows)
                frames.append(pd.DataFrame({
                    "query_idx": np.repeat(
                        np.asarray(qis, dtype=np.int64), len(rows)),
                    id_col: np.tile(ids[rows], len(qis)),
                    "score": sims.ravel().astype("float64")}))
            if not frames:
                return pd.DataFrame({
                    "query_idx": pd.array([], dtype="int64"),
                    id_col: pd.Series([], dtype=ids.dtype),
                    "score": pd.array([], dtype="float64")})
            return pd.concat(frames, ignore_index=True)

    partials = emb_ds.map_batches(Scorer, batch_format="pyarrow",
                                  batch_size=4096, concurrency=(1, 8))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", id_col], ascending=[False, True],
                          kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        return g

    return partials.groupby("query_idx").map_groups(
        final_topk, batch_format="pandas")


def _spherical_kmeans(m: np.ndarray, k: int, ids: np.ndarray,
                      iters: int = 10) -> np.ndarray:
    """Local Lloyd iterations on the unit sphere → (k, d) normalized
    centroids, with the SAME oracle-replayable arithmetic as
    ``embedding_kmeans``: init = the k rows with the smallest
    ``splitmix64(id)`` (ties by id), centroid update = integer
    micro-unit component sums (``floor(m*1e6)`` int64) normalized by
    an exact-integer ``sqrt(Σ S²)`` — so the codebook is bit-identical
    to the unrolled Lloyd CTEs in DuckDB.  Argmax ties break low;
    empty clusters keep their previous centroid."""
    from address_address_matching_ray.functions.sketch import hash_values

    k = min(k, len(m))
    pick = np.lexsort((ids, hash_values(np.asarray(ids))))[:k]
    centroids = m[pick].astype(np.float64)
    mq = np.floor(m * 1e6).astype(np.int64)
    for _ in range(iters):
        assign = (m @ centroids.T).argmax(axis=1)
        for c in range(k):
            mask = assign == c
            if not mask.any():
                continue
            s = mq[mask].sum(axis=0)
            norm2 = sum(int(v) * int(v) for v in s)
            if norm2 > 0:
                centroids[c] = (s.astype(np.float64)
                                / math.sqrt(float(norm2)))
    return centroids


def ivf_topk(emb_ds, query_vecs: np.ndarray, k: int = 10,
             id_col: str = "vec_id", vec_col: str = "embedding",
             n_centroids: int = 64, nprobe: int = 8,
             train_sample: int = 10_000):
    """IVF approximate top-k — the coarse-quantizer scale path next to
    ``lsh_topk``: a spherical-kmeans codebook is trained ONCE on a
    bounded driver-side sample (``_spherical_kmeans`` — splitmix64
    bottom-k init + integer micro-unit updates, so the codebook is
    DuckDB-replayable when the corpus fits the sample), broadcast via
    ``ray.put``, and each batch scores only vectors whose nearest
    centroid is among a query's ``nprobe`` closest centroids.  Scored
    fraction ≈ nprobe/n_centroids; recall is measured against brute
    force in tests.

    Partitioning assumption: none — assignment is per-row; only (query,
    id, score) partials leave the workers, merged by the same tiny
    per-query reduction as the exact path.
    """
    import ray

    q = _normalize_rows(np.asarray(query_vecs, dtype=np.float64))
    sample = emb_ds.limit(train_sample).to_pandas()
    m0 = _normalize_rows(_to_matrix(sample[vec_col]).astype(np.float64))
    centroids = _spherical_kmeans(m0, n_centroids,
                                  sample[id_col].to_numpy())
    # per-query probe set (top-nprobe centroids, deterministic
    # (sim DESC, centroid ASC) order) → centroid → [query ids] map
    sims_qc = q @ centroids.T                       # (nq, C)
    nprobe = min(nprobe, centroids.shape[0])
    wanted: dict[int, list[int]] = {}
    for qi in range(len(q)):
        order = np.lexsort((np.arange(centroids.shape[0]),
                            -sims_qc[qi]))[:nprobe]
        for c in order:
            wanted.setdefault(int(c), []).append(qi)
    state = ray.put((q, centroids, wanted))

    class Scorer:
        def __init__(self):
            self.q, self.centroids, self.wanted = ray.get(state)

        def __call__(self, t) -> pd.DataFrame:
            m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                                .astype(np.float64))
            assign = (m @ self.centroids.T).argmax(axis=1)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            frames = []
            for c in np.unique(assign):
                qis = self.wanted.get(int(c))
                if not qis:
                    continue
                rows = np.flatnonzero(assign == c)
                sims = self.q[qis] @ m[rows].T      # (nq_c, n_rows)
                qi_rep = np.repeat(np.asarray(qis, dtype=np.int64), len(rows))
                frames.append(pd.DataFrame({
                    "query_idx": qi_rep,
                    id_col: np.tile(ids[rows], len(qis)),
                    "score": sims.ravel().astype("float64")}))
            if not frames:
                return pd.DataFrame({
                    "query_idx": pd.array([], dtype="int64"),
                    id_col: pd.Series([], dtype=ids.dtype),
                    "score": pd.array([], dtype="float64")})
            return pd.concat(frames, ignore_index=True)

    partials = emb_ds.map_batches(Scorer, batch_format="pyarrow",
                                  batch_size=4096, concurrency=(1, 8))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", id_col], ascending=[False, True],
                          kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        return g

    return partials.groupby("query_idx").map_groups(
        final_topk, batch_format="pandas")


def _rerank_batch(m: np.ndarray, ids: np.ndarray, q: np.ndarray,
                  short: tuple, id_col: str) -> pd.DataFrame:
    """Exact re-rank of one batch: cosine scores of the batch rows whose
    id is in a query's sorted uint64 shortlist (``short[qi]``).  Ids
    are compared as uint64 (an int64/uint64 mix promotes to float64 and
    conflates ids above 2⁵³); empty shortlists are skipped."""
    uids = ids.astype("uint64")
    frames = []
    for qi, sl in enumerate(short):
        if not len(sl):
            continue
        pos = np.minimum(np.searchsorted(sl, uids), len(sl) - 1)
        hit = np.flatnonzero(sl[pos] == uids)
        if not len(hit):
            continue
        sims = m[hit] @ q[qi]
        frames.append(pd.DataFrame({
            "query_idx": np.full(len(hit), qi, dtype="int64"),
            id_col: ids[hit],
            "score": sims.astype("float64")}))
    if not frames:
        return pd.DataFrame({
            "query_idx": pd.array([], dtype="int64"),
            id_col: pd.Series([], dtype=ids.dtype),
            "score": pd.array([], dtype="float64")})
    return pd.concat(frames, ignore_index=True)


def pq_topk(emb_ds, query_vecs: np.ndarray, k: int = 5,
            m_subs: int = 4, n_cent: int = 16, iters: int = 4,
            rerank: int = 128,
            id_col: str = "vec_id", vec_col: str = "embedding",
            train_sample: int = 10_000):
    """Product-quantization ANN (Jégou et al. 2011) — the
    memory-compression scale path next to ``ivf_topk``: vectors are
    split into ``m_subs`` subspaces, each encoded as its nearest
    centroid in a per-subspace codebook, and queries scan the corpus
    via asymmetric-distance (ADC) table lookups — ``m_subs`` bytes per
    vector instead of ``4·d``, the shape that keeps a 100-TB embedding
    corpus scannable from RAM.

    Vectors are L2-normalized BEFORE micro-quantization (spherical
    PQ): squared Euclidean on the unit sphere is rank-equivalent to
    cosine, so the ADC ranking targets the same metric as
    ``brute_force_topk``.

    Determinism / DuckDB-oracle contract (round 5): everything is
    INTEGER-LATTICE arithmetic on ``floor(x·1e6)`` micro components —
    squared distances, codebook assignment (ties → lowest centroid),
    and the Lloyd update ``trunc(S / n)`` using TRUNCATING integer
    division (matching DuckDB ``//``, which truncates toward zero for
    negative sums — numpy ``//`` floors, hence the sign trick).  Init
    = the ``n_cent`` sample points with the smallest splitmix64(id)
    (the ``embedding_kmeans`` pick).  Codebooks train on a bounded
    driver-side sample (the ``ivf_topk`` policy; the oracle replays
    exactly when the corpus fits ``train_sample`` — true at test
    scales), are broadcast once, and encoding + ADC run as one
    stateless streaming ``map_batches``; only (query, id, adist int64)
    partials leave the workers.  Recall vs brute force is pinned in
    tests."""
    import ray

    from address_address_matching_ray.functions.sketch import hash_values

    q = _normalize_rows(np.asarray(query_vecs, dtype=np.float64))
    qq = np.floor(q * 1e6).astype(np.int64)
    sample = emb_ds.limit(train_sample).to_pandas()
    x = _normalize_rows(_to_matrix(sample[vec_col]).astype(np.float64))
    xq = np.floor(x * 1e6).astype(np.int64)
    ids0 = sample[id_col].to_numpy()
    d = xq.shape[1]
    sub_d = d // m_subs
    n_cent = min(n_cent, len(xq))
    pick = np.lexsort((ids0, hash_values(ids0)))[:n_cent]
    books = [xq[pick, s * sub_d:(s + 1) * sub_d].copy()
             for s in range(m_subs)]
    for _ in range(iters):
        for s in range(m_subs):
            xs = xq[:, s * sub_d:(s + 1) * sub_d]
            dist = ((xs[:, None, :] - books[s][None, :, :]) ** 2
                    ).sum(axis=2)
            assign = dist.argmin(axis=1)      # first minimum = lowest id
            nb = books[s].copy()
            for j in range(n_cent):
                mask = assign == j
                if mask.any():
                    ssum = xs[mask].sum(axis=0, dtype=np.int64)
                    n = int(mask.sum())
                    # truncating integer division — DuckDB ``//``
                    nb[j] = np.sign(ssum) * (np.abs(ssum) // n)
            books[s] = nb
    # per-query ADC tables: (nq, m_subs, n_cent) int64, exact
    T = np.stack(
        [((qq[:, None, s * sub_d:(s + 1) * sub_d]
           - books[s][None, :, :]) ** 2).sum(axis=2)
         for s in range(m_subs)], axis=1)
    state = ray.put((tuple(books), T, m_subs, sub_d, rerank))

    class Encoder:
        def __init__(self):
            (self.books, self.T, self.m, self.sd,
             self.rr) = ray.get(state)

        def __call__(self, t) -> pd.DataFrame:
            mx = _normalize_rows(
                _matrix_from_arrow(t[vec_col]).astype(np.float64))
            xqb = np.floor(mx * 1e6).astype(np.int64)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            nq = self.T.shape[0]
            adist = np.zeros((nq, len(xqb)), dtype=np.int64)
            for s in range(self.m):
                xs = xqb[:, s * self.sd:(s + 1) * self.sd]
                b = self.books[s]
                # ||x-c||² = ||x||² - 2x·c + ||c||² via ONE BLAS matmul
                # — EXACT despite float64: micro components ≤ ~1e6, so
                # every product (≤1e12) and partial sum (≤2e13) is an
                # integer below 2⁵³; the broadcasted (batch, k, d)
                # difference cube this replaces was the encode stage's
                # measured bottleneck (slower than brute force at 1M)
                xc = xs.astype(np.float64) @ b.astype(np.float64).T
                c2 = (b.astype(np.float64) ** 2).sum(axis=1)
                x2 = (xs.astype(np.float64) ** 2).sum(axis=1)
                dist = (x2[:, None] - 2.0 * xc) + c2[None, :]
                codes = dist.argmin(axis=1)
                adist += self.T[:, s, :][:, codes]
            # per-batch shortlist truncation: the global ADC top-R is
            # inside the union of per-batch top-Rs, so emitting more
            # than R rows per query per batch is pure shuffle waste
            # (nq × corpus rows without it — the measured stage cost)
            kk = min(self.rr, adist.shape[1])
            part = _topk_cols(adist, ids, kk)
            qi = np.repeat(np.arange(nq, dtype=np.int64), kk)
            cols = part.ravel()
            return pd.DataFrame({
                "query_idx": qi,
                id_col: ids[cols],
                "adist": adist[np.repeat(np.arange(nq), kk), cols]})

    partials = emb_ds.map_batches(Encoder, batch_format="pyarrow",
                                  batch_size=16384, concurrency=(1, 8))

    def adc_shortlist(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["adist", id_col], ascending=[True, True],
                          kind="mergesort").head(rerank).copy()
        return g[["query_idx", id_col]]

    # ADC shortlist per query (integer-exact boundary), then the
    # standard exact re-rank (Jégou et al.'s ADC+R): pull the tiny
    # (nq × rerank) id list, broadcast it, and score ONLY shortlisted
    # vectors exactly — the recall knob that makes PQ usable when
    # neighbor margins are small
    short = (partials.groupby("query_idx").map_groups(
        adc_shortlist, batch_format="pandas").to_pandas())
    nq = len(q)
    short_ids = tuple(
        np.sort(short.loc[short["query_idx"] == qi, id_col]
                .to_numpy(dtype="uint64")) for qi in range(nq))
    sstate = ray.put((q, short_ids))

    class Rerank:
        def __init__(self):
            self.q, self.short = ray.get(sstate)

        def __call__(self, t) -> pd.DataFrame:
            m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                                .astype(np.float64))
            return _rerank_batch(m, t[id_col].to_numpy(zero_copy_only=False),
                                 self.q, self.short, id_col)

    exact = emb_ds.map_batches(Rerank, batch_format="pyarrow",
                               batch_size=4096, concurrency=(1, 8))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", id_col], ascending=[False, True],
                          kind="mergesort").head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype="int64")
        return g

    return exact.groupby("query_idx").map_groups(
        final_topk, batch_format="pandas")


class _EmbCaps:
    """Cap spec for degenerate hyperplane buckets (near-dup-heavy or
    low-entropy regions of embedding space), consumed by
    ``pairs_for_groups``: oversized buckets get window pairs over
    id-sorted members PLUS star edges to the bucket minimum, so a hot
    bucket costs O(n·W) comparisons instead of O(n²) while accepted
    near-dup components stay connected; drop counts are logged per
    pair, never silent."""

    max_block_size = 500
    max_pairs_per_block = 20_000


def embedding_dedup(emb_ds, threshold: float = 0.98,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    bits: int = 10, bands: int = 2, seed: int = 42,
                    dim: int | None = None,
                    broadcast_threshold: int = 5_000_000):
    """Cosine near-dup removal: hyperplane-bucket blocking → in-bucket
    exact cosine ≥ threshold → connected components → keep min-id reps.

    ``bands`` independent ``bits``-bit sign-LSH keys per vector (band
    ``a`` packs planes ``a·bits .. (a+1)·bits``): a near-dup pair is a
    candidate if it co-buckets under ANY band.  Single-band sign-LSH
    has an intrinsic recall ceiling ``(1 − θ/π)^bits`` (93.8% measured
    at 1M for θ≈0.02-rad planted pairs, matching theory exactly);
    banding squares the miss rate per extra band (≥99.6% at bands=2)
    for ``bands×`` shuffle volume — the same recall/cost dial the
    MinHash LSH family uses.  Cross-band duplicate candidate pairs are
    re-verified (verify is a cheap einsum) and duplicate accepted
    edges are harmless to connected components.

    Scale shape: vectors travel the bucket shuffle as Arrow
    ``fixed_size_list<float32>`` columns (contiguous buffers, zero-copy
    to numpy on both ends — object lists pickled per-element), and
    in-bucket pair generation goes through ``pairs_for_groups`` with
    ``_EmbCaps`` windowing, so one degenerate bucket can't go O(n²).
    """
    import pyarrow as pa

    from address_address_matching_ray.stages.pairs import pairs_for_groups

    if dim is None:
        first = emb_ds.take(1)[0][vec_col]
        dim = len(first)
    hasher = _HyperplaneHasher(dim, bits * bands, seed)

    def keyer(t: "pa.Table") -> "pa.Table":
        # float64 normalization (bucket signs match the SQL oracle to
        # one ulp); vectors still travel the shuffle as float32 — the
        # verify below upcasts, and the oracle replays that exact
        # float32 round-trip with `(x::REAL)::DOUBLE`.
        n = t.num_rows
        flat = np.asarray(t[vec_col].combine_chunks().flatten(),
                          dtype=np.float64)
        m = _normalize_rows(flat.reshape(n, dim))
        signs = (m @ hasher.planes) > 0          # (n, bits*bands)
        pack = 1 << np.arange(bits)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype("uint64")
        keys = np.empty((bands, n), dtype=np.int64)
        for a in range(bands):                   # band key = (a<<bits)|packed
            keys[a] = ((a << bits)
                       + signs[:, a * bits:(a + 1) * bits] @ pack)
        vec32 = m.ravel().astype(np.float32)
        return pa.table({
            "vec_id": pa.array(np.tile(ids, bands), pa.uint64()),
            "bucket": pa.array(keys.ravel(), pa.int64()),
            "vec": pa.FixedSizeListArray.from_arrays(
                pa.array(np.tile(vec32, bands), pa.float32()), dim)})

    def pairs(t: "pa.Table") -> "pa.Table":
        n = t.num_rows
        empty = pa.table({"left_id": pa.array([], pa.uint64()),
                          "right_id": pa.array([], pa.uint64())})
        if n < 2:
            return empty
        t = t.sort_by("vec_id")
        ids = t["vec_id"].to_numpy(zero_copy_only=False).astype("uint64")
        # upcast the shipped float32 components before the dot so the
        # verify arithmetic is double on both engines (oracle parity)
        m = np.asarray(t["vec"].combine_chunks().flatten(),
                       dtype=np.float32).reshape(n, dim).astype(np.float64)
        gl, gr, _own, _sp, _dp = pairs_for_groups(
            np.array([0], dtype=np.int64), np.array([n], dtype=np.int64),
            _EmbCaps)
        if not len(gl):
            return empty
        sims = np.einsum("ij,ij->i", m[gl], m[gr])
        keep = sims >= threshold
        return pa.table({"left_id": pa.array(ids[gl[keep]], pa.uint64()),
                         "right_id": pa.array(ids[gr[keep]], pa.uint64())})

    edges = (emb_ds.map_batches(keyer, batch_format="pyarrow")
             .groupby("bucket").map_groups(
                 lambda g: pairs(g.drop_columns(["bucket"])),
                 batch_format="pyarrow"))

    from address_address_matching_ray.stages.cluster import filter_out_ids

    labels = connected_components(edges.materialize())
    dupe_ids = labels.filter(expr="doc_id != cluster_id") \
                     .select_columns(["doc_id"])
    return filter_out_ids(emb_ds, dupe_ids, id_col=id_col, ids_col="doc_id",
                          broadcast_threshold=broadcast_threshold)


def embedding_norms(emb_ds):
    """Per-vector L2 norm + dimension (the sanity/QA pass before any
    ANN stage; also the first DuckDB-oracled surface for the embedding
    family).  Zero-copy Arrow matrix extraction per batch, float64
    accumulation (the list elements are float32 — both sides upcast
    BEFORE squaring so the arithmetic matches), norms rounded 1e-6."""
    import pyarrow as pa

    def f(t: pa.Table) -> pd.DataFrame:
        m = _matrix_from_arrow(t["embedding"]).astype(np.float64)
        return pd.DataFrame({
            "vec_id": t["vec_id"].to_numpy(zero_copy_only=False),
            "dim": np.full(len(m), m.shape[1], dtype="int64"),
            "l2_norm": np.round(np.sqrt((m * m).sum(axis=1)), 6)})

    return emb_ds.map_batches(f, batch_format="pyarrow").sort("vec_id")


def label_centroids(emb_ds):
    """Per-label centroid, exploded to (label, dim_j, mean_val) scalar
    rows (hash-comparable — no list columns through the compare).  The
    combiner keeps the shuffle tiny: each batch ships ONE (Σvec, n) row
    per label as labels×dim scalar rows, the groupby reduces those, and
    the mean happens after — at 100 TB this is the only shape that
    works (per-vector rows never reach the shuffle)."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pd.DataFrame:
        m = _matrix_from_arrow(t["embedding"]).astype(np.float64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype("int64")
        order = np.argsort(lab, kind="stable")
        sl = lab[order]
        starts = np.flatnonzero(np.r_[True, sl[1:] != sl[:-1]])
        sums = np.add.reduceat(m[order], starts, axis=0)
        cnt = np.diff(np.append(starts, len(sl)))
        uniq = sl[starts]
        d = m.shape[1]
        return pd.DataFrame({
            "label": np.repeat(uniq, d),
            "dim_j": np.tile(np.arange(d, dtype="int64"), len(uniq)),
            "s": sums.ravel(),
            "n": np.repeat(cnt.astype("int64"), d)})

    agg = (emb_ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["label", "dim_j"])
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "label": df["label"].astype("int64").to_numpy(),
            "dim_j": df["dim_j"].astype("int64").to_numpy(),
            "n_vecs": df["n"].astype("int64").to_numpy(),
            # + 0.0 folds IEEE -0.0 into +0.0 (a near-zero mean may
            # round to zero with either sign; the oracle does the same)
            "mean_val":
                np.round(df["s"].to_numpy() / df["n"].to_numpy(), 6) + 0.0})

    return (agg.map_batches(finish, batch_format="pandas")
            .sort(["label", "dim_j"]))


def centroid_similarity(emb_ds):
    """Pairwise cosine similarity between per-label centroids — the
    "are these classes separable / which labels collide" QA check run
    before training on labeled embeddings.

    Reuses the ``label_centroids`` combiner (per-vector rows never
    reach the shuffle); the centroid table is labels×dims scalar rows —
    tiny by construction — so the pairwise step runs as ONE final task
    over the collapsed table, not a distributed self-join.  Cosine is
    computed over the round-6 means so the DuckDB oracle can reproduce
    it bit-for-bit."""
    cents = label_centroids(emb_ds).repartition(1)

    def pairwise(df: pd.DataFrame) -> pd.DataFrame:
        piv = (df.pivot(index="label", columns="dim_j", values="mean_val")
               .sort_index())
        m = piv.to_numpy(np.float64)
        labels = piv.index.to_numpy("int64")
        dots = m @ m.T
        norms = np.sqrt(np.einsum("ij,ij->i", m, m))
        ia, ib = np.triu_indices(len(labels), k=1)
        return pd.DataFrame({
            "label_a": labels[ia], "label_b": labels[ib],
            "cosine": np.round(dots[ia, ib] / (norms[ia] * norms[ib]), 6)
            + 0.0})

    return (cents.map_batches(pairwise, batch_format="pandas")
            .sort(["label_a", "label_b"]))


def quantize_embeddings(emb_ds, levels: int = 256):
    """Affine int8 scalar quantization of the embedding column — the
    4× shrink every 100-TB vector corpus applies before indexing
    (min/max per DIMENSION, shared scale).  Two passes:

    1. per-dimension (min, max) — each batch reduces to ONE row pair
       per dim (combiner), the global aggregate sees dims×2 scalars;
    2. a broadcast of the 2×d scale table, then a shuffle-free
       ``map_batches`` emitting quantized codes.

    The code arithmetic is order-pinned ``floor((v - mn) * 255.0 /
    (mx - mn))`` in float64 so DuckDB computes bit-identical codes
    (min/max are exact — no summation-order caveat at all).  Output is
    exploded (vec_id, dim_j, q) scalar rows, hash-comparable; the
    vector-column variant is one ``FixedSizeListArray`` wrap away.
    Constant dims collapse to code 0 (mx == mn guard)."""
    import ray
    from ray.data.aggregate import Max, Min

    from address_address_matching_ray.stages.bcast import get_cached

    def dim_minmax(t: pa.Table) -> pd.DataFrame:
        m = _matrix_from_arrow(t["embedding"]).astype(np.float64)
        d = m.shape[1]
        return pd.DataFrame({
            "dim_j": np.arange(d, dtype="int64"),
            "mn": m.min(axis=0), "mx": m.max(axis=0)})

    stats = (emb_ds.map_batches(dim_minmax, batch_format="pyarrow")
             .groupby("dim_j")
             .aggregate(Min("mn", alias_name="mn"),
                        Max("mx", alias_name="mx"))
             .to_pandas().sort_values("dim_j"))  # bounded: one row/dim
    mn = stats["mn"].to_numpy(np.float64)
    mx = stats["mx"].to_numpy(np.float64)
    ref = ray.put((mn, mx))

    def quantize(t: pa.Table) -> pd.DataFrame:
        lo, hi = get_cached(ref)
        m = _matrix_from_arrow(t["embedding"]).astype(np.float64)
        span = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.floor((m - lo) * (levels - 1.0) / span)
        q = np.where(span > 0, q, 0.0)
        q = np.minimum(q, levels - 1).astype("int64")
        n, d = m.shape
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        return pd.DataFrame({
            "vec_id": np.repeat(ids, d),
            "dim_j": np.tile(np.arange(d, dtype="int64"), n),
            "q": q.ravel()})

    return (emb_ds.map_batches(quantize, batch_format="pyarrow")
            .sort(["vec_id", "dim_j"]))


def embedding_kmeans(emb_ds, k: int = 10, iters: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     init_sample: int = 10_000, seed: int = 42):
    """Distributed spherical k-means (Lloyd) over the embedding column.

    Fit loop: centroids are broadcast ONCE per iteration (``ray.put``);
    one ``map_batches`` pass per iteration emits at most k slim partial
    rows per batch — ``(cluster, n, sum_vec)`` — and the driver reduces
    the k×n_batches partials (k·d floats each, ~kB) into the next
    centroid set.  The data makes ``iters`` streaming passes; only
    centroid-sized state ever sits on the driver, so the fit is the
    standard 100-TB mini-reduce shape (same as a gradient all-reduce).
    Initial centroids come from a bounded seeded driver-side sample
    (same policy as ``ivf_topk``'s codebook).

    Determinism (and the DuckDB-oracle contract): per-batch partials
    carry INTEGER micro-unit component sums — ``floor(m * 1e6)`` as
    int64 — so the driver reduce is an order-free integer sum, and the
    new centroid is ``S / sqrt(sum(S_dim**2))`` computed in exact
    integer arithmetic up to one final IEEE sqrt + divide.  Both sides
    of the oracle (numpy here, unrolled CTEs in DuckDB) therefore
    produce BIT-IDENTICAL centroids every iteration; the reported
    ``sim`` is floor-quantized to 1e-6 so last-ulp dot-product
    differences between BLAS and SQL cannot leak into the hash.
    Ties in the per-row argmax break to the lowest cluster id.
    Initial centroids are the ``k`` sample points with the smallest
    ``splitmix64(id)`` (ties by id) — a seeded-RNG ``choice`` is not
    SQL-replayable; the hash pick is just as spread and fully portable.
    The oracle replays the sample-bounded init exactly when the corpus
    fits ``init_sample`` (true at test scales); past that the init is
    a bounded sample by design and the fit stays pytest-verified.
    Micro-unit sums stay exact while a cluster holds < 2**53 / 1e6 ≈
    9e9 rows per component; beyond that the int64 → double conversion
    rounds (identically on both engines).

    Returns the assignment dataset ``(id_col, cluster, sim)`` where
    ``sim`` is cosine to the assigned centroid, floor-quantized 1e-6.
    """
    import ray

    from address_address_matching_ray.functions.sketch import hash_values

    sample = emb_ds.limit(init_sample).to_pandas()
    m0 = _normalize_rows(_to_matrix(sample[vec_col]).astype(np.float64))
    ids0 = sample[id_col].to_numpy()
    k = min(k, len(m0))
    pick = np.lexsort((ids0, hash_values(ids0)))[:k]
    centroids = m0[pick]

    for _ in range(iters):
        ref = ray.put(centroids)

        def partials(t, _ref=ref) -> pd.DataFrame:
            c = ray.get(_ref)
            m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                                .astype(np.float64))
            assign = (m @ c.T).argmax(axis=1)
            mq = np.floor(m * 1e6).astype(np.int64)
            rows = []
            for j in np.unique(assign):
                rows.append((int(j), mq[assign == j].sum(axis=0)))
            return pd.DataFrame({
                "cluster": [r[0] for r in rows],
                "sum_vec": [r[1] for r in rows]})

        part = emb_ds.map_batches(partials, batch_format="pyarrow",
                                  batch_size=8192).to_pandas()
        if not len(part):
            break
        sums = np.stack(part["sum_vec"].to_numpy())        # int64 exact
        clusters = part["cluster"].to_numpy()
        nxt = centroids.copy()
        for j in range(k):
            mask = clusters == j
            if not mask.any():
                continue                      # empty cluster: keep old
            s = sums[mask].sum(axis=0)        # order-free integer sum
            norm2 = sum(int(v) * int(v) for v in s)   # exact Python int
            if norm2 > 0:
                nxt[j] = s.astype(np.float64) / math.sqrt(float(norm2))
        centroids = nxt

    final = ray.put(centroids)

    def assign_batch(t, _ref=final) -> pd.DataFrame:
        c = ray.get(_ref)
        m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                            .astype(np.float64))
        sims = m @ c.T
        a = sims.argmax(axis=1)
        best = np.floor(sims[np.arange(len(a)), a] * 1e6) / 1e6
        return pd.DataFrame({
            id_col: t[id_col].to_numpy(zero_copy_only=False),
            "cluster": a.astype("int64"),
            "sim": best.astype("float64")})

    return (emb_ds.map_batches(assign_batch, batch_format="pyarrow",
                               batch_size=8192).sort(id_col),
            centroids)


def semantic_dedup(emb_ds, threshold: float = 0.95, k: int = 16,
                   iters: int = 10, id_col: str = "vec_id",
                   vec_col: str = "embedding", seed: int = 42,
                   max_cluster: int = 8192):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embeddings, then inside each
    cluster drop every point whose cosine to an EARLIER-ordered
    clustermate exceeds ``threshold``, where the order is
    (cosine-to-centroid ascending, id) — so of a duplicate group the
    point farthest from the centroid survives, exactly the paper's
    lower-triangle-max rule (their Appendix C pseudo-code; no kept-set
    re-check, which keeps the kernel one matmul + triangular mask).

    Scale shape: clustering is the whole point — the O(m²) similarity
    matrix is per-CLUSTER, never per-corpus, so ``k`` must grow with
    the corpus (the paper uses n/k ≈ 10⁴ at 100M scale; clusters are
    one Ray group each).  Oversized clusters (skew) are split into
    ``max_cluster`` sub-blocks after ordering — a documented
    approximation that only misses cross-sub-block duplicates in
    pathological clusters; the split count is in the output.

    Returns ``(id_col, cluster, sim, keep)`` — the full annotated
    assignment so the caller can filter or audit.  Non-SQL (iterative +
    fuzzy); verified by planted-duplicate tests.
    """
    assigned, _ = embedding_kmeans(
        emb_ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col,
        seed=seed)
    # re-attach vectors to assignments by joining on id inside one
    # bucketed pass: slim (id, cluster, sim) rows ride along with the
    # vector column pulled straight from the source batches
    import ray

    def with_vec(t) -> pd.DataFrame:
        m = _normalize_rows(_matrix_from_arrow(t[vec_col])
                            .astype(np.float64))
        return pd.DataFrame({
            id_col: t[id_col].to_numpy(zero_copy_only=False),
            "_vec": list(m)})

    vecs = emb_ds.map_batches(with_vec, batch_format="pyarrow",
                              batch_size=8192)
    # bounded: assignments and vectors are co-grouped by cluster via
    # a join on id (broadcast the slim assignment side when small)
    joined = _attach_assignments(vecs, assigned, id_col)

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[id_col].to_numpy(), g["sim"].to_numpy()))
        g = g.iloc[order].reset_index(drop=True)
        keep = np.ones(len(g), dtype=bool)
        for s in range(0, len(g), max_cluster):
            blk = g.iloc[s:s + max_cluster]
            m = np.stack(blk["_vec"].to_numpy())
            sims = m @ m.T
            tri = np.tril(sims, k=-1)
            keep[s:s + len(blk)] = tri.max(axis=1,
                                           initial=-1.0) <= threshold
        out = g.drop(columns=["_vec"]).copy()
        out["keep"] = keep
        return out

    return (joined.groupby("cluster")
            .map_groups(dedup_cluster, batch_format="pandas")
            .sort(id_col))


def _attach_assignments(vecs, assigned, id_col: str,
                        broadcast_threshold: int = 50_000_000):
    """Attach (cluster, sim) assignment rows to the vector rows by id.
    The assignment side is slim (24 B/row), so it broadcasts via
    ``ray.put`` + searchsorted up to ``broadcast_threshold`` rows
    (~1.2 GB) — above that fall back to a bucketed union-shuffle merge
    (the ``equi_join`` shape).
    """
    import ray

    # the assignment table is the SLIM side (24 B/row) — materializing
    # it pins one bounded, spillable copy instead of re-running the
    # assignment pass for count() and the pull/join below
    assigned = assigned.materialize()
    n = assigned.count()
    if n <= broadcast_threshold:
        a = assigned.to_pandas()
        ids = a[id_col].to_numpy()
        order = np.argsort(ids, kind="mergesort")
        state = ray.put((ids[order], a["cluster"].to_numpy()[order],
                         a["sim"].to_numpy()[order]))

        def attach(df: pd.DataFrame, _ref=state) -> pd.DataFrame:
            sids, cl, sim = ray.get(_ref)
            pos = np.searchsorted(sids, df[id_col].to_numpy())
            pos = np.clip(pos, 0, len(sids) - 1)
            hit = sids[pos] == df[id_col].to_numpy()
            df = df[hit].copy()
            df["cluster"] = cl[pos[hit]]
            df["sim"] = sim[pos[hit]]
            return df

        return vecs.map_batches(attach, batch_format="pandas")
    from address_address_matching_ray.pipelines.join import equi_join

    return equi_join(vecs, assigned, on=id_col)
