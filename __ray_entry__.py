"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship record-linkage pipeline on synthetic
Common-Crawl-style pages (deterministic, seeded — the BASELINE.json
``input_hint`` shape) sized from sf0.001.  ``queries()`` exposes one
callable per implemented operator family from SURVEY.md §2;
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible one (fuzzy scoring / clustering / sketch-based ops get
rows-only checks; the pytest suite carries their correctness gates).

Ray is initialised by the driver BEFORE this module is imported — no
``ray.init``/``ray.shutdown`` anywhere in the library.

NOTE: Ray worker processes must be able to import
``address_address_matching_ray`` — run with the repo root as cwd (the
driver does) or on PYTHONPATH; the driver-side sys.path is not
propagated to workers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_SEED = 42


def _n_pages_for(sf_dir: str) -> int:
    """Deterministic synthetic-pages row count derived from the sf dir
    (documents table size × 4, clamped)."""
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return max(800, min(4 * n_docs, 200_000))


def _pages(sf_dir: str):
    from address_address_matching_ray.sources.synth import synth_pages

    return synth_pages(_n_pages_for(sf_dir), seed=_SEED)


def entry() -> Any:
    """Flagship pipeline at sf0.001 scale: pages → extract → block →
    score → cluster; returns the clusters Dataset."""
    from address_address_matching_ray.pipelines.linkage import run_linkage

    sf_dir = "/root/testdata/sf0.001"
    res = run_linkage(_pages(sf_dir), buckets=16, num_partitions=4)
    return res.clusters


# ──────────────────────────────────────────────────────────────
# queries
# ──────────────────────────────────────────────────────────────

def _docs(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read

    return read(sf_dir, "documents")


def _emb(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read

    return read(sf_dir, "embeddings")


def _q_linkage_clusters(sf_dir: str):
    from address_address_matching_ray.pipelines.linkage import run_linkage

    return run_linkage(_pages(sf_dir), buckets=16, num_partitions=4).clusters


def _q_incremental_linkage(sf_dir: str):
    """Delta absorption: cluster the even-id half of the corpus, then
    absorb the odd-id half incrementally (old×old pairs never
    re-scored).  Returns the updated corpus-wide cluster table —
    label-identical to a full re-run by the min-label contraction
    argument (``pipelines/incremental.py``; parity asserted in
    ``tests/test_incremental.py``)."""
    import pyarrow as pa

    from address_address_matching_ray.pipelines.incremental import (
        incremental_linkage,
    )
    from address_address_matching_ray.pipelines.linkage import run_linkage

    def parity(ds, want: int):
        def f(t: pa.Table, want=want) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 2) == want))

        return ds.map_batches(f, batch_format="pyarrow")

    prior = run_linkage(parity(_pages(sf_dir), 0), buckets=16,
                        num_partitions=4)
    inc = incremental_linkage(parity(_pages(sf_dir), 1), prior.clusters,
                              prior_extracted_ds=prior.extracted,
                              buckets=16, num_partitions=4)
    return inc.clusters


def _q_linkage_edges(sf_dir: str):
    from address_address_matching_ray.pipelines.linkage import run_linkage

    res = run_linkage(_pages(sf_dir), buckets=16, num_partitions=4)
    edges = res.edges.filter(expr="accepted == True").select_columns(
        ["left_id", "right_id", "tier", "confidence", "similarity", "exact"])
    return edges.sort(["left_id", "right_id"])


def _q_extracted(sf_dir: str):
    from address_address_matching_ray.stages.extract import extract_stage

    return extract_stage(_pages(sf_dir)).select_columns(
        ["doc_id", "url", "addr", "norm_addr", "house", "street_name",
         "unit", "city", "state", "zip"]).sort("doc_id")


def _q_extract_addresses(sf_dir: str):
    """SQL-expressible flat projection of the extraction chain:
    html→text, address window, normalized address — oracled against a
    DuckDB regexp re-implementation over the same deterministic pages
    (written to parquet by ``oracle_sql``)."""
    from address_address_matching_ray.stages.extract import extract_stage

    return extract_stage(_pages(sf_dir)).select_columns(
        ["doc_id", "url", "extracted_text", "addr", "norm_addr"]).sort("doc_id")


def _q_exact_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir)).sort("doc_id")


def _q_minhash_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.dedup import minhash_dedup

    return minhash_dedup(_docs(sf_dir)).sort("doc_id")


def _q_minhash_dedup_md5(sf_dir: str):
    """The MinHash-LSH dedup with md5-replayable hash seams — same
    signatures/banding/pair/verify/CC machinery as minhash_dedup, now
    DuckDB-hash-checkable end-to-end (round-5 oracle conversion)."""
    from address_address_matching_ray.pipelines.dedup import (
        minhash_dedup_md5,
    )

    return minhash_dedup_md5(_docs(sf_dir)).sort("doc_id")


def _q_ngram_dedup_md5(sf_dir: str):
    """ngram_jaccard_dedup's DuckDB-oracled md5-seam twin."""
    from address_address_matching_ray.pipelines.dedup import ngram_dedup_md5

    return ngram_dedup_md5(_docs(sf_dir)).sort("doc_id")


def _q_simhash_dedup_md5(sf_dir: str):
    """simhash_dedup's DuckDB-oracled md5-seam twin."""
    from address_address_matching_ray.pipelines.dedup import (
        simhash_dedup_md5,
    )

    return simhash_dedup_md5(_docs(sf_dir)).sort("doc_id")


def _q_dup_clusters_md5(sf_dir: str):
    """minhash_dup_clusters' DuckDB-oracled md5-seam twin."""
    from address_address_matching_ray.pipelines.dedup import (
        dup_clusters_md5,
    )

    return dup_clusters_md5(_docs(sf_dir))


def _q_simhash_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.dedup import simhash_dedup

    return simhash_dedup(_docs(sf_dir)).sort("doc_id")


def _q_ngram_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.dedup import ngram_jaccard_dedup

    return ngram_jaccard_dedup(_docs(sf_dir)).sort("doc_id")


def _q_jaccard_verify(sf_dir: str):
    # the dedup VERIFY arithmetic made DuckDB-checkable: all-pairs
    # token-set Jaccard through batch_set_jaccard (the exact kernel
    # minhash/ngram dedup accept edges with), vs a list_intersect SQL
    # self-join — converts the verify half of the no-oracle LSH family
    # into an oracled row
    from address_address_matching_ray.pipelines.dedup import all_pairs_jaccard
    from address_address_matching_ray.pipelines.relational import read

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return all_pairs_jaccard(docs).sort(["left_id", "right_id"])


def _q_containment_pairs(sf_dir: str):
    # asymmetric near-dup: token-set CONTAINMENT both directions
    # (quoted/embedded text that resemblance misses), ≥80 either way;
    # identical factorized kernel shape as jaccard_verify, oracled via
    # the same list_intersect SQL chain with per-side denominators
    from address_address_matching_ray.pipelines.dedup import (
        containment_pairs,
    )
    from address_address_matching_ray.pipelines.relational import read

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_pairs(docs).sort(["left_id", "right_id"])


def _q_jaccard_join(sf_dir: str):
    # EXACT prefix-filtered Jaccard join -- the deterministic
    # alternative to minhash LSH candidate generation (no miss rate);
    # identical output to all_pairs_jaccard / the jaccard_verify SQL
    # restricted to non-empty token sets
    from address_address_matching_ray.pipelines.dedup import jaccard_join
    from address_address_matching_ray.pipelines.relational import read

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return (jaccard_join(docs)
            .drop_columns(["dropped_pairs"])
            .sort(["left_id", "right_id"]))


def _q_containment_join(sf_dir: str):
    # the SCALE path for containment: EXACT prefix-filtered similarity
    # join (PPJoin-style — no LSH miss rate), proven against the same
    # SQL as the O(n²) surface; docs with empty token sets can emit no
    # prefix, so the oracle adds la>0 AND lb>0 (none exist in testdata
    # — row counts match containment_pairs exactly)
    from address_address_matching_ray.pipelines.dedup import (
        containment_join,
    )
    from address_address_matching_ray.pipelines.relational import read

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return (containment_join(docs)
            .drop_columns(["dropped_pairs"])
            .sort(["left_id", "right_id"]))


def _q_embedding_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.similarity import embedding_dedup

    # threshold 0.3 sits inside the synthetic corpus' cosine range
    # (zero-centered vectors, max pairwise ~0.5), so bucket-collision
    # verify, the CC merge and the drop path are all exercised by the
    # DuckDB oracle — at the production default 0.98 this corpus has
    # no accepting pair and the oracle would check nothing
    return (embedding_dedup(_emb(sf_dir), threshold=0.3)
            .select_columns(["vec_id", "label"]).sort("vec_id"))


def _query_vectors(sf_dir: str, k: int = 3):
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, k)
    return np.stack([np.asarray(v, dtype="float32")
                     for v in t["embedding"].to_pylist()])


def _q_ann_topk(sf_dir: str):
    from address_address_matching_ray.pipelines.similarity import brute_force_topk

    out = brute_force_topk(_emb(sf_dir), _query_vectors(sf_dir), k=5)
    return out.select_columns(["query_idx", "vec_id", "rank"]).sort(
        ["query_idx", "rank"])


def _q_ann_ivf(sf_dir: str):
    from address_address_matching_ray.pipelines.similarity import ivf_topk

    out = ivf_topk(_emb(sf_dir), _query_vectors(sf_dir), k=5,
                   n_centroids=16, nprobe=6)
    return out.select_columns(["query_idx", "vec_id", "rank"]).sort(
        ["query_idx", "rank"])


def _q_ann_pq(sf_dir: str):
    """Product-quantization ANN with exact re-rank (round 5): integer-
    lattice codebooks + ADC shortlist, fully DuckDB-replayable."""
    from address_address_matching_ray.pipelines.similarity import pq_topk

    out = pq_topk(_emb(sf_dir), _query_vectors(sf_dir), k=5)
    return out.select_columns(["query_idx", "vec_id", "rank"]).sort(
        ["query_idx", "rank"])


def _q_ann_lsh(sf_dir: str):
    from address_address_matching_ray.pipelines.similarity import lsh_topk

    out = lsh_topk(_emb(sf_dir), _query_vectors(sf_dir), k=5, bits=6)
    return out.select_columns(["query_idx", "vec_id", "rank"]).sort(
        ["query_idx", "rank"])


def _q_token_stats(sf_dir: str):
    from address_address_matching_ray.pipelines.text import token_stats

    return token_stats(_docs(sf_dir)).sort("doc_id")


def _q_lang_dist(sf_dir: str):
    from address_address_matching_ray.pipelines.text import lang_distribution

    return lang_distribution(_docs(sf_dir)).sort("lang")


def _q_word_freq(sf_dir: str):
    from address_address_matching_ray.pipelines.text import word_frequencies

    return word_frequencies(_docs(sf_dir), top_k=50)


_ANNOTATE_FLOATS = ("mean_word_len", "stop_ratio", "punct_ratio",
                    "digit_ratio", "quality")


def _q_text_annotate(sf_dir: str):
    """Full annotate projection, DuckDB-oracled.  Float features are
    floor-quantized to 1e-6 on BOTH sides (the doubles are bit-identical
    — verified — but round() half-mode differs between numpy and
    DuckDB, so quantization must avoid ties).  ``fingerprint`` (pandas
    siphash internals, not SQL-reproducible) stays pytest-gated via
    ``test_textstats_kernels``."""
    import numpy as np
    import pandas as pd
    from address_address_matching_ray.pipelines.text import annotate_text

    def quantize(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "lang_pred", "n_chars", "n_words",
                  *_ANNOTATE_FLOATS, "n_tokens", "n_tokens_bpe"]].copy()
        for c in _ANNOTATE_FLOATS:
            out[c] = np.floor(out[c].to_numpy() * 1e6) / 1e6
        return out

    return (annotate_text(_docs(sf_dir))
            .map_batches(quantize, batch_format="pandas").sort("doc_id"))


def _q_normalize_docs(sf_dir: str):
    import pandas as pd
    from address_address_matching_ray.functions.normalize import normalize_series

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "norm_text": normalize_series(df["text"])})

    return _docs(sf_dir).map_batches(f, batch_format="pandas").sort("doc_id")


def _q_lineitem_agg(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import lineitem_agg

    return lineitem_agg(sf_dir)


def _q_events_windowed(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import events_windowed

    return events_windowed(sf_dir)


def _q_top_users(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import top_users

    return top_users(sf_dir)


def _q_segment_revenue(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import segment_revenue

    return segment_revenue(sf_dir)


def _q_nation_orders(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import nation_order_counts

    return nation_order_counts(sf_dir)


def _q_order_priority(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        order_priority_distribution,
    )

    return order_priority_distribution(sf_dir)


def _q_distinct_events(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import distinct_event_types

    return distinct_event_types(sf_dir)


def _q_sessions(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import user_sessions

    return user_sessions(sf_dir)


def _q_linkage_jaro(sf_dir: str):
    """The flagship linkage spine (pairs_stage -> scorer -> CC ->
    singletons) with SQL-replayable seams — round-5 oracle twin of
    run_linkage; see pipelines/linkage.linkage_jaro."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.linkage import linkage_jaro

    parts = rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_name", "p_type",
                                     "p_size"])
    out = linkage_jaro(parts, buckets=8)

    def proj(df):
        import pandas as pd
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy("int64"),
            "cluster_id": df["cluster_id"].to_numpy("int64")})

    return out.map_batches(proj, batch_format="pandas").sort("doc_id")


def _q_incremental_linkage_jaro(sf_dir: str):
    """The incremental absorb machinery through its oracle twin —
    prior = linkage_jaro over the 80% split, delta absorbed via the
    REAL incremental_linkage with md5/jaro seams; oracle = the full
    linkage_jaro SQL (absorb is label-identical to the full rerun)."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.linkage import (
        incremental_linkage_jaro,
    )

    parts = rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_name", "p_type",
                                     "p_size"])
    out = incremental_linkage_jaro(parts, buckets=8)

    def proj(df):
        import pandas as pd
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy("int64"),
            "cluster_id": df["cluster_id"].to_numpy("int64")})

    return out.map_batches(proj, batch_format="pandas").sort("doc_id")


def _q_match_queries_jaro(sf_dir: str):
    """The match cascade with the SQL-replayable Jaro scorer (VERDICT
    r4 #4): key families, per-tier caps, cross pairs, dedup, ladder
    floor, wrong-unit veto and the priority-sort winner all run through
    the SAME ``_match_core`` as ``match_queries`` — this surface makes
    that machinery hash-checkable end-to-end in DuckDB."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.matching import (
        match_queries_jaro,
    )

    parts = rd.read_parquet(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_name", "p_type",
                                     "p_size"])
    out = match_queries_jaro(parts, buckets=8)

    def proj(df):
        import pandas as pd
        return pd.DataFrame({
            "query_id": df["query_id"].to_numpy("int64"),
            "pid": df["pid"].astype(str),
            "match_level": df["match_level"].astype(str),
            "confidence": df["confidence"].to_numpy("float64"),
            "similarity": df["similarity"].to_numpy("float64")})

    return out.map_batches(proj, batch_format="pandas").sort("query_id")


def _q_match_queries(sf_dir: str):
    """The reference's primary API shape: free-text queries vs an
    address-records table (round-trip self-match, U:1656 analog)."""
    import pyarrow as pa
    import ray.data as rd
    from address_address_matching_ray.pipelines.matching import match_queries
    from address_address_matching_ray.sources.records import (
        fixture_records_table, synth_records,
    )

    records = rd.from_arrow(fixture_records_table()).union(
        synth_records(400, seed=_SEED)).materialize()
    # bounded driver pull: limit() truncates BEFORE materialization —
    # only the 200 query rows ever reach the driver
    rec_pdf = (records.select_columns(["pid", "ADDRESS"])
               .sort("pid").limit(200).to_pandas())
    queries = rd.from_arrow(pa.table({
        "query_id": pa.array(range(len(rec_pdf)), pa.uint64()),
        "query": pa.array(rec_pdf["ADDRESS"].tolist(), pa.string())}))
    out = match_queries(queries, records, buckets=8)
    return out.select_columns(
        ["query_id", "pid", "confidence", "match_level", "reliability"]).sort("query_id")


def _q_media_decode(sf_dir: str):
    from address_address_matching_ray.pipelines.multimodal import (
        decode_stage, synth_media,
    )

    return decode_stage(synth_media(300, seed=_SEED)).select_columns(
        ["media_id", "kind", "n_bytes", "byte_mean"]).sort("media_id")


def _q_media_frames(sf_dir: str):
    from address_address_matching_ray.pipelines.multimodal import (
        frame_sample_stage, synth_media,
    )

    return frame_sample_stage(synth_media(120, seed=_SEED)).sort(
        ["media_id", "frame_ts_ms"])


def _q_purchase_attribution(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import (
        purchase_attribution,
    )

    return purchase_attribution(sf_dir)


def _q_event_sessions(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import event_sessions

    return event_sessions(sf_dir)


def _q_sliding_windows(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import sliding_windows

    return sliding_windows(sf_dir)


def _q_distinct_users(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import distinct_users

    return distinct_users(sf_dir)


def _q_approx_distinct_users(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import (
        approx_distinct_users,
    )

    return approx_distinct_users(sf_dir)


def _q_hll_registers(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import (
        hll_registers,
    )

    return hll_registers(sf_dir)


def _q_hll_distinct_users(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import (
        hll_distinct_users,
    )

    return hll_distinct_users(sf_dir)


def _q_approx_value_percentiles(sf_dir: str):
    # KLL-sketched per-group quantiles (unbounded-key-cardinality
    # shape); approximate by nature → no SQL oracle, rows-only check +
    # the rank-error/merge-order pytest gates
    from address_address_matching_ray.pipelines.temporal import (
        approx_value_percentiles,
    )

    return approx_value_percentiles(sf_dir)


def _q_value_percentiles(sf_dir: str):
    from address_address_matching_ray.pipelines.temporal import value_percentiles

    return value_percentiles(sf_dir)


def _q_top_events_per_user(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        top_events_per_user,
    )

    return top_events_per_user(sf_dir)


def _q_stratified_sample(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        stratified_sample,
    )

    return stratified_sample(sf_dir)


def _q_customers_without_orders(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        customers_without_orders,
    )

    return customers_without_orders(sf_dir)


def _q_approx_word_frequencies(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        approx_word_frequencies,
    )

    docs = read(sf_dir, "documents", columns=["text"])
    return approx_word_frequencies(docs)


def _q_window_functions(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        window_functions,
    )

    return window_functions(sf_dir)


def _q_user_paths(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import user_paths

    return user_paths(sf_dir)


def _q_event_type_pivot(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        event_type_pivot,
    )

    return event_type_pivot(sf_dir)


def _q_doc_repetition(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import doc_repetition

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_repetition(docs).sort("doc_id")


def _q_revenue_rollup(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        revenue_rollup,
    )

    return revenue_rollup(sf_dir)


def _q_value_stats(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import value_stats

    return value_stats(sf_dir)


def _q_window_ranks(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import window_ranks

    return window_ranks(sf_dir)


def _q_daily_user_activity(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        daily_user_activity,
    )

    return daily_user_activity(sf_dir)


def _q_returning_users(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        returning_users,
    )

    return returning_users(sf_dir)


def _q_props_extract(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        props_extract,
    )

    return props_extract(sf_dir)


def _q_value_median_mode(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        value_median_mode,
    )

    return value_median_mode(sf_dir)


def _q_tfidf_top_terms(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import tfidf_top_terms

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_top_terms(docs)


def _q_bigram_counts(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import bigram_counts

    return bigram_counts(read(sf_dir, "documents", columns=["text"]))


def _q_host_page_counts(sf_dir: str):
    """Over the deterministic synthetic pages table (same input the
    oracle materializes at ``_ORACLE_PAGES_PATH``)."""
    from address_address_matching_ray.pipelines.text import host_page_counts
    from address_address_matching_ray.sources.synth import synth_pages

    pages = synth_pages(_n_pages_for(sf_dir), seed=_SEED)
    return host_page_counts(pages.select_columns(["url", "html"]))


def _q_moving_avg(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import moving_avg

    return moving_avg(sf_dir)


def _q_doc_unigram_logprob(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        doc_unigram_logprob,
    )

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_unigram_logprob(docs)


def _q_url_dedup(sf_dir: str):
    """Canonical-url exact dedup over the deterministic synthetic
    pages (same input the oracle materializes)."""
    from address_address_matching_ray.pipelines.dedup import url_dedup
    from address_address_matching_ray.sources.synth import synth_pages

    pages = synth_pages(_n_pages_for(sf_dir), seed=_SEED)
    return url_dedup(pages.select_columns(["doc_id", "url"]))


def _q_novelty_filter(sf_dir: str):
    """Incremental crawl novelty over the deterministic synthetic pages:
    the first half is the prior snapshot, the second half the new crawl
    batch (same split the oracle applies)."""
    from address_address_matching_ray.pipelines.dedup import novelty_filter

    n = _n_pages_for(sf_dir)
    pages = _pages(sf_dir)
    snap = pages.filter(expr=f"doc_id < {n // 2}").select_columns(["url"])
    new = (pages.filter(expr=f"doc_id >= {n // 2}")
           .select_columns(["doc_id", "url"]))
    return novelty_filter(new, snap)


def _q_event_correlations(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        event_correlations,
    )

    return event_correlations(sf_dir)


def _q_embedding_norms(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        embedding_norms,
    )

    return embedding_norms(read(sf_dir, "embeddings",
                                columns=["vec_id", "embedding"]))


def _q_label_centroids(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        label_centroids,
    )

    return label_centroids(read(sf_dir, "embeddings",
                                columns=["label", "embedding"]))


def _q_dedup_spans(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        remove_duplicate_spans,
    )

    return remove_duplicate_spans(
        read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_duplicate_ngrams(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        duplicate_ngram_coverage,
    )

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_ngram_coverage(docs, n=8)


def _q_quality_filter(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import quality_filter

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    return quality_filter(docs)


def _q_funnel_conversion(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        funnel_conversion,
    )

    return funnel_conversion(sf_dir)


def _q_cohort_retention(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        cohort_retention,
    )

    return cohort_retention(sf_dir)


def _q_latest_events(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        latest_events,
    )

    return latest_events(sf_dir)


def _q_dup_clusters(sf_dir: str):
    from address_address_matching_ray.pipelines.dedup import (
        minhash_dup_clusters,
    )
    from address_address_matching_ray.pipelines.relational import read

    return minhash_dup_clusters(
        read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_embedding_quantize(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        quantize_embeddings,
    )

    return quantize_embeddings(
        read(sf_dir, "embeddings", columns=["vec_id", "embedding"]))


def _q_value_zscore(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        value_zscore,
    )

    return value_zscore(sf_dir)


def _q_value_mad(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import value_mad

    return value_mad(sf_dir)


def _q_hash_sample(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        hash_sample,
    )

    return hash_sample(sf_dir)


def _q_decontaminate(sf_dir: str):
    """Benchmark = every 97th document (SQL-expressible predicate);
    corpus = the rest.  Flags corpus docs sharing any word 8-gram
    with the benchmark."""
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import decontaminate

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])

    def split(df, keep_bench: bool):
        m = (df["doc_id"] % 97) == 0
        return df[m if keep_bench else ~m].reset_index(drop=True)

    bench = docs.map_batches(lambda d: split(d, True),
                             batch_format="pandas")
    corpus = docs.map_batches(lambda d: split(d, False),
                              batch_format="pandas")
    return decontaminate(corpus, bench)


def _q_bloom_decontaminate(sf_dir: str):
    """Same bench/corpus split as ``decontaminate`` but through the
    Bloom-bitmap path.  The oracle is the exact semantic n-gram
    overlap: valid because at m_log2=24 and this benchmark size the
    false-positive probability per corpus position is ~1e-9 —
    verified FP-free on the fixed test data (the pytest gate
    demonstrates the one-sided error at small m instead)."""
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        bloom_decontaminate,
    )

    docs = read(sf_dir, "documents", columns=["doc_id", "text"])

    def split(df, keep_bench: bool):
        m = (df["doc_id"] % 97) == 0
        return df[m if keep_bench else ~m].reset_index(drop=True)

    bench = docs.map_batches(lambda d: split(d, True),
                             batch_format="pandas")
    corpus = docs.map_batches(lambda d: split(d, False),
                              batch_format="pandas")
    return bloom_decontaminate(corpus, bench)


def _q_hash_split(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import hash_split

    return hash_split(sf_dir)


def _q_group_stable_split(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        group_stable_split,
    )

    return group_stable_split(sf_dir)


def _q_embedding_kmeans(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        embedding_kmeans,
    )

    ds, _ = embedding_kmeans(
        read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        k=10, iters=5)
    return ds


def _q_semantic_dedup(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        semantic_dedup,
    )

    # threshold 0.3 sits inside the synthetic corpus' cosine range
    # (zero-centered vectors top out near 0.5), so the DROP branch of
    # the lower-triangle rule is genuinely exercised by the oracle
    return semantic_dedup(
        read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        threshold=0.3, k=8, iters=5)


def _q_source_quota_sample(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        source_quota_sample,
    )

    # quota=10 < the ~25 docs/source at sf0.01, so truncation is
    # actually exercised by the oracle compare
    return source_quota_sample(sf_dir, quota=10)


def _q_winsorized_stats(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        winsorized_stats,
    )

    return winsorized_stats(sf_dir)


def _q_pack_sequences(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import pack_sequences

    return pack_sequences(
        read(sf_dir, "documents", columns=["doc_id", "n_chars"]))


def _q_redact_text(sf_dir: str):
    """PII redaction over webtext with deterministically planted
    email/phone/IP strings (the synthetic corpus contains none, so the
    plant gives the oracle real replacements to check, derived from
    doc_id identically on both sides)."""
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import redact_text

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(df):
        ids = df["doc_id"].astype("int64")
        df = df.copy()
        df["text"] = (
            df["text"].astype(str)
            + " contact user" + ids.astype(str) + "@example.com or 555-"
            + (100 + ids % 900).astype(str) + "-"
            + (1000 + ids % 9000).astype(str)
            + " from 10.0." + ((ids // 256) % 256).astype(str)
            + "." + (ids % 256).astype(str))
        return df

    return redact_text(ds.map_batches(plant, batch_format="pandas"),
                       col="text")


def _q_c4_line_filter(sf_dir: str):
    """C4 line-level quality filter over webtext.  The synthetic
    corpus is single-line bag-of-words text, so line structure is
    deterministically planted from doc_id on both sides (the
    redact_text recipe): 10-word lines, a terminal '.' on lines where
    (doc_id + line#) % 4 != 0 — leaving ~25% of lines to fail the
    punctuation test and short tail lines to fail the word minimum."""
    import numpy as np
    import pandas as pd

    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        line_quality_filter,
    )

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        w = df["text"].astype(str).str.split(" ")
        ex = pd.DataFrame({
            "_r": np.arange(len(df)).repeat(w.str.len().to_numpy()),
            "w": np.concatenate(w.to_numpy())})
        ex["_k"] = ex.groupby("_r").cumcount() // 10
        lines = (ex.groupby(["_r", "_k"], sort=False)["w"]
                 .agg(" ".join).reset_index())
        ids = df["doc_id"].to_numpy()
        punct = np.where(
            (ids[lines["_r"]] + lines["_k"]) % 4 != 0, ".", "")
        lines["line"] = lines["w"] + punct
        txt = lines.groupby("_r", sort=False)["line"].agg("\n".join)
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "text": txt.reindex(np.arange(len(df))).to_numpy()})

    return line_quality_filter(ds.map_batches(plant,
                                              batch_format="pandas"))


def _q_line_dedup(sf_dir: str):
    """CCNet corpus-level line dedup with deterministically planted
    boilerplate: a nav line on every doc_id % 3 == 0 and a copyright
    line on every doc_id % 2 == 0 (corpus frequencies ≈ n/3 and n/2,
    far above max_freq=5; the original one-line texts stay unique)."""
    import pandas as pd

    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.text import (
        corpus_line_dedup,
    )

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        t = df["text"].astype(str)
        t = t.where(ids % 3 != 0,
                    t + "\nhome about contact subscribe newsletter.")
        t = t.where(ids % 2 != 0, t + "\nall rights reserved.")
        return pd.DataFrame({"doc_id": ids, "text": t})

    return corpus_line_dedup(ds.map_batches(plant,
                                            batch_format="pandas"))


def _q_fs_posteriors(sf_dir: str):
    """Fellegi–Sunter match posteriors at fixed literal parameters —
    the E-step arithmetic is per-row double math with a pinned multiply
    order, bit-identical to the DuckDB CASE chain (all SQL literals
    cast ::DOUBLE; bare decimals would be DECIMAL-typed and round
    differently)."""
    from address_address_matching_ray.pipelines.er_em import fs_posteriors

    return fs_posteriors(sf_dir)


def _q_match_threshold_sweep(sf_dir: str):
    """Expected precision/recall/F1 per candidate match threshold,
    from posterior mass above each cut (Splink's threshold-selection
    analysis, label-free).  Integer micro-unit mass sums make the
    reduce order-free; ratios have pinned op order — hash-oracled."""
    from address_address_matching_ray.pipelines.er_em import (
        match_threshold_sweep,
    )

    return match_threshold_sweep(sf_dir)


def _q_tf_posteriors(sf_dir: str):
    """Term-frequency-adjusted FS posterior (Splink tf_adjustments):
    agreement-u on the segment field replaced by that value's relative
    frequency — ONE BIGINT/BIGINT double division on both sides, then
    the pinned ::DOUBLE multiply chain."""
    from address_address_matching_ray.pipelines.er_em import (
        tf_adjusted_posteriors,
    )

    return tf_adjusted_posteriors(sf_dir)


def _q_golden_records(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import golden_records

    return golden_records(sf_dir)


def _q_sorted_neighborhood(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        sorted_neighborhood_pairs,
    )

    return sorted_neighborhood_pairs(sf_dir)


def _q_kll_quantiles(sf_dir: str):
    """KLL sketch quantiles with data-defined chunk/bucket/global merge
    tree — the compaction itself replayed in SQL (VERDICT r4 #8): the
    kernel is multiset-deterministic, so three recursive-CTE compress
    phases + the weighted-rank query reproduce it bit-exactly."""
    from address_address_matching_ray.pipelines.temporal import (
        kll_quantiles_chunked,
    )

    return kll_quantiles_chunked(sf_dir)


def _q_name_jaro(sf_dir: str):
    """First oracled fuzzy string metric: our Jaro
    (jaro_winkler(prefix_weight=0), 0-100 scale) is bit-identical to
    DuckDB jaro_similarity * 100.0::DOUBLE."""
    from address_address_matching_ray.pipelines.er_em import name_jaro

    return name_jaro(sf_dir)


def _q_name_levenshtein(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        name_levenshtein,
    )

    return name_levenshtein(sf_dir)


def _q_name_damerau(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import name_damerau

    return name_damerau(sf_dir)


def _q_clerical_review(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        clerical_review_sample,
    )

    return clerical_review_sample(sf_dir)


def _q_one_to_one_matches(sf_dir: str):
    """Mutual-nearest-neighbor 1:1 assignment over the FS-scored
    candidate pairs (reciprocal best hit with a posterior floor) —
    the deterministic assignment step after pair scoring.  Posterior
    doubles are bit-identical per row (fs_posteriors parity), so the
    argmax sorts and the floor decide the same way in SQL."""
    from address_address_matching_ray.pipelines.er_em import (
        one_to_one_matches,
    )

    return one_to_one_matches(sf_dir)


def _q_component_sizes(sf_dir: str):
    from address_address_matching_ray.pipelines.graph import (
        component_size_distribution,
    )
    from address_address_matching_ray.pipelines.relational import read

    return component_size_distribution(
        read(sf_dir, "events", columns=["user_id"]))


def _q_campaign_attribution(sf_dir: str):
    """General OVERLAP interval join (overlapping windows) — closes
    interval_join's documented non-overlapping limit."""
    from address_address_matching_ray.pipelines.temporal import (
        campaign_attribution,
    )

    return campaign_attribution(sf_dir)


def _q_fs_em_weights(sf_dir: str):
    """EM-learned m/u/λ over the customer candidate pairs (Winkler
    EM) — DuckDB-oracled by unrolling the fixed 10-round budget as
    CTE layers (``_fs_em_sql``); 1e-6-quantized parameters on both
    sides.  pytest additionally carries planted-parameter recovery,
    log-likelihood monotonicity and determinism gates."""
    from address_address_matching_ray.pipelines.er_em import fs_em_weights

    return fs_em_weights(sf_dir, iters=10)


def _q_blocking_metrics(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import blocking_metrics

    return blocking_metrics(sf_dir)


def _q_cluster_eval(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import cluster_eval

    return cluster_eval(sf_dir)


def _q_meta_blocking(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        meta_blocking_pairs,
    )

    return meta_blocking_pairs(sf_dir)


def _q_posterior_calibration(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        posterior_calibration,
    )

    return posterior_calibration(sf_dir)


def _q_name_qgram(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        name_qgram_dice,
    )

    return name_qgram_dice(sf_dir)


def _q_monge_elkan(sf_dir: str):
    from address_address_matching_ray.pipelines.er_em import (
        name_monge_elkan,
    )

    return name_monge_elkan(sf_dir)


def _q_graph_components(sf_dir: str):
    from address_address_matching_ray.pipelines.graph import (
        user_graph_components,
    )
    from address_address_matching_ray.pipelines.relational import read

    return user_graph_components(
        read(sf_dir, "events", columns=["user_id"]))


def _q_pagerank(sf_dir: str):
    from address_address_matching_ray.pipelines.graph import (
        bipartite_pagerank,
    )
    from address_address_matching_ray.pipelines.relational import read

    return bipartite_pagerank(
        read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
        read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"]))


def _q_centroid_similarity(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import read
    from address_address_matching_ray.pipelines.similarity import (
        centroid_similarity,
    )

    return centroid_similarity(read(sf_dir, "embeddings",
                                    columns=["label", "embedding"]))


def _q_trailing_active_users(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        trailing_active_users,
    )

    return trailing_active_users(sf_dir)


def _q_orders_with_returns(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        orders_with_returns,
    )

    return orders_with_returns(sf_dir)


def _q_parts_by_brand(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import parts_by_brand

    return parts_by_brand(sf_dir)


def _q_region_supplier_balance(sf_dir: str):
    from address_address_matching_ray.pipelines.relational import (
        region_supplier_balance,
    )

    return region_supplier_balance(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # flagship linkage (north rule) — rows-only (fuzzy + transitive)
        "linkage_clusters": _q_linkage_clusters,
        "linkage_edges": _q_linkage_edges,
        "incremental_linkage": _q_incremental_linkage,
        "extract_parse": _q_extracted,
        "extract_addresses": _q_extract_addresses,
        # dedup family
        "exact_dedup": _q_exact_dedup,
        "minhash_dedup": _q_minhash_dedup,
        "minhash_dedup_md5": _q_minhash_dedup_md5,
        "ngram_dedup_md5": _q_ngram_dedup_md5,
        "simhash_dedup_md5": _q_simhash_dedup_md5,
        "dup_clusters_md5": _q_dup_clusters_md5,
        "simhash_dedup": _q_simhash_dedup,
        "ngram_dedup": _q_ngram_dedup,
        "jaccard_verify": _q_jaccard_verify,
        "containment_pairs": _q_containment_pairs,
        "containment_join": _q_containment_join,
        "jaccard_join": _q_jaccard_join,
        "embedding_dedup": _q_embedding_dedup,
        # similarity search
        "ann_topk": _q_ann_topk,
        "ann_lsh_topk": _q_ann_lsh,
        "ann_ivf_topk": _q_ann_ivf,
        "ann_pq_topk": _q_ann_pq,
        # text analysis
        "token_stats": _q_token_stats,
        "lang_distribution": _q_lang_dist,
        "word_frequencies": _q_word_freq,
        "text_annotate": _q_text_annotate,
        "normalize_docs": _q_normalize_docs,
        # relational / windowed
        "lineitem_agg": _q_lineitem_agg,
        "events_windowed": _q_events_windowed,
        "top_users": _q_top_users,
        "segment_revenue": _q_segment_revenue,
        "nation_orders": _q_nation_orders,
        "order_priority": _q_order_priority,
        "distinct_events": _q_distinct_events,
        "user_sessions": _q_sessions,
        # temporal / ordered custom operators (asof, range join, hopping
        # windows, distinct counts — pipelines/temporal.py)
        "purchase_attribution": _q_purchase_attribution,
        "event_sessions": _q_event_sessions,
        "sliding_windows": _q_sliding_windows,
        "distinct_users": _q_distinct_users,
        "approx_distinct_users": _q_approx_distinct_users,
        "hll_registers": _q_hll_registers,
        "hll_distinct_users": _q_hll_distinct_users,
        "value_percentiles": _q_value_percentiles,
        "approx_value_percentiles": _q_approx_value_percentiles,
        "top_events_per_user": _q_top_events_per_user,
        "stratified_sample": _q_stratified_sample,
        "customers_without_orders": _q_customers_without_orders,
        "orders_with_returns": _q_orders_with_returns,
        "window_functions": _q_window_functions,
        "approx_word_frequencies": _q_approx_word_frequencies,
        "user_paths": _q_user_paths,
        "event_type_pivot": _q_event_type_pivot,
        "doc_repetition": _q_doc_repetition,
        "revenue_rollup": _q_revenue_rollup,
        "value_stats": _q_value_stats,
        "window_ranks": _q_window_ranks,
        "daily_user_activity": _q_daily_user_activity,
        "returning_users": _q_returning_users,
        "props_extract": _q_props_extract,
        "value_median_mode": _q_value_median_mode,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "bigram_counts": _q_bigram_counts,
        "host_page_counts": _q_host_page_counts,
        "moving_avg": _q_moving_avg,
        "doc_unigram_logprob": _q_doc_unigram_logprob,
        "url_dedup": _q_url_dedup,
        "novelty_filter": _q_novelty_filter,
        "embedding_norms": _q_embedding_norms,
        "label_centroids": _q_label_centroids,
        "event_correlations": _q_event_correlations,
        "duplicate_ngrams": _q_duplicate_ngrams,
        "dedup_spans": _q_dedup_spans,
        "quality_filter": _q_quality_filter,
        "funnel_conversion": _q_funnel_conversion,
        "cohort_retention": _q_cohort_retention,
        "trailing_active_users": _q_trailing_active_users,
        "latest_events": _q_latest_events,
        "graph_components": _q_graph_components,
        "component_sizes": _q_component_sizes,
        "pagerank": _q_pagerank,
        "campaign_attribution": _q_campaign_attribution,
        "decontaminate": _q_decontaminate,
        "bloom_decontaminate": _q_bloom_decontaminate,
        "value_zscore": _q_value_zscore,
        "value_mad": _q_value_mad,
        "hash_sample": _q_hash_sample,
        "dup_clusters": _q_dup_clusters,
        "embedding_quantize": _q_embedding_quantize,
        "hash_split": _q_hash_split,
        "group_stable_split": _q_group_stable_split,
        "source_quota_sample": _q_source_quota_sample,
        "winsorized_stats": _q_winsorized_stats,
        "pack_sequences": _q_pack_sequences,
        "redact_text": _q_redact_text,
        "fs_posteriors": _q_fs_posteriors,
        "match_threshold_sweep": _q_match_threshold_sweep,
        "tf_posteriors": _q_tf_posteriors,
        "blocking_metrics": _q_blocking_metrics,
        "cluster_eval": _q_cluster_eval,
        "meta_blocking": _q_meta_blocking,
        "monge_elkan": _q_monge_elkan,
        "name_qgram": _q_name_qgram,
        "posterior_calibration": _q_posterior_calibration,
        "golden_records": _q_golden_records,
        "sorted_neighborhood": _q_sorted_neighborhood,
        "name_jaro": _q_name_jaro,
        "kll_quantiles": _q_kll_quantiles,
        "name_levenshtein": _q_name_levenshtein,
        "name_damerau": _q_name_damerau,
        "clerical_review": _q_clerical_review,
        "one_to_one_matches": _q_one_to_one_matches,
        "c4_line_filter": _q_c4_line_filter,
        "line_dedup": _q_line_dedup,
        # iterative / fuzzy — planted-blob pytest gates, no SQL oracle
        "fs_em_weights": _q_fs_em_weights,
        "embedding_kmeans": _q_embedding_kmeans,
        "semantic_dedup": _q_semantic_dedup,
        "centroid_similarity": _q_centroid_similarity,
        "parts_by_brand": _q_parts_by_brand,
        "region_supplier_balance": _q_region_supplier_balance,
        "match_queries": _q_match_queries,
        "match_queries_jaro": _q_match_queries_jaro,
        "linkage_jaro": _q_linkage_jaro,
        "incremental_linkage_jaro": _q_incremental_linkage_jaro,
        # multimodal plumbing (deterministic fake decode)
        "media_decode": _q_media_decode,
        "media_frames": _q_media_frames,
    }


# ──────────────────────────────────────────────────────────────
# oracle SQL (DuckDB) — column names match the Ray results exactly
# ──────────────────────────────────────────────────────────────

def _md5_lsh_ctes() -> str:
    """Shared CTE chain for the md5-seam LSH oracles: tokens →
    shingles → md5 base hashes → seeded signature mins → band keys →
    distinct co-banded candidate pairs (cap-free regime, pytest-
    asserted)."""
    return f"""toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text),
                       '\\s+'), x -> x <> '') AS ws
              FROM documents),
            sh AS (
              SELECT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS s
              FROM toks, LATERAL unnest(range(1, len(ws) - 1)) AS t(i)
              WHERE len(ws) >= 3
              UNION ALL
              SELECT doc_id, array_to_string(ws, ' ')
              FROM toks WHERE len(ws) BETWEEN 1 AND 2),
            xs AS (
              SELECT doc_id,
                     (md5_number_lower(s) % 4294967296)::BIGINT AS x
              FROM sh),
            perms(i, a, b) AS (VALUES {_minhash_perm_sql()}),
            sigs AS (
              SELECT doc_id, p.i,
                     min(((p.a * x + p.b) % 2305843009213693951)
                         & 4294967295) AS sig
              FROM xs CROSS JOIN perms p GROUP BY doc_id, p.i
              UNION ALL
              SELECT d.doc_id, p.i, 4294967295 AS sig
              FROM documents d CROSS JOIN perms p
              WHERE d.doc_id NOT IN (SELECT doc_id FROM xs)),
            bkeys AS (
              SELECT doc_id,
                     md5_number_lower(CAST(i // 4 AS VARCHAR) || ':' ||
                       string_agg(sig::VARCHAR, ',' ORDER BY i)) AS bk
              FROM sigs GROUP BY doc_id, i // 4),
            cand AS (
              SELECT DISTINCT a.doc_id AS l, b.doc_id AS r
              FROM bkeys a JOIN bkeys b
                ON a.bk = b.bk AND a.doc_id < b.doc_id)"""


_CC_CTES = """nodes AS (SELECT l AS n FROM ed0 UNION SELECT r FROM ed0),
            ed AS (SELECT l, r FROM ed0
                   UNION ALL SELECT r AS l, l AS r FROM ed0),
            reach AS (
              SELECT n AS node, n AS label FROM nodes
              UNION
              SELECT ed.l AS node, reach.label AS label
              FROM ed JOIN reach ON reach.node = ed.r),
            dupes AS (
              SELECT node FROM reach GROUP BY node
              HAVING node != min(label))"""


def _linkage_jaro_sql() -> str:
    """The linkage_jaro replay (md5 keys -> distinct co-blocked
    pairs -> pinned jaro weighted sum + wrong-unit veto -> CC ->
    singleton attach).  Shared VERBATIM by the incremental twin:
    the absorbed result is label-identical to the full rerun
    (pytest + the per-doc/per-pair corpus-independence argument in
    linkage.incremental_linkage_jaro), so one SQL oracles both.
    Cap/salt-free regime at oracle scales is pytest-asserted."""
    return f"""
            WITH RECURSIVE
            base AS (
              SELECT p_partkey AS ck,
                     {_norm_expr("p_name || ' ' || p_type")} AS street,
                     cast(p_partkey % 90 + 10 AS VARCHAR) AS house,
                     'city' || cast(p_size % 25 AS VARCHAR) AS city,
                     cast((p_size % 25) % 10 AS VARCHAR) AS state,
                     cast(10 + p_size % 25 AS VARCHAR) AS zip,
                     CASE WHEN p_partkey % 3 = 0 THEN ''
                          ELSE cast(p_partkey % 7 AS VARCHAR) END AS unit
              FROM part),
            r AS (
              SELECT *,
                     trim(regexp_replace(house || ' ' || street || ' '
                       || city || ' ' || state || ' ' || zip,
                       '\\s+', ' ', 'g')) AS rnorm,
                     string_split(street, ' ')[1] AS first_tok
              FROM base),
            ks AS (
              SELECT ck, 'e:' ||
                cast(md5_number_lower(rnorm) AS VARCHAR) AS bk FROM r
              UNION ALL SELECT ck, 'h:' || cast(md5_number_lower(
                house || '|' || street || '|' || zip) AS VARCHAR) FROM r
              UNION ALL SELECT ck, 'f:' || cast(md5_number_lower(
                house || '|' || first_tok || '|' || zip) AS VARCHAR) FROM r
              UNION ALL SELECT ck, 'k:' || cast(md5_number_lower(
                first_tok || '|' || state) AS VARCHAR) FROM r),
            pr AS (
              SELECT DISTINCT a.ck AS l, b.ck AS r
              FROM ks a JOIN ks b ON a.bk = b.bk AND a.ck < b.ck),
            sc AS (
              SELECT p.l, p.r,
                jaro_similarity(x.street, y.street) * 100.0 AS js,
                CASE WHEN x.house = y.house THEN 100.0 ELSE 0.0 END AS jh,
                jaro_similarity(x.city, y.city) * 100.0 AS jc,
                CASE WHEN x.zip = y.zip THEN 100.0 ELSE 0.0 END AS jz,
                CASE WHEN x.state = y.state THEN 100.0 ELSE 0.0 END
                  AS jst,
                CASE WHEN x.unit <> '' AND y.unit <> ''
                          AND x.unit = y.unit THEN 100.0 ELSE 0.0 END
                  AS ju,
                (x.unit <> '' AND y.unit <> '' AND x.unit <> y.unit)
                  AS wrong_unit
              FROM pr p JOIN r x ON x.ck = p.l JOIN r y ON y.ck = p.r),
            ed0 AS MATERIALIZED (
              SELECT l, r FROM (
                SELECT *, 0.40 * js + 0.25 * jh + 0.15 * jc + 0.10 * jz
                            + 0.05 * jst + 0.05 * ju AS confidence
                FROM sc)
              WHERE confidence >= 55.0 AND NOT wrong_unit),
            nodes AS (SELECT l AS n FROM ed0 UNION SELECT r FROM ed0),
            ed AS (SELECT l, r FROM ed0
                   UNION ALL SELECT r AS l, l AS r FROM ed0),
            reach AS (
              SELECT n AS node, n AS label FROM nodes
              UNION
              SELECT ed.l AS node, reach.label AS label
              FROM ed JOIN reach ON reach.node = ed.r),
            lab AS (SELECT node, min(label) AS cid
                    FROM reach GROUP BY node)
            SELECT p.p_partkey AS doc_id,
                   coalesce(lab.cid, p.p_partkey)::BIGINT AS cluster_id
            FROM part p LEFT JOIN lab ON lab.node = p.p_partkey
            ORDER BY doc_id"""


def _minhash_perm_sql() -> str:
    """The seeded MinHasher permutation family (a_i, b_i) as literal
    VALUES rows — pinned to the surface defaults (num_perm=64,
    seed=42), like the hll_registers oracle's p=12."""
    from address_address_matching_ray.functions.minhash import MinHasher

    mh = MinHasher(64, 42)
    return ",".join("(%d,%d,%d)" % (i, a, b)
                    for i, (a, b) in enumerate(zip(mh.a, mh.b)))


def _kll_comp_cte(name: str, src: str) -> str:
    """One recursive-CTE replay of ``sketch.kll_compress`` (k=8 caps
    embedded as literals: 8/6/4/3 then 2, sums 8/14/18/21 then 23+2L).
    kll_compress is multiset-deterministic, so the working table only
    needs (grp, value, level); each iteration compacts the lowest
    over-cap level exactly like the numpy kernel."""
    return f"""{name}(grp, it, value, level) AS (
  SELECT grp, 0, value, level FROM {src}
  UNION ALL
  SELECT grp, it + 1, value,
         CASE WHEN level = lstar AND promoted THEN level + 1 ELSE level END
  FROM (
    SELECT *,
      (m % 2 = 1 AND ((off = 1 AND p = 0) OR (off = 0 AND p = m - 1))) AS leftover,
      ((off = 0 AND p % 2 = 0 AND NOT (m % 2 = 1 AND p = m - 1))
       OR (off = 1 AND m % 2 = 0 AND p % 2 = 1)
       OR (off = 1 AND m % 2 = 1 AND p % 2 = 0 AND p >= 2)) AS promoted
    FROM (
      SELECT *, (lstar + m) % 2 AS off
      FROM (
        SELECT *,
          min(CASE WHEN lcnt > cap THEN level END)
            OVER (PARTITION BY grp) AS lstar,
          row_number() OVER (PARTITION BY grp, level ORDER BY value) - 1 AS p,
          lcnt AS m
        FROM (
          SELECT grp, it, value, level,
            max(level) OVER (PARTITION BY grp) + 1 AS nl,
            count(*) OVER (PARTITION BY grp) AS ntot,
            count(*) OVER (PARTITION BY grp, level) AS lcnt
          FROM {name}) s1
        , LATERAL (SELECT
            CASE WHEN s1.nl - 1 - s1.level = 0 THEN 8
                 WHEN s1.nl - 1 - s1.level = 1 THEN 6
                 WHEN s1.nl - 1 - s1.level = 2 THEN 4
                 WHEN s1.nl - 1 - s1.level = 3 THEN 3 ELSE 2 END AS cap,
            CASE WHEN s1.nl = 1 THEN 8 WHEN s1.nl = 2 THEN 14
                 WHEN s1.nl = 3 THEN 18 WHEN s1.nl = 4 THEN 21
                 ELSE 23 + 2 * (s1.nl - 5) END AS caps_sum) c
      ) s2 ) s3 ) s4
  WHERE ntot > caps_sum
    AND (level <> lstar OR leftover OR promoted)
),
fin_{name} AS (
  SELECT c.grp, c.value, c.level FROM {name} c
  JOIN (SELECT grp, max(it) AS mi FROM {name} GROUP BY grp) f
    ON c.grp = f.grp AND c.it = f.mi
)"""


def _norm_expr(col: str) -> str:
    """The ``normalize`` regex chain as a DuckDB expression over
    ``col`` (ascii inputs; the python path skips ascii_fold for them)."""
    from address_address_matching_ray.functions.normalize import _ABB_ORDER

    expr = (f"trim(regexp_replace(regexp_replace(lower({col}), "
            "'[^a-z0-9_\\s#/-]', ' ', 'g'), '\\s+', ' ', 'g'))")
    for full, abbr in _ABB_ORDER:
        expr = f"regexp_replace({expr}, '\\b{full}\\b', '{abbr}', 'g')"
    expr = (f"regexp_replace({expr}, "
            "'\\b(\\d+)[-_]?(st|nd|rd|th|ht|tt|thh|ndd|rdd|h|t)\\b', '\\1', 'g')")
    return expr


def _normalize_sql() -> str:
    return (f"SELECT doc_id, {_norm_expr('text')} AS norm_text "
            "FROM documents ORDER BY doc_id")


_ORACLE_PAGES_PATH = "/tmp/graft_oracle_pages.parquet"
_ORACLE_MEDIA_PATH = "/tmp/graft_oracle_media.parquet"

# canonical_url re-expressed as a DuckDB regex/list CTE chain — verified
# equal to stages.keys.canonical_url on 5k synth urls + adversarial cases
# (scheme/www/fragment/trailing-slash/tracking-param/param-sort edges) in
# test_relational_ext2; shared by the url_dedup and novelty_filter oracles
_CANON_PAGES_CTE = f"""s AS (
              SELECT doc_id, url, regexp_replace(regexp_replace(trim(url),
                       '^[a-zA-Z][a-zA-Z0-9+.-]*://', ''), '#.*$', '') AS x
              FROM read_parquet('{_ORACLE_PAGES_PATH}')),
            parts AS (
              SELECT doc_id, url,
                CASE WHEN position('?' IN x) > 0
                     THEN substr(x, 1, position('?' IN x) - 1)
                     ELSE x END AS base,
                CASE WHEN position('?' IN x) > 0
                     THEN substr(x, position('?' IN x) + 1)
                     ELSE '' END AS query
              FROM s),
            hp AS (
              SELECT doc_id, url, query,
                regexp_replace(lower(regexp_extract(base, '^([^/]*)', 1)),
                               '^www\\.', '') AS host,
                '/' || CASE WHEN position('/' IN base) > 0
                            THEN substr(base, position('/' IN base) + 1)
                            ELSE '' END AS path0
              FROM parts),
            cp AS (
              SELECT doc_id, url, host, query,
                CASE WHEN regexp_replace(path0, '/+$', '') = '' THEN '/'
                     ELSE regexp_replace(path0, '/+$', '') END AS path
              FROM hp),
            kq AS (
              SELECT doc_id, url, host, path,
                array_to_string(list_sort(list_filter(
                  string_split(query, '&'),
                  p -> regexp_extract(p, '^([^=]*)', 1) <> ''
                       AND NOT regexp_matches(
                             regexp_extract(p, '^([^=]*)', 1),
                             '^(utm_[a-z]+|ref|fbclid|gclid|mc_cid|mc_eid)$',
                             'i'))), '&') AS q
              FROM cp),
            canon AS (
              SELECT doc_id,
                CASE WHEN trim(url) = '' THEN ''
                     ELSE host || path ||
                          CASE WHEN q <> '' THEN '?' || q ELSE '' END
                END AS curl
              FROM kq)"""


def _write_oracle_inputs() -> None:
    """Materialize the deterministic synthetic inputs (pages / media)
    as parquet for DuckDB — the driver registers only the testdata
    tables as views, and these pipelines run over generated inputs.
    Pure driver-side generation via the same stateless batch functions
    the Ray sources use (``pages_batch`` / ``media_batch``), sized for
    the driver's sf0.01 correctness run; idempotent."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from address_address_matching_ray.pipelines.multimodal import media_batch
    from address_address_matching_ray.sources.synth import pages_batch

    n_pages = _n_pages_for("/root/testdata/sf0.01")
    pages = pages_batch(np.arange(n_pages), _SEED).select(
        ["doc_id", "url", "html"])
    pq.write_table(pages, _ORACLE_PAGES_PATH)

    media = media_batch(np.arange(300), _SEED)
    payload_bytes = pa.array(
        [list(p) for p in media["payload"].to_pylist()],
        pa.list_(pa.int32()))
    pq.write_table(
        pa.table({"media_id": media["media_id"], "kind": media["kind"],
                  "payload_bytes": payload_bytes,
                  "duration_ms": media["duration_ms"]}),
        _ORACLE_MEDIA_PATH)


def _extract_flat_cte() -> str:
    """Shared CTE prefix for the extraction-chain oracles: html→text
    regex strip chain, zip-anchored address-window search with the
    lead-token trim (list lambdas), the street-type fallback — ends at
    the ``flat`` CTE (doc_id, url, extracted_text, addr)."""
    extract_chain = r"""
trim(regexp_replace(
  replace(replace(
    regexp_replace(
      regexp_replace(
        regexp_replace(
          regexp_replace(decode(html), '(?is)<script\b.*?</script\s*>', ' ', 'g'),
        '(?is)<style\b.*?</style\s*>', ' ', 'g'),
      '(?s)<!--.*?-->', ' ', 'g'),
    '(?s)<[^>]+>', ' ', 'g'),
  '&copy;', chr(169)), '&amp;', '&'),
'\s+', ' ', 'g'))"""
    addr_case = r"""
  CASE WHEN len(ok) > 0 THEN trim(array_to_string(ok[1], ' '))
       ELSE coalesce(regexp_extract(txt,
         '(?i)\b([0-9][A-Za-z0-9\-]*\s+(?:[A-Za-z0-9#'']+\s+){0,5}(?:St|Street|Ave|Avenue|Blvd|Boulevard|Rd|Road|Dr|Drive|Ln|Lane|Ct|Court|Pl|Place|Pkwy|Parkway|Ter|Terrace|Cir|Circle|Hwy|Highway|Way|Broadway))\b', 1), '')
  END"""
    return f"""
WITH pages AS (
  SELECT doc_id, url, {extract_chain} AS txt
  FROM read_parquet('{_ORACLE_PAGES_PATH}')
), wins AS (
  SELECT doc_id, url, txt,
         regexp_extract_all(txt, '((?:[A-Za-z0-9#\\-'',.]+\\s+){{0,10}}\\d{{5}}(?:-\\d{{4}})?)', 1) AS ws
  FROM pages
), trimmed AS (
  SELECT doc_id, url, txt,
    list_transform(ws, w ->
      list_slice(
        string_split_regex(w, '\\s+'),
        coalesce(
          list_min(list_filter(
            list_transform(string_split_regex(w, '\\s+'),
                           (tok, i) -> CASE WHEN i < len(string_split_regex(w, '\\s+'))
                                             AND regexp_matches(tok, '^(?:[0-9]|[A-Za-z0-9]{{1,3}}$|#)')
                                        THEN i ELSE NULL END),
            x -> x IS NOT NULL)),
          len(string_split_regex(w, '\\s+'))),
        len(string_split_regex(w, '\\s+')))) AS cands
  FROM wins
), valid AS (
  SELECT doc_id, url, txt,
    list_filter(cands, c ->
      len(c) >= 3 AND len(list_filter(c, tok2 -> regexp_matches(tok2, '[A-Za-z]{{2,}}'))) > 0) AS ok
  FROM trimmed
), flat AS (
  SELECT doc_id, url, txt AS extracted_text, {addr_case} AS addr
  FROM valid
)"""


def _extract_addresses_sql() -> str:
    return f"""{_extract_flat_cte()}
SELECT doc_id, url, extracted_text, addr, {_norm_expr('addr')} AS norm_addr
FROM flat ORDER BY doc_id"""


_SQL_STATES = ("'AL','AK','AZ','AR','CA','CO','CT','DE','FL','GA','HI','ID',"
               "'IL','IN','IA','KS','KY','LA','ME','MD','MA','MI','MN','MS',"
               "'MO','MT','NE','NV','NH','NJ','NM','NY','NC','ND','OH','OK',"
               "'OR','PA','RI','SC','SD','TN','TX','UT','VT','VA','WA','WV',"
               "'WI','WY'")
_SQL_BIG5 = "'NY','NJ','CA','TX','FL'"                       # U:536, U:593
_SQL_CITY1 = "'brooklyn','manhattan','queens','bronx','nyc'"
# street-type token → abbreviation, full names (U:150-162) + the short
# forms kept verbatim (parse.py _SHORT_STREET_TYPES)
_SQL_TYPE_CASE = """CASE lower({t})
  WHEN 'street' THEN 'st' WHEN 'avenue' THEN 'ave' WHEN 'boulevard' THEN 'blvd'
  WHEN 'drive' THEN 'dr' WHEN 'road' THEN 'rd' WHEN 'lane' THEN 'ln'
  WHEN 'court' THEN 'ct' WHEN 'place' THEN 'pl' WHEN 'way' THEN 'way'
  WHEN 'terrace' THEN 'ter' WHEN 'circle' THEN 'cir' WHEN 'parkway' THEN 'pkwy'
  WHEN 'highway' THEN 'hwy'
  WHEN 'st' THEN 'st' WHEN 'ave' THEN 'ave' WHEN 'rd' THEN 'rd' WHEN 'dr' THEN 'dr'
  WHEN 'blvd' THEN 'blvd' WHEN 'ln' THEN 'ln' WHEN 'ct' THEN 'ct' WHEN 'pl' THEN 'pl'
  ELSE NULL END"""


def _extract_parse_sql() -> str:
    """``parse_components`` (the primary-path parse, parse.py:395+)
    re-expressed as DuckDB token/list lambdas over the extraction CTEs:
    unit-first gate → explicit apt/unit/#/suite marker → house (range
    kept whole) → separator-or-state/zip street/location split →
    trailing-city peel → back-to-front street-type scan → location with
    the Brooklyn/NY reference defaults.  Verified byte-identical to the
    Python kernel on 50k synthetic pages."""
    t = _SQL_TYPE_CASE
    return f"""{_extract_flat_cte()}, flat2 AS (
  SELECT doc_id, url, addr FROM flat
), p0 AS (
  SELECT doc_id, url, addr, trim(addr) AS c0,
         regexp_extract(trim(addr), '^([0-9]*[A-Za-z][A-Za-z0-9]{{0,2}})\\s+\\d', 1) AS uf
  FROM flat2
), p1 AS (
  SELECT doc_id, url, addr,
    CASE WHEN uf <> '' AND upper(uf) NOT IN ({_SQL_STATES}) THEN upper(uf) ELSE '' END AS unit_a,
    CASE WHEN uf <> '' AND upper(uf) NOT IN ({_SQL_STATES}) THEN trim(substr(c0, len(uf)+1)) ELSE c0 END AS c1
  FROM p0
), p2 AS (
  SELECT doc_id, url, addr,
    CASE WHEN unit_a <> '' THEN unit_a
         ELSE upper(regexp_extract(c1, '(?i)(?:\\b(apt|suite|unit|ste)\\.?\\s*|#\\s*)([A-Za-z0-9]{{1,3}})\\b', 2)) END AS unit,
    CASE WHEN unit_a = '' AND regexp_matches(c1, '(?i)(?:\\b(apt|suite|unit|ste)\\.?\\s*|#\\s*)([A-Za-z0-9]{{1,3}})\\b')
         THEN trim(regexp_replace(c1, '(?i)(?:\\b(apt|suite|unit|ste)\\.?\\s*|#\\s*)([A-Za-z0-9]{{1,3}})\\b', ' '))
         ELSE c1 END AS c2
  FROM p1
), p3 AS (
  SELECT *, CASE WHEN regexp_extract(c2, '^(\\d+-\\d+)', 1) <> '' THEN regexp_extract(c2, '^(\\d+-\\d+)', 1)
                 ELSE regexp_extract(c2, '^(\\d+[A-Za-z]*)', 1) END AS house
  FROM p2
), p4 AS (
  SELECT doc_id, url, addr, unit, house,
    CASE WHEN house <> '' THEN trim(substr(c2, len(house)+1)) ELSE c2 END AS c3
  FROM p3
), p5 AS (
  SELECT *, string_split_regex(c3, '\\s+') AS toks,
    CASE WHEN strpos(c3, ',') > 0 THEN 1 WHEN strpos(c3, ' - ') > 0 THEN 2
         WHEN strpos(c3, ' – ') > 0 THEN 3 WHEN strpos(c3, ' — ') > 0 THEN 4 ELSE 0 END AS sep
  FROM p4
), p6 AS (
  SELECT doc_id, url, addr, unit, house,
    CASE sep WHEN 1 THEN trim(split_part(c3, ',', 1)) WHEN 2 THEN trim(split_part(c3, ' - ', 1))
             WHEN 3 THEN trim(split_part(c3, ' – ', 1)) WHEN 4 THEN trim(split_part(c3, ' — ', 1))
      ELSE coalesce(
        array_to_string(list_slice(toks, 1,
          list_min(list_filter(list_transform(toks, (t, i) ->
            CASE WHEN (len(t) = 2 AND upper(t) IN ({_SQL_BIG5}))
                   OR regexp_matches(t, '^\\d{{5}}(-\\d{{4}})?$') THEN i END),
            x -> x IS NOT NULL)) - 1), ' '),
        c3) END AS street_part,
    CASE sep WHEN 1 THEN trim(substr(c3, strpos(c3, ',') + 1))
             WHEN 2 THEN trim(substr(c3, strpos(c3, ' - ') + 3))
             WHEN 3 THEN trim(substr(c3, strpos(c3, ' – ') + 3))
             WHEN 4 THEN trim(substr(c3, strpos(c3, ' — ') + 3))
      ELSE coalesce(
        array_to_string(list_slice(toks,
          list_min(list_filter(list_transform(toks, (t, i) ->
            CASE WHEN (len(t) = 2 AND upper(t) IN ({_SQL_BIG5}))
                   OR regexp_matches(t, '^\\d{{5}}(-\\d{{4}})?$') THEN i END),
            x -> x IS NOT NULL)), len(toks)), ' '),
        '') END AS loc_part
  FROM p5
), p7 AS (
  SELECT *, string_split_regex(street_part, '\\s+') AS stoks,
    coalesce(list_min(list_filter(list_transform(list_reverse(string_split_regex(street_part, '\\s+')),
      (t, i) -> CASE WHEN lower(t) NOT IN ({_SQL_CITY1}) THEN i END), x -> x IS NOT NULL)),
      len(string_split_regex(street_part, '\\s+')) + 1) - 1 AS n_peel
  FROM p6
), p8 AS (
  SELECT doc_id, url, addr, unit, house, loc_part,
    CASE WHEN n_peel > 0
         THEN lower(array_to_string(list_slice(stoks, len(stoks) - n_peel + 1, len(stoks)), ' '))
         ELSE '' END AS city_hint_raw,
    CASE WHEN n_peel > 0 THEN array_to_string(list_slice(stoks, 1, len(stoks) - n_peel), ' ')
         ELSE street_part END AS street_part2
  FROM p7
), p9 AS (
  SELECT *, string_split_regex(street_part2, '\\s+') AS s2,
    list_max(list_filter(list_transform(string_split_regex(street_part2, '\\s+'),
      (t, i) -> CASE WHEN ({t.format(t='t')}) IS NOT NULL THEN i END),
      x -> x IS NOT NULL)) AS tidx
  FROM p8
), p10 AS (
  SELECT doc_id, url, addr, unit, house, loc_part, city_hint_raw,
    CASE WHEN tidx IS NOT NULL THEN array_to_string(list_slice(s2, 1, tidx - 1), ' ')
         ELSE street_part2 END AS street_name,
    CASE WHEN tidx IS NOT NULL THEN {t.format(t='s2[tidx]')} ELSE '' END AS street_type,
    string_split_regex(loc_part, '\\s+') AS ltoks
  FROM p9
), p11 AS (
  SELECT doc_id, url, addr, unit, house, street_name, street_type, city_hint_raw,
    CASE WHEN loc_part = '' THEN ''
         ELSE coalesce(substr(ltoks[list_min(list_filter(list_transform(ltoks,
                (t, i) -> CASE WHEN regexp_matches(t, '^\\d{{5}}(-\\d{{4}})?$') THEN i END),
                x -> x IS NOT NULL))], 1, 5), '') END AS zip,
    CASE WHEN loc_part = '' THEN 'NY'
         ELSE coalesce(upper(ltoks[list_min(list_filter(list_transform(ltoks,
                (t, i) -> CASE WHEN len(t) = 2 AND upper(t) IN ({_SQL_BIG5}) THEN i END),
                x -> x IS NOT NULL))]), 'NY') END AS state,
    CASE WHEN loc_part = '' THEN 'Brooklyn'
         ELSE coalesce((CASE lower(ltoks[list_min(list_filter(list_transform(ltoks,
                (t, i) -> CASE WHEN lower(t) IN ({_SQL_CITY1}) THEN i END),
                x -> x IS NOT NULL))])
              WHEN 'brooklyn' THEN 'brooklyn' WHEN 'manhattan' THEN 'manhattan'
              WHEN 'queens' THEN 'queens' WHEN 'bronx' THEN 'bronx'
              WHEN 'nyc' THEN 'new york' END), 'Brooklyn') END AS city0
  FROM p10
)
SELECT doc_id, url, addr, {_norm_expr('addr')} AS norm_addr, house, street_name, unit,
  CASE WHEN addr = '' THEN ''
       WHEN city_hint_raw <> '' THEN
         (CASE city_hint_raw WHEN 'brooklyn' THEN 'Brooklyn' WHEN 'manhattan' THEN 'Manhattan'
               WHEN 'queens' THEN 'Queens' WHEN 'bronx' THEN 'Bronx' WHEN 'nyc' THEN 'New York'
          ELSE array_to_string(list_transform(string_split(city_hint_raw, ' '),
                 w -> upper(substr(w, 1, 1)) || substr(w, 2)), ' ') END)
       ELSE city0 END AS city,
  CASE WHEN addr = '' THEN '' ELSE state END AS state,
  CASE WHEN addr = '' THEN '' ELSE zip END AS zip
FROM p11 ORDER BY doc_id"""


def _text_annotate_sql() -> str:
    """The text-annotation kernels re-expressed in DuckDB: word lists
    via regexp_extract_all + list lambdas, 6-language profile scoring
    with argmax-in-profile-order (CASE chain), and the composite
    quality formula.  Unrounded doubles are bit-identical to numpy's
    (verified); both sides floor-quantize to 1e-6."""
    from address_address_matching_ray.functions.textstats import _LANG_PROFILES

    def prof_list(lg: str) -> str:
        return "[" + ",".join(
            "'" + w.replace("'", "''") + "'"
            for w in sorted(_LANG_PROFILES[lg])) + "]"

    langs = list(_LANG_PROFILES)
    score_exprs = ",\n         ".join(
        f"len(list_filter(words, w -> list_contains({prof_list(lg)}, w)))::DOUBLE"
        f" / greatest(len(words),1) AS s_{lg}"
        for lg in langs)
    best = "greatest(" + ", ".join(f"s_{lg}" for lg in langs) + ")"
    case_chain = " ".join(f"WHEN s_{lg} = best THEN '{lg}'" for lg in langs)
    q6 = "floor({} * 1e6) / 1e6"
    return f"""
WITH base AS (
  SELECT doc_id, text,
         regexp_extract_all(lower(text), '[a-z'']+') AS words,
         length(text) AS n_chars
  FROM documents
), feat AS (
  SELECT doc_id, text, words, n_chars,
         len(words) AS n_words,
         CASE WHEN len(words) = 0 THEN 0.0
              ELSE list_sum(list_transform(words, w -> length(w)))::DOUBLE / len(words) END AS mean_word_len,
         CASE WHEN len(words) = 0 THEN 0.0
              ELSE len(list_filter(words, w -> list_contains({prof_list('en')}, w)))::DOUBLE / len(words) END AS stop_ratio,
         len(regexp_extract_all(text, '[^\\w\\s]'))::DOUBLE / greatest(n_chars, 1) AS punct_ratio,
         len(regexp_extract_all(text, '\\d'))::DOUBLE / greatest(n_chars, 1) AS digit_ratio,
         {score_exprs}
  FROM base
), scored AS (
  SELECT *, {best} AS best,
    (least(n_words / 20.0, 1) * 0.3
     + least(stop_ratio / 0.4, 1) * 0.3
     + greatest(least(1 - punct_ratio * 4, 1), 0) * 0.2
     + greatest(least(1 - digit_ratio * 4, 1), 0) * 0.1
     + greatest(least(1 - abs(mean_word_len - 5) / 5, 1), 0) * 0.1) AS quality
  FROM feat
)
SELECT doc_id,
  CASE WHEN len(words) = 0 OR best < 0.05 THEN 'und' {case_chain} ELSE 'und' END AS lang_pred,
  n_chars, n_words,
  {q6.format('mean_word_len')} AS mean_word_len,
  {q6.format('stop_ratio')} AS stop_ratio,
  {q6.format('punct_ratio')} AS punct_ratio,
  {q6.format('digit_ratio')} AS digit_ratio,
  {q6.format('quality')} AS quality,
  CASE WHEN trim(text) = '' THEN 0 ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_tokens,
  len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS n_tokens_bpe
FROM scored ORDER BY doc_id"""


def _splitmix64_sql(col: str) -> str:
    """DuckDB expression reproducing ``functions.sketch.hash_values``
    (the splitmix64 finalizer) bit-exactly on non-negative int64
    input.  64-bit wrapping arithmetic is emulated with HUGEINT
    ``% 2**64``; the wrapping multiply is split into 32-bit halves so
    no intermediate exceeds 96 bits (HUGEINT holds 127)."""

    def mulmod(x: str, c: int) -> str:
        return (f"(((({x}) % 4294967296) * {c}"
                f" + (((({x}) // 4294967296) * {c}) % 4294967296)"
                f" * 4294967296) % 18446744073709551616)")

    def xorshift(x: str, s: int) -> str:
        return f"xor(({x})::UBIGINT, (({x})::UBIGINT >> {s}))::HUGEINT"

    e = f"((({col})::HUGEINT + 11400714819323198485) % 18446744073709551616)"
    e = xorshift(e, 30)
    e = mulmod(e, 13787848793156543929)
    e = xorshift(e, 27)
    e = mulmod(e, 10723151780598845931)
    e = xorshift(e, 31)
    return e


def _approx_distinct_users_sql(k: int = 64) -> str:
    """KMV bottom-k sketch replayed in SQL: same splitmix64 hash, same
    bottom-k-distinct selection, same ``(k-1)*2^64 / (kth+1)`` float64
    estimate as ``kmv_estimate`` (sketch.py:47).  Bit-exact because the
    hash is integer-exact and the estimate is one double divide on
    both sides."""
    return f"""
        WITH h AS (
          SELECT DISTINCT event_type, {_splitmix64_sql('user_id')}::UBIGINT AS hv
          FROM events),
        ranked AS (
          SELECT event_type, hv,
                 row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn,
                 count(*) OVER (PARTITION BY event_type) AS n_distinct
          FROM h)
        SELECT event_type,
               CASE WHEN max(n_distinct) < {k} THEN max(n_distinct)
                    ELSE CAST(round(({k} - 1)::DOUBLE * 18446744073709551616.0
                         / (max(CASE WHEN rn = {k} THEN hv END)::DOUBLE + 1.0))
                         AS BIGINT)
               END AS n_users_est
        FROM ranked WHERE rn <= {k}
        GROUP BY event_type ORDER BY event_type"""


def _pq_topk_sql(k: int = 5, m_subs: int = 4, n_cent: int = 16,
                iters: int = 4, rerank: int = 128, nq: int = 3,
                dim: int = 64) -> str:
    """similarity.pq_topk replayed: normalized micro-int vectors,
    integer-lattice per-subspace Lloyd (truncating ``//`` centroid
    update — matches numpy's sign-trick division), integer ADC
    shortlist, exact-cosine re-rank.  Scores stay OUT of the hash
    (rank/ids only, the ann_topk convention)."""
    sd = dim // m_subs
    ctes = [f"""mm AS MATERIALIZED (
          SELECT vec_id, list_transform(v, x -> x / greatest(
                   sqrt(list_sum(list_transform(v, y -> y*y))), 1e-12))
                 AS mv
          FROM (SELECT vec_id,
                       list_transform(embedding, x -> x::DOUBLE) AS v
                FROM embeddings)),
        ex AS MATERIALIZED (
          SELECT vec_id, (dim // {sd})::BIGINT AS sub,
                 (dim % {sd})::BIGINT AS sdim,
                 floor(x * 1e6)::BIGINT AS xq
          FROM (SELECT vec_id, unnest(mv) AS x,
                       unnest(range(len(mv))) AS dim FROM mm)),
        init AS MATERIALIZED (
          SELECT vec_id, row_number() OVER (
                   ORDER BY {_splitmix64_sql('vec_id')}, vec_id) - 1
                 AS cluster
          FROM (SELECT DISTINCT vec_id FROM embeddings)
          QUALIFY cluster < {n_cent}),
        c0 AS MATERIALIZED (
          SELECT e.sub, i.cluster, e.sdim, e.xq AS c
          FROM ex e JOIN init i USING (vec_id))"""]
    for t in range(iters):
        ctes.append(f"""d{t} AS (
          SELECT e.vec_id, e.sub, c.cluster,
                 sum((e.xq - c.c) * (e.xq - c.c)) AS dist
          FROM ex e JOIN c{t} c ON c.sub = e.sub AND c.sdim = e.sdim
          GROUP BY 1, 2, 3),
        a{t} AS MATERIALIZED (
          SELECT vec_id, sub, cluster FROM (
            SELECT *, row_number() OVER (PARTITION BY vec_id, sub
                       ORDER BY dist, cluster) AS rn FROM d{t})
          WHERE rn = 1),
        s{t} AS (
          SELECT a.sub, a.cluster, e.sdim, sum(e.xq) AS ssum,
                 count(*) AS n
          FROM a{t} a JOIN ex e
            ON e.vec_id = a.vec_id AND e.sub = a.sub
          GROUP BY 1, 2, 3),
        c{t + 1} AS MATERIALIZED (
          SELECT p.sub, p.cluster, p.sdim,
                 CASE WHEN s.n IS NULL THEN p.c
                      ELSE s.ssum // s.n END AS c
          FROM c{t} p LEFT JOIN s{t} s
            ON s.sub = p.sub AND s.cluster = p.cluster
           AND s.sdim = p.sdim)""")
    ctes.append(f"""dz AS (
          SELECT e.vec_id, e.sub, c.cluster,
                 sum((e.xq - c.c) * (e.xq - c.c)) AS dist
          FROM ex e JOIN c{iters} c
            ON c.sub = e.sub AND c.sdim = e.sdim
          GROUP BY 1, 2, 3),
        codes AS MATERIALIZED (
          SELECT vec_id, sub, cluster FROM (
            SELECT *, row_number() OVER (PARTITION BY vec_id, sub
                       ORDER BY dist, cluster) AS rn FROM dz)
          WHERE rn = 1),
        qs AS (SELECT vec_id AS q, sub, sdim, xq FROM ex
               WHERE vec_id < {nq}),
        tt AS (
          SELECT qs.q, c.sub, c.cluster,
                 sum((qs.xq - c.c) * (qs.xq - c.c)) AS td
          FROM qs JOIN c{iters} c
            ON c.sub = qs.sub AND c.sdim = qs.sdim
          GROUP BY 1, 2, 3),
        ad AS (
          SELECT t.q, cd.vec_id, sum(t.td) AS adist
          FROM codes cd JOIN tt t
            ON t.sub = cd.sub AND t.cluster = cd.cluster
          GROUP BY 1, 2),
        sl AS (SELECT q, vec_id FROM (
                 SELECT *, row_number() OVER (PARTITION BY q
                          ORDER BY adist, vec_id) AS rn FROM ad)
               WHERE rn <= {rerank}),
        qm AS (SELECT vec_id AS q, mv FROM mm WHERE vec_id < {nq}),
        sc AS (
          SELECT sl.q, sl.vec_id,
                 list_dot_product(qm.mv, m2.mv) AS score
          FROM sl JOIN qm ON qm.q = sl.q
                  JOIN mm m2 ON m2.vec_id = sl.vec_id)""")
    return (f"WITH {', '.join(ctes)}\n"
            f"""SELECT q::BIGINT AS query_idx, vec_id, rank FROM (
              SELECT *, row_number() OVER (PARTITION BY q
                       ORDER BY score DESC, vec_id) AS rank FROM sc)
            WHERE rank <= {k} ORDER BY query_idx, rank""")


def _kmeans_ctes(k: int, iters: int) -> list[str]:
    """Spherical k-means replayed as unrolled CTEs — one assign + one
    integer micro-unit centroid reduce per Lloyd iteration, exactly the
    ``similarity.embedding_kmeans`` arithmetic:

    * init = the k points with the smallest splitmix64(vec_id),
    * per-iteration centroid = S / sqrt(Σ S_dim²) where S is the
      order-free int64 sum of ``floor(m * 1e6)`` components (so both
      engines hold BIT-IDENTICAL centroids every iteration),
    * argmax ties break to the lowest cluster id,
    * the reported cosine is floor-quantized 1e-6 so BLAS-vs-SQL
      last-ulp dot-product noise cannot reach the hash.

    Valid while the corpus fits ``init_sample`` (the Ray side seeds
    from a bounded sample; true at every tested sf)."""
    ctes = [f"""pts AS MATERIALIZED (
          SELECT vec_id, list_transform(embedding, x -> x::DOUBLE) AS v
          FROM embeddings),
        m AS MATERIALIZED (
          SELECT vec_id,
                 list_transform(v, x -> x / greatest(
                   sqrt(list_sum(list_transform(v, y -> y*y))), 1e-12))
                 AS mv
          FROM pts),
        c0 AS MATERIALIZED (
          SELECT row_number() OVER (
                   ORDER BY {_splitmix64_sql('vec_id')}, vec_id) - 1
                 AS cluster, mv AS cv
          FROM m QUALIFY cluster < {k})"""]
    for t in range(iters):
        ctes.append(f"""a{t} AS MATERIALIZED (
          SELECT vec_id, cluster, mv FROM (
            SELECT m.vec_id, c.cluster, m.mv,
                   row_number() OVER (
                     PARTITION BY m.vec_id
                     ORDER BY list_dot_product(m.mv, c.cv) DESC,
                              c.cluster) AS rn
            FROM m CROSS JOIN c{t} c) WHERE rn = 1),
        s{t} AS MATERIALIZED (
          SELECT cluster,
                 list(s::DOUBLE ORDER BY dim) AS sl,
                 sum(s::HUGEINT * s) AS norm2
          FROM (
            SELECT cluster, dim, sum(floor(x * 1e6)::BIGINT) AS s
            FROM (SELECT cluster, unnest(mv) AS x,
                         unnest(range(len(mv))) AS dim
                  FROM a{t})
            GROUP BY cluster, dim)
          GROUP BY cluster),
        c{t + 1} AS MATERIALIZED (
          SELECT prev.cluster,
                 CASE WHEN s.norm2 IS NULL OR s.norm2 = 0 THEN prev.cv
                      ELSE list_transform(s.sl,
                             x -> x / sqrt(s.norm2::DOUBLE)) END AS cv
          FROM c{t} prev LEFT JOIN s{t} s USING (cluster))""")
    ctes.append(f"""asn AS MATERIALIZED (
          SELECT vec_id, cluster, floor(sim * 1e6) / 1e6 AS sim
          FROM (
            SELECT m.vec_id, c.cluster,
                   list_dot_product(m.mv, c.cv) AS sim,
                   row_number() OVER (
                     PARTITION BY m.vec_id
                     ORDER BY list_dot_product(m.mv, c.cv) DESC,
                              c.cluster) AS rn
            FROM m CROSS JOIN c{iters} c) WHERE rn = 1)""")
    return ctes


def _embedding_kmeans_sql(k: int = 10, iters: int = 5) -> str:
    ctes = _kmeans_ctes(k, iters)
    return (f"WITH {', '.join(ctes)}\n"
            "SELECT vec_id, cluster, sim FROM asn ORDER BY vec_id")


def _semantic_dedup_sql(k: int = 8, iters: int = 5,
                        threshold: float = 0.9) -> str:
    """SemDeDup keep rule replayed in SQL on top of the bit-identical
    k-means assignment (``_kmeans_ctes``): order each cluster by
    (quantized sim asc, id) and drop a point iff its cosine to any
    EARLIER clustermate exceeds ``threshold`` — the lower-triangle-max
    rule of ``similarity.semantic_dedup``.  The ordering key is the
    1e-6-quantized sim, so cross-engine rank is stable; the pairwise
    cosine only meets ``threshold`` in a strict compare, where
    last-ulp noise is immaterial on non-adversarial data."""
    ctes = _kmeans_ctes(k, iters)
    ctes.append("""ord AS MATERIALIZED (
          SELECT a.vec_id, a.cluster, a.sim, m.mv,
                 row_number() OVER (PARTITION BY a.cluster
                                    ORDER BY a.sim, a.vec_id) AS rnk
          FROM asn a JOIN m USING (vec_id))""")
    return (f"WITH {', '.join(ctes)}\n"
            f"""SELECT o.vec_id, o.cluster, o.sim,
                   coalesce(mx.maxsim <= {threshold!r}::DOUBLE, TRUE) AS keep
            FROM ord o LEFT JOIN (
              SELECT a.vec_id,
                     max(list_dot_product(a.mv, b.mv)) AS maxsim
              FROM ord a JOIN ord b
                ON a.cluster = b.cluster AND b.rnk < a.rnk
              GROUP BY a.vec_id) mx USING (vec_id)
            ORDER BY o.vec_id""")


_FS_PAIRS_SQL = """
        feats AS MATERIALIZED (
          SELECT c_custkey, c_nationkey,
                 substr(c_name, length(c_name)-2, 3) AS name3,
                 CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                 c_mktsegment AS seg
          FROM customer),
        pairs AS MATERIALIZED (
          SELECT CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END AS g_name,
                 CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                 CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                      WHEN abs(l.cents - r.cents) < 100000 THEN 1
                      ELSE 0 END AS g_bal
          FROM feats l JOIN feats r ON l.c_nationkey = r.c_nationkey
                                    AND l.c_custkey < r.c_custkey)"""


def _threshold_sweep_sql() -> str:
    """``er_em.match_threshold_sweep`` replayed in SQL: the
    fs_posteriors CTE chain (bit-identical posterior doubles), then
    integer micro-unit mass above each threshold literal (the same
    decimal tokens as ``SWEEP_THRESHOLDS``), ratios with the kernel's
    pinned operation order and zero-guards."""
    from address_address_matching_ray.pipelines.er_em import (
        SWEEP_THRESHOLDS,
    )

    thr_list = ", ".join(f"{t!r}::DOUBLE" for t in SWEEP_THRESHOLDS)
    return f"""
        WITH f AS (
          SELECT c_custkey, c_nationkey,
                 substr(c_name, length(c_name)-2, 3) AS name3,
                 CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                 c_mktsegment AS seg
          FROM customer),
        p AS (
          SELECT CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END AS g_name,
                 CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                 CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                      WHEN abs(l.cents - r.cents) < 100000 THEN 1
                      ELSE 0 END AS g_bal
          FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                            AND l.c_custkey < r.c_custkey),
        s AS (
          SELECT
            0.05::DOUBLE
              * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                             ELSE 0.85::DOUBLE END)
              * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                            ELSE 0.75::DOUBLE END)
              * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                            WHEN 1 THEN 0.3::DOUBLE
                            ELSE 0.6::DOUBLE END) AS num,
            (1.0::DOUBLE - 0.05::DOUBLE)
              * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                             ELSE 0.01::DOUBLE END)
              * (CASE g_seg WHEN 0 THEN 0.8::DOUBLE
                            ELSE 0.2::DOUBLE END)
              * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                            WHEN 1 THEN 0.25::DOUBLE
                            ELSE 0.05::DOUBLE END) AS den_u
          FROM p),
        post AS (
          SELECT num / (num + den_u) AS post,
                 CAST(floor((num / (num + den_u)) * 1000000.0::DOUBLE)
                      AS BIGINT) AS mu
          FROM s),
        tot AS (SELECT sum(mu) AS mu_tot FROM post),
        thr AS (SELECT unnest([{thr_list}]) AS threshold),
        agg AS (
          SELECT threshold,
                 count(CASE WHEN post >= threshold THEN 1 END) AS n_above,
                 coalesce(sum(CASE WHEN post >= threshold THEN mu END),
                          0) AS mu_above
          FROM thr CROSS JOIN post GROUP BY threshold),
        fin AS (
          SELECT threshold, n_above,
                 CASE WHEN n_above = 0 THEN 0.0::DOUBLE
                      ELSE (mu_above::DOUBLE / 1000000.0::DOUBLE)
                           / n_above::DOUBLE END AS exp_precision,
                 mu_above::DOUBLE / mu_tot::DOUBLE AS exp_recall
          FROM agg, tot)
        SELECT threshold, n_above, exp_precision, exp_recall,
               CASE WHEN exp_precision + exp_recall = 0.0::DOUBLE
                    THEN 0.0::DOUBLE
                    ELSE ((2.0::DOUBLE * exp_precision) * exp_recall)
                         / (exp_precision + exp_recall) END AS exp_f1
        FROM fin ORDER BY threshold"""


def _fs_em_sql(iters: int = 10) -> str:
    """Winkler EM replayed as unrolled CTE layers — exactly the
    ``er_em.fs_em`` arithmetic per round (E-step posterior with the
    pinned lam·m_name·m_seg·m_bal multiply chain, M-step clip /
    renormalize in numpy's small-array sequential-sum order), with the
    same deterministic init (m from the fixed agreement simplex, u
    from exact level counts, λ₀ = 0.1) and ``tol = 0`` so both engines
    run the full ``iters`` budget.  Output parameters floor-quantized
    1e-6 on both sides: per-level Σw aggregation order differs
    between engines at last-ulp size only."""
    fields = [("name", 2), ("seg", 2), ("bal", 3)]
    B_HI = repr(1.0 - 1e-6)

    def m_init(levels: int) -> list[str]:
        import numpy as _np
        w0 = (_np.arange(levels, dtype="float64") + 1.0) ** 2
        return [repr(v) for v in (w0 / w0.sum())]

    def case_chain(p: str, kind: str) -> str:
        parts = [f"{p}.lam" if kind == "m"
                 else f"(1.0::DOUBLE - {p}.lam)"]
        for f, levels in fields:
            whens = " ".join(f"WHEN {lv} THEN {p}.{kind}_{f}_{lv}"
                             for lv in range(levels - 1))
            parts.append(f"(CASE g_{f} {whens} "
                         f"ELSE {p}.{kind}_{f}_{levels - 1} END)")
        return " * ".join(parts)

    # exact level counts (n never changes across iterations)
    cnt_cols = ["count(*)::DOUBLE AS n_all"]
    for f, levels in fields:
        for lv in range(levels):
            cnt_cols.append(f"(count(*) FILTER (WHERE g_{f} = {lv}))"
                            f"::DOUBLE AS n_{f}_{lv}")
    ctes = [_FS_PAIRS_SQL,
            f"""cnt AS MATERIALIZED (
          SELECT {', '.join(cnt_cols)} FROM pairs)"""]

    # init params: m = fixed simplex literals, u = clipped count freqs
    p0 = ["0.1::DOUBLE AS lam"]
    for f, levels in fields:
        for lv, lit in enumerate(m_init(levels)):
            p0.append(f"{lit}::DOUBLE AS m_{f}_{lv}")
        terms = [f"greatest(n_{f}_{lv}, 1.0::DOUBLE)"
                 for lv in range(levels)]
        total = terms[0]
        for t_ in terms[1:]:
            total = f"({total} + {t_})"
        for lv in range(levels):
            p0.append(f"{terms[lv]} / {total} AS u_{f}_{lv}")
    ctes.append(f"p0 AS MATERIALIZED (SELECT {', '.join(p0)} FROM cnt)")

    for t in range(iters):
        sw_cols = ["sum(w) AS sw_all"]
        for f, levels in fields:
            for lv in range(levels):
                sw_cols.append(f"coalesce(sum(w) FILTER "
                               f"(WHERE g_{f} = {lv}), 0.0) AS sw_{f}_{lv}")
        ctes.append(f"""e{t} AS MATERIALIZED (
          SELECT {', '.join(sw_cols)}
          FROM (SELECT num / (num + den) AS w, g_name, g_seg, g_bal
                FROM (SELECT g_name, g_seg, g_bal,
                             {case_chain('P', 'm')} AS num,
                             {case_chain('P', 'u')} AS den
                      FROM pairs, p{t} P)))""")
        r_cols = [f"least(greatest(e.sw_all / c.n_all, 1e-6::DOUBLE), "
                  f"{B_HI}::DOUBLE) AS lam"]
        for f, levels in fields:
            for lv in range(levels):
                r_cols.append(
                    f"least(greatest(e.sw_{f}_{lv} / greatest(e.sw_all, "
                    f"1e-300::DOUBLE), 1e-6::DOUBLE), {B_HI}::DOUBLE) "
                    f"AS mm_{f}_{lv}")
                r_cols.append(
                    f"least(greatest((c.n_{f}_{lv} - e.sw_{f}_{lv}) / "
                    f"greatest(c.n_all - e.sw_all, 1e-300::DOUBLE), "
                    f"1e-6::DOUBLE), {B_HI}::DOUBLE) AS uu_{f}_{lv}")
        ctes.append(f"r{t} AS MATERIALIZED (SELECT {', '.join(r_cols)} "
                    f"FROM e{t} e, cnt c)")
        n_cols = ["lam"]
        for f, levels in fields:
            for kind in ("m", "u"):
                pre = "mm" if kind == "m" else "uu"
                tot = f"{pre}_{f}_0"
                for lv in range(1, levels):
                    tot = f"({tot} + {pre}_{f}_{lv})"
                for lv in range(levels):
                    n_cols.append(f"{pre}_{f}_{lv} / {tot} "
                                  f"AS {kind}_{f}_{lv}")
        ctes.append(f"p{t + 1} AS MATERIALIZED "
                    f"(SELECT {', '.join(n_cols)} FROM r{t})")

    q = "floor({} * 1e6) / 1e6"
    outs = []
    for f, levels in fields:
        for lv in range(levels):
            outs.append(
                f"SELECT 'g_{f}' AS field, {lv}::BIGINT AS level, "
                f"{q.format(f'm_{f}_{lv}')} AS m, "
                f"{q.format(f'u_{f}_{lv}')} AS u, "
                f"{q.format(f'log2(m_{f}_{lv} / u_{f}_{lv})')} "
                f"AS match_weight, {q.format('lam')} AS lam "
                f"FROM p{iters}")
    return (f"WITH {', '.join(ctes)}\n"
            + "\nUNION ALL\n".join(outs)
            + "\nORDER BY field, level")


def _hyperplane_ctes(bits: int, seed: int,
                     band_bits: int | None = None) -> list[str]:
    """CTEs reproducing ``similarity._HyperplaneHasher`` bit-exactly:
    plane component (i, j) is an Irwin–Hall(12) sum of splitmix64
    uniforms minus 6, accumulated in pinned t-ascending order (the
    Python loop does the same), and a point's bucket is the sign
    pattern of its normalized-double dot products with the planes.
    Produces ``m`` (normalized vectors) and ``bk`` (vec_id → bucket).
    With ``band_bits`` set, ``bits`` is the TOTAL plane count and bk
    emits one row per (vec_id, band): band ``a`` packs planes
    ``a·band_bits .. (a+1)·band_bits`` with key
    ``(a << band_bits) | packed`` — the multi-band blocking of
    ``embedding_dedup(bands=...)``."""
    base = seed * 1_000_003
    u_cols = []
    for t in range(12):
        idx = f"({base} + (d.i * {bits} + b.j) * 12 + {t})"
        u_cols.append(f"({_splitmix64_sql(idx)})::UBIGINT::DOUBLE"
                      f" / 18446744073709551616.0 AS u{t}")
    chain = "u0"
    for t in range(1, 12):
        chain = f"({chain} + u{t})"
    if band_bits is None:
        bk_body = """SELECT vec_id,
                 sum(CASE WHEN dot > 0 THEN (1::BIGINT << j)
                          ELSE 0 END)::BIGINT AS bucket
          FROM (SELECT m.vec_id, pl.j,
                       list_dot_product(m.mv, pl.pv) AS dot
                FROM m CROSS JOIN pl)
          GROUP BY vec_id"""
    else:
        bk_body = f"""SELECT vec_id,
                 (band * {1 << band_bits}
                  + sum(CASE WHEN dot > 0
                             THEN (1::BIGINT << (j % {band_bits}))
                             ELSE 0 END))::BIGINT AS bucket
          FROM (SELECT m.vec_id, pl.j, (pl.j // {band_bits}) AS band,
                       list_dot_product(m.mv, pl.pv) AS dot
                FROM m CROSS JOIN pl)
          GROUP BY vec_id, band"""
    return [f"""dims AS (
          SELECT unnest(range(len(embedding)))::BIGINT AS i
          FROM (SELECT embedding FROM embeddings LIMIT 1)),
        planes AS MATERIALIZED (
          SELECT i, j, ({chain} - 6.0) AS p
          FROM (SELECT d.i, b.j, {', '.join(u_cols)}
                FROM dims d CROSS JOIN
                     (SELECT unnest(range({bits}))::BIGINT AS j) b)),
        pl AS MATERIALIZED (
          SELECT j, list(p ORDER BY i) AS pv FROM planes GROUP BY j),
        pts AS MATERIALIZED (
          SELECT vec_id, list_transform(embedding, x -> x::DOUBLE) AS v
          FROM embeddings),
        m AS MATERIALIZED (
          SELECT vec_id,
                 list_transform(v, x -> x / greatest(
                   sqrt(list_sum(list_transform(v, y -> y*y))), 1e-12))
                 AS mv
          FROM pts),
        bk AS MATERIALIZED (
          {bk_body})"""]


def _ann_lsh_sql(k: int = 5, bits: int = 6, probes: int = 2,
                 seed: int = 4, n_queries: int = 3) -> str:
    """Multi-probe LSH top-k replayed in SQL: identical hash-derived
    hyperplanes (``_hyperplane_ctes``), the identical probe-mask
    sequence (``similarity.probe_masks``), exact rescoring of bucket
    candidates, rank by (score DESC, id).  Scores stay internal (the
    output is rank-only), so cross-engine last-ulp dot noise can only
    matter on exact score ties, which break by id identically."""
    from address_address_matching_ray.pipelines.similarity import (
        probe_masks,
    )

    masks = probe_masks(bits, 1 + probes * bits)
    ctes = _hyperplane_ctes(bits, seed)
    ctes.append(f"""q AS MATERIALIZED (
          SELECT m.vec_id AS query_idx, m.mv, bk.bucket
          FROM m JOIN bk USING (vec_id)
          WHERE m.vec_id < {n_queries})""")
    ctes.append(f"""cand AS MATERIALIZED (
          SELECT q.query_idx, q.mv AS qv, b.vec_id
          FROM q
          JOIN (SELECT query_idx,
                       xor(bucket::UBIGINT, msk::UBIGINT)::BIGINT AS pb
                FROM q, unnest({masks!r}::BIGINT[]) AS t(msk)) pr
            USING (query_idx)
          JOIN bk b ON b.bucket = pr.pb)""")
    return (f"WITH {', '.join(ctes)}\n"
            f"""SELECT query_idx, vec_id, rank FROM (
              SELECT c.query_idx, c.vec_id,
                     row_number() OVER (
                       PARTITION BY c.query_idx
                       ORDER BY list_dot_product(c.qv, pm.mv) DESC,
                                c.vec_id) AS rank
              FROM cand c JOIN m pm ON pm.vec_id = c.vec_id)
            WHERE rank <= {k} ORDER BY query_idx, rank""")


def _ann_ivf_sql(k: int = 5, n_centroids: int = 16, nprobe: int = 6,
                 iters: int = 10, n_queries: int = 3) -> str:
    """IVF top-k replayed in SQL: the codebook is the same unrolled
    integer-micro-unit Lloyd fit as ``_kmeans_ctes`` (bit-identical to
    ``similarity._spherical_kmeans``), a query probes its ``nprobe``
    closest centroids ((dot DESC, centroid ASC) order — pinned on both
    engines), candidates are the points whose nearest centroid (the
    ``asn`` CTE, ties low) falls in the probe set, and the exact rerank
    is (score DESC, id).  Rank-only output — score noise can't reach
    the hash.  Valid while the corpus fits ``train_sample``."""
    ctes = _kmeans_ctes(n_centroids, iters)
    ctes.append(f"""q AS MATERIALIZED (
          SELECT vec_id AS query_idx, mv FROM m
          WHERE vec_id < {n_queries})""")
    ctes.append(f"""qprobe AS MATERIALIZED (
          SELECT query_idx, cluster FROM (
            SELECT q.query_idx, c.cluster,
                   row_number() OVER (
                     PARTITION BY q.query_idx
                     ORDER BY list_dot_product(q.mv, c.cv) DESC,
                              c.cluster) AS rn
            FROM q CROSS JOIN c{iters} c) WHERE rn <= {nprobe})""")
    return (f"WITH {', '.join(ctes)}\n"
            f"""SELECT query_idx, vec_id, rank FROM (
              SELECT p.query_idx, a.vec_id,
                     row_number() OVER (
                       PARTITION BY p.query_idx
                       ORDER BY list_dot_product(q.mv, pm.mv) DESC,
                                a.vec_id) AS rank
              FROM qprobe p
              JOIN asn a ON a.cluster = p.cluster
              JOIN q ON q.query_idx = p.query_idx
              JOIN m pm ON pm.vec_id = a.vec_id)
            WHERE rank <= {k} ORDER BY query_idx, rank""")


_DECON_SQL = """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS t FROM documents),
            b AS (SELECT DISTINCT array_to_string(t[i:i+7], ' ') AS ng
                  FROM toks, UNNEST(generate_series(1, len(t)-8+1)) AS u(i)
                  WHERE doc_id % 97 = 0 AND len(t) >= 8),
            pos AS (SELECT doc_id, array_to_string(t[i:i+7], ' ') AS ng
                    FROM toks, UNNEST(generate_series(1, len(t)-8+1)) AS u(i)
                    WHERE doc_id % 97 <> 0 AND len(t) >= 8),
            hits AS (SELECT pos.doc_id, count(b.ng) AS n_hits
                     FROM pos LEFT JOIN b USING (ng)
                     GROUP BY pos.doc_id)
            SELECT tk.doc_id,
                   greatest(len(tk.t) - 7, 0)::BIGINT AS n_pos,
                   COALESCE(h.n_hits, 0)::BIGINT AS n_hits,
                   COALESCE(h.n_hits, 0) = 0 AS keep
            FROM toks tk LEFT JOIN hits h USING (doc_id)
            WHERE tk.doc_id % 97 <> 0 ORDER BY tk.doc_id"""


def _pagerank_sql(iters: int = 5, scale: int = 10 ** 12) -> str:
    """``graph.bipartite_pagerank`` replayed exactly: the integer
    micro-unit arithmetic (``scale // n`` init, ``r // d`` per-edge
    contribution, ``tele + (85·Σ)//100`` update) makes every per-node
    sum order-free, so each power-iteration round is one CTE layer and
    DuckDB's ``//`` (trunc division ≡ floor for these all-positive
    values) reproduces numpy int64 ``//`` bit-for-bit."""
    ctes = [f"""e0 AS MATERIALIZED (
          SELECT DISTINCT o.o_custkey * 2 AS c, l.l_suppkey * 2 + 1 AS s
          FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey),
        e AS MATERIALIZED (
          SELECT c AS src, s AS dst FROM e0
          UNION ALL SELECT s AS src, c AS dst FROM e0),
        deg AS MATERIALIZED (
          SELECT src AS node, count(*)::BIGINT AS d FROM e GROUP BY src),
        nn AS (SELECT count(*)::BIGINT AS n FROM deg),
        r0 AS (SELECT node, ({scale} // nn.n)::BIGINT AS r
               FROM deg, nn)"""]
    for k in range(1, iters + 1):
        ctes.append(f"""r{k} AS (
          SELECT s.node,
                 ((15 * ({scale} // nn.n)) // 100
                  + (85 * s.s) // 100)::BIGINT AS r
          FROM (SELECT e.dst AS node, sum(r.r // deg.d)::BIGINT AS s
                FROM e JOIN r{k - 1} r ON r.node = e.src
                       JOIN deg ON deg.node = e.src
                GROUP BY e.dst) s, nn)""")
    return (f"WITH {', '.join(ctes)}\n"
            f"""SELECT CASE WHEN node % 2 = 0 THEN 'customer'
                        ELSE 'supplier' END AS node_kind,
                   CASE WHEN node % 2 = 0 THEN node // 2
                        ELSE (node - 1) // 2 END AS key,
                   r AS rank
            FROM r{iters} ORDER BY node_kind, key""")


def _embedding_dedup_sql(threshold: float, bits: int = 10,
                         bands: int = 2, seed: int = 42) -> str:
    """Hyperplane-blocked cosine dedup replayed in SQL: identical
    banded buckets (``_hyperplane_ctes`` with ``band_bits`` — one
    ``bits``-bit key per band, candidates co-bucket under ANY band;
    DISTINCT collapses cross-band duplicate pairs, mirroring the Ray
    side where duplicate accepted edges are CC-harmless), in-bucket
    all-pairs verify on the float32-roundtripped vectors
    (``(x::REAL)::DOUBLE`` — the Ray side ships float32 through the
    shuffle and upcasts before the dot), connected components via a
    recursive CTE, keep = not a non-minimum member of any component.
    Valid in the cap-free regime (every bucket under
    ``_EmbCaps.max_block_size`` — true at test scales, where per-band
    2^10 buckets hold ≤ a few of 500 vectors each)."""
    ctes = _hyperplane_ctes(bits * bands, seed, band_bits=bits)
    ctes.append(f"""ed0 AS MATERIALIZED (
          SELECT DISTINCT a.vec_id AS l, b.vec_id AS r
          FROM (SELECT m.vec_id, m.mv, bk.bucket
                FROM m JOIN bk USING (vec_id)) a
          JOIN (SELECT m.vec_id, m.mv, bk.bucket
                FROM m JOIN bk USING (vec_id)) b
            ON a.bucket = b.bucket AND a.vec_id < b.vec_id
          WHERE list_dot_product(
                  list_transform(a.mv, x -> (x::REAL)::DOUBLE),
                  list_transform(b.mv, x -> (x::REAL)::DOUBLE))
                >= {threshold!r}::DOUBLE)""")
    ctes.append("""nodes AS (SELECT l AS n FROM ed0
                   UNION SELECT r FROM ed0),
        ed AS (SELECT l, r FROM ed0 UNION ALL SELECT r AS l, l AS r FROM ed0),
        reach AS (
          SELECT n AS node, n AS label FROM nodes
          UNION
          SELECT ed.l AS node, reach.label AS label
          FROM ed JOIN reach ON reach.node = ed.r),
        dupes AS (
          SELECT node FROM reach GROUP BY node
          HAVING node != min(label))""")
    return (f"WITH RECURSIVE {', '.join(ctes)}\n"
            """SELECT vec_id, label FROM embeddings
            WHERE vec_id NOT IN (SELECT node FROM dupes)
            ORDER BY vec_id""")


def oracle_sql() -> dict[str, str]:
    _write_oracle_inputs()
    return {
        "extract_addresses": _extract_addresses_sql(),
        "extract_parse": _extract_parse_sql(),
        "text_annotate": _text_annotate_sql(),
        "media_decode": f"""
            SELECT media_id, kind, len(payload_bytes)::BIGINT AS n_bytes,
                   list_avg(payload_bytes)::DOUBLE AS byte_mean
            FROM read_parquet('{_ORACLE_MEDIA_PATH}') ORDER BY media_id""",
        "media_frames": f"""
            SELECT media_id, kind,
                   unnest(range(0, duration_ms, 1000))::BIGINT AS frame_ts_ms
            FROM read_parquet('{_ORACLE_MEDIA_PATH}')
            WHERE kind = 'video' AND duration_ms > 0 AND media_id < 120
            ORDER BY media_id, frame_ts_ms""",
        "exact_dedup": """
            SELECT doc_id, text, lang, source, n_chars, n_dups FROM (
              SELECT d.*, count(*) OVER (PARTITION BY norm) AS n_dups,
                     row_number() OVER (PARTITION BY norm ORDER BY doc_id) AS rn
              FROM (SELECT *, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS norm
                    FROM documents) d)
            WHERE rn = 1 ORDER BY doc_id""",
        # verify-math oracle for the LSH dedup family: same token-set
        # Jaccard arithmetic as batch_set_jaccard (100.0*i/u doubles,
        # floor-1e-6 quantize — verified bit-identical at sf0.01)
        # full MinHash-LSH dedup replay (round 5): md5 base hash ->
        # seeded (a*x+b) % (2^61-1) & (2^32-1) signature mins -> band
        # csv keys (md5) -> distinct co-banded pairs -> word-Jaccard
        # verify (the jaccard_verify arithmetic) -> recursive-CTE CC ->
        # min-id keep.  Cap-free regime asserted in pytest.
        "minhash_dedup_md5": f"""
            WITH RECURSIVE
            {_md5_lsh_ctes()},
            vt AS (SELECT doc_id, list_distinct(ws) AS tk FROM toks),
            ed0 AS MATERIALIZED (
              SELECT l, r FROM (
                SELECT c.l, c.r,
                       len(list_intersect(a.tk, b.tk)) AS i,
                       len(a.tk) AS la, len(b.tk) AS lb
                FROM cand c JOIN vt a ON a.doc_id = c.l
                            JOIN vt b ON b.doc_id = c.r)
              WHERE la + lb - i = 0
                 OR 100.0 * i / (la + lb - i) >= 70.0),
            {_CC_CTES}
            SELECT doc_id, text, lang, source, n_chars FROM documents
            WHERE doc_id NOT IN (SELECT node FROM dupes)
            ORDER BY doc_id""",
        # same md5 LSH candidates, char-5-gram Jaccard verify >= 60
        "ngram_dedup_md5": f"""
            WITH RECURSIVE
            {_md5_lsh_ctes()},
            nt AS (SELECT doc_id, array_to_string(ws, ' ') AS t
                   FROM toks),
            gr AS (
              SELECT doc_id, substr(t, i, 5) AS g
              FROM nt, LATERAL unnest(range(1, len(t) - 3)) AS r(i)
              WHERE len(t) >= 5
              UNION ALL
              SELECT doc_id, t FROM nt WHERE len(t) BETWEEN 1 AND 4),
            gs AS (SELECT doc_id, list_distinct(list(g)) AS tk
                   FROM gr GROUP BY doc_id),
            ed0 AS MATERIALIZED (
              SELECT l, r FROM (
                SELECT c.l, c.r,
                       len(list_intersect(coalesce(a.tk, []),
                                          coalesce(b.tk, []))) AS i,
                       len(coalesce(a.tk, [])) AS la,
                       len(coalesce(b.tk, [])) AS lb
                FROM cand c LEFT JOIN gs a ON a.doc_id = c.l
                            LEFT JOIN gs b ON b.doc_id = c.r)
              WHERE la + lb - i = 0
                 OR 100.0 * i / (la + lb - i) >= 60.0),
            {_CC_CTES}
            SELECT doc_id, text, lang, source, n_chars FROM documents
            WHERE doc_id NOT IN (SELECT node FROM dupes)
            ORDER BY doc_id""",
        # cluster VIEW of the md5 minhash edge graph: component id =
        # min member, member counts; only multi-member components
        "dup_clusters_md5": f"""
            WITH RECURSIVE
            {_md5_lsh_ctes()},
            vt AS (SELECT doc_id, list_distinct(ws) AS tk FROM toks),
            ed0 AS MATERIALIZED (
              SELECT l, r FROM (
                SELECT c.l, c.r,
                       len(list_intersect(a.tk, b.tk)) AS i,
                       len(a.tk) AS la, len(b.tk) AS lb
                FROM cand c JOIN vt a ON a.doc_id = c.l
                            JOIN vt b ON b.doc_id = c.r)
              WHERE la + lb - i = 0
                 OR 100.0 * i / (la + lb - i) >= 70.0),
            nodes AS (SELECT l AS n FROM ed0 UNION SELECT r FROM ed0),
            ed AS (SELECT l, r FROM ed0
                   UNION ALL SELECT r AS l, l AS r FROM ed0),
            reach AS (
              SELECT n AS node, n AS label FROM nodes
              UNION
              SELECT ed.l AS node, reach.label AS label
              FROM ed JOIN reach ON reach.node = ed.r),
            lab AS (SELECT node, min(label) AS cluster_id
                    FROM reach GROUP BY node)
            SELECT cluster_id::BIGINT AS cluster_id,
                   count(*)::BIGINT AS n_members
            FROM lab GROUP BY 1 ORDER BY cluster_id""",
        # md5-seam simhash: per-token md5 64-bit hash -> vote/sign
        # signature -> 16-bit band slices (md5 keys) -> Hamming <= 3
        "simhash_dedup_md5": f"""
            WITH RECURSIVE
            toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text),
                       '\\s+'), x -> x <> '') AS ws
              FROM documents),
            tk AS (SELECT doc_id, unnest(ws) AS w FROM toks),
            th AS (SELECT doc_id, md5_number_lower(w) AS h FROM tk),
            votes AS (
              SELECT doc_id, b,
                     sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END)
                       AS v
              FROM th, LATERAL unnest(range(0, 64)) AS r(b)
              GROUP BY doc_id, b),
            sigs AS (
              SELECT doc_id,
                     bit_or(CASE WHEN v > 0 THEN (1::UBIGINT << b)
                                 ELSE 0::UBIGINT END) AS sig
              FROM votes GROUP BY doc_id
              UNION ALL
              SELECT doc_id, 0::UBIGINT FROM documents
              WHERE doc_id NOT IN (SELECT doc_id FROM tk)),
            bkeys AS (
              SELECT doc_id, sig,
                     md5_number_lower(CAST(b AS VARCHAR) || ':' ||
                       CAST((sig >> (16 * b)::UBIGINT) & 65535
                            AS VARCHAR)) AS bk
              FROM sigs, LATERAL unnest(range(0, 4)) AS r(b)),
            ed0 AS MATERIALIZED (
              SELECT DISTINCT a.doc_id AS l, b.doc_id AS r
              FROM bkeys a JOIN bkeys b
                ON a.bk = b.bk AND a.doc_id < b.doc_id
              WHERE bit_count(xor(a.sig, b.sig)) <= 3),
            {_CC_CTES}
            SELECT doc_id, text, lang, source, n_chars FROM documents
            WHERE doc_id NOT IN (SELECT node FROM dupes)
            ORDER BY doc_id""",
"jaccard_verify": r"""
            WITH t AS (
              SELECT doc_id,
                     list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS toks
              FROM documents),
            p AS (
              SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                     len(list_intersect(a.toks, b.toks)) AS i,
                     len(a.toks) AS la, len(b.toks) AS lb
              FROM t a JOIN t b ON a.doc_id < b.doc_id)
            SELECT left_id, right_id,
                   floor(CASE WHEN la + lb - i = 0 THEN 100.0
                              ELSE 100.0 * i / (la + lb - i) END * 1e6)
                   / 1e6 AS sim
            FROM p
            WHERE la + lb - i = 0 OR 100.0 * i / (la + lb - i) >= 70.0
            ORDER BY left_id, right_id""",
        # exact prefix-filtered Jaccard join: same arithmetic as
        # jaccard_verify, docs with empty token sets excluded
        "jaccard_join": r"""
            WITH t AS (
              SELECT doc_id,
                     list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS toks
              FROM documents),
            p AS (
              SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                     len(list_intersect(a.toks, b.toks)) AS i,
                     len(a.toks) AS la, len(b.toks) AS lb
              FROM t a JOIN t b ON a.doc_id < b.doc_id
              WHERE len(a.toks) > 0 AND len(b.toks) > 0)
            SELECT left_id, right_id,
                   floor(100.0 * i / (la + lb - i) * 1e6) / 1e6 AS sim
            FROM p
            WHERE 100.0 * i / (la + lb - i) >= 70.0
            ORDER BY left_id, right_id""",
        # containment arithmetic as batch_set_containment (100.0*i/la
        # left-assoc doubles, empty side -> 100, floor-1e-6 quantize)
        "containment_pairs": r"""
            WITH t AS (
              SELECT doc_id,
                     list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS toks
              FROM documents),
            p AS (
              SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                     len(list_intersect(a.toks, b.toks)) AS i,
                     len(a.toks) AS la, len(b.toks) AS lb
              FROM t a JOIN t b ON a.doc_id < b.doc_id),
            c AS (
              SELECT left_id, right_id,
                     CASE WHEN la = 0 THEN 100.0
                          ELSE 100.0 * i / la END AS c_lr,
                     CASE WHEN lb = 0 THEN 100.0
                          ELSE 100.0 * i / lb END AS c_rl
              FROM p)
            SELECT left_id, right_id,
                   floor(c_lr * 1e6) / 1e6 AS cont_lr,
                   floor(c_rl * 1e6) / 1e6 AS cont_rl
            FROM c
            WHERE greatest(c_lr, c_rl) >= 80.0
            ORDER BY left_id, right_id""",
        # exact prefix-filtered scale path: same arithmetic, docs with
        # empty token sets excluded (they emit no prefix tokens)
        "containment_join": r"""
            WITH t AS (
              SELECT doc_id,
                     list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS toks
              FROM documents),
            p AS (
              SELECT a.doc_id AS left_id, b.doc_id AS right_id,
                     len(list_intersect(a.toks, b.toks)) AS i,
                     len(a.toks) AS la, len(b.toks) AS lb
              FROM t a JOIN t b ON a.doc_id < b.doc_id
              WHERE len(a.toks) > 0 AND len(b.toks) > 0),
            c AS (
              SELECT left_id, right_id,
                     100.0 * i / la AS c_lr,
                     100.0 * i / lb AS c_rl
              FROM p)
            SELECT left_id, right_id,
                   floor(c_lr * 1e6) / 1e6 AS cont_lr,
                   floor(c_rl * 1e6) / 1e6 AS cont_rl
            FROM c
            WHERE greatest(c_lr, c_rl) >= 80.0
            ORDER BY left_id, right_id""",
        "ann_lsh_topk": _ann_lsh_sql(k=5, bits=6, probes=2, seed=4),
        "ann_ivf_topk": _ann_ivf_sql(k=5, n_centroids=16, nprobe=6),
        "ann_pq_topk": _pq_topk_sql(),
        "embedding_dedup": _embedding_dedup_sql(threshold=0.3),
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_idx, embedding FROM embeddings WHERE vec_id < 3)
            SELECT query_idx, vec_id, rank FROM (
              SELECT q.query_idx, e.vec_id,
                     row_number() OVER (
                       PARTITION BY q.query_idx
                       ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                                e.vec_id) AS rank
              FROM q CROSS JOIN embeddings e)
            WHERE rank <= 5 ORDER BY query_idx, rank""",
        "token_stats": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_tokens,
                   length(text) AS text_chars
            FROM documents ORDER BY doc_id""",
        "lang_distribution": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang ORDER BY lang""",
        "word_frequencies": """
            SELECT word, count(*) AS n FROM (
              SELECT unnest(string_split_regex(lower(text), '\\s+')) AS word
              FROM documents)
            WHERE word <> '' GROUP BY word
            ORDER BY n DESC, word LIMIT 50""",
        "normalize_docs": _normalize_sql(),
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
            ORDER BY c_custkey""",
        "orders_with_returns": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            WHERE o_orderkey IN
              (SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'R')
            ORDER BY o_orderkey""",
        "approx_word_frequencies": """
            -- exact in the below-sketch-capacity regime (vocab < k):
            -- same ground truth as word_frequencies
            SELECT word, count(*) AS n FROM (
              SELECT unnest(string_split_regex(lower(text), '\\s+')) AS word
              FROM documents)
            WHERE word <> '' GROUP BY word
            ORDER BY n DESC, word LIMIT 50""",
        "window_functions": """
            SELECT user_id, event_id,
                   CAST(row_number() OVER w AS BIGINT) AS row_no,
                   round(sum(value) OVER w, 2) AS cum_value,
                   value - coalesce(lag(value) OVER w, value) AS delta
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY user_id, row_no""",
        "user_paths": """
            SELECT user_id,
                   string_agg(event_type, '>' ORDER BY ts, event_id) AS path,
                   count(*)::BIGINT AS n_events
            FROM events GROUP BY user_id ORDER BY user_id""",
        "event_type_pivot": """
            SELECT user_id,
                   sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS n_click,
                   sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::BIGINT AS n_error,
                   sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)::BIGINT AS n_purchase,
                   sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)::BIGINT AS n_signup,
                   sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT AS n_view,
                   count(*)::BIGINT AS n_total
            FROM events GROUP BY user_id ORDER BY user_id""",
        "doc_repetition": """
            WITH words AS (
              SELECT doc_id,
                     unnest(string_split_regex(trim(lower(text)), '\\s+')) AS w
              FROM documents WHERE trim(text) <> ''),
            cnt AS (SELECT doc_id, w, count(*) AS c
                    FROM words GROUP BY doc_id, w)
            SELECT doc_id, sum(c)::BIGINT AS n_words,
                   round(1.0 - (count(*)::DOUBLE / sum(c)), 6) AS dup_word_frac,
                   round(max(c)::DOUBLE / sum(c), 6) AS top_word_frac
            FROM cnt GROUP BY doc_id ORDER BY doc_id""",
        "revenue_rollup": """
            SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
                   coalesce(l_linestatus, 'ALL') AS l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   count(*)::BIGINT AS n_rows
            FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY 1, 2""",
        "value_stats": """
            SELECT event_type, count(*)::BIGINT AS n_events,
                   round(avg(value), 6) AS avg_value,
                   round(var_samp(value), 6) AS var_value,
                   round(stddev_samp(value), 6) AS std_value,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY event_type ORDER BY event_type""",
        "window_ranks": """
            SELECT event_id, event_type, floor(value)::BIGINT AS vb,
                   rank() OVER w AS rnk,
                   dense_rank() OVER w AS drnk,
                   percent_rank() OVER w AS pct_rank,
                   ntile(4) OVER (PARTITION BY event_type
                                  ORDER BY floor(value)::BIGINT, event_id)
                       AS tile4
            FROM events
            WINDOW w AS (PARTITION BY event_type
                         ORDER BY floor(value)::BIGINT)
            ORDER BY event_type, vb, event_id""",
        "daily_user_activity": """
            WITH c AS (
              SELECT user_id,
                     floor(epoch(date_trunc('day', ts)) / 86400)::BIGINT
                         AS day_id,
                     sum(value) AS click_value
              FROM events WHERE event_type = 'click' GROUP BY 1, 2),
            p AS (
              SELECT user_id,
                     floor(epoch(date_trunc('day', ts)) / 86400)::BIGINT
                         AS day_id,
                     sum(value) AS purchase_value
              FROM events WHERE event_type = 'purchase' GROUP BY 1, 2)
            SELECT coalesce(c.user_id, p.user_id) AS user_id,
                   coalesce(c.day_id, p.day_id) AS day_id,
                   round(coalesce(click_value, 0), 4) AS click_value,
                   round(coalesce(purchase_value, 0), 4) AS purchase_value
            FROM c FULL OUTER JOIN p
              ON c.user_id = p.user_id AND c.day_id = p.day_id
            ORDER BY 1, 2""",
        "returning_users": """
            SELECT user_id FROM events
            WHERE ts < TIMESTAMP '2024-01-04'
            INTERSECT
            SELECT user_id FROM events
            WHERE ts >= TIMESTAMP '2024-01-28'
            ORDER BY user_id""",
        "props_extract": """
            SELECT event_type, count(*)::BIGINT AS n_events,
                   round(avg(json_extract(props, '$.k')::BIGINT), 6) AS avg_k,
                   max(json_extract(props, '$.k')::BIGINT) AS max_k
            FROM events GROUP BY event_type ORDER BY event_type""",
        "value_median_mode": """
            SELECT q.event_type, q.n_events, q.median_disc, q.p90_disc,
                   md.mode_vb
            FROM (SELECT event_type, count(*)::BIGINT AS n_events,
                         quantile_disc(value, 0.5) AS median_disc,
                         quantile_disc(value, 0.9) AS p90_disc
                  FROM events GROUP BY 1) q
            JOIN (SELECT event_type, vb AS mode_vb FROM (
                    SELECT event_type, floor(value)::BIGINT AS vb,
                           row_number() OVER (PARTITION BY event_type
                                              ORDER BY count(*) DESC, vb)
                               AS rn
                    FROM events GROUP BY 1, 2) WHERE rn = 1) md
              USING (event_type)
            ORDER BY event_type""",
        "tfidf_top_terms": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS term
              FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM tok GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM tok GROUP BY 1),
            n AS (SELECT count(*) AS n FROM documents),
            s AS (SELECT tf.doc_id, tf.term,
                         round(tf.tf * ln(n.n / df.df), 6) AS score,
                         row_number() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY round(tf.tf * ln(n.n / df.df), 6) DESC,
                                    tf.term) AS rank
                  FROM tf, df, n WHERE tf.term = df.term)
            SELECT doc_id, term, score, CAST(rank AS BIGINT) AS rank
            FROM s WHERE rank <= 3 ORDER BY doc_id, rank""",
        "bigram_counts": r"""
            WITH t AS (
              SELECT list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS toks
              FROM documents),
            b AS (SELECT unnest([toks[i] || ' ' || toks[i+1]
                                 for i in range(1, len(toks))]) AS bigram
                  FROM t)
            SELECT bigram, count(*)::BIGINT AS n FROM b
            GROUP BY 1 ORDER BY n DESC, bigram LIMIT 20""",
        "host_page_counts": f"""
            SELECT regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host,
                   count(*)::BIGINT AS n_pages,
                   sum(octet_length(html))::BIGINT AS html_bytes
            FROM read_parquet('{_ORACLE_PAGES_PATH}')
            GROUP BY 1 ORDER BY n_pages DESC, host LIMIT 20""",
        "moving_avg": """
            SELECT user_id, event_id,
                   CAST(row_number() OVER w AS BIGINT) AS row_no,
                   round(avg(value) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id
                                          ROWS BETWEEN 3 PRECEDING
                                          AND CURRENT ROW), 6) AS mov_avg,
                   first_value(value) OVER w AS first_v
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY user_id, row_no""",
        "doc_unigram_logprob": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> '')) AS term
              FROM documents),
            freq AS (SELECT term, count(*) AS cnt FROM tok GROUP BY 1),
            total AS (SELECT sum(cnt)::DOUBLE AS n FROM freq)
            SELECT tok.doc_id, count(*)::BIGINT AS n_tokens,
                   round(avg(-ln(freq.cnt / total.n)), 6) AS xent
            FROM tok, freq, total WHERE tok.term = freq.term
            GROUP BY tok.doc_id ORDER BY tok.doc_id""",
        # canonical_url re-expressed as a DuckDB regex/list chain —
        # verified equal to stages.keys.canonical_url on 5k synth urls
        # + adversarial cases (scheme/www/fragment/trailing-slash/
        # tracking-param/param-sort edges) in test_relational_ext2
        "url_dedup": f"""
            WITH {_CANON_PAGES_CTE}
            SELECT curl, min(doc_id) AS keep_id, count(*)::BIGINT AS n_pages
            FROM canon GROUP BY curl ORDER BY curl""",
        "novelty_filter": f"""
            WITH {_CANON_PAGES_CTE},
            snap AS (SELECT DISTINCT curl FROM canon
                     WHERE doc_id < {_n_pages_for('/root/testdata/sf0.01') // 2}),
            newd AS (SELECT curl, min(doc_id) AS keep_id,
                            count(*)::BIGINT AS n_pages
                     FROM canon
                     WHERE doc_id >= {_n_pages_for('/root/testdata/sf0.01') // 2}
                     GROUP BY curl)
            SELECT curl, keep_id, n_pages FROM newd
            WHERE curl NOT IN (SELECT curl FROM snap) ORDER BY curl""",
        "event_correlations": """
            SELECT event_type, count(*)::BIGINT AS n_events,
                   round(covar_samp(value,
                         json_extract(props, '$.k')::BIGINT), 6) + 0.0
                       AS covar,
                   round(corr(value,
                         json_extract(props, '$.k')::BIGINT), 6) + 0.0
                       AS corr_vk
            FROM events GROUP BY event_type ORDER BY event_type""",
        "duplicate_ngrams": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS t FROM documents),
            pos AS (
              SELECT doc_id, array_to_string(t[i:i+7], ' ') AS ng
              FROM toks, UNNEST(generate_series(1, len(t)-8+1)) AS u(i)
              WHERE len(t) >= 8),
            dup AS (SELECT ng FROM pos GROUP BY ng
                    HAVING COUNT(DISTINCT doc_id) >= 2),
            per AS (SELECT p.doc_id, COUNT(*)::BIGINT AS n_pos,
                           COUNT(d.ng)::BIGINT AS n_dup
                    FROM pos p LEFT JOIN dup d USING (ng)
                    GROUP BY p.doc_id)
            SELECT doc.doc_id, COALESCE(per.n_pos, 0)::BIGINT AS n_pos,
                   COALESCE(per.n_dup, 0)::BIGINT AS n_dup,
                   COALESCE(per.n_dup, 0)::DOUBLE
                       / GREATEST(COALESCE(per.n_pos, 0), 1) AS dup_frac
            FROM documents doc LEFT JOIN per ON doc.doc_id = per.doc_id
            ORDER BY doc.doc_id""",
        # duplicate-span removal: keeper = min doc_id per n-gram; a
        # token drops iff covered by a duplicated n-gram in a non-
        # keeper doc.  SQL n-gram strings stand in for the Ray side's
        # 64-bit rolling hashes (duplicate_ngrams' collision caveat)
        "dedup_spans": """
            WITH toks AS (
              SELECT doc_id, string_split(text, ' ') AS t
              FROM documents),
            pos AS (
              SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS ng
              FROM toks, UNNEST(generate_series(1, len(t)-8+1)) AS u(i)
              WHERE len(t) >= 8),
            keep AS (SELECT ng, min(doc_id) AS keeper FROM pos
                     GROUP BY ng),
            drops AS (
              SELECT DISTINCT p.doc_id, v.j
              FROM pos p JOIN keep k USING (ng),
                   UNNEST(generate_series(p.i, p.i+7)) AS v(j)
              WHERE p.doc_id <> k.keeper),
            tok2 AS (
              SELECT doc_id, unnest(t) AS w,
                     unnest(generate_series(1, len(t))) AS j
              FROM toks),
            kept AS (
              SELECT t2.doc_id, t2.w, t2.j FROM tok2 t2
              LEFT JOIN drops dr
                ON dr.doc_id = t2.doc_id AND dr.j = t2.j
              WHERE dr.j IS NULL),
            agg AS (
              SELECT doc_id, string_agg(w, ' ' ORDER BY j)
                       AS clean_text,
                     count(*)::BIGINT AS n_kept
              FROM kept GROUP BY doc_id)
            SELECT tk.doc_id,
                   COALESCE(a.clean_text, '') AS clean_text,
                   len(tk.t)::BIGINT AS n_tokens,
                   (len(tk.t) - COALESCE(a.n_kept, 0))::BIGINT
                     AS n_removed
            FROM toks tk LEFT JOIN agg a USING (doc_id)
            ORDER BY tk.doc_id""",
        "quality_filter": """
            WITH words AS (
              SELECT doc_id,
                     unnest(string_split_regex(trim(lower(text)), '\\s+')) AS w
              FROM documents WHERE trim(text) <> ''),
            cnt AS (SELECT doc_id, w, count(*) AS c
                    FROM words GROUP BY doc_id, w),
            rep AS (SELECT doc_id, sum(c)::BIGINT AS n_words,
                           round(1.0 - (count(*)::DOUBLE / sum(c)), 6)
                               AS dup_word_frac,
                           round(max(c)::DOUBLE / sum(c), 6) AS top_word_frac
                    FROM cnt GROUP BY doc_id)
            SELECT * FROM rep
            WHERE n_words BETWEEN 30 AND 10000
              AND dup_word_frac <= 0.82 AND top_word_frac <= 0.12
            ORDER BY doc_id""",
        "funnel_conversion": """
            WITH f AS (SELECT user_id, min(ts) AS t0 FROM events
                       WHERE event_type = 'click' GROUP BY user_id),
            conv AS (SELECT DISTINCT e.user_id
                     FROM f JOIN events e ON e.user_id = f.user_id
                     WHERE e.event_type = 'purchase' AND e.ts > f.t0
                       AND e.ts <= f.t0 + INTERVAL 24 HOUR)
            SELECT 'all_users' AS stage,
                   count(DISTINCT user_id)::BIGINT AS n_users FROM events
            UNION ALL SELECT 'click', count(*)::BIGINT FROM f
            UNION ALL SELECT 'click_then_purchase', count(*)::BIGINT FROM conv
            ORDER BY stage""",
        "latest_events": """
            SELECT user_id, event_id, ts, event_type, value FROM (
              SELECT *, row_number() OVER (
                PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
              FROM events) WHERE rn = 1 ORDER BY user_id""",
        # transitive closure of the consecutive-qualifying-user graph:
        # min-label reachability via a recursive CTE verifies the
        # distributed CC kernel (stages/cluster.py) end-to-end
        "component_sizes": """
            WITH RECURSIVE
            u AS (SELECT user_id FROM events
                  GROUP BY user_id HAVING count(*) % 3 = 0),
            e AS (SELECT a.user_id AS l, b.user_id AS r
                  FROM u a JOIN u b ON b.user_id = a.user_id + 1),
            ed AS (SELECT l, r FROM e
                   UNION ALL SELECT r AS l, l AS r FROM e),
            reach AS (
              SELECT user_id AS node, user_id AS label FROM u
              UNION
              SELECT ed.l AS node, reach.label AS label
              FROM ed JOIN reach ON reach.node = ed.r),
            comp AS (SELECT node, min(label) AS cluster_id
                     FROM reach GROUP BY node),
            sz AS (SELECT cluster_id, count(*) AS size
                   FROM comp GROUP BY cluster_id)
            SELECT size::BIGINT AS size,
                   count(*)::BIGINT AS n_components
            FROM sz GROUP BY size ORDER BY size""",
        "graph_components": """
            WITH RECURSIVE
            u AS (SELECT user_id FROM events
                  GROUP BY user_id HAVING count(*) % 3 = 0),
            e AS (SELECT a.user_id AS l, b.user_id AS r
                  FROM u a JOIN u b ON b.user_id = a.user_id + 1),
            ed AS (SELECT l, r FROM e
                   UNION ALL SELECT r AS l, l AS r FROM e),
            reach AS (
              SELECT user_id AS node, user_id AS label FROM u
              UNION
              SELECT ed.l AS node, reach.label AS label
              FROM ed JOIN reach ON reach.node = ed.r)
            SELECT node AS user_id, min(label) AS cluster_id
            FROM reach GROUP BY node ORDER BY user_id""",
        "pagerank": _pagerank_sql(),
        # benchmark n-gram decontamination: same window expression as
        # the duplicate_ngrams oracle; 64-bit rolling-hash equality on
        # the Ray side stands in for n-gram string equality (2^-64
        # collision caveat, BASELINE.md)
        "decontaminate": _DECON_SQL,
        # bloom_decontaminate shares the exact-overlap oracle: its
        # one-sided Bloom error is FP-free at m_log2=24 on these
        # benchmark sizes (~1e-9 per position; pytest demonstrates
        # the error one-sidedness at adversarially small m instead)
        "bloom_decontaminate": _DECON_SQL,
        "value_zscore": """
            SELECT event_id, event_type, value,
                   round((value - avg(value) OVER w)
                         / stddev_samp(value) OVER w, 6) AS z_value
            FROM events
            WINDOW w AS (PARTITION BY event_type)
            ORDER BY event_id""",
        # exact quantile_cont arithmetic on both sides (the
        # value_percentiles recipe), floor-quantized at 1e-6
        "value_mad": """
            WITH m AS (SELECT event_type,
                              quantile_cont(value, 0.5) AS med
                       FROM events GROUP BY event_type)
            SELECT e.event_type,
                   floor(any_value(m.med) * 1e6) / 1e6 AS med_value,
                   floor(quantile_cont(abs(e.value - m.med), 0.5)
                         * 1e6) / 1e6 AS mad_value,
                   count(*)::BIGINT AS n
            FROM events e JOIN m USING (event_type)
            GROUP BY e.event_type ORDER BY e.event_type""",
        # exact integer arithmetic — deterministic Bernoulli sample
        "hash_sample": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE (doc_id * 2654435761) % 1000 < 100
            ORDER BY doc_id""",
        # order-pinned affine arithmetic: floor((v-mn)*255.0/(mx-mn))
        # in float64 on both sides; min/max are summation-order-free
        "embedding_quantize": """
            WITH e AS (
              SELECT vec_id,
                     unnest(range(len(embedding)))::BIGINT AS dim_j,
                     unnest(list_transform(embedding, x -> x::DOUBLE)) AS v
              FROM embeddings),
            s AS (SELECT dim_j, min(v) AS mn, max(v) AS mx
                  FROM e GROUP BY dim_j)
            SELECT e.vec_id, e.dim_j,
                   CASE WHEN s.mx > s.mn THEN
                     least(floor((e.v - s.mn) * 255.0 / (s.mx - s.mn)),
                           255)::BIGINT
                   ELSE 0 END AS q
            FROM e JOIN s USING (dim_j) ORDER BY vec_id, dim_j""",
        "embedding_kmeans": _embedding_kmeans_sql(k=10, iters=5),
        "semantic_dedup": _semantic_dedup_sql(k=8, iters=5, threshold=0.3),
        "centroid_similarity": """
            WITH e AS (
              SELECT label::BIGINT AS label,
                     unnest(range(len(embedding)))::BIGINT AS dim_j,
                     unnest(list_transform(embedding, x -> x::DOUBLE)) AS v
              FROM embeddings),
            c AS (SELECT label, dim_j, round(avg(v), 6) + 0.0 AS m
                  FROM e GROUP BY 1, 2),
            p AS (SELECT a.label AS label_a, b.label AS label_b,
                         sum(a.m * b.m) AS dot,
                         sqrt(sum(a.m * a.m)) AS na,
                         sqrt(sum(b.m * b.m)) AS nb
                  FROM c a JOIN c b ON a.dim_j = b.dim_j
                                   AND a.label < b.label
                  GROUP BY 1, 2)
            SELECT label_a, label_b,
                   round(dot / (na * nb), 6) + 0.0 AS cosine
            FROM p ORDER BY label_a, label_b""",
        "trailing_active_users": """
            WITH act AS (SELECT DISTINCT date_trunc('day', ts) AS d,
                                user_id FROM events),
            days AS (SELECT DISTINCT d FROM act)
            SELECT days.d AS day,
                   count(DISTINCT act.user_id)::BIGINT AS active_users
            FROM days JOIN act
              ON act.d BETWEEN days.d - INTERVAL 6 DAY AND days.d
            GROUP BY days.d ORDER BY days.d""",
        "cohort_retention": """
            WITH firsts AS (
              SELECT user_id, date_trunc('day', min(ts)) AS cohort_day
              FROM events GROUP BY user_id),
            act AS (SELECT DISTINCT e.user_id, f.cohort_day,
                           date_diff('day', f.cohort_day,
                                     date_trunc('day', e.ts)) AS day_offset
                    FROM events e JOIN firsts f USING (user_id))
            SELECT cohort_day, day_offset, count(*)::BIGINT AS n_users
            FROM act GROUP BY cohort_day, day_offset
            ORDER BY cohort_day, day_offset""",
        "embedding_norms": """
            SELECT vec_id, len(embedding)::BIGINT AS dim,
                   round(sqrt(list_sum(list_transform(
                     embedding, x -> x::DOUBLE * x::DOUBLE))), 6) AS l2_norm
            FROM embeddings ORDER BY vec_id""",
        "label_centroids": """
            WITH e AS (
              SELECT label::BIGINT AS label,
                     unnest(range(len(embedding)))::BIGINT AS dim_j,
                     unnest(list_transform(embedding, x -> x::DOUBLE)) AS v
              FROM embeddings)
            SELECT label, dim_j, count(*)::BIGINT AS n_vecs,
                   round(avg(v), 6) + 0.0 AS mean_val
            FROM e GROUP BY 1, 2 ORDER BY 1, 2""",
        "parts_by_brand": """
            SELECT p_brand, count(*) AS n_parts,
                   round(avg(p_retailprice), 4) AS avg_price
            FROM part GROUP BY p_brand ORDER BY p_brand""",
        "region_supplier_balance": """
            SELECT r.r_name, round(sum(s.s_acctbal), 2) AS total_acctbal,
                   count(*) AS n_suppliers
            FROM supplier s
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name ORDER BY r.r_name""",
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
                   round(avg(l_discount), 8) AS avg_disc,
                   count(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus""",
        "events_windowed": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
            ORDER BY event_type, window_start""",
        "top_users": """
            SELECT user_id, round(sum(value), 4) AS total_value, count(*) AS n_events
            FROM events GROUP BY user_id
            ORDER BY total_value DESC, user_id LIMIT 20""",
        "segment_revenue": """
            SELECT c_mktsegment, round(sum(o_totalprice), 2) AS total_revenue,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment""",
        "nation_orders": """
            SELECT n_name, count(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name ORDER BY n_name""",
        "order_priority": """
            SELECT o_orderpriority, count(*) AS n_orders
            FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority""",
        "distinct_events": """
            SELECT event_type, count(*) AS n FROM events
            GROUP BY event_type ORDER BY event_type""",
        "purchase_attribution": """
            WITH p AS (SELECT event_id, user_id, ts, value FROM events
                       WHERE event_type = 'purchase'),
                 c AS (SELECT event_id AS click_event_id, user_id,
                              ts AS click_ts, value AS click_value
                       FROM events WHERE event_type = 'click')
            SELECT p.event_id, p.user_id, p.ts, p.value,
                   click_event_id, click_ts, click_value
            FROM p ASOF JOIN c
              ON p.user_id = c.user_id AND p.ts >= c.click_ts
            ORDER BY p.event_id""",
        "event_sessions": """
            WITH g AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
              SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM g),
            sess AS (
              SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                     count(*) AS n_events
              FROM s GROUP BY user_id, sid)
            SELECT e.event_id, e.user_id, e.ts, session_start, session_end,
                   n_events
            FROM events e JOIN sess ON e.user_id = sess.user_id
              AND e.ts >= session_start AND e.ts <= session_end
            ORDER BY e.event_id""",
        "sliding_windows": """
            SELECT event_type, window_start, count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM (SELECT event_type, value,
                    make_timestamp(((floor(epoch(ts)/900)*900 - j*900)
                                    *1000000)::BIGINT) AS window_start
                  FROM events, unnest([0,1,2,3]) AS t(j))
            GROUP BY 1, 2 ORDER BY 1, 2""",
        "distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type""",
        "approx_distinct_users": _approx_distinct_users_sql(),
        # HyperLogLog register table: splitmix64 replayed in SQL, the
        # p-bit bucket via >> 52, the remainder's leading zeros via
        # the BIT-string strpos trick (exact — no float log), register
        # merge = integer MAX.  All integers, hash-exact; the float
        # estimator is pytest-gated (libm ln differs in the last ulp)
        # NOTE (ADVICE r4): this oracle is PINNED to the surface's
        # defaults (p=12: >>52, *4096, rank cap 53) — calling the
        # python surface with a non-default p diverges from it by
        # design; parameterized replays live in the pytest gates
        "hll_registers": f"""
            WITH h AS (
              SELECT DISTINCT event_type,
                     {_splitmix64_sql('user_id')}::UBIGINT AS hv
              FROM events),
            rr AS (
              SELECT event_type, (hv >> 52)::BIGINT AS idx,
                     ((hv::HUGEINT * 4096)
                      % 18446744073709551616)::UBIGINT AS rest
              FROM h),
            rk AS (
              SELECT event_type, idx,
                     CASE WHEN rest = 0 THEN 53
                          ELSE strpos(CAST(CAST(rest AS BIT)
                                      AS VARCHAR), '1')
                     END AS rnk
              FROM rr)
            SELECT event_type, idx, max(rnk)::BIGINT AS rnk
            FROM rk GROUP BY event_type, idx
            ORDER BY event_type, idx""",
        "top_events_per_user": """
            SELECT user_id, event_id, value, rank FROM (
              SELECT user_id, event_id, value,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rank
              FROM events)
            WHERE rank <= 3 ORDER BY user_id, rank""",
        "stratified_sample": """
            SELECT event_type, event_id, user_id, value FROM (
              SELECT event_type, event_id, user_id, value,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY event_id) AS rn
              FROM events)
            WHERE (rn - 1) % 10 = 0 ORDER BY event_type, event_id""",
        "value_percentiles": """
            SELECT event_type,
                   floor(quantile_cont(value, 0.5)*1e6)/1e6 AS p50_value,
                   floor(quantile_cont(value, 0.95)*1e6)/1e6 AS p95_value,
                   count(*) AS n
            FROM events GROUP BY event_type ORDER BY event_type""",
        "user_sessions": """
            WITH g AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
              SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM g)
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM s GROUP BY user_id, sid ORDER BY user_id, session_start""",
        # exact integer arithmetic — deterministic 90/5/5 split
        "hash_split": """
            SELECT doc_id, lang, n_chars,
                   CASE WHEN (doc_id * 2654435761) % 1000 < 900
                        THEN 'train'
                        WHEN (doc_id * 2654435761) % 1000 < 950
                        THEN 'val' ELSE 'test' END AS split
            FROM documents ORDER BY doc_id""",
        # leakage-safe split: md5-prefix host hash, 80/10/10
        "group_stable_split": """
            SELECT doc_id, source,
                   CASE WHEN h < 800 THEN 'train'
                        WHEN h < 900 THEN 'val' ELSE 'test' END AS split
            FROM (SELECT doc_id, source,
                         ('0x' || substr(md5(source), 1, 8))::BIGINT
                           % 1000 AS h
                  FROM documents)
            ORDER BY doc_id""",
        # per-source quota: smallest Knuth hash of doc_id, quota=30
        "source_quota_sample": """
            SELECT doc_id, source, lang, n_chars FROM (
              SELECT doc_id, source, lang, n_chars,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY (doc_id * 2654435761) % 4294967296,
                                doc_id) AS rn
              FROM documents)
            WHERE rn <= 10 ORDER BY doc_id""",
        # order-free arithmetic: quantile_cont bounds (bit-identical
        # per the value_percentiles recipe) + integer micro-unit sum
        "winsorized_stats": """
            WITH q AS (SELECT event_type,
                              quantile_cont(value, 0.05) AS lo,
                              quantile_cont(value, 0.95) AS hi
                       FROM events GROUP BY event_type)
            SELECT e.event_type,
                   floor(any_value(q.lo) * 1e6) / 1e6 AS p05_value,
                   floor(any_value(q.hi) * 1e6) / 1e6 AS p95_value,
                   (sum(floor(least(greatest(e.value, q.lo), q.hi)
                              * 1e6))::BIGINT / count(*)) / 1e6
                     AS winsorized_mean,
                   count(*)::BIGINT AS n
            FROM events e JOIN q USING (event_type)
            GROUP BY e.event_type ORDER BY e.event_type""",
        # next-fit packing recurrence as a recursive CTE: one row per
        # (bucket, rank) step, same state transition as the Ray scan
        "pack_sequences": """
            WITH RECURSIVE d AS (
              SELECT doc_id, n_chars,
                     (doc_id * 2654435761) % 16 AS bucket,
                     row_number() OVER (
                       PARTITION BY (doc_id * 2654435761) % 16
                       ORDER BY doc_id) AS rn
              FROM documents),
            p AS (
              SELECT bucket, rn, doc_id, n_chars,
                     0::BIGINT AS bin, n_chars::BIGINT AS fill
              FROM d WHERE rn = 1
              UNION ALL
              SELECT d.bucket, d.rn, d.doc_id, d.n_chars,
                     CASE WHEN p.fill > 0 AND p.fill + d.n_chars > 2000
                          THEN p.bin + 1 ELSE p.bin END,
                     CASE WHEN p.fill > 0 AND p.fill + d.n_chars > 2000
                          THEN d.n_chars::BIGINT
                          ELSE p.fill + d.n_chars END
              FROM p JOIN d ON d.bucket = p.bucket AND d.rn = p.rn + 1)
            SELECT doc_id, n_chars, bucket, bin FROM p
            ORDER BY doc_id""",
        # rule-ordered regexp_replace chain; counts taken against the
        # text as each rule sees it (after earlier rules ran)
        "redact_text": """
            WITH s0 AS (
              SELECT doc_id,
                     text || ' contact user' || doc_id
                          || '@example.com or 555-'
                          || (100 + doc_id % 900) || '-'
                          || (1000 + doc_id % 9000)
                          || ' from 10.0.' || ((doc_id // 256) % 256)
                          || '.' || (doc_id % 256) AS t
              FROM documents),
            s1 AS (
              SELECT doc_id,
                len(regexp_extract_all(t,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS c1,
                regexp_replace(t,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                  '[EMAIL]', 'g') AS t
              FROM s0),
            s2 AS (
              SELECT doc_id, c1,
                len(regexp_extract_all(t,
                  '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b')) AS c2,
                regexp_replace(t, '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b',
                  '[PHONE]', 'g') AS t
              FROM s1),
            s3 AS (
              SELECT doc_id, c1, c2,
                len(regexp_extract_all(t,
                  '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b')) AS c3,
                regexp_replace(t, '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b',
                  '[IP]', 'g') AS t
              FROM s2)
            SELECT doc_id, t AS redacted,
                   (c1 + c2 + c3)::BIGINT AS n_redacted
            FROM s3 ORDER BY doc_id""",
        # Fellegi–Sunter posterior at fixed params: every literal is
        # ::DOUBLE (a bare 0.15 is DECIMAL in DuckDB and the mixed
        # decimal arithmetic breaks bit-parity); multiply order pinned
        # left-to-right in (name, seg, bal) field order like the
        # numpy kernel, denominator reuses the numerator term
        "fs_em_weights": _fs_em_sql(iters=10),
        "match_threshold_sweep": _threshold_sweep_sql(),
        "fs_posteriors": """
            WITH f AS (
              SELECT c_custkey, c_nationkey,
                     substr(c_name, length(c_name)-2, 3) AS name3,
                     CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                     c_mktsegment AS seg
              FROM customer),
            p AS (
              SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                     CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END
                       AS g_name,
                     CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                     CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                          WHEN abs(l.cents - r.cents) < 100000 THEN 1
                          ELSE 0 END AS g_bal
              FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                                AND l.c_custkey < r.c_custkey),
            s AS (
              SELECT *,
                0.05::DOUBLE
                  * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                                 ELSE 0.85::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                                ELSE 0.75::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                                WHEN 1 THEN 0.3::DOUBLE
                                ELSE 0.6::DOUBLE END) AS num,
                (1.0::DOUBLE - 0.05::DOUBLE)
                  * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                                 ELSE 0.01::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.8::DOUBLE
                                ELSE 0.2::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                                WHEN 1 THEN 0.25::DOUBLE
                                ELSE 0.05::DOUBLE END) AS den_u
              FROM p)
            SELECT custkey_l, custkey_r, g_name, g_seg, g_bal,
                   num / (num + den_u) AS posterior
            FROM s ORDER BY custkey_l, custkey_r""",
        # posterior calibration: same posterior CTE chain, bin =
        # min(floor(p*20), 19), predicted mass as floor(p*1e6) int64
        # micro-units, final ratios one pinned expression each
        "posterior_calibration": """
            WITH f AS (
              SELECT c_custkey, c_nationkey,
                     substr(c_name, length(c_name)-2, 3) AS name3,
                     CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                     c_mktsegment AS seg
              FROM customer),
            p AS (
              SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                     CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END
                       AS g_name,
                     CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                     CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                          WHEN abs(l.cents - r.cents) < 100000 THEN 1
                          ELSE 0 END AS g_bal
              FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                                AND l.c_custkey < r.c_custkey),
            s AS (
              SELECT *,
                0.05::DOUBLE
                  * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                                 ELSE 0.85::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                                ELSE 0.75::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                                WHEN 1 THEN 0.3::DOUBLE
                                ELSE 0.6::DOUBLE END) AS num,
                (1.0::DOUBLE - 0.05::DOUBLE)
                  * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                                 ELSE 0.01::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.8::DOUBLE
                                ELSE 0.2::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                                WHEN 1 THEN 0.25::DOUBLE
                                ELSE 0.05::DOUBLE END) AS den_u
              FROM p),
            sc AS (
              SELECT custkey_l, custkey_r,
                     num / (num + den_u) AS posterior
              FROM s),
            binned AS (
              SELECT least(floor(posterior * 20.0)::BIGINT, 19)
                       AS bin,
                     CASE WHEN custkey_l % 50 = custkey_r % 50
                          THEN 1 ELSE 0 END AS lab,
                     floor(posterior * 1000000.0)::BIGINT AS p6
              FROM sc)
            SELECT bin, count(*)::BIGINT AS n_pairs,
                   sum(lab)::BIGINT AS n_match,
                   (sum(p6)::DOUBLE / 1000000.0) / count(*)
                     AS avg_pred,
                   sum(lab)::DOUBLE / count(*) AS frac_match
            FROM binned GROUP BY bin ORDER BY bin""",
        # mutual-nearest-neighbor 1:1 assignment: same posterior CTE
        # chain (bit-identical doubles), argmax per entity over BOTH
        # pair directions with (posterior DESC, nbr ASC) tie-break,
        # kept iff reciprocal
        "one_to_one_matches": """
            WITH f AS (
              SELECT c_custkey, c_nationkey,
                     substr(c_name, length(c_name)-2, 3) AS name3,
                     CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                     c_mktsegment AS seg
              FROM customer),
            p AS (
              SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                     CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END
                       AS g_name,
                     CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                     CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                          WHEN abs(l.cents - r.cents) < 100000 THEN 1
                          ELSE 0 END AS g_bal
              FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                                AND l.c_custkey < r.c_custkey),
            s AS (
              SELECT custkey_l, custkey_r,
                0.05::DOUBLE
                  * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                                 ELSE 0.85::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                                ELSE 0.75::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                                WHEN 1 THEN 0.3::DOUBLE
                                ELSE 0.6::DOUBLE END) AS num,
                (1.0::DOUBLE - 0.05::DOUBLE)
                  * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                                 ELSE 0.01::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.8::DOUBLE
                                ELSE 0.2::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                                WHEN 1 THEN 0.25::DOUBLE
                                ELSE 0.05::DOUBLE END) AS den_u
              FROM p),
            sc AS (SELECT custkey_l, custkey_r,
                          num/(num+den_u) AS posterior
                   FROM s WHERE num/(num+den_u) >= 0.2),
            dir AS (SELECT custkey_l AS k, custkey_r AS nbr, posterior
                    FROM sc
                    UNION ALL
                    SELECT custkey_r, custkey_l, posterior FROM sc),
            best AS (SELECT k, nbr, posterior FROM (
              SELECT *, row_number() OVER (PARTITION BY k
                ORDER BY posterior DESC, nbr) AS rn FROM dir)
              WHERE rn = 1)
            SELECT a.k AS custkey_l, a.nbr AS custkey_r, a.posterior
            FROM best a JOIN best b ON a.nbr = b.k AND b.nbr = a.k
            WHERE a.k < a.nbr ORDER BY custkey_l, custkey_r""",
        # TF-adjusted posterior: agreement-u on segment is the value's
        # relative frequency (BIGINT/BIGINT -> DOUBLE division, same
        # op on the numpy side); rest of the chain as fs_posteriors
        "tf_posteriors": """
            WITH f AS (
              SELECT c_custkey, c_nationkey,
                     substr(c_name, length(c_name)-2, 3) AS name3,
                     CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                     c_mktsegment AS seg
              FROM customer),
            tf AS (SELECT c_mktsegment AS seg, count(*) AS n
                   FROM customer GROUP BY c_mktsegment),
            tot AS (SELECT count(*) AS n FROM customer),
            p AS (
              SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                     l.seg AS seg,
                     CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END
                       AS g_name,
                     CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                     CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                          WHEN abs(l.cents - r.cents) < 100000 THEN 1
                          ELSE 0 END AS g_bal
              FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                                AND l.c_custkey < r.c_custkey),
            s AS (
              SELECT p.*,
                0.05::DOUBLE
                  * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                                 ELSE 0.85::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                                ELSE 0.75::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                                WHEN 1 THEN 0.3::DOUBLE
                                ELSE 0.6::DOUBLE END) AS num,
                (1.0::DOUBLE - 0.05::DOUBLE)
                  * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                                 ELSE 0.01::DOUBLE END)
                  * (CASE WHEN g_seg = 1 THEN tf.n / tot.n
                          ELSE 0.8::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                                WHEN 1 THEN 0.25::DOUBLE
                                ELSE 0.05::DOUBLE END) AS den_u
              FROM p JOIN tf USING (seg), tot)
            SELECT custkey_l, custkey_r, seg, g_name, g_seg, g_bal,
                   num / (num + den_u) AS posterior
            FROM s ORDER BY custkey_l, custkey_r""",
        # survivorship: mode with smallest-value tie-break via QUALIFY
        # row_number; max_bal is a selection so the double hash-matches
        "golden_records": """
            WITH c AS (SELECT c_custkey, c_name, c_acctbal,
                              c_mktsegment, c_custkey % 50 AS cluster
                       FROM customer),
            base AS (SELECT cluster, count(*)::BIGINT AS n_members,
                            max(c_acctbal) AS max_bal,
                            min(c_custkey) AS min_custkey
                     FROM c GROUP BY cluster),
            nm AS (SELECT cluster, val AS name FROM (
                     SELECT cluster, c_name AS val, count(*) AS cnt
                     FROM c GROUP BY cluster, c_name) t
                   QUALIFY row_number() OVER (
                     PARTITION BY cluster
                     ORDER BY cnt DESC, val ASC) = 1),
            sg AS (SELECT cluster, val AS segment FROM (
                     SELECT cluster, c_mktsegment AS val, count(*) AS cnt
                     FROM c GROUP BY cluster, c_mktsegment) t
                   QUALIFY row_number() OVER (
                     PARTITION BY cluster
                     ORDER BY cnt DESC, val ASC) = 1)
            SELECT b.cluster, b.n_members, nm.name, sg.segment,
                   b.max_bal, b.min_custkey
            FROM base b JOIN nm USING (cluster) JOIN sg USING (cluster)
            ORDER BY b.cluster""",
        # sorted-neighborhood pairs: row_number over the total sort
        # key, self-join on rank distance <= window
        "sorted_neighborhood": """
            WITH r AS (
              SELECT c_custkey,
                     row_number() OVER (
                       ORDER BY CAST(floor(c_acctbal*100 + 0.5)
                                     AS BIGINT), c_custkey) AS rn
              FROM customer)
            SELECT least(a.c_custkey, b.c_custkey) AS custkey_l,
                   greatest(a.c_custkey, b.c_custkey) AS custkey_r,
                   (b.rn - a.rn)::BIGINT AS rank_dist
            FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + 5
            ORDER BY custkey_l, custkey_r""",
        # fuzzy metric, oracled: pure Jaro is engine-identical (the
        # Winkler prefix boost is what differs -- rapidfuzz boosts
        # unconditionally, classic/DuckDB gates at 0.7)
        # the flagship linkage spine replayed (round 5) — see
        # _linkage_jaro_sql; the incremental twin shares it verbatim
        # (absorb is label-identical to the full rerun)
        "linkage_jaro": _linkage_jaro_sql(),
        "incremental_linkage_jaro": _linkage_jaro_sql(),
        # the match cascade end-to-end (VERDICT r4 #4): pseudo-address
        # derivation, 4 key families, per-tier caps (row_number over
        # pid), distinct pairs, jaro scoring with ONE pinned weighted
        # sum, ladder floor + wrong-unit veto, priority-sort winner --
        # every expression mirrors matching._jaro_* / _score_candidates_jaro
        "match_queries_jaro": f"""
            WITH base AS (
              SELECT p_partkey AS ck,
                     {_norm_expr("p_name || ' ' || p_type")} AS street0,
                     cast(p_partkey % 90 + 10 AS VARCHAR) AS house,
                     'city' || cast(p_size % 25 AS VARCHAR) AS city,
                     cast((p_size % 25) % 10 AS VARCHAR) AS state,
                     cast(10 + p_size % 25 AS VARCHAR) AS zip
              FROM part),
            r0 AS (
              SELECT cast(ck AS VARCHAR) AS pid, street0 AS street,
                     house, city, state, zip,
                     CASE WHEN ck % 3 = 0 THEN ''
                          ELSE cast(ck % 7 AS VARCHAR) END AS unit
              FROM base),
            r AS (SELECT *, trim(regexp_replace(house || ' ' || street
                     || ' ' || city || ' ' || state || ' ' || zip,
                     '\\s+', ' ', 'g')) AS rnorm FROM r0),
            q0 AS (
              SELECT ck AS query_id,
                     regexp_replace(street0, '\\s\\S+$', '') AS street,
                     house, city, state, zip,
                     CASE WHEN ck % 5 = 0 THEN ''
                          ELSE cast(ck % 7 AS VARCHAR) END AS unit
              FROM base WHERE ck % 4 = 1),
            q AS (SELECT *, trim(regexp_replace(house || ' ' || street
                     || ' ' || city || ' ' || state || ' ' || zip,
                     '\\s+', ' ', 'g')) AS qnorm FROM q0),
            rk AS (
              SELECT *, 'e:' || zip || '|' || house AS bk FROM r
              UNION ALL SELECT *, 'h:' || state || '|' || house FROM r
              UNION ALL SELECT *, 'f:' || zip FROM r
              UNION ALL SELECT *, 'k:' || state FROM r),
            rcap AS (
              SELECT * FROM (
                SELECT *, row_number() OVER (PARTITION BY bk
                                             ORDER BY pid) AS rn
                FROM rk)
              WHERE rn <= CASE substr(bk, 1, 1) WHEN 'e' THEN 1
                               WHEN 'h' THEN 3 WHEN 'f' THEN 10
                               ELSE 35 END),
            qk AS (
              SELECT *, 'e:' || zip || '|' || house AS bk FROM q
              UNION ALL SELECT *, 'h:' || state || '|' || house FROM q
              UNION ALL SELECT *, 'f:' || zip FROM q
              UNION ALL SELECT *, 'k:' || state FROM q),
            cand AS (
              SELECT DISTINCT qk.query_id, qk.street AS qstreet,
                     qk.house AS qhouse, qk.city AS qcity,
                     qk.state AS qstate, qk.zip AS qzip,
                     qk.unit AS qunit, qk.qnorm,
                     rcap.pid, rcap.street AS rstreet,
                     rcap.house AS rhouse, rcap.city AS rcity,
                     rcap.state AS rstate, rcap.zip AS rzip,
                     rcap.unit AS runit, rcap.rnorm
              FROM qk JOIN rcap ON qk.bk = rcap.bk),
            sc AS (
              SELECT *,
                jaro_similarity(qstreet, rstreet) * 100.0 AS js,
                CASE WHEN qhouse = rhouse THEN 100.0 ELSE 0.0 END AS jh,
                jaro_similarity(qcity, rcity) * 100.0 AS jc,
                CASE WHEN qzip = rzip THEN 100.0 ELSE 0.0 END AS jz,
                CASE WHEN qstate = rstate THEN 100.0 ELSE 0.0 END AS jst,
                CASE WHEN qunit <> '' AND runit <> '' AND qunit = runit
                     THEN 100.0 ELSE 0.0 END AS ju,
                jaro_similarity(qnorm, rnorm) * 100.0 AS similarity,
                CASE WHEN qunit <> '' AND runit <> '' AND qunit = runit
                     THEN 50.0
                     WHEN qunit <> '' AND runit <> '' THEN -20.0
                     ELSE 0.0 END AS ua
              FROM cand),
            cf AS (SELECT *,
                0.40 * js + 0.25 * jh + 0.15 * jc + 0.10 * jz
                  + 0.05 * jst + 0.05 * ju AS confidence
              FROM sc),
            fx AS (SELECT *,
                (similarity >= 95 AND confidence >= 95
                 AND NOT (jh > 0 AND jh < 95) AND js >= 85
                 AND NOT (jz > 0 AND jz < 80)) AS exact
              FROM cf
              WHERE confidence >= 5.0 AND NOT (ua < 0)),
            win AS (SELECT *,
                row_number() OVER (PARTITION BY query_id
                                   ORDER BY (ua > 0) DESC, exact DESC,
                                            confidence DESC, pid) AS w
              FROM fx)
            SELECT query_id, pid,
              CASE WHEN confidence >= 95 THEN 'exact'
                   WHEN confidence >= 85 THEN 'relaxed'
                   WHEN confidence >= 75 THEN 'partial'
                   WHEN confidence >= 65 THEN 'geographic'
                   WHEN confidence >= 55 THEN 'fuzzy'
                   WHEN confidence >= 45 THEN 'ultra_fuzzy'
                   WHEN confidence >= 35 THEN 'semantic'
                   WHEN confidence >= 25 THEN 'phonetic'
                   WHEN confidence >= 15 THEN 'keyword'
                   ELSE 'desperate' END AS match_level,
              confidence, similarity
            FROM win WHERE w = 1 ORDER BY query_id""",
        # the KLL sketch itself, replayed: chunk/bucket/global compress
        # phases as recursive CTEs (see _kll_comp_cte), then the
        # weighted-rank quantile query.  Exact because kll_compress is
        # multiset-deterministic and the merge tree is data-defined.
        "kll_quantiles": f"""
            WITH RECURSIVE
            base AS (SELECT (event_id // 64)::BIGINT AS grp,
                            value::DOUBLE AS value, 0::BIGINT AS level
                     FROM events WHERE value IS NOT NULL),
            {_kll_comp_cte('ca', 'base')},
            bb AS (SELECT (grp % 16)::BIGINT AS grp, value, level
                   FROM fin_ca),
            {_kll_comp_cte('cb', 'bb')},
            cc0 AS (SELECT 0::BIGINT AS grp, value, level FROM fin_cb),
            {_kll_comp_cte('cg', 'cc0')},
            sk AS (SELECT value, pow(2.0, level) AS w FROM fin_cg),
            cw AS (SELECT value,
                     sum(w) OVER (ORDER BY value, w ROWS BETWEEN
                       UNBOUNDED PRECEDING AND CURRENT ROW) AS cwt,
                     sum(w) OVER () AS tot FROM sk)
            SELECT
              min(value) FILTER (WHERE cwt >= 0.25 * tot) AS p25,
              min(value) FILTER (WHERE cwt >= 0.5  * tot) AS p50,
              min(value) FILTER (WHERE cwt >= 0.75 * tot) AS p75,
              min(value) FILTER (WHERE cwt >= 0.9  * tot) AS p90,
              tot::BIGINT AS n_est
            FROM cw GROUP BY tot""",
        "name_jaro": """
            SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                   jaro_similarity(l.c_name, r.c_name)
                     * 100.0::DOUBLE AS jaro
            FROM customer l JOIN customer r
              ON l.c_nationkey = r.c_nationkey
             AND l.c_custkey < r.c_custkey
            ORDER BY custkey_l, custkey_r""",
        # integer edit distance -- no float parity care needed
        "name_levenshtein": """
            SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                   levenshtein(l.c_name, r.c_name)::BIGINT AS dist
            FROM customer l JOIN customer r
              ON l.c_nationkey = r.c_nationkey
             AND l.c_custkey < r.c_custkey
            ORDER BY custkey_l, custkey_r""",
        # full Damerau-Levenshtein (DuckDB's variant; ('ca','abc')=2)
        "name_damerau": """
            SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                   damerau_levenshtein(l.c_name, r.c_name)::BIGINT
                     AS dl_dist
            FROM customer l JOIN customer r
              ON l.c_nationkey = r.c_nationkey
             AND l.c_custkey < r.c_custkey
            ORDER BY custkey_l, custkey_r""",
        # q-gram Dice: distinct-bigram set sizes are integers (DuckDB
        # list comprehension + list_intersect), ONE pinned division
        "name_qgram": """
            SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                   CASE WHEN len(list_distinct(
                          [l.c_name[i:i+1] FOR i IN
                           range(1, len(l.c_name))]))
                        + len(list_distinct(
                          [r.c_name[i:i+1] FOR i IN
                           range(1, len(r.c_name))])) = 0 THEN 0.0
                   ELSE 2.0 * len(list_intersect(
                          list_distinct([l.c_name[i:i+1] FOR i IN
                                         range(1, len(l.c_name))]),
                          list_distinct([r.c_name[i:i+1] FOR i IN
                                         range(1, len(r.c_name))])))
                        / (len(list_distinct(
                            [l.c_name[i:i+1] FOR i IN
                             range(1, len(l.c_name))]))
                           + len(list_distinct(
                            [r.c_name[i:i+1] FOR i IN
                             range(1, len(r.c_name))])))
                   END AS dice
            FROM customer l JOIN customer r
              ON l.c_nationkey = r.c_nationkey
             AND l.c_custkey < r.c_custkey
            ORDER BY custkey_l, custkey_r""",
        # Monge-Elkan mean-max Jaro: per-token maxes floored to int64
        # 1e-10 micro-units (exact in doubles), ONE pinned mean
        # expression per side; inner jaro_similarity*100.0 is the
        # name_jaro bit-parity surface
        "monge_elkan": """
            WITH pr AS (
              SELECT l.p_partkey AS partkey_l, r.p_partkey AS partkey_r,
                     l.p_name AS nl, r.p_name AS nr
              FROM part l JOIN part r ON l.p_brand = r.p_brand
               AND l.p_partkey < r.p_partkey)
            SELECT partkey_l, partkey_r,
              (list_sum(list_transform(string_split(nl, ' '), x ->
                 FLOOR(list_max(list_transform(string_split(nr, ' '),
                   y -> jaro_similarity(x, y))) * 100.0
                   * 10000000000.0)))::DOUBLE
               / 10000000000.0) / len(string_split(nl, ' ')) AS me_lr,
              (list_sum(list_transform(string_split(nr, ' '), x ->
                 FLOOR(list_max(list_transform(string_split(nl, ' '),
                   y -> jaro_similarity(x, y))) * 100.0
                   * 10000000000.0)))::DOUBLE
               / 10000000000.0) / len(string_split(nr, ' ')) AS me_rl
            FROM pr ORDER BY partkey_l, partkey_r""",
        # clerical-review band over the bit-identical posteriors +
        # deterministic Knuth-hash 1-in-5 sample
        "clerical_review": """
            WITH f AS (
              SELECT c_custkey, c_nationkey,
                     substr(c_name, length(c_name)-2, 3) AS name3,
                     CAST(floor(c_acctbal*100 + 0.5) AS BIGINT) AS cents,
                     c_mktsegment AS seg
              FROM customer),
            p AS (
              SELECT l.c_custkey AS custkey_l, r.c_custkey AS custkey_r,
                     CASE WHEN l.name3 = r.name3 THEN 1 ELSE 0 END
                       AS g_name,
                     CASE WHEN l.seg = r.seg THEN 1 ELSE 0 END AS g_seg,
                     CASE WHEN abs(l.cents - r.cents) < 10000 THEN 2
                          WHEN abs(l.cents - r.cents) < 100000 THEN 1
                          ELSE 0 END AS g_bal
              FROM f l JOIN f r ON l.c_nationkey = r.c_nationkey
                                AND l.c_custkey < r.c_custkey),
            s AS (
              SELECT *,
                0.05::DOUBLE
                  * (CASE g_name WHEN 0 THEN 0.15::DOUBLE
                                 ELSE 0.85::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.25::DOUBLE
                                ELSE 0.75::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.1::DOUBLE
                                WHEN 1 THEN 0.3::DOUBLE
                                ELSE 0.6::DOUBLE END) AS num,
                (1.0::DOUBLE - 0.05::DOUBLE)
                  * (CASE g_name WHEN 0 THEN 0.99::DOUBLE
                                 ELSE 0.01::DOUBLE END)
                  * (CASE g_seg WHEN 0 THEN 0.8::DOUBLE
                                ELSE 0.2::DOUBLE END)
                  * (CASE g_bal WHEN 0 THEN 0.7::DOUBLE
                                WHEN 1 THEN 0.25::DOUBLE
                                ELSE 0.05::DOUBLE END) AS den_u
              FROM p),
            q AS (SELECT custkey_l, custkey_r,
                         num / (num + den_u) AS posterior FROM s)
            SELECT custkey_l, custkey_r, posterior
            FROM q
            WHERE posterior >= 0.01::DOUBLE AND posterior < 0.95::DOUBLE
              AND (custkey_l * 2654435761 + custkey_r) % 2 = 0
            ORDER BY custkey_l, custkey_r""",
        # overlap join vs overlapping deterministic campaign windows
        "campaign_attribution": """
            WITH iv AS (
              SELECT j AS interval_id,
                     TIMESTAMP '2024-01-01' + to_hours(3*j) AS start_ts,
                     TIMESTAMP '2024-01-01' + to_hours(3*j + 8) AS end_ts
              FROM (SELECT unnest(generate_series(0, 249)) AS j))
            SELECT e.event_id, iv.interval_id
            FROM events e JOIN iv
              ON e.ts >= iv.start_ts AND e.ts < iv.end_ts
            ORDER BY e.event_id, iv.interval_id""",
        # blocking-scheme evaluation: everything is exact-integer group
        # counts (ΣC(g,2)); the only doubles are ONE division per
        # metric, computed in the same order on both sides
        "blocking_metrics": """
            WITH c AS (SELECT c_custkey, c_nationkey, c_mktsegment,
                              c_custkey % 50 AS t FROM customer),
            tot AS (SELECT count(*) AS n FROM c),
            tp AS (SELECT sum(g*(g-1)//2) AS p
                   FROM (SELECT count(*) AS g FROM c GROUP BY t)),
            s1 AS (SELECT sum(g*(g-1)//2) AS cand FROM
                   (SELECT count(*) AS g FROM c GROUP BY c_nationkey)),
            s1c AS (SELECT sum(g*(g-1)//2) AS cap FROM
                    (SELECT count(*) AS g FROM c GROUP BY t, c_nationkey)),
            s2 AS (SELECT sum(g*(g-1)//2) AS cand FROM
                   (SELECT count(*) AS g FROM c GROUP BY c_mktsegment)),
            s2c AS (SELECT sum(g*(g-1)//2) AS cap FROM
                    (SELECT count(*) AS g FROM c
                     GROUP BY t, c_mktsegment)),
            s3 AS (SELECT sum(g*(g-1)//2) AS cand FROM
                   (SELECT count(*) AS g FROM c
                    GROUP BY c_nationkey, c_mktsegment)),
            s3c AS (SELECT sum(g*(g-1)//2) AS cap FROM
                    (SELECT count(*) AS g FROM c
                     GROUP BY t, c_nationkey, c_mktsegment))
            SELECT 'nation' AS scheme,
                   s1.cand::BIGINT AS n_candidate_pairs,
                   tp.p::BIGINT AS n_truth_pairs,
                   s1c.cap::BIGINT AS n_captured_pairs,
                   1.0 - s1.cand / (tot.n*(tot.n-1)//2)
                     AS reduction_ratio,
                   s1c.cap / tp.p AS pairs_completeness
            FROM s1, s1c, tp, tot
            UNION ALL
            SELECT 'nation_segment', s3.cand::BIGINT, tp.p::BIGINT,
                   s3c.cap::BIGINT,
                   1.0 - s3.cand / (tot.n*(tot.n-1)//2),
                   s3c.cap / tp.p FROM s3, s3c, tp, tot
            UNION ALL
            SELECT 'segment', s2.cand::BIGINT, tp.p::BIGINT,
                   s2c.cap::BIGINT,
                   1.0 - s2.cand / (tot.n*(tot.n-1)//2),
                   s2c.cap / tp.p FROM s2, s2c, tp, tot
            ORDER BY scheme""",
        # meta-blocking: CBS edge weights are exact integers and the
        # WEP mean test is the integer cross-multiplication
        # w * n_edges > sum_w on both sides — no float mean exists
        # NOTE (ADVICE r4): pinned to the surface's default
        # max_block_size=1000, like hll_registers above
        "meta_blocking": """
            WITH c AS (
              SELECT c_custkey AS k, c_nationkey AS nk,
                     CASE c_mktsegment
                       WHEN 'AUTOMOBILE' THEN 0 WHEN 'BUILDING' THEN 1
                       WHEN 'FURNITURE' THEN 2 WHEN 'HOUSEHOLD' THEN 3
                       WHEN 'MACHINERY' THEN 4 ELSE 7 END AS sg
              FROM customer),
            b AS (
              SELECT nk AS block_id, k FROM c
              UNION ALL SELECT 4294967296 + sg, k FROM c
              UNION ALL SELECT 2*4294967296 + nk*8 + sg, k FROM c),
            sz AS (SELECT block_id, count(*) AS n FROM b
                   GROUP BY block_id),
            bp AS (SELECT b.block_id, b.k FROM b JOIN sz USING (block_id)
                   WHERE sz.n <= 1000),
            e AS (SELECT a.k AS l, b2.k AS r
                  FROM bp a JOIN bp b2 USING (block_id)
                  WHERE a.k < b2.k),
            w AS (SELECT l, r, count(*)::BIGINT AS w FROM e
                  GROUP BY l, r),
            tot AS (SELECT count(*)::BIGINT AS ne, sum(w)::BIGINT AS sw
                    FROM w)
            SELECT l AS custkey_l, r AS custkey_r, w
            FROM w, tot WHERE w * ne > sw
            ORDER BY custkey_l, custkey_r""",
        # clustering-quality metrics: all sums are exact integers (the
        # B-cubed terms as (n*n*1000000) // cluster_size micro-units,
        # matching the Ray side's int64 floor division); the final
        # doubles are ONE pinned expression per metric on both sides
        "cluster_eval": """
            WITH lab AS (
              SELECT c_nationkey * 8 + CASE c_mktsegment
                       WHEN 'AUTOMOBILE' THEN 0 WHEN 'BUILDING' THEN 1
                       WHEN 'FURNITURE' THEN 2 WHEN 'HOUSEHOLD' THEN 3
                       WHEN 'MACHINERY' THEN 4 ELSE 7 END AS pred,
                     c_custkey % 50 AS truth
              FROM customer),
            cells AS (SELECT pred, truth, count(*)::BIGINT AS n
                      FROM lab GROUP BY pred, truth),
            p AS (SELECT pred, sum(n)::BIGINT AS np FROM cells
                  GROUP BY pred),
            t AS (SELECT truth, sum(n)::BIGINT AS nt FROM cells
                  GROUP BY truth),
            s AS (SELECT
              (SELECT sum(n) FROM cells)::BIGINT AS n_records,
              (SELECT count(*) FROM p)::BIGINT AS n_pred,
              (SELECT count(*) FROM t)::BIGINT AS n_truth,
              (SELECT sum(n*(n-1)//2) FROM cells)::BIGINT AS tp,
              (SELECT sum(np*(np-1)//2) FROM p)::BIGINT AS pp,
              (SELECT sum(nt*(nt-1)//2) FROM t)::BIGINT AS tpair,
              (SELECT sum((n*n*1000000) // np)
               FROM cells JOIN p USING (pred))::BIGINT AS b3pm,
              (SELECT sum((n*n*1000000) // nt)
               FROM cells JOIN t USING (truth))::BIGINT AS b3rm),
            s2 AS (SELECT *,
              (n_records * (n_records - 1) // 2)::BIGINT AS totp
              FROM s),
            m AS (SELECT *,
              CASE WHEN pp > 0 THEN tp::DOUBLE / pp ELSE 0.0 END AS prec,
              CASE WHEN tpair > 0 THEN tp::DOUBLE / tpair
                   ELSE 0.0 END AS rec,
              (b3pm::DOUBLE / 1000000.0) / n_records AS b3p,
              (b3rm::DOUBLE / 1000000.0) / n_records AS b3r,
              CASE WHEN totp > 0
                   THEN pp::DOUBLE * tpair::DOUBLE / totp::DOUBLE
                   ELSE 0.0 END AS e_tp
              FROM s2)
            SELECT * FROM (
              SELECT 'ari' AS metric,
                     CASE WHEN 0.5*(pp::DOUBLE + tpair::DOUBLE) - e_tp
                               <> 0.0
                          THEN (tp::DOUBLE - e_tp)
                               / (0.5*(pp::DOUBLE + tpair::DOUBLE)
                                  - e_tp)
                          ELSE 0.0 END AS value FROM m
              UNION ALL
              SELECT 'b3_f1' AS metric,
                     CASE WHEN b3p + b3r > 0
                          THEN 2.0*b3p*b3r/(b3p+b3r)
                          ELSE 0.0 END AS value FROM m
              UNION ALL SELECT 'b3_precision', b3p FROM m
              UNION ALL SELECT 'b3_recall', b3r FROM m
              UNION ALL SELECT 'fowlkes_mallows',
                        sqrt(prec * rec) FROM m
              UNION ALL SELECT 'n_pred_clusters', n_pred::DOUBLE FROM m
              UNION ALL SELECT 'n_records', n_records::DOUBLE FROM m
              UNION ALL SELECT 'n_truth_clusters', n_truth::DOUBLE FROM m
              UNION ALL SELECT 'pairwise_f1',
                        CASE WHEN prec + rec > 0
                             THEN 2.0*prec*rec/(prec+rec)
                             ELSE 0.0 END FROM m
              UNION ALL SELECT 'pairwise_precision', prec FROM m
              UNION ALL SELECT 'pairwise_recall', rec FROM m
              UNION ALL SELECT 'pred_pairs', pp::DOUBLE FROM m
              UNION ALL SELECT 'tp_pairs', tp::DOUBLE FROM m
              UNION ALL SELECT 'truth_pairs', tpair::DOUBLE FROM m)
            ORDER BY metric""",
        # C4 line filter over planted 10-word lines; string_agg skips
        # the NULLed-out failing lines, ORDER BY i keeps line order
        "c4_line_filter": """
            WITH w AS (
              SELECT doc_id, string_split(text, ' ') AS ws
              FROM documents),
            k AS (
              SELECT doc_id, ws,
                     unnest(generate_series(0,
                       CAST(ceil(len(ws)/10.0) AS INT) - 1)) AS i
              FROM w),
            lines AS (
              SELECT doc_id, i,
                     array_to_string(ws[i*10+1 : i*10+10], ' ')
                       || CASE WHEN (doc_id + i) % 4 != 0
                               THEN '.' ELSE '' END AS line
              FROM k),
            f AS (
              SELECT doc_id, i, line,
                     CASE WHEN (line LIKE '%.' OR line LIKE '%!'
                                OR line LIKE '%?' OR line LIKE '%\"')
                           AND len(string_split(line, ' ')) >= 5
                          THEN 1 ELSE 0 END AS ok
              FROM lines)
            SELECT doc_id,
                   string_agg(CASE WHEN ok = 1 THEN line END,
                              chr(10) ORDER BY i) AS kept_text,
                   count(*)::BIGINT AS n_lines,
                   sum(ok)::BIGINT AS n_lines_kept
            FROM f GROUP BY doc_id
            HAVING sum(ok) >= 3
            ORDER BY doc_id""",
        # corpus line dedup: count lines by content over the corpus,
        # strip lines with freq > 5, reassemble in original line order;
        # docs with zero surviving lines are dropped (inner join)
        "line_dedup": """
            WITH p AS (
              SELECT doc_id,
                     text
                     || CASE WHEN doc_id % 3 = 0 THEN chr(10) ||
                        'home about contact subscribe newsletter.'
                        ELSE '' END
                     || CASE WHEN doc_id % 2 = 0 THEN chr(10) ||
                        'all rights reserved.' ELSE '' END AS t
              FROM documents),
            l AS (
              SELECT doc_id,
                     unnest(string_split(t, chr(10))) AS line,
                     unnest(generate_series(
                       1, len(string_split(t, chr(10))))) AS i
              FROM p),
            c AS (SELECT line, count(*) AS n FROM l GROUP BY line),
            k AS (SELECT l.doc_id, l.line, l.i
                  FROM l JOIN c USING (line) WHERE c.n <= 5),
            tot AS (SELECT doc_id, count(*) AS n_lines FROM l
                    GROUP BY doc_id),
            kept AS (SELECT doc_id,
                            string_agg(line, chr(10) ORDER BY i)
                              AS clean_text,
                            count(*) AS n_kept
                     FROM k GROUP BY doc_id)
            SELECT t.doc_id, kept.clean_text,
                   t.n_lines::BIGINT AS n_lines,
                   (t.n_lines - kept.n_kept)::BIGINT AS n_removed
            FROM tot t JOIN kept USING (doc_id)
            ORDER BY t.doc_id""",
    }
