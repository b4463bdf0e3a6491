"""Dedup / similarity / text / multimodal / export pipeline tests."""

import numpy as np
import pandas as pd
import pytest

from address_address_matching_ray.config import PipelineConfig

SF = "/root/testdata/sf0.001"


def _docs_ds(ray_session, rows):
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(rows))


def test_exact_dedup(ray_session):
    from address_address_matching_ray.pipelines.dedup import exact_dedup

    rows = {
        "doc_id": pd.array([3, 1, 2, 4, 5], dtype="uint64"),
        "text": ["Hello  world", "hello world", "something else",
                 "HELLO WORLD", "unique doc"],
    }
    out = exact_dedup(_docs_ds(ray_session, rows)).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    # "Hello  world"/"hello world"/"HELLO WORLD" normalize identically → keep id 1
    assert out.doc_id.tolist() == [1, 2, 5]
    assert out.loc[out.doc_id == 1, "n_dups"].iloc[0] == 3


def test_minhash_dedup_removes_near_dups(ray_session):
    from address_address_matching_ray.pipelines.dedup import minhash_dedup

    base = ("the quick brown fox jumps over the lazy dog while rain "
            "falls softly on the quiet empty street tonight")
    near = base.replace("quiet", "silent")
    rows = {
        "doc_id": pd.array([10, 11, 12], dtype="uint64"),
        "text": [base, near, "completely different content about databases "
                             "and distributed query engines at scale"],
    }
    out = minhash_dedup(_docs_ds(ray_session, rows), buckets=4).to_pandas()
    assert sorted(out.doc_id.tolist()) == [10, 12]   # 11 deduped into 10


def test_simhash_and_ngram_dedup(ray_session):
    from address_address_matching_ray.pipelines.dedup import (
        ngram_jaccard_dedup, simhash_dedup,
    )

    # SimHash needs enough tokens for stable majority votes — short docs
    # flip many bits per edit (why minhash/ngram variants exist)
    base = ("the quick brown fox jumps over the lazy dog and runs across "
            "the wide green field toward the old wooden barn where many "
            "small animals hide from the cold winter wind while farmers "
            "work hard every day to gather crops before the first snow arrives")
    rows = {
        "doc_id": pd.array([1, 2, 3], dtype="uint64"),
        "text": [base, base.replace("wooden", "stone"),
                 "completely different topic about databases query engines "
                 "and distributed computing with shuffles joins aggregations"],
    }
    out1 = simhash_dedup(_docs_ds(ray_session, rows), buckets=4).to_pandas()
    assert 3 in out1.doc_id.tolist() and 1 in out1.doc_id.tolist()
    assert 2 not in out1.doc_id.tolist()
    out2 = ngram_jaccard_dedup(_docs_ds(ray_session, rows), buckets=4).to_pandas()
    assert sorted(out2.doc_id.tolist()) == [1, 3]


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import brute_force_topk

    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    pdf = emb.to_pandas()
    M = np.stack([np.asarray(v, dtype=np.float32) for v in pdf.embedding])
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    q = Mn[:2]
    got = brute_force_topk(emb, q, k=4).to_pandas()
    for qi in range(2):
        sims = q[qi] @ Mn.T
        order = np.lexsort((pdf.vec_id.to_numpy(), -sims))[:4]
        want = pdf.vec_id.to_numpy()[order].tolist()
        g = got[got.query_idx == qi].sort_values("rank").vec_id.tolist()
        assert g == want, (qi, g, want)


def test_lsh_topk_recall(ray_session):
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import (
        brute_force_topk, lsh_topk,
    )

    emb = rd.read_parquet(f"{SF}/embeddings.parquet")
    pdf = emb.to_pandas()
    M = np.stack([np.asarray(v, dtype=np.float32) for v in pdf.embedding])
    q = M[:3]
    exact = brute_force_topk(emb, q, k=5).to_pandas()
    approx = lsh_topk(emb, q, k=5, bits=6).to_pandas()
    # every query answers itself at rank 1 (query vec is in the table)
    r1 = approx[approx["rank"] == 1].sort_values("query_idx").vec_id.tolist()
    assert r1 == [0, 1, 2]
    recall = len(set(map(tuple, approx[["query_idx", "vec_id"]].values))
                 & set(map(tuple, exact[["query_idx", "vec_id"]].values))) / len(exact)
    assert recall >= 0.4      # approximate by design; report, don't hide


def test_embedding_dedup_removes_planted_dup(ray_session):
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import embedding_dedup

    rng = np.random.RandomState(0)
    base = rng.standard_normal((20, 16)).astype(np.float32)
    vecs = np.vstack([base, base[3] * 2.0])   # same direction as row 3
    df = pd.DataFrame({
        "vec_id": pd.array(range(21), dtype="uint64"),
        "embedding": [v.tolist() for v in vecs],
        "label": np.zeros(21, dtype="int32"),
    })
    out = embedding_dedup(rd.from_pandas(df), threshold=0.999, bits=4).to_pandas()
    assert 20 not in out.vec_id.tolist()
    assert 3 in out.vec_id.tolist()
    assert len(out) == 20


def test_embedding_dedup_banding_recall(ray_session):
    """Multi-band sign-LSH squares the per-pair miss rate: bands=2 must
    recover (weakly) more of the planted near-dups than bands=1, and at
    these noise levels essentially all of them.  2k base vectors + 500
    planted near-dups (θ ≈ 0.05 rad — single-band 10-bit co-bucket rate
    ≈ (1−θ/π)^10 ≈ 0.85, so band 1 demonstrably misses some)."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import embedding_dedup

    rng = np.random.RandomState(5)
    n = 2000
    base = rng.standard_normal((n, 32)).astype(np.float32)
    dups = (base[:500]
            + 0.05 * rng.standard_normal((500, 32)).astype(np.float32))
    vecs = np.vstack([base, dups])           # dup i ↔ source i
    df = pd.DataFrame({
        "vec_id": pd.array(range(n + 500), dtype="uint64"),
        "embedding": [v.tolist() for v in vecs],
        "label": np.zeros(n + 500, dtype="int32"),
    })
    kept = {}
    for bands in (1, 2):
        out = embedding_dedup(rd.from_pandas(df), threshold=0.98,
                              bits=10, bands=bands).to_pandas()
        kept[bands] = len(out)
    # bands=2 candidates are a superset → kept set can only shrink
    assert kept[2] <= kept[1]
    # near-total recall of the 500 planted dups at bands=2
    assert kept[2] <= n + 25
    # and banding must actually rescue pairs band 0 alone splits
    assert kept[2] < kept[1]


def test_embedding_dedup_degenerate_bucket_capped(ray_session):
    """One hyperplane bucket holding EVERY vector (all near-identical ⇒
    same sign pattern) must not go O(n²): _EmbCaps windows the pairs,
    and the star edges to the bucket minimum keep the accepted near-dup
    component connected, so all dups still collapse to one
    representative."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import (
        _EmbCaps, embedding_dedup,
    )

    rng = np.random.RandomState(1)
    n = 4 * _EmbCaps.max_block_size          # 2000 ≫ cap
    base = rng.standard_normal(16).astype(np.float32)
    vecs = base[None, :] + 1e-4 * rng.standard_normal((n, 16)).astype(np.float32)
    df = pd.DataFrame({
        "vec_id": pd.array(range(n), dtype="uint64"),
        "embedding": [v.tolist() for v in vecs],
    })
    out = embedding_dedup(rd.from_pandas(df), threshold=0.99, bits=4).to_pandas()
    # every vector is a near-dup of every other → single component,
    # min-id representative survives
    assert out.vec_id.tolist() == [0]


def test_textstats_kernels():
    from address_address_matching_ray.functions import textstats

    langs = textstats.detect_language(pd.Series([
        "the cat sat on the mat and it was a good day for all of us",
        "der Hund und die Katze sind in dem Haus mit einem Ball",
        "zzz qqq xxx", ""]))
    assert langs.tolist()[:2] == ["en", "de"]
    assert langs.tolist()[2] == "und"

    tc = textstats.token_count(pd.Series(["a b  c", "", None]))
    assert tc.tolist() == [3, 0, 0]

    fp = textstats.fingerprint(pd.Series(["alpha beta gamma delta"] * 2
                                         + ["totally different words here"]))
    assert fp.iloc[0] == fp.iloc[1] != fp.iloc[2]

    q = textstats.quality_features(pd.Series([
        "A normal english sentence with reasonable words and good flow.",
        "!!! ??? ### $$$ %%%"]))
    assert q.quality.iloc[0] > q.quality.iloc[1]


def test_media_plumbing(ray_session):
    from address_address_matching_ray.pipelines.multimodal import (
        MediaDecoder, decode_stage, frame_sample_stage, resize_stage,
        synth_media,
    )

    media = synth_media(60, seed=1)
    decoded = decode_stage(media).materialize()
    assert decoded.count() == 60
    df = decoded.to_pandas()
    assert set(df.kind) == {"image", "audio", "video"}
    assert (df.n_bytes > 0).all()
    assert all(len(v) == 16 for v in df.feature)
    # deterministic (content-wise: execution order is not guaranteed)
    df2 = decode_stage(synth_media(60, seed=1)).to_pandas()
    a = df.sort_values("media_id").byte_mean.tolist()
    b = df2.sort_values("media_id").byte_mean.tolist()
    assert a == b

    small = resize_stage(decoded, target=8).to_pandas()
    assert all(len(v) == 8 for v in small.feature)

    frames = frame_sample_stage(media, every_ms=5000).to_pandas()
    assert set(frames.kind) == {"video"}
    assert (frames.frame_ts_ms % 5000 == 0).all()

    try:
        import PIL  # noqa: F401
        pil_available = True
    except ImportError:
        pil_available = False
    if not pil_available:
        # without the optional Pillow wheel the real path refuses at
        # actor construction (the adapter seam), never mid-batch
        with pytest.raises(NotImplementedError):
            MediaDecoder(mode="real")


def test_media_real_codec_pillow(ray_session):
    """Exercises the real Pillow adapter when the wheel exists;
    skipped in codec-less environments (this sandbox)."""
    PIL = pytest.importorskip("PIL")
    from PIL import Image
    import io
    import pyarrow as pa

    from address_address_matching_ray.pipelines.multimodal import MediaDecoder

    bufs = []
    for shade in (0, 128, 255):
        im = Image.new("L", (32, 32), color=shade)
        b = io.BytesIO()
        im.save(b, format="PNG")
        bufs.append(b.getvalue())
    batch = pa.table({
        "media_id": pa.array([0, 1, 2], pa.uint64()),
        "kind": pa.array(["image"] * 3),
        "payload": pa.array(bufs, pa.binary()),
    })
    out = MediaDecoder(mode="real")(batch)
    df = out.to_pandas()
    # uniform images → pixel mean equals the shade, feature uniform
    assert [round(x) for x in df.byte_mean] == [0, 128, 255]
    assert all(len(v) == 16 for v in df.feature)
    # a payload Pillow cannot parse falls back to the stand-in
    bad = pa.table({
        "media_id": pa.array([9], pa.uint64()),
        "kind": pa.array(["image"]),
        "payload": pa.array([b"not-an-image"], pa.binary()),
    })
    assert MediaDecoder(mode="real")(bad).num_rows == 1


def test_rejects_routing(ray_session):
    from address_address_matching_ray.pipelines.linkage import rejects_summary
    from address_address_matching_ray.sources.synth import synth_pages
    from address_address_matching_ray.stages.extract import extract_stage
    from address_address_matching_ray.stages.keys import keys_stage

    import pyarrow as pa
    import ray.data as rd

    def page(i, body):
        return (i, f"https://x.example/{i}", 1609459200_000000 + i,
                f"<html><body><p>{body}</p></body></html>".encode(), body, "en")

    rows = [
        page(1, "For rent: 55 Berry Street Brooklyn, NY 11211. Nice."),
        page(2, "At 112 Bedford Avenue right now"),          # no zip
        page(3, "no address in this text at all"),           # empty addr
    ]
    ids, urls, ts, htmls, texts, langs = zip(*rows)
    pages = rd.from_arrow(pa.table({
        "url": pa.array(urls), "warc_ts": pa.array(list(ts), pa.timestamp("us")),
        "html": pa.array(list(htmls), pa.binary()), "text": pa.array(texts),
        "lang": pa.array(langs), "doc_id": pa.array(list(ids), pa.uint64())}))

    cfg = PipelineConfig(require_zip=True)
    ext = extract_stage(pages, cfg=cfg).materialize()
    df = ext.to_pandas().sort_values("doc_id")
    assert df.reject_reason.tolist() == ["", "missing_zip", "empty_address"]
    keys = keys_stage(ext, cfg).to_pandas()
    assert set(keys.doc_id) == {1}                # rejects never shuffled
    summary = rejects_summary(ext).to_pandas()
    assert summary["count()"].sum() == 2
    # without require_zip only the empty address is rejected
    ext2 = extract_stage(pages, cfg=PipelineConfig()).to_pandas()
    assert sorted(ext2.reject_reason.tolist()) == ["", "", "empty_address"]


def test_cluster_outputs(ray_session):
    import ray.data as rd
    from address_address_matching_ray.pipelines.linkage import (
        cluster_representatives, resolve_entity_ids, run_linkage, to_export,
    )
    from address_address_matching_ray.sources.synth import synth_pages

    res = run_linkage(synth_pages(300, seed=42), buckets=4, num_partitions=2)
    reps = cluster_representatives(res.clusters, res.extracted).to_pandas()
    assert (reps.n_members >= 1).all()
    assert reps.cluster_id.is_unique
    # representative is the min member id == cluster label
    assert (reps.rep_doc_id == reps.cluster_id).all()

    exported = to_export(res.clusters).to_pandas()
    assert set(exported.columns) == {"doc_id", "address_id", "success"}

    dim = rd.from_pandas(pd.DataFrame({
        "cluster_id": reps.cluster_id.astype("uint64"),
        "pid": ["ent_%d" % c for c in reps.cluster_id]}))
    resolved = resolve_entity_ids(res.clusters, dim, num_partitions=2).to_pandas()
    assert resolved.pid.notna().all()


def test_catalog_and_csv(ray_session, tmp_path):
    import ray.data as rd
    from address_address_matching_ray.sources.catalog import export_csv, list_tables

    tables = list_tables(SF)
    names = {t["table"] for t in tables}
    assert {"documents", "lineitem", "events"} <= names
    assert all(t["rows"] > 0 for t in tables)

    ds = rd.from_pandas(pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}))
    p = export_csv(ds, str(tmp_path / "out.csv"))
    assert open(p).read().startswith("a,b")
    with pytest.raises(ValueError):
        export_csv(ds, str(tmp_path / "big.csv"), max_rows=1)


def test_dedup_forced_join_path_matches_broadcast(ray_session):
    """filter_out_ids join path (broadcast_threshold=0) must produce
    byte-identical survivors to the sorted-array broadcast path."""
    from address_address_matching_ray.pipelines.dedup import minhash_dedup

    base = ("the quick brown fox jumps over the lazy dog while rain "
            "falls softly on the quiet empty street tonight")
    rows = {
        "doc_id": pd.array([10, 11, 12, 13], dtype="uint64"),
        "text": [base, base.replace("quiet", "silent"),
                 "completely different content about databases and "
                 "distributed query engines at scale",
                 base.replace("rain", "snow")],
    }
    ds = _docs_ds(ray_session, rows)
    via_broadcast = minhash_dedup(ds, buckets=4).to_pandas()
    via_join = minhash_dedup(ds, buckets=4,
                             broadcast_threshold=0).to_pandas()
    assert sorted(via_broadcast.doc_id) == sorted(via_join.doc_id)
    assert sorted(via_join.doc_id) == [10, 12]


def test_to_export_success_semantics(ray_session):
    """success ⇔ non-singleton: the min-id REPRESENTATIVE of a real
    cluster is successful too (regression: cluster_id != doc_id alone
    mislabeled exactly one member per cluster)."""
    import ray.data as rd
    from address_address_matching_ray.pipelines.linkage import to_export

    clusters = rd.from_pandas(pd.DataFrame({
        "doc_id": pd.array([1, 2, 3, 7], dtype="uint64"),
        "cluster_id": pd.array([1, 1, 3, 7], dtype="uint64")}))
    for kw in ({}, {"broadcast_threshold": 0, "num_partitions": 2}):
        out = (to_export(clusters, **kw).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert out.doc_id.tolist() == [1, 2, 3, 7]
        assert out.success.tolist() == [True, True, False, False]


def test_detect_language_spec_parity():
    """Columnar detect_language equals the per-row spec computation."""
    from address_address_matching_ray.functions.textstats import (
        _LANG_PROFILES, _WORD_RE, detect_language,
    )

    texts = pd.Series([
        "the cat sat on the mat and it was good for all of us",
        "der hund und die katze sind nicht in dem haus von ihm",
        "le chien et le chat sont dans la maison pour une nuit",
        "xyzzy qwerty plugh", "", None,
        "el perro y el gato en la casa con su amigo para que",
    ])
    got = detect_language(texts)
    langs = list(_LANG_PROFILES)
    for i, t in enumerate(texts):
        toks = _WORD_RE.findall((t or "").lower())
        if not toks:
            assert got.iloc[i] == "und"
            continue
        scores = [sum(1 for w in toks if w in _LANG_PROFILES[lg]) / len(toks)
                  for lg in langs]
        exp = langs[int(np.argmax(scores))] if max(scores) >= 0.05 else "und"
        assert got.iloc[i] == exp, (i, t)


def test_warning_strings_parity():
    from address_address_matching_ray.functions import scoring

    rng = np.random.RandomState(0)
    tier = rng.randint(0, 11, 300)
    sim = rng.uniform(0, 100, 300)
    spec = rng.uniform(0, 25, 300)
    assert (scoring.warning_strings(tier, sim, spec).tolist()
            == ["; ".join(w) for w in scoring.warning_flags(tier, sim, spec)])
    assert (scoring.warning_strings(tier, sim, None).tolist()
            == ["; ".join(w) for w in scoring.warning_flags(tier, sim, None)])


def test_customers_without_orders_join_parity(ray_session):
    """Anti-join query: forced hash-join path ≡ broadcast path."""
    from address_address_matching_ray.pipelines.relational import (
        customers_without_orders,
    )

    a = customers_without_orders(SF).to_pandas()
    b = customers_without_orders(SF, broadcast_threshold=0).to_pandas()
    assert a.c_custkey.tolist() == b.c_custkey.tolist()
    assert list(a.columns) == ["c_custkey", "c_name"]


def test_new_relational_queries_shapes(ray_session):
    from address_address_matching_ray.pipelines.relational import (
        parts_by_brand, region_supplier_balance,
    )

    pb = parts_by_brand(SF).to_pandas()
    assert {"p_brand", "n_parts", "avg_price"} == set(pb.columns)
    assert pb.n_parts.sum() > 0
    rs = region_supplier_balance(SF).to_pandas()
    assert {"r_name", "total_acctbal", "n_suppliers"} == set(rs.columns)
    assert len(rs) >= 1


def test_lsh_scope_all_same_clusters(ray_session):
    """cfg.lsh_scope='all' (belt-and-braces text blocking) must produce
    the same CLUSTERS as the default 'degraded' scope on parseable
    synthetic pages — band-only pairs of differently-parsed addresses
    are rejected by the edge-confidence gate (the subsumption argument
    documented in config.py)."""
    from address_address_matching_ray.pipelines.linkage import run_linkage
    from address_address_matching_ray.sources.synth import synth_pages

    a = run_linkage(synth_pages(300, seed=42), buckets=4,
                    num_partitions=2).clusters.to_pandas()
    cfg = PipelineConfig(lsh_scope="all")
    b = run_linkage(synth_pages(300, seed=42), cfg=cfg, buckets=4,
                    num_partitions=2).clusters.to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_auto_spill_path_matches_pinned(ray_session):
    """approx_rows above auto_spill_rows routes through a throwaway
    checkpoint dir; clusters must be byte-identical to the pinned path."""
    from address_address_matching_ray.pipelines.linkage import run_linkage
    from address_address_matching_ray.sources.synth import synth_pages

    a = run_linkage(synth_pages(300, seed=42), buckets=4,
                    num_partitions=2).clusters.to_pandas()
    res = run_linkage(synth_pages(300, seed=42), buckets=4,
                      num_partitions=2, approx_rows=300, auto_spill_rows=100)
    b = res.clusters.to_pandas()
    a = a.sort_values("doc_id").reset_index(drop=True)
    b = b.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_auto_spill_root_removed_at_exit(tmp_path):
    """The throwaway spill-through root lives until interpreter exit and
    no longer: a process that auto-spills leaves no linkage_spill_* dir
    in its temp dir."""
    import os
    import subprocess
    import sys
    import tempfile

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """
import os, ray
ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
         include_dashboard=False, logging_level="ERROR")
from address_address_matching_ray.pipelines.linkage import run_linkage
from address_address_matching_ray.sources.synth import synth_pages
res = run_linkage(synth_pages(50, seed=3), buckets=2, num_partitions=2,
                  approx_rows=50, auto_spill_rows=10)
assert res.clusters.count() == 50
print(sorted(res.from_checkpoint))
print(sorted(os.listdir(os.environ["TMPDIR"])))
ray.shutdown()
"""
    # Ray's session dir follows TMPDIR unless RAY_TMPDIR is set; keep it
    # out of tmp_path (socket paths have a length limit)
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=repo,
               RAY_TMPDIR=tempfile.gettempdir())
    out = subprocess.run([sys.executable, "-c", script], cwd=repo, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    assert "clusters" in lines[-2] and "linkage_spill_" in lines[-1]
    assert not [p for p in os.listdir(tmp_path)
                if p.startswith("linkage_spill_")]


def test_ivf_topk_recall(ray_session):
    """IVF coarse-quantizer path: recall@5 vs brute force ≥ 0.6 with
    generous probing on the small fixture (same bar as the LSH path)."""
    import numpy as np
    import ray.data as rd
    from address_address_matching_ray.pipelines.similarity import (
        brute_force_topk, ivf_topk,
    )

    rng = np.random.RandomState(3)
    n, d = 600, 16
    vecs = rng.standard_normal((n, d)).astype("float32")
    ds = rd.from_pandas(pd.DataFrame({
        "vec_id": pd.array(range(n), dtype="uint64"),
        "embedding": list(vecs)})).materialize()
    queries = vecs[:4] + rng.standard_normal((4, d)).astype("float32") * 0.05
    exact = brute_force_topk(ds, queries, k=5).to_pandas()
    approx = ivf_topk(ds, queries, k=5, n_centroids=16, nprobe=6,
                      train_sample=600).to_pandas()
    hits = 0
    for qi in range(4):
        e = set(exact[exact.query_idx == qi].vec_id)
        a = set(approx[approx.query_idx == qi].vec_id)
        hits += len(e & a)
    assert hits / 20 >= 0.6
    # rank-1 of each query should be its own perturbed source vector
    assert (approx[approx["rank"] == 1].sort_values("query_idx")
            .vec_id.tolist() == [0, 1, 2, 3])


def test_dedup_family_golden_hashes(ray_session):
    """Frozen content gate for the three near-dup queries that have no
    SQL oracle (their siphash token hashes aren't DuckDB-reproducible;
    embedding_dedup graduated to a bit-exact DuckDB oracle once its
    hyperplanes became hash-derived): row count +
    a content hash of the sorted kept-id set at sf0.001 must match the
    values frozen in tests/golden/dedup_hashes.json.  Catches silent
    behavior drift the rows-only driver check cannot."""
    import hashlib
    import json
    import os

    import __ray_entry__ as entry

    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "dedup_hashes.json")
    q = entry.queries()
    got = {}
    for name in ("minhash_dedup", "simhash_dedup", "ngram_dedup"):
        df = q[name]("/root/testdata/sf0.001").to_pandas()
        id_col = "vec_id" if "vec_id" in df.columns else "doc_id"
        ids = ",".join(map(str, sorted(df[id_col].tolist())))
        got[name] = {"rows": int(len(df)),
                     "sha256": hashlib.sha256(ids.encode()).hexdigest()}
    if not os.path.exists(golden_path):     # first run freezes the golden
        with open(golden_path, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
    with open(golden_path) as f:
        want = json.load(f)
    assert got == want


def test_match_and_cluster_golden_hashes(ray_session):
    """Frozen content gates for the two remaining deterministic
    no-oracle query surfaces: linkage_clusters (doc_id→cluster_id at
    sf0.001) and match_queries (query→best-record decisions).  Same
    policy as the dedup golden file: the driver's rows-only check
    cannot see silent content drift; this can."""
    import hashlib
    import json
    import os

    import __ray_entry__ as entry

    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "match_cluster_hashes.json")
    q = entry.queries()
    got = {}

    cl = q["linkage_clusters"]("/root/testdata/sf0.001").to_pandas()
    cl = cl.sort_values("doc_id").reset_index(drop=True)
    blob = ",".join(f"{d}:{c}" for d, c in zip(cl.doc_id, cl.cluster_id))
    got["linkage_clusters"] = {
        "rows": int(len(cl)),
        "sha256": hashlib.sha256(blob.encode()).hexdigest()}

    mq = q["match_queries"]("/root/testdata/sf0.001")
    mq = (mq.to_pandas() if hasattr(mq, "to_pandas") else mq)
    key_cols = [c for c in ("query_id", "pid", "confidence",
                              "match_level", "reliability")
                if c in mq.columns]
    mq = mq.sort_values(key_cols[0]).reset_index(drop=True)
    blob = mq[key_cols].astype(str).agg("|".join, axis=1).str.cat(sep=";")
    got["match_queries"] = {
        "rows": int(len(mq)), "cols": key_cols,
        "sha256": hashlib.sha256(blob.encode()).hexdigest()}

    if not os.path.exists(golden_path):     # first run freezes the golden
        with open(golden_path, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
    with open(golden_path) as f:
        want = json.load(f)
    assert got == want


def test_pair_texts_paths_agree(ray_session):
    """_pair_texts' three routes — driver-broadcast, text-bytes-gated
    fall-through (pairs fit, probed text doesn't), and the full shuffle
    path — must return identical pairs, texts AND dropped_pairs stats
    (round-4 ADVICE: broadcast path kept first-copy dropped_pairs and
    had no byte gate)."""
    import pyarrow as pa
    import ray.data as rd
    from address_address_matching_ray.pipelines.dedup import (
        _pair_texts, _slim_texts,
    )

    texts = _slim_texts(
        _docs_ds(ray_session, {
            "doc_id": pd.array([1, 2, 3, 4], dtype="uint64"),
            "text": ["aaa", "bbb", "ccc", "ddd"]}),
        "text", "doc_id")
    # duplicated candidate pairs with differing dropped_pairs copies —
    # the survivor must carry the MAX on every path
    cand = rd.from_arrow(pa.table({
        "left_id": pa.array([1, 1, 1, 2], pa.uint64()),
        "right_id": pa.array([2, 2, 3, 3], pa.uint64()),
        "dropped_pairs": pa.array([5, 9, 0, 2], pa.uint64())}))

    def run(**kw):
        df = _pair_texts(cand, texts, buckets=4, **kw).to_pandas()
        return (df.sort_values(["left_id", "right_id"])
                [["left_id", "right_id", "dropped_pairs",
                  "l_text", "r_text"]].reset_index(drop=True))

    broadcast = run()
    byte_gated = run(text_broadcast_bytes=0)
    shuffle = run(probe_broadcast_threshold=0)
    assert broadcast.equals(byte_gated)
    assert broadcast.equals(shuffle)
    assert list(broadcast["dropped_pairs"]) == [9, 0, 2]
    assert list(broadcast["l_text"]) == ["aaa", "aaa", "bbb"]
    assert list(broadcast["r_text"]) == ["bbb", "ccc", "ccc"]
