"""Seeded benchmark inputs, written once per seed and cached on disk.

Raw pages depend only on the generator (``sources/synth.py`` plus this
file) and the seed, so they are cached under a hash of those two files.
Everything derived by running the engine (prior clusters, the prior key
table, expected label digests) is cached under a hash of the whole
package source instead: a change to, say, the key format rebuilds that
state rather than mixing keys built by other code into a run.

Generation runs in the calling process (plain pyarrow, no Ray tasks).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PKG = "address_address_matching_ray"
ROWS_PER_FILE = 4096

# corpus sizes (pages); see README.md for how they were chosen
CRAWL_PAGES = 8_000
SKEW_HOT_ENTITIES = 1
SKEW_HOT_PAGES = 2_000        # > 8 * max_block_size (1600): salted
SKEW_PAGES = 5_000
SKEW_MAX_CLUSTER = 32
DELTA_MOD = 20                # delta = doc_id % 20 == 0 (5%)
WARM_PAGES = 256              # the set-up's warm-up linkage


def _hash_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.relpath(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def generator_hash() -> str:
    return _hash_files([os.path.join(PKG, "sources", "synth.py"),
                        os.path.abspath(__file__)])


def package_hash() -> str:
    return _hash_files(glob.glob(os.path.join(PKG, "**", "*.py"),
                                 recursive=True))


def _write_shards(table: pa.Table, out_dir: str) -> None:
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for k, start in enumerate(range(0, table.num_rows, ROWS_PER_FILE)):
        pq.write_table(table.slice(start, ROWS_PER_FILE),
                       os.path.join(tmp, f"part-{k:05d}.parquet"))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)


# ── skew corpus: synth's address / perturbation / filler helpers under a
# heavy-tailed cluster-size law ──

def _skew_clusters(n: int, seed: int) -> np.ndarray:
    """Cluster id per doc: ``SKEW_HOT_ENTITIES`` entities of
    ``SKEW_HOT_PAGES`` pages, then clusters of 1..SKEW_MAX_CLUSTER pages
    with P(size = k) proportional to 1/k^2."""
    from address_address_matching_ray.sources.synth import _h

    sizes = np.arange(1, SKEW_MAX_CLUSTER + 1)
    cdf = np.cumsum(1.0 / sizes ** 2)
    cdf /= cdf[-1]
    cids = np.empty(n, dtype=np.int64)
    hot = min(n, SKEW_HOT_ENTITIES * SKEW_HOT_PAGES)
    cids[:hot] = 1_000_000 + np.arange(hot) // SKEW_HOT_PAGES
    i, c = hot, 0
    while i < n:
        u = (_h(seed, 707, c) % 1_000_000) / 1_000_000
        size = min(int(np.searchsorted(cdf, u)) + 1, n - i)
        cids[i:i + size] = 2_000_000 + c
        i += size
        c += 1
    return cids


def _skew_row(i: int, cid: int, rank: int, seed: int) -> tuple:
    from address_address_matching_ray.sources import synth

    h = synth._h(seed, 303, i)
    addr = synth._perturb_address(synth._entity_address(cid, seed), rank, h)
    fill = synth._filler(synth._h(seed, 404, cid), 14 + h % 6, perturb=rank)
    text = f"For rent: {addr}. {fill.capitalize()}."
    host = synth.HOSTS[synth._h(seed, 505, cid, rank // 3) % len(synth.HOSTS)]
    scheme = "https" if (h >> 9) % 4 else "http"
    url = f"{scheme}://{host}/listing/{cid}-{synth._h(seed, 606, cid) % 99999}"
    if (h >> 11) % 5 == 2:
        url += "?utm_source=feed"
    html = (f"<html><head><title>Listing {cid}</title>"
            f"<script>var t={h % 1000};track(t);</script></head>"
            f"<body><nav><a href=\"/\">Home</a></nav>"
            f"<div id=\"main\"><p>{text}</p></div>"
            f"<footer>&copy; example &amp; partners</footer>"
            f"</body></html>").encode()
    ts = 1609459200_000000 + i * 60_000_000 + h % 1_000_000
    return url, ts, html, text, "en" if h % 20 else "de"


def skew_pages(n: int, seed: int) -> tuple[pa.Table, np.ndarray]:
    cids = _skew_clusters(n, seed)
    starts = np.concatenate([[True], cids[1:] != cids[:-1]])
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    ranks = np.arange(n) - first
    rows = [_skew_row(i, int(cids[i]), int(ranks[i]), seed) for i in range(n)]
    urls, ts, htmls, texts, langs = zip(*rows)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "doc_id": pa.array(np.arange(n), pa.uint64()),
    })
    return table, cids


def crawl_pages(n: int, seed: int) -> tuple[pa.Table, np.ndarray]:
    from address_address_matching_ray.sources.synth import (
        pages_batch, truth_batch,
    )

    ids = np.arange(n)
    truth = truth_batch(ids, seed)["cluster_id"].to_numpy()
    return pages_batch(ids, seed), truth.astype(np.int64)


CORPORA = {  # corpus name -> (generator, pages)
    "crawl": (crawl_pages, CRAWL_PAGES),
    "skew": (skew_pages, SKEW_PAGES),
}


def raw_dir(cache: str, corpus: str, seed: int) -> str:
    """Generate (once) and return the directory holding ``pages/``,
    ``truth.parquet``, ``warm.parquet`` and the ``prior/`` and
    ``delta/`` page splits of the absorb workload."""
    gen, n = CORPORA[corpus]
    d = os.path.join(cache, "raw", generator_hash(), f"{corpus}-{n}-s{seed}")
    if os.path.exists(os.path.join(d, "done")):
        return d
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    table, truth = gen(n, seed)
    pq.write_table(pa.table({"doc_id": table["doc_id"],
                             "cluster_id": pa.array(truth, pa.int64())}),
                   os.path.join(d, "truth.parquet"))
    _write_shards(table, os.path.join(d, "pages"))
    pq.write_table(table.slice(0, WARM_PAGES), os.path.join(d, "warm.parquet"))
    in_delta = table["doc_id"].to_numpy() % DELTA_MOD == 0
    _write_shards(table.filter(pa.array(~in_delta)), os.path.join(d, "prior"))
    _write_shards(table.filter(pa.array(in_delta)), os.path.join(d, "delta"))
    open(os.path.join(d, "done"), "w").close()
    return d


def derived_dir(cache: str, corpus: str, seed: int) -> str:
    _, n = CORPORA[corpus]
    d = os.path.join(cache, "derived", package_hash(), f"{corpus}-{n}-s{seed}")
    os.makedirs(d, exist_ok=True)
    return d


def load_json(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def save_json(path: str, obj: dict) -> None:
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(path + ".tmp", path)
