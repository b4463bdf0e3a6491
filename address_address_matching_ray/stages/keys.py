"""Blocking-key derivation — the candidate-generation flat-map.

Replaces the reference's per-query search-service retrieval (SURVEY
§2.4 J1/J2: ``optimized.py:541-615`` query builder, U:1354-1459 direct
lookups) with locality-sensitive blocking keys feeding ONE groupby
shuffle.  Each record fans out to at most a handful of key rows
(bounded like the reference's variant caps, SURVEY §2.7 K3):

    u:<hex16>   canonicalized URL (same page re-crawled / tracked)
    e:<hex16>   exact normalized full-address string (tier-0
                short-circuit, J2's exact composite lookup)
    h:<hex16>   house|street-name|zip composite (recall across
                unit/type format variants — the M15 variant fan-out
                collapsed into one canonical key)
    s:<hex16>   house|soundex(street)|state phonetic key (M4 / the
                phonetic tier's retrieval idea)
    b{i}:<hex16> MinHash-LSH band keys over extracted-text shingles
                (near-dup text; bands/rows from config; emitted for
                parse-degraded docs by default — ``cfg.lsh_scope``)

All key values are hash-compacted 16-hex-char digests (equality-
preserving; the raw composites averaged 40+ bytes and dominated the
blocking shuffle's bytes).

Stateful stage: the MinHash permutation matrix is built once per actor
(``KeyDeriver.__init__``) — SURVEY §2.3 ST3 analog.

Key rows carry the slim scoring payload (8 short strings) so pair
generation needs no second join against the docs table; the wide
``html``/``extracted_text`` columns never enter the shuffle.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.functions.minhash import (
    MinHasher, band_key_strings, lsh_band_digests, shingles,
)
from address_address_matching_ray.functions.normalize import (
    normalize_array, phonetic_code_array,
)

_SCHEME_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.I)
_TRACKING_PARAM_RE = re.compile(r"^(utm_[a-z]+|ref|fbclid|gclid|mc_cid|mc_eid)$", re.I)
# same param names as _TRACKING_PARAM_RE, anchored for in-place removal
# from a full query string (vectorized path)
_TRACK_Q_RE = re.compile(
    r"(?:^|&)(?:utm_[a-z]+|ref|fbclid|gclid|mc_cid|mc_eid)(?:=[^&]*)?(?=&|$)",
    re.I)

PAYLOAD_COLS = ("norm_addr", "house", "street_name", "street_type",
                "unit", "city", "state", "zip")
KEYS_SCHEMA = pa.schema([("doc_id", pa.uint64()), ("block_key", pa.string()),
                         ("key_kind", pa.string())]
                        + [(c, pa.string()) for c in PAYLOAD_COLS])


def _hash_hex(vals: np.ndarray) -> np.ndarray:
    """Equality-preserving compaction of key strings → 16-hex-char
    digests (stable vectorized siphash)."""
    from address_address_matching_ray.functions.minhash import hex16

    return hex16(pd.util.hash_array(vals, categorize=False))


def canonical_url(url: str) -> str:
    """Deterministic URL canonicalization: drop scheme, leading ``www.``,
    trailing ``/``, tracking query params; sort surviving params."""
    if not url:
        return ""
    u = _SCHEME_RE.sub("", url.strip())
    if "#" in u:
        u = u.split("#", 1)[0]
    query = ""
    if "?" in u:
        u, query = u.split("?", 1)
    host, _, path = u.partition("/")
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    path = "/" + path
    while path.endswith("/") and len(path) > 1:
        path = path[:-1]
    kept = []
    if query:
        for part in query.split("&"):
            k = part.split("=", 1)[0]
            if k and not _TRACKING_PARAM_RE.match(k):
                kept.append(part)
    if kept:
        return f"{host}{path}?{'&'.join(sorted(kept))}"
    return f"{host}{path}"


def canonical_url_series(urls: pd.Series) -> pd.Series:
    """Vectorized ``canonical_url`` (whole-column pandas str ops).

    The scalar function is the spec; this path is asserted equal to it
    in tests.  Rows whose surviving query string still holds ≥2 params
    (needs the sort) fall back to the scalar — rare on web URLs, where
    most decorations are tracking params that get dropped entirely.
    """
    s = urls.fillna("").astype(str).str.strip()
    s = s.str.replace(_SCHEME_RE, "", regex=True)
    s = s.str.split("#", n=1).str[0]
    part = s.str.partition("?")
    base, query = part[0], part[2]
    hp = base.str.partition("/")
    host = hp[0].str.lower().str.replace(r"^www\.", "", regex=True)
    # "/"+path, then strip trailing slashes but never the lone "/"
    path = ("/" + hp[2]).str.replace(r"(?<=.)/+$", "", regex=True)
    # drop tracking params in place; collapse separators like the
    # scalar's empty-part filter
    q = query.str.replace(_TRACK_Q_RE, "", regex=True)
    q = q.str.replace(r"&&+", "&", regex=True).str.strip("&")
    out = host + path + np.where(q != "", "?", "") + q
    out[s == ""] = ""
    multi = q.str.contains("&", regex=False)
    if multi.any():                      # needs param sorting → spec path
        out[multi] = urls[multi].map(canonical_url)
    return out


class KeyDeriver:
    """Actor-pool stage: extracted → keys (one row per (doc, key))."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self.minhasher = MinHasher(self.cfg.minhash_perms, self.cfg.seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        if n == 0:          # e.g. a batch whose rows were all rejected
            return KEYS_SCHEMA.empty_table()
        doc_id = batch["doc_id"].to_numpy(zero_copy_only=False)
        payload = {c: batch[c].to_pandas().fillna("").to_numpy(dtype=object)
                   for c in PAYLOAD_COLS}
        urls = batch["url"].to_pandas().fillna("")
        texts = batch["extracted_text"].to_pandas().fillna("").to_numpy(dtype=object)

        street_norm = normalize_array(payload["street_name"])

        # fully vectorized key construction: each key family is one
        # masked column concat (object-array "+"), no per-row Python.
        # Every key value is HASH-COMPACTED to "<kind>:<hex16>" —
        # equality-preserving (64-bit siphash; collision odds are
        # negligible against 10^12 docs) and it caps key bytes at ~18
        # per row where raw URLs/addresses averaged 40+: the key table
        # is the widest shuffle in the flagship pipeline.
        cu = canonical_url_series(urls).to_numpy(dtype=object)
        idx_u = np.flatnonzero(cu != "")

        na = payload["norm_addr"]
        idx_e = np.flatnonzero(na != "")

        house, zipc = payload["house"], payload["zip"]
        mask_h = (house != "") & (street_norm != "")
        idx_h = np.flatnonzero(mask_h)
        h_keys = s_keys = np.array([], dtype=object)
        if len(idx_h):
            state_u = pd.Series(payload["state"][idx_h]).str.upper() \
                        .to_numpy(dtype=object)
            h_keys = "h:" + _hash_hex(house[idx_h] + "|" + street_norm[idx_h]
                                      + "|" + zipc[idx_h])
            s_keys = "s:" + _hash_hex(house[idx_h] + "|"
                                      + phonetic_code_array(street_norm[idx_h])
                                      + "|" + state_u)

        # LSH bands over extracted-text token shingles (batched);
        # scope: "degraded" = only docs with no parsed house+street
        # (cfg.lsh_scope rationale in config.py)
        if cfg.lsh_scope == "all":
            band_docs = np.ones(n, dtype=bool)
        else:
            band_docs = ~mask_h
        toks = [shingles(texts[i].lower().split(), cfg.shingle_size)
                if band_docs[i] else [] for i in range(n)]
        sigs = self.minhasher.batch_signatures(toks)
        digests = lsh_band_digests(sigs, cfg.lsh_bands)      # (n, bands)
        bkeys_flat = band_key_strings(digests)               # (n*bands,)
        has_toks = np.fromiter((len(t) > 0 for t in toks), dtype=bool, count=n)
        band_mask = np.repeat(has_toks, cfg.lsh_bands)
        band_rows = np.repeat(np.arange(n, dtype=np.int64), cfg.lsh_bands)[band_mask]

        row_of = np.concatenate([idx_u, idx_e, idx_h, idx_h, band_rows])
        out_key = np.concatenate([
            "u:" + _hash_hex(cu[idx_u]) if len(idx_u) else np.array([], dtype=object),
            "e:" + _hash_hex(na[idx_e]) if len(idx_e) else np.array([], dtype=object),
            h_keys, s_keys, bkeys_flat[band_mask]])
        out_kind = np.concatenate([
            np.full(len(idx_u), "url_canon", dtype=object),
            np.full(len(idx_e), "exact", dtype=object),
            np.full(len(idx_h), "composite", dtype=object),
            np.full(len(idx_h), "phonetic", dtype=object),
            np.full(len(band_rows), "lsh_band", dtype=object)])

        cols = {"doc_id": pa.array(doc_id[row_of], pa.uint64()),
                "block_key": pa.array(out_key, pa.string()),
                "key_kind": pa.array(out_kind, pa.string())}
        for c in PAYLOAD_COLS:
            cols[c] = pa.array(payload[c][row_of] if len(row_of) else [], pa.string())
        return pa.table(cols)


# per-worker-process cache: stateless tasks reuse Ray's already-warm
# default workers (no per-stage actor process spawn — that fixed cost
# dominated small runs), while the derivation state (permutation
# matrices, compiled tables) is still built once per worker, keyed by
# config fingerprint.
_DERIVER_CACHE: dict[str, KeyDeriver] = {}


def _derive_task(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    if "reject_reason" in batch.column_names:
        # rows failing the require-filters never enter the shuffle (M18);
        # a null reason compares null and is dropped too
        batch = batch.filter(pc.equal(batch["reject_reason"], ""))
    fp = cfg.fingerprint()
    deriver = _DERIVER_CACHE.get(fp)
    if deriver is None:
        deriver = KeyDeriver(cfg)
        _DERIVER_CACHE[fp] = deriver
    return deriver(batch)


def keys_stage(extracted, cfg: PipelineConfig | None = None,
               batch_size: int = 2048):
    """extracted → keys: stateless tasks + per-worker cache (state is
    small, so the warm task pool beats spawning an actor pool).

    Rows with a non-empty ``reject_reason`` are dropped inside the same
    task, so the stage reads its input once: no schema probe, which on
    a lazy input would run extract over a whole first file."""
    cfg = cfg or PipelineConfig()
    return extracted.map_batches(
        _derive_task, fn_kwargs={"cfg": cfg},
        batch_format="pyarrow", batch_size=batch_size)
