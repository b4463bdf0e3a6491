"""Tiered pair-scoring stage: stateless tasks over cached scorers.

``pairs.map_batches(_score_task, batch_size=None)`` — SURVEY §7.1 step
4.  Each worker process caches one ``PairScorer`` per config;
``__call__`` decides a whole block of pairs (at most
``cfg.score_block_rows``, from the repartition ahead of scoring) with
the vectorized formulas in ``functions.scoring`` (constants from
optimized.py:115-131, 617-737; U:760-945).

Scoring runs per document: the block's ``left_id ∪ right_id`` is
factorized, each distinct document's payload is read once from its
first row (and checked against its other rows), and every one-sided
feature — street join and split, normalization, soundex, unit, case
folds, presence tests — is computed once per document
(``scoring.query_features`` / ``record_features``) and gathered to the
pairs by document index.  A doc appears in many pairs, so its string
work runs once instead of once per pair.  Per pair there remain
integer equality tests and the fuzzy kernels, which run once per
distinct value pair, at most ``fuzzy.KERNEL_PAIRS`` per kernel call.

Tier-0 short-circuit: pairs whose normalized full addresses are
byte-equal skip the fuzzy kernels entirely (exact hash path, north-star
tier ladder).

Output (``edges`` schema, SURVEY §7.0): left_id, right_id, tier,
confidence, adjusted_confidence, similarity, exact, quality,
reliability, unit_adjustment, specificity, accepted, cs_* component
scores, block_key, key_kind, dropped_pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.functions import fuzzy, scoring
from address_address_matching_ray.stages.keys import PAYLOAD_COLS


# label strings, gathered per pair by Arrow ``take`` of the int codes
_TIER_NAMES = pa.array(scoring.TIER_NAMES_ARR.tolist(), pa.string())
_RELIABILITY_NAMES = pa.array(scoring.RELIABILITY_NAMES.tolist(), pa.string())


def _documents(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, dict]:
    """Factorize a pair table's documents: ``(li, ri, payload)`` with
    ``li``/``ri`` each pair's left/right document index and ``payload``
    each distinct document's ``PAYLOAD_COLS`` strings (null read as
    ""), taken from the document's first row.

    Raises ``ValueError`` naming the column when one document carries
    two payloads: scoring it from either row would be silently wrong.
    ``keys_stage`` derives each doc's payload once, so a pair table it
    feeds never does."""
    n = batch.num_rows
    ids = np.concatenate([batch["left_id"].to_numpy(zero_copy_only=False),
                          batch["right_id"].to_numpy(zero_copy_only=False)])
    codes, uniq = pd.factorize(ids)
    first = np.empty(len(uniq), dtype=np.int64)
    first[codes[::-1]] = np.arange(2 * n - 1, -1, -1)   # first row wins
    rows, codes_a = pa.array(first), pa.array(codes)
    payload = {}
    for c in PAYLOAD_COLS:
        col = pc.fill_null(pa.concat_arrays(
            [batch[f"{side}_{c}"].combine_chunks().cast(pa.string())
             for side in "lr"]), "")
        doc = col.take(rows)
        if n and not pc.all(pc.equal(col, doc.take(codes_a))).as_py():
            raise ValueError(
                f"pair table gives one doc_id two values of {c!r}")
        payload[c] = doc.to_numpy(zero_copy_only=False)
    return codes[:n], codes[n:], payload


def _join_street(name: str, stype: str) -> str:
    """Join "name type" over the nonempty parts."""
    return f"{name} {stype}" if name and stype else name or stype


class PairScorer:
    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        li, ri, doc = _documents(batch)

        # both roles read one document table, so they share its side
        # features
        side = scoring.side_features(doc)
        qf = scoring.query_features(
            {"street": scoring.per_value(_join_street, doc["street_name"],
                                         doc["street_type"]),
             "unit": doc["unit"]}, side)
        rf = scoring.record_features(doc, side)

        comp = scoring.pair_component_scores(qf, rf, li, ri)
        confidence = scoring.weighted_confidence(comp, cfg)

        # similarity on pre-normalized full addresses; equality fast path
        na = doc["norm_addr"]
        similarity = np.full(n, 100.0)
        nz = np.flatnonzero(~scoring.equal_at(na, na, li, ri))
        if len(nz):
            similarity[nz] = fuzzy.apply_indexed(
                fuzzy.batch_ratio, na, li[nz], na, ri[nz])

        exact = scoring.exactness(similarity, confidence, comp)
        tier = scoring.assign_tier(confidence)
        unit_adj = scoring.pair_unit_adjustment(
            qf["unit_upper"], rf["unit_upper"], li, ri, cfg)
        spec = batch["specificity"].to_numpy(zero_copy_only=False)
        quality = scoring.pair_quality_score(
            confidence, similarity, comp, tier, scoring.record_presence(doc),
            ri, block_specificity=spec)
        quality = np.clip(quality + unit_adj, 0.0, None)   # U:920-921
        adj_conf = scoring.adjusted_confidence(confidence, tier)
        rel = scoring.reliability(quality)

        accepted = (confidence >= cfg.edge_min_confidence) & (tier < len(scoring.TIER_THRESHOLDS))
        # wrong-unit veto: same address but different explicit unit is a
        # different dwelling — the reference keeps searching past such
        # candidates at exact/relaxed (U:941-943)
        accepted &= ~(unit_adj < 0)

        out = {
            "left_id": batch["left_id"], "right_id": batch["right_id"],
            "tier": _TIER_NAMES.take(pa.array(tier)),
            "tier_idx": pa.array(tier, pa.int8()),
            "confidence": pa.array(confidence, pa.float64()),
            "adjusted_confidence": pa.array(adj_conf, pa.float64()),
            "similarity": pa.array(similarity, pa.float64()),
            "exact": pa.array(exact, pa.bool_()),
            "quality": pa.array(quality, pa.float64()),
            "reliability": _RELIABILITY_NAMES.take(pa.array(rel)),
            "unit_adjustment": pa.array(unit_adj, pa.float64()),
            "specificity": batch["specificity"],
            "accepted": pa.array(accepted, pa.bool_()),
            # U:859-866 warnings (UltimateMatchResult parity)
            "warnings": pa.array(
                scoring.warning_strings(tier, similarity, spec), pa.string()),
            "block_key": batch["block_key"], "key_kind": batch["key_kind"],
            "dropped_pairs": batch["dropped_pairs"],
        }
        for k in scoring.COMPONENT_KEYS:
            out[f"cs_{k}"] = pa.array(comp[k], pa.float64())
        return pa.table(out)


# per-worker-process scorer cache (see keys_stage: a warm task pool
# beats a per-stage actor spawn for cheap state)
_SCORER_CACHE: dict[str, PairScorer] = {}


def _score_task(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    fp = cfg.fingerprint()
    scorer = _SCORER_CACHE.get(fp)
    if scorer is None:
        scorer = PairScorer(cfg)
        _SCORER_CACHE[fp] = scorer
    return scorer(batch)


def score_stage(pairs_ds, cfg: PipelineConfig | None = None):
    cfg = cfg or PipelineConfig()
    return pairs_ds.map_batches(
        _score_task, fn_kwargs={"cfg": cfg},
        batch_format="pyarrow", batch_size=None)
