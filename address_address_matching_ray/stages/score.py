"""Tiered pair-scoring stage: stateless tasks over cached scorers.

``pairs.map_batches(_score_task, batch_size=B)`` — SURVEY §7.1 step 4.
Each worker process caches one ``PairScorer`` per config; ``__call__``
decides a whole Arrow batch of pairs with the vectorized formulas in
``functions.scoring`` (constants from optimized.py:115-131, 617-737;
U:760-945).

Scoring runs per distinct value, gathered by code: each payload string
column is read once with Arrow's ``dictionary_encode``, every one-sided
transformation (street join and split, normalization, soundex, case
folds, presence tests) runs once per distinct value, and pairs gather
the results by code.  A doc appears in many pairs of a batch, so this
does its string work once instead of once per pair.  What is left per
pair is equality tests on the gathered values and the fuzzy kernels,
which run once per distinct string pair.

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

from address_address_matching_ray.config import PipelineConfig
from address_address_matching_ray.functions import fuzzy, scoring


def _strings(col: pa.ChunkedArray) -> pd.Categorical:
    """String column → ``pd.Categorical`` via Arrow's
    ``dictionary_encode``: each distinct value becomes a Python string
    once, and ``scoring.per_value`` reads the codes without re-hashing
    (null → code −1, read as "")."""
    enc = col.combine_chunks().dictionary_encode()
    values = pd.CategoricalDtype(enc.dictionary.to_numpy(zero_copy_only=False))
    return pd.Categorical.from_codes(enc.indices.fill_null(-1).to_numpy(),
                                     dtype=values, validate=False)


def _join_street(name: str, stype: str) -> str:
    """Join "name type" over the nonempty parts."""
    return f"{name} {stype}" if name and stype else name or stype


class PairScorer:
    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = batch.num_rows
        get = lambda c: _strings(batch[c])

        q = {"street": scoring.per_value(_join_street, get("l_street_name"),
                                         get("l_street_type")),
             "house": get("l_house"), "unit": get("l_unit"),
             "city": get("l_city"), "state": get("l_state"), "zip": get("l_zip")}
        r = {"street_name": get("r_street_name"), "street_type": get("r_street_type"),
             "predir": np.full(n, "", dtype=object),
             "house": get("r_house"), "unit": get("r_unit"),
             "city": get("r_city"), "state": get("r_state"), "zip": get("r_zip")}

        comp = scoring.component_scores(q, r)
        confidence = scoring.weighted_confidence(comp, cfg)

        # similarity on pre-normalized full addresses; equality fast path
        l_na, r_na = (scoring.per_value(str, get(c))
                      for c in ("l_norm_addr", "r_norm_addr"))
        eq = np.asarray(l_na == r_na, dtype=bool)
        similarity = np.full(n, 100.0)
        nz = np.nonzero(~eq)[0]
        if len(nz):
            similarity[nz] = fuzzy.apply_unique_pairs(
                fuzzy.batch_ratio, l_na[nz], r_na[nz])

        exact = scoring.exactness(similarity, confidence, comp)
        tier = scoring.assign_tier(confidence)
        unit_adj = scoring.unit_adjustment(q["unit"], r["unit"], cfg)
        spec = batch["specificity"].to_numpy(zero_copy_only=False)
        quality = scoring.quality_score(confidence, similarity, comp, tier, r,
                                        block_specificity=spec)
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
            "tier": pa.array(scoring.TIER_NAMES_ARR[tier].tolist(), pa.string()),
            "tier_idx": pa.array(tier, pa.int8()),
            "confidence": pa.array(confidence, pa.float64()),
            "adjusted_confidence": pa.array(adj_conf, pa.float64()),
            "similarity": pa.array(similarity, pa.float64()),
            "exact": pa.array(exact, pa.bool_()),
            "quality": pa.array(quality, pa.float64()),
            "reliability": pa.array(
                scoring.RELIABILITY_NAMES[rel].tolist(), pa.string()),
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
        batch_format="pyarrow", batch_size=cfg.score_batch_size)
