"""Tiered pairwise scoring — the matching core, vectorized.

Reproduces the reference's pair-decision formulas exactly (constants and
caps inlined from the cited lines), re-expressed as batch functions over
numpy columns so the scoring stage decides an entire Arrow batch of
candidate pairs at once:

- component scores      — ``optimized.py:617-684``
- weighted confidence   — ``optimized.py:686-737`` (caps + weight drops)
- overall similarity    — ``optimized.py:741,752-754``
- exactness predicate   — ``optimized.py:191-218``
- tier assignment       — the 10-level cascade (U:276-364, loop U:890-945)
  collapsed to an order-independent rule: ``tier = first tier whose
  confidence threshold is met`` (SURVEY §2.5 T1).  The reference's
  sequential per-tier/per-variant early exit reduces to this because a
  pair's confidence is variant-independent once both sides are parsed
  canonically; variant fan-out affects *blocking* (recall), not the
  pair decision.
- unit bonus/penalty    — U:911-917 (+50 exact unit / −20 wrong unit)
- quality score         — U:760-838 (es_score bonus → 0: no search
  service exists; the deterministic replacement is documented there)
- adjusted confidence   — U:923-929; reliability — U:840-866

"Absent" component scores are NaN (the reference omits dict keys); all
``.get(k, 0)`` semantics use ``nan→0`` coalescing.

Per distinct value, gathered by code: every transformation of one
side's strings runs once per distinct value of the batch
(``per_value``) and is gathered back to the pairs by integer code; per
pair there remain only equality tests on gathered values and the
``fuzzy`` kernels, which run once per distinct string pair.  Columns
may be object arrays or ``pd.Categorical`` (already encoded, so not
hashed again).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from address_address_matching_ray.config import (
    LEVEL_ADJUSTMENTS, TIER_TABLE, PipelineConfig,
)
from address_address_matching_ray.functions import fuzzy
from address_address_matching_ray.functions.normalize import (
    normalize_array, normalize_unit, soundex, split_street_unit,
)

COMPONENT_KEYS = ("street", "street_soundex", "unit", "house", "city", "zip", "state")

TIER_THRESHOLDS = np.array([t[1] for t in TIER_TABLE])      # descending
TIER_NAMES_ARR = np.array([t[0] for t in TIER_TABLE] + ["failed"])
LEVEL_ADJ_ARR = np.array([LEVEL_ADJUSTMENTS[t[0]] for t in TIER_TABLE] + [-80.0])

RELIABILITY_NAMES = np.array(["high", "medium", "low", "very_low", "speculative"])


def _encode(cols) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dictionary-encode equal-length columns jointly, nulls read as "".

    Returns ``codes`` (one per row) and, per column, the values of each
    distinct row: row ``i`` is ``[u[codes[i]] for u in distinct]``.
    """
    codes, parts = None, []
    for col in cols:
        if isinstance(col, pd.Categorical):     # already encoded
            c, u = col.codes.astype(np.int64), col.categories.to_numpy(object)
        else:
            c, u = pd.factorize(np.asarray(col, dtype=object))
        if len(c) and c.min() < 0:                 # None/NaN → ""
            c = np.where(c < 0, len(u), c)
            u = np.concatenate([u, np.array([""], dtype=object)])
        parts.append((c, u))
        codes = c if codes is None else pd.factorize(codes * len(u) + c)[0]
    if len(parts) == 1:
        return codes, [parts[0][1]]
    rep = np.zeros(codes.max() + 1 if len(codes) else 0, dtype=np.int64)
    rep[codes] = np.arange(len(codes))          # any row of each code
    return codes, [u[c[rep]] for c, u in parts]


def per_value(fn, *cols, dtype=object) -> np.ndarray:
    """``fn`` over each distinct row of ``cols`` (nulls read as ""),
    gathered back to every row by code.  Pair batches repeat each doc's
    strings many times, so per-side work runs once per distinct value.
    A tuple-valued ``fn`` gives an ``(n, len(tuple))`` array: unpack
    its ``.T`` into one column per tuple element."""
    codes, distinct = _encode(cols)
    return np.array([fn(*v) for v in zip(*distinct)], dtype=dtype)[codes]


def _fold(fn):
    """Per-value ``fn(str(v))``, and "" for a falsy value, so ``!= ""``
    on the result is the reference's truthiness test."""
    return lambda v: fn(str(v)) if v else ""


def _query_street(street: str) -> tuple[str, str, str, str]:
    """Street without its embedded unit (O:44-55), that unit, the
    upper-cased street and its soundex."""
    clean, unit = split_street_unit(street)
    return clean, unit, clean.upper(), soundex(clean)


def _record_street(predir: str, name: str, stype: str) -> tuple[str, str, str]:
    """``"PREDIR STREET STRTYPE".upper()`` (O:624-628), its soundex, and
    the unit embedded in the street name (O:647-656)."""
    full = " ".join(p for p in (predir.strip(), name.strip(), stype.strip()) if p).upper()
    return full, soundex(full), split_street_unit(name.lower())[1]


def _unit(unit: str, unit_in_street: str) -> str:
    """The unit field, else the unit embedded in the street (O:647-656)."""
    return normalize_unit(unit or unit_in_street)


def component_scores(q: dict[str, np.ndarray], r: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Batch component scores — optimized.py:617-684.

    ``q``: parsed query columns ``house street unit city state zip``.
    ``r``: record columns ``house street_name street_type predir unit
    city state zip`` (our records are parsed pages; PREDIR folds into
    the street the same way the reference joins PREDIR+STREET+STRTYPE).
    Returns one float64 array per component key, NaN = score absent.

    Every one-sided transformation runs once per distinct value
    (``per_value``); per pair only equality tests on the gathered values
    and the fuzzy kernels (themselves once per distinct pair) remain.
    """
    n = len(q["street"])
    scores = {k: np.full(n, np.nan) for k in COMPONENT_KEYS}

    has_street = per_value(bool, q["street"], dtype=bool)
    idx = np.nonzero(has_street)[0]
    if len(idx):
        q_clean, q_unit_in_street, q_upper, q_sx = per_value(
            _query_street, q["street"]).T
        rec_full, r_sx, r_unit_in_street = per_value(
            _record_street, r.get("predir", [""] * n), r["street_name"],
            r.get("street_type", [""] * n)).T
        q_clean, q_upper, q_sx = q_clean[idx], q_upper[idx], q_sx[idx]
        rec_full, r_sx = rec_full[idx], r_sx[idx]
        fuzz = np.nonzero(normalize_array(q_clean) != normalize_array(rec_full))[0]
        st = np.full(len(idx), 100.0)
        if len(fuzz):
            st[fuzz] = fuzzy.apply_unique_pairs(
                fuzzy.batch_token_sort_ratio, q_upper[fuzz], rec_full[fuzz])
        scores["street"][idx] = st
        # Soundex similarity (O:642-644)
        scores["street_soundex"][idx] = np.where(q_sx == r_sx, 100.0, 0.0)
        # Unit scoring incl. units embedded in the record street (O:647-656)
        uq = per_value(_unit, q["unit"], q_unit_in_street)[idx]
        ur = per_value(_unit, r["unit"], r_unit_in_street)[idx]
        both = np.nonzero((uq != "") & (ur != ""))[0]
        if len(both):
            scores["unit"][idx[both]] = fuzzy.apply_unique_pairs(
                fuzzy.batch_ratio, uq[both], ur[both])

    # House (O:659-673): gated on the raw values (a whitespace-only
    # house is present); exact → 100; fuzzy with −20 penalty below 90
    q_house = per_value(_fold(str.strip), q["house"])
    r_house = per_value(_fold(str.strip), r["house"])
    hidx = np.nonzero(per_value(bool, q["house"], dtype=bool)
                      & per_value(bool, r["house"], dtype=bool))[0]
    if len(hidx):
        a, b = q_house[hidx], r_house[hidx]
        hv = np.full(len(hidx), 100.0)
        nz = np.nonzero(a != b)[0]
        if len(nz):
            rat = fuzzy.apply_unique_pairs(fuzzy.batch_ratio, a[nz], b[nz])
            hv[nz] = np.where(rat < 90, np.maximum(0.0, rat - 20.0), rat)
        scores["house"][hidx] = hv

    # City (O:676): partial_ratio on lowercase; zip and state (O:678-682)
    for key, case, kernel in (("city", str.lower, fuzzy.batch_partial_ratio),
                              ("zip", str, fuzzy.batch_ratio),
                              ("state", str.upper, fuzzy.batch_ratio)):
        a = per_value(_fold(case), q[key])
        b = per_value(_fold(case), r[key])
        kidx = np.nonzero((a != "") & (b != ""))[0]
        if len(kidx):
            scores[key][kidx] = fuzzy.apply_unique_pairs(kernel, a[kidx], b[kidx])

    return scores


def weighted_confidence(scores: dict[str, np.ndarray],
                        cfg: PipelineConfig | None = None) -> np.ndarray:
    """Batch weighted confidence — optimized.py:686-737, all caps kept."""
    cfg = cfg or PipelineConfig()
    n = len(scores["street"])
    house = np.nan_to_num(scores["house"])
    street = np.nan_to_num(scores["street"])
    city = np.nan_to_num(scores["city"])
    zipc = np.nan_to_num(scores["zip"])

    weights = {
        "street": cfg.street_weight, "house": cfg.house_weight,
        "city": cfg.city_weight, "zip": cfg.zip_weight,
        "state": cfg.state_weight, "unit": cfg.unit_weight,
    }
    total_score = np.zeros(n)
    total_weight = np.zeros(n)
    for comp, w in weights.items():
        present = ~np.isnan(scores[comp])
        wvec = np.full(n, w)
        if comp == "city":           # city weight → 0 when city score is 0 (O:710-711)
            wvec = np.where(city == 0, 0.0, wvec)
        if comp == "zip":            # zip dropped when score < 50 (O:712-713)
            present = present & (zipc >= 50)
        sc = np.nan_to_num(scores[comp])
        total_score += np.where(present, sc * wvec, 0.0)
        total_weight += np.where(present, wvec, 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = np.where(total_weight > 0, total_score / np.maximum(total_weight, 1e-12), 0.0)

    # High-score guards (O:730-735)
    hi = weighted > 85
    weighted = np.where(hi & (house > 0) & (house < 90), np.minimum(weighted, 75.0), weighted)
    weighted = np.where(hi & (street < 85), np.minimum(weighted, 80.0), weighted)

    # Hard caps override everything (O:702-707, evaluated first in the reference)
    out = weighted
    out = np.where(street < 70, np.minimum(street, 60.0), out)
    out = np.where((house > 0) & (house < 80), np.minimum(house, 70.0), out)
    return out


def exactness(similarity: np.ndarray, confidence: np.ndarray,
              scores: dict[str, np.ndarray]) -> np.ndarray:
    """Batch exact predicate — optimized.py:191-218."""
    house = np.nan_to_num(scores["house"])
    street = np.nan_to_num(scores["street"])
    zipc = np.nan_to_num(scores["zip"])
    truly = ~((house > 0) & (house < 95)) & (street >= 85) & ~((zipc > 0) & (zipc < 80))
    return (similarity >= 95) & (confidence >= 95) & truly


def similarity_full(q_addr, r_addr) -> np.ndarray:
    """Whole-string similarity on normalized full addresses (O:741,752-754)."""
    qn = normalize_array(q_addr)
    rn = normalize_array(r_addr)
    return fuzzy.batch_ratio(list(qn), list(rn))


def assign_tier(confidence: np.ndarray) -> np.ndarray:
    """Order-independent tier ladder: index into TIER_TABLE of the first
    tier whose ``min_similarity_threshold ≤ confidence``; len(TIER_TABLE)
    = failed.  Equivalent to the reference's first-hit-wins loop
    (U:890-945) under canonical parsing (module docstring)."""
    # tier index = number of thresholds strictly above the confidence
    idx = np.searchsorted(-TIER_THRESHOLDS, -np.asarray(confidence), side="left")
    return idx.astype(np.int8)  # 0..10 ; 10 = failed


def unit_adjustment(q_unit, r_unit, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Unit bonus/penalty — U:911-917: +50 exact unit match, −20 when the
    record has a different unit, 0 when the query has no unit or the
    record has none."""
    cfg = cfg or PipelineConfig()
    qu = per_value(_fold(str.upper), q_unit)
    ru = per_value(_fold(str.upper), r_unit)
    both = (qu != "") & (ru != "")
    out = np.zeros(len(qu))
    out[both] = np.where(qu[both] == ru[both], cfg.unit_match_bonus,
                         cfg.unit_mismatch_penalty)
    return out


def quality_score(confidence: np.ndarray, similarity: np.ndarray,
                  scores: dict[str, np.ndarray], tier_idx: np.ndarray,
                  r: dict[str, np.ndarray],
                  block_specificity: np.ndarray | None = None) -> np.ndarray:
    """Batch quality — U:760-838 with lowercase-keyed records.

    The reference's ``es_score`` bonus (``min(es_score/10, 20)``,
    U:813-814) came from the search service; here the deterministic
    stand-in is ``block_specificity`` (0 when omitted): a blocking-key
    rarity signal computed as ``min(100/|block|, 20)`` upstream.
    """
    n = len(confidence)
    base = confidence.copy()

    def present(col) -> np.ndarray:
        return per_value(_fold(str.strip), col) != ""

    base += np.where(present(r["street_name"]), 20.0, 0.0)   # U:773-776
    base += np.where(present(r["house"]), 15.0, 0.0)         # U:778-780
    # unit: record field is APTNBR-style → +35; component score>0 → +25 (U:782-795)
    unit_comp = np.nan_to_num(scores["unit"]) > 0
    base += np.where(unit_comp, 25.0, 0.0)
    base += np.where(present(r["unit"]), 35.0, 0.0)
    base += np.where(present(r["city"]), 10.0, 0.0)
    base += np.where(present(r["state"]), 5.0, 0.0)
    base += np.where(present(r["zip"]), 5.0, 0.0)
    if block_specificity is not None:                        # U:813-814 analog
        base += np.minimum(block_specificity, 20.0)
    base += np.where(similarity > 0, np.minimum(similarity / 5.0, 15.0), 0.0)
    base += LEVEL_ADJ_ARR[tier_idx]                          # U:821-827
    return np.clip(base, 0.0, 100.0)                         # U:838


def adjusted_confidence(confidence: np.ndarray, tier_idx: np.ndarray) -> np.ndarray:
    """U:923-929: ``max(0, conf + level_adjustment)``."""
    return np.maximum(0.0, confidence + LEVEL_ADJ_ARR[tier_idx])


def reliability(quality: np.ndarray) -> np.ndarray:
    """U:840-857 quality buckets → reliability label index
    (0 high ≥80, 1 medium ≥60, 2 low ≥40, 3 very_low ≥20, 4 speculative)."""
    idx = np.full(len(quality), 4, dtype=np.int8)
    idx = np.where(quality >= 20, 3, idx)
    idx = np.where(quality >= 40, 2, idx)
    idx = np.where(quality >= 60, 1, idx)
    idx = np.where(quality >= 80, 0, idx)
    return idx.astype(np.int8)


def warning_flags(tier_idx: np.ndarray, similarity: np.ndarray,
                  block_specificity: np.ndarray | None = None) -> list[list[str]]:
    """U:859-866 warnings, es_score term replaced by block specificity.
    ``block_specificity=None`` means the pipeline has no retrieval-
    specificity signal (query-matching path) — that warning is skipped,
    not emitted for everything."""
    low_tiers = {7, 8, 9}  # phonetic, keyword, desperate
    out = []
    spec = (block_specificity if block_specificity is not None
            else [None] * len(tier_idx))
    for t, s, e in zip(tier_idx, similarity, spec):
        w = []
        if int(t) in low_tiers:
            w.append("Low confidence match level")
        if s < 50:
            w.append("Low similarity score")
        if e is not None and e < 5:
            w.append("Low retrieval specificity")
        out.append(w)
    return out


_W1 = "Low confidence match level"
_W2 = "Low similarity score"
_W3 = "Low retrieval specificity"
_WARN_LOOKUP = np.array(
    ["", _W3, _W2, f"{_W2}; {_W3}", _W1, f"{_W1}; {_W3}",
     f"{_W1}; {_W2}", f"{_W1}; {_W2}; {_W3}"], dtype=object)


def warning_strings(tier_idx: np.ndarray, similarity: np.ndarray,
                    block_specificity: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``warning_flags`` joined to '; '-separated strings
    (bit-coded lookup, no per-row Python; parity asserted in tests)."""
    w1 = np.isin(np.asarray(tier_idx), (7, 8, 9)).astype(np.int64)
    w2 = (np.asarray(similarity) < 50).astype(np.int64)
    w3 = ((np.asarray(block_specificity) < 5).astype(np.int64)
          if block_specificity is not None else 0)
    return _WARN_LOOKUP[w1 * 4 + w2 * 2 + w3]
