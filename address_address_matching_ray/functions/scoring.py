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

Per document, gathered by index: the one-sided features of each side
(``query_features``, ``record_features``) are computed once per row of
a per-document table, each transformation once per distinct value
(``per_value``).  The ``pair_*`` functions score pairs given as index
arrays ``li``/``ri`` into those tables; per pair there remain only
integer equality tests and the ``fuzzy`` kernels, which run once per
distinct value pair (``fuzzy.apply_indexed``).  ``component_scores``,
``unit_adjustment`` and ``quality_score`` are the same functions over
aligned row pairs (``li = ri = arange(n)``).
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
    gathered back to every row by code.  Documents repeat the same
    strings many times, so per-side work runs once per distinct value."""
    codes, distinct = _encode(cols)
    return np.array([fn(*v) for v in zip(*distinct)], dtype=dtype)[codes]


def _per_value_cols(fn, width: int, *cols) -> list[np.ndarray]:
    """``per_value`` of a ``width``-tuple-valued ``fn``: one object
    array per tuple element."""
    out = per_value(fn, *cols)
    return list(out.T) if len(out) else [out] * width


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


# (component, per-value case fold, kernel) of the fields compared as
# folded strings: city partial_ratio on lowercase (O:676), zip and
# state ratio (O:678-682)
_FIELDS = (("city", str.lower, fuzzy.batch_partial_ratio),
           ("zip", str, fuzzy.batch_ratio),
           ("state", str.upper, fuzzy.batch_ratio))


def side_features(side: dict) -> dict[str, np.ndarray]:
    """Features both roles share: the stripped house and its raw
    presence, the upper-cased unit and the folded city/zip/state."""
    f = {"house": per_value(_fold(str.strip), side["house"]),
         "has_house": per_value(bool, side["house"], dtype=bool),
         "unit_upper": per_value(_fold(str.upper), side["unit"])}
    for key, case, _ in _FIELDS:
        f[key] = per_value(_fold(case), side[key])
    return f


def query_features(q: dict, side: dict | None = None) -> dict[str, np.ndarray]:
    """Every one-sided query-role feature of each row of ``q`` (parsed
    columns ``house street unit city state zip``), each transformation
    run once per distinct value; ``side`` is ``side_features(q)`` when
    already computed."""
    clean, unit_in_street, upper, sx = _per_value_cols(
        _query_street, 4, q["street"])
    return {"has_street": per_value(bool, q["street"], dtype=bool),
            "street_norm": normalize_array(clean), "street_upper": upper,
            "street_sx": sx,
            "unit": per_value(_unit, q["unit"], unit_in_street),
            **(side or side_features(q))}


def record_features(r: dict, side: dict | None = None) -> dict[str, np.ndarray]:
    """Every one-sided record-role feature of each row of ``r`` (columns
    ``house street_name street_type predir unit city state zip``; our
    records are parsed pages, and PREDIR folds into the street the way
    the reference joins PREDIR+STREET+STRTYPE); ``side`` as in
    ``query_features``."""
    n = len(r["street_name"])
    full, sx, unit_in_street = _per_value_cols(
        _record_street, 3, r.get("predir", [""] * n), r["street_name"],
        r.get("street_type", [""] * n))
    return {"street_full": full, "street_norm": normalize_array(full),
            "street_sx": sx,
            "unit": per_value(_unit, r["unit"], unit_in_street),
            **(side or side_features(r))}


def record_presence(r: dict) -> dict[str, np.ndarray]:
    """Which record fields are present after ``strip`` (U:773-806)."""
    return {c: per_value(_fold(str.strip), r[c]) != ""
            for c in ("street_name", "house", "unit", "city", "state", "zip")}


def equal_at(a: np.ndarray, b: np.ndarray, ai: np.ndarray,
             bi: np.ndarray) -> np.ndarray:
    """``a[ai] == b[bi]``, compared as integer codes of the values."""
    codes = pd.factorize(np.concatenate([a, b]))[0]
    return codes[:len(a)][ai] == codes[len(a):][bi]


def pair_component_scores(qf: dict, rf: dict, li: np.ndarray,
                          ri: np.ndarray) -> dict[str, np.ndarray]:
    """Component scores (optimized.py:617-684) of the pairs
    ``(query li[k], record ri[k])`` over ``query_features`` and
    ``record_features``.  Returns one float64 array per component key,
    NaN = score absent.  Per pair only index gathers, integer equality
    tests and the fuzzy kernels (once per distinct value pair) run."""
    n = len(li)
    scores = {k: np.full(n, np.nan) for k in COMPONENT_KEYS}
    fz = fuzzy.apply_indexed

    idx = np.flatnonzero(qf["has_street"][li])
    if len(idx):
        ql, rl = li[idx], ri[idx]
        st = np.full(len(idx), 100.0)
        fuzz = np.flatnonzero(~equal_at(qf["street_norm"], rf["street_norm"], ql, rl))
        if len(fuzz):
            st[fuzz] = fz(fuzzy.batch_token_sort_ratio, qf["street_upper"],
                          ql[fuzz], rf["street_full"], rl[fuzz])
        scores["street"][idx] = st
        # Soundex similarity (O:642-644)
        scores["street_soundex"][idx] = np.where(
            equal_at(qf["street_sx"], rf["street_sx"], ql, rl), 100.0, 0.0)
        # Unit scoring incl. units embedded in the record street (O:647-656)
        both = np.flatnonzero((qf["unit"] != "")[ql] & (rf["unit"] != "")[rl])
        if len(both):
            scores["unit"][idx[both]] = fz(fuzzy.batch_ratio, qf["unit"],
                                           ql[both], rf["unit"], rl[both])

    # House (O:659-673): gated on the raw values (a whitespace-only
    # house is present); exact → 100; fuzzy with −20 penalty below 90
    hidx = np.flatnonzero(qf["has_house"][li] & rf["has_house"][ri])
    if len(hidx):
        hl, hr = li[hidx], ri[hidx]
        hv = np.full(len(hidx), 100.0)
        nz = np.flatnonzero(~equal_at(qf["house"], rf["house"], hl, hr))
        if len(nz):
            rat = fz(fuzzy.batch_ratio, qf["house"], hl[nz], rf["house"], hr[nz])
            hv[nz] = np.where(rat < 90, np.maximum(0.0, rat - 20.0), rat)
        scores["house"][hidx] = hv

    for key, _, kernel in _FIELDS:
        kidx = np.flatnonzero((qf[key] != "")[li] & (rf[key] != "")[ri])
        if len(kidx):
            scores[key][kidx] = fz(kernel, qf[key], li[kidx], rf[key], ri[kidx])

    return scores


def component_scores(q: dict[str, np.ndarray], r: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Batch component scores — optimized.py:617-684 — of the row pairs
    ``(q[i], r[i])``: ``pair_component_scores`` over the rows' own
    features."""
    rows = np.arange(len(q["street"]))
    return pair_component_scores(query_features(q), record_features(r),
                                 rows, rows)


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


def pair_unit_adjustment(q_upper: np.ndarray, r_upper: np.ndarray,
                         li: np.ndarray, ri: np.ndarray,
                         cfg: PipelineConfig | None = None) -> np.ndarray:
    """Unit bonus/penalty — U:911-917 — of the pairs ``(li[k], ri[k])``
    over upper-cased units (``unit_upper`` of the side features): +50
    exact unit match, −20 when the record has a different unit, 0 when
    the query has no unit or the record has none."""
    cfg = cfg or PipelineConfig()
    both = (q_upper != "")[li] & (r_upper != "")[ri]
    out = np.zeros(len(li))
    out[both] = np.where(equal_at(q_upper, r_upper, li[both], ri[both]),
                         cfg.unit_match_bonus, cfg.unit_mismatch_penalty)
    return out


def unit_adjustment(q_unit, r_unit, cfg: PipelineConfig | None = None) -> np.ndarray:
    """``pair_unit_adjustment`` of the row pairs ``(q_unit[i], r_unit[i])``."""
    rows = np.arange(len(q_unit))
    return pair_unit_adjustment(per_value(_fold(str.upper), q_unit),
                                per_value(_fold(str.upper), r_unit),
                                rows, rows, cfg)


def pair_quality_score(confidence: np.ndarray, similarity: np.ndarray,
                       scores: dict[str, np.ndarray], tier_idx: np.ndarray,
                       present: dict[str, np.ndarray], ri: np.ndarray,
                       block_specificity: np.ndarray | None = None) -> np.ndarray:
    """Batch quality — U:760-838 with lowercase-keyed records — of pairs
    whose records are ``ri`` in ``present`` (``record_presence``).

    The reference's ``es_score`` bonus (``min(es_score/10, 20)``,
    U:813-814) came from the search service; here the deterministic
    stand-in is ``block_specificity`` (0 when omitted): a blocking-key
    rarity signal computed as ``min(100/|block|, 20)`` upstream.
    """
    base = confidence.copy()
    base += np.where(present["street_name"][ri], 20.0, 0.0)  # U:773-776
    base += np.where(present["house"][ri], 15.0, 0.0)        # U:778-780
    # unit: record field is APTNBR-style → +35; component score>0 → +25 (U:782-795)
    unit_comp = np.nan_to_num(scores["unit"]) > 0
    base += np.where(unit_comp, 25.0, 0.0)
    base += np.where(present["unit"][ri], 35.0, 0.0)
    base += np.where(present["city"][ri], 10.0, 0.0)
    base += np.where(present["state"][ri], 5.0, 0.0)
    base += np.where(present["zip"][ri], 5.0, 0.0)
    if block_specificity is not None:                        # U:813-814 analog
        base += np.minimum(block_specificity, 20.0)
    base += np.where(similarity > 0, np.minimum(similarity / 5.0, 15.0), 0.0)
    base += LEVEL_ADJ_ARR[tier_idx]                          # U:821-827
    return np.clip(base, 0.0, 100.0)                         # U:838


def quality_score(confidence: np.ndarray, similarity: np.ndarray,
                  scores: dict[str, np.ndarray], tier_idx: np.ndarray,
                  r: dict[str, np.ndarray],
                  block_specificity: np.ndarray | None = None) -> np.ndarray:
    """``pair_quality_score`` of pairs whose records are the rows of
    ``r``."""
    return pair_quality_score(confidence, similarity, scores, tier_idx,
                              record_presence(r), np.arange(len(confidence)),
                              block_specificity)


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
