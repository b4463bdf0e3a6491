"""Decision parity: batch scorer vs a literal scalar transcription of the
reference formulas (optimized.py:617-737, 191-218; U:760-866, 890-945).

The oracle below is a row-at-a-time transliteration of the reference's
arithmetic (using the scalar fuzzy spec); the engine under test is the
vectorized ``functions.scoring``.  Agreement on a randomized corpus of
pairs is the pairwise-F1 evidence at the formula level (the end-to-end
F1 gate lives in test_linkage.py).
"""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from address_address_matching_ray.config import LEVEL_ADJUSTMENTS, TIER_TABLE, PipelineConfig
from address_address_matching_ray.functions import fuzzy, scoring
from address_address_matching_ray.functions.normalize import (
    normalize, normalize_unit, soundex, split_street_unit,
)
from address_address_matching_ray.stages.keys import PAYLOAD_COLS
from address_address_matching_ray.stages.score import PairScorer

CFG = PipelineConfig()


# ──────────────────────────────────────────────────────────────
# scalar oracle — literal transcription
# ──────────────────────────────────────────────────────────────

def oracle_component_scores(q: dict, r: dict) -> dict:
    scores = {}
    if q["street"]:
        rec_full_street = " ".join(filter(None, [
            str(r.get("predir", "")).strip(),
            str(r.get("street_name", "")).strip(),
            str(r.get("street_type", "")).strip(),
        ])).upper()
        q_street, q_unit_in_street = split_street_unit(q["street"])
        if normalize(q_street) == normalize(rec_full_street):
            scores["street"] = 100.0
        else:
            scores["street"] = fuzzy.token_sort_ratio(q_street.upper(), rec_full_street)
        scores["street_soundex"] = 100 if soundex(q_street) == soundex(rec_full_street) else 0
        r_unit_in_street = ""
        if r.get("street_name"):
            _, r_unit_in_street = split_street_unit(str(r["street_name"]).lower())
        unit_query = normalize_unit(q["unit"] or q_unit_in_street)
        unit_rec = normalize_unit(r.get("unit") or r_unit_in_street)
        if unit_query and unit_rec:
            scores["unit"] = fuzzy.ratio(unit_query, unit_rec)
    if q["house"] and r.get("house"):
        hq, hr = q["house"].strip(), str(r["house"]).strip()
        if hq == hr:
            scores["house"] = 100.0
        else:
            rat = fuzzy.ratio(hq, hr)
            scores["house"] = max(0, rat - 20) if rat < 90 else rat
    if q["city"] and r.get("city"):
        scores["city"] = fuzzy.partial_ratio(q["city"].lower(), str(r["city"]).lower())
    if q["zip"] and r.get("zip"):
        scores["zip"] = fuzzy.ratio(q["zip"], str(r["zip"]))
    if q["state"] and r.get("state"):
        scores["state"] = fuzzy.ratio(q["state"].upper(), str(r["state"]).upper())
    return scores


def oracle_confidence(scores: dict) -> float:
    weight_map = {"street": CFG.street_weight, "house": CFG.house_weight,
                  "city": CFG.city_weight, "zip": CFG.zip_weight,
                  "state": CFG.state_weight, "unit": CFG.unit_weight}
    house_score = scores.get("house", 0)
    street_score = scores.get("street", 0)
    if house_score > 0 and house_score < 80:
        return min(house_score, 70.0)
    if street_score < 70:
        return min(street_score, 60.0)
    if scores.get("city", 0) == 0:
        weight_map["city"] = 0.0
    if scores.get("zip", 0) < 50:
        weight_map.pop("zip", None)
    total_score = total_weight = 0.0
    for component, score in scores.items():
        if component in weight_map:
            total_score += score * weight_map[component]
            total_weight += weight_map[component]
    if total_weight == 0:
        return 0.0
    weighted = total_score / total_weight
    if weighted > 85:
        if house_score > 0 and house_score < 90:
            weighted = min(weighted, 75.0)
        if street_score < 85:
            weighted = min(weighted, 80.0)
    return weighted


def oracle_exact(similarity, confidence, scores) -> bool:
    if not (similarity >= 95 and confidence >= 95):
        return False
    hs, ss, zs = scores.get("house", 0), scores.get("street", 0), scores.get("zip", 0)
    if hs > 0 and hs < 95:
        return False
    if ss < 85:
        return False
    if zs > 0 and zs < 80:
        return False
    return True


def oracle_tier(confidence: float) -> int:
    for i, (_, thr, _) in enumerate(TIER_TABLE):
        if confidence >= thr:
            return i
    return len(TIER_TABLE)


def oracle_quality(confidence, similarity, scores, tier_idx, r) -> float:
    base = confidence
    if str(r.get("street_name") or "").strip():
        base += 20
    if str(r.get("house") or "").strip():
        base += 15
    if scores.get("unit", 0) > 0:
        base += 25
    if str(r.get("unit") or "").strip():
        base += 35
    if str(r.get("city") or "").strip():
        base += 10
    if str(r.get("state") or "").strip():
        base += 5
    if str(r.get("zip") or "").strip():
        base += 5
    if similarity > 0:
        base += min(similarity / 5, 15)
    names = [t[0] for t in TIER_TABLE] + ["failed"]
    adj = LEVEL_ADJUSTMENTS.get(names[tier_idx], -80)
    base += adj
    return max(0, min(100, base))


# ──────────────────────────────────────────────────────────────
# randomized corpus
# ──────────────────────────────────────────────────────────────

_Q = {"street": "berry st", "house": "55", "unit": "", "city": "brooklyn",
      "state": "ny", "zip": "11211"}
_R = {"street_name": "berry st", "street_type": "", "predir": "", "house": "55",
      "unit": "", "city": "brooklyn", "state": "NY", "zip": "11211"}

# Value shapes a per-distinct-value scorer must keep, each one the scalar
# oracle accepts.  A whitespace-only house is present: against "55" it
# scores 0, against an empty house it is absent.  None is kept out of
# the record street fields, which the oracle reads as the text "None".
EDGE_SHAPES = [
    ({k: None for k in _Q}, _R),
    (_Q, {**_R, "house": None, "unit": None, "city": None, "state": None,
          "zip": None}),
    ({**_Q, "street": "", "city": "", "zip": ""}, {**_R, "street_name": ""}),
    ({**_Q, "house": "  "}, {**_R, "house": ""}),
    ({**_Q, "house": ""}, {**_R, "house": "   "}),
    ({**_Q, "house": "  "}, _R),
    (_Q, {**_R, "house": "  "}),
    ({**_Q, "street": "berry st apt 4b"}, {**_R, "unit": "4B"}),
    ({**_Q, "street": "berry st apt 4b"}, {**_R, "unit": "9Z"}),
    (_Q, {**_R, "street_name": "berry st apt 4b"}),
    ({**_Q, "street": "kent ave # 12", "unit": None},
     {**_R, "street_name": "kent ave unit 12"}),
    ({**_Q, "street": "n 3rd st"}, {**_R, "street_name": "3rd", "street_type": "st",
                                    "predir": "n"}),
    ({**_Q, "street": "e broadway"}, {**_R, "street_name": "broadway",
                                      "predir": " E "}),
    ({**_Q, "street": "café rd"}, {**_R, "street_name": "cafe", "street_type": "rd"}),
    ({**_Q, "street": "straße 5"}, {**_R, "street_name": "STRASSE 5"}),
    ({**_Q, "street": "élan ave", "city": "montréal"},
     {**_R, "street_name": "ÉLAN", "street_type": "AVE", "city": "Montreal"}),
]


def make_corpus(n=400, seed=11):
    rng = random.Random(seed)
    streets = ["berry st", "bedford ave", "n 3rd st", "kent ave", "broadway",
               "metropolitan ave", "graham ave", "union ave", ""]
    cities = ["brooklyn", "new york", "queens", ""]
    qs, rs = [], []
    for _ in range(n):
        st = rng.choice(streets)
        house = rng.choice(["55", "112", "85-101", "22", ""])
        unit = rng.choice(["1H", "3R", "21F", "", "", ""])
        zipc = rng.choice(["11211", "11249", ""])
        q = {"street": st, "house": house, "unit": unit,
             "city": rng.choice(cities), "state": rng.choice(["ny", "NJ", ""]),
             "zip": zipc}
        # record: sometimes same entity (perturbed), sometimes random
        if rng.random() < 0.5:
            r = {"street_name": st if rng.random() < 0.8 else st.replace("st", "street"),
                 "street_type": "", "predir": "",
                 "house": house if rng.random() < 0.8 else str(rng.randint(1, 999)),
                 "unit": unit if rng.random() < 0.6 else rng.choice(["1H", "9Z", ""]),
                 "city": q["city"], "state": q["state"].upper(), "zip": zipc}
        else:
            r = {"street_name": rng.choice(streets), "street_type": rng.choice(["", "st"]),
                 "predir": rng.choice(["", "n"]), "house": rng.choice(["55", "733", ""]),
                 "unit": rng.choice(["", "4B"]), "city": rng.choice(cities),
                 "state": "NY", "zip": rng.choice(["11211", "10001", ""])}
        qs.append(q)
        rs.append(r)
    for q, r in EDGE_SHAPES:
        qs.append(dict(q))
        rs.append(dict(r))
    for q, r in zip(qs, rs):
        q["addr"] = " ".join(filter(None, [q["unit"], q["house"], q["street"],
                                           q["city"], q["state"], q["zip"]]))
        r["addr"] = " ".join(filter(None, [r["house"], r["street_name"], r["street_type"],
                                           r["unit"], r["city"], r["state"], r["zip"]]))
    return qs, rs


def cols(dicts, keys):
    return {k: np.array([d.get(k, "") for d in dicts], dtype=object) for k in keys}


def test_batch_scoring_matches_oracle():
    qs, rs = make_corpus()
    qcols = cols(qs, ["street", "house", "unit", "city", "state", "zip", "addr"])
    rcols = cols(rs, ["street_name", "street_type", "predir", "house", "unit",
                      "city", "state", "zip", "addr"])
    got_scores = scoring.component_scores(qcols, rcols)
    got_conf = scoring.weighted_confidence(got_scores)
    got_sim = scoring.similarity_full(qcols["addr"], rcols["addr"])
    got_exact = scoring.exactness(got_sim, got_conf, got_scores)
    got_tier = scoring.assign_tier(got_conf)
    got_quality = scoring.quality_score(got_conf, got_sim, got_scores, got_tier, rcols)
    got_adj = scoring.adjusted_confidence(got_conf, got_tier)
    got_rel = scoring.reliability(got_quality)

    for i, (q, r) in enumerate(zip(qs, rs)):
        o_scores = oracle_component_scores(q, r)
        for k in scoring.COMPONENT_KEYS:
            want = o_scores.get(k)
            got = got_scores[k][i]
            if want is None:
                assert np.isnan(got), (i, k, got, q, r)
            else:
                assert got == pytest.approx(want, abs=1e-9), (i, k, q, r)
        o_conf = oracle_confidence(o_scores)
        assert got_conf[i] == pytest.approx(o_conf, abs=1e-9), (i, q, r, o_scores)
        o_sim = fuzzy.ratio(normalize(q["addr"]), normalize(r["addr"]))
        assert got_sim[i] == pytest.approx(o_sim, abs=1e-9)
        assert bool(got_exact[i]) == oracle_exact(o_sim, o_conf, o_scores), (i, q, r)
        o_tier = oracle_tier(o_conf)
        assert int(got_tier[i]) == o_tier
        o_q = oracle_quality(o_conf, o_sim, o_scores, o_tier, r)
        assert got_quality[i] == pytest.approx(o_q, abs=1e-9), (i, q, r)
        names = [t[0] for t in TIER_TABLE] + ["failed"]
        assert got_adj[i] == pytest.approx(
            max(0, o_conf + LEVEL_ADJUSTMENTS.get(names[o_tier], -80)))
        want_rel = ("high" if o_q >= 80 else "medium" if o_q >= 60 else
                    "low" if o_q >= 40 else "very_low" if o_q >= 20 else "speculative")
        assert scoring.RELIABILITY_NAMES[got_rel[i]] == want_rel


def test_unit_adjustment():
    # U:911-917
    adj = scoring.unit_adjustment(
        np.array(["1H", "1H", "1H", "", None], dtype=object),
        np.array(["1h", "9Z", "", "4B", "4B"], dtype=object))
    assert adj.tolist() == [50.0, -20.0, 0.0, 0.0, 0.0]


def test_tier_ladder_edges():
    conf = np.array([100, 95, 94.999, 85, 84.9, 5, 4.9, 0])
    names = scoring.TIER_NAMES_ARR[scoring.assign_tier(conf)]
    assert names.tolist() == ["exact", "exact", "relaxed", "relaxed",
                              "partial", "desperate", "failed", "failed"]


def test_exact_predicate_boundaries():
    # optimized.py:191-218
    s = {k: np.array([np.nan]) for k in scoring.COMPONENT_KEYS}
    s["street"] = np.array([100.0])
    s["house"] = np.array([100.0])
    assert scoring.exactness(np.array([95.0]), np.array([95.0]), s)[0]
    s["house"] = np.array([94.0])
    assert not scoring.exactness(np.array([95.0]), np.array([95.0]), s)[0]
    s["house"] = np.array([np.nan])  # absent house → ok
    assert scoring.exactness(np.array([95.0]), np.array([95.0]), s)[0]
    s["zip"] = np.array([79.0])
    assert not scoring.exactness(np.array([95.0]), np.array([95.0]), s)[0]


# ──────────────────────────────────────────────────────────────
# batch layout: per-value work must not leak across rows or batches
# ──────────────────────────────────────────────────────────────

_VARIANTS = [  # (norm_addr, house, street_name, street_type, unit, city, state, zip)
    ("55 berry st brooklyn ny 11211", "55", "berry", "st", "", "brooklyn", "ny", "11211"),
    ("55 berry st apt 4b brooklyn ny", "55", "berry st apt 4b", "", None, "Brooklyn", "NY", None),
    ("55 berry street brooklyn", " 55 ", "berry", "street", "4B", "brooklyn", None, "11211"),
    ("57 berry st brooklyn ny 11249", "57", "berry", "st", "1H", "brooklyn", "ny", "11249"),
    ("55 bery st", "55", "bery", None, "", "", "ny", "11211"),
    ("55 berry st", None, "berry", "st", "#3", None, "NJ", "11211"),
]


def _skew_key_rows():
    """One hot entity above ``8 × max_block_size`` (salted, bridged,
    capped) whose docs share a few address variants, plus small
    entities on other keys: every batch repeats each value many times."""
    rows = []
    for i in range(120):
        rows.append(("mega", i, _VARIANTS[i % len(_VARIANTS)]))
    for i in range(200, 230):
        other = (f"{i} kent ave", str(i), "kent", "ave", "", "brooklyn", "ny", "11249")
        rows.append((f"k{i // 5}", i, _VARIANTS[i % len(_VARIANTS)] if i % 7 == 0 else other))
    return pd.DataFrame([
        {"doc_id": i, "block_key": key, "key_kind": "exact",
         **dict(zip(PAYLOAD_COLS, payload))} for key, i, payload in rows
    ]).astype({"doc_id": "uint64"})


def test_batch_layout_does_not_change_scores(ray_session):
    """Scoring a pair table as one batch, or in slices of 1, 7 and 4096
    rows, gives the same table; an empty batch keeps the schema."""
    import ray.data as rd

    from address_address_matching_ray.stages.pairs import pairs_stage

    cfg = PipelineConfig(max_block_size=4, max_pairs_per_block=40, salt_buckets=3)
    pairs = pa.concat_tables(
        pairs_stage(rd.from_pandas(_skew_key_rows()), cfg, buckets=4, salt_hot=True)
        .iter_batches(batch_format="pyarrow", batch_size=None))
    assert pairs.num_rows > 100
    assert {"mega#s0", "mega#bridge"} <= set(pairs["block_key"].to_pylist())
    scorer = PairScorer(cfg)
    whole = scorer(pairs)
    assert whole["accepted"].to_numpy().any() and not whole["accepted"].to_numpy().all()
    for size in (1, 7, 4096):
        sliced = pa.concat_tables([scorer(pairs.slice(s, size))
                                   for s in range(0, pairs.num_rows, size)])
        assert sliced.schema.equals(whole.schema), size
        pd.testing.assert_frame_equal(sliced.to_pandas(), whole.to_pandas())
    empty = scorer(pairs.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.equals(whole.schema)


def test_scorer_rejects_doc_with_two_payloads():
    """Scoring reads each document's payload once; a pair table in which
    one doc_id carries two different cities is refused, naming the
    column, rather than scored from whichever row came first."""
    ids = pa.array([1, 1, 2], pa.uint64()), pa.array([2, 3, 3], pa.uint64())
    cols = {"left_id": ids[0], "right_id": ids[1],
            "block_key": pa.array(["k"] * 3), "key_kind": pa.array(["exact"] * 3),
            "specificity": pa.array([20.0] * 3),
            "dropped_pairs": pa.array([0] * 3, pa.uint64())}
    for c in PAYLOAD_COLS:
        cols[f"l_{c}"] = pa.array([f"{c}{i}" for i in (1, 1, 2)])
        cols[f"r_{c}"] = pa.array([f"{c}{i}" for i in (2, 3, 3)])
    pairs = pa.table(cols)
    scorer = PairScorer(CFG)
    assert scorer(pairs).num_rows == 3
    # doc 2 is pair 0's right side and pair 2's left side
    bad = pairs.set_column(pairs.column_names.index("l_city"), "l_city",
                           pa.array(["city1", "city1", "elsewhere"]))
    with pytest.raises(ValueError, match="'city'"):
        scorer(bad)
