"""Pipeline configuration.

Carries every tunable the reference exposes (weights / thresholds /
caps — ``optimized.py:112-157`` ``MatchConfig``, tier table built at
``ultimate_address_matcher.py:276-364``) plus the knobs a distributed
blocking+scoring+clustering pipeline needs (LSH params, block caps,
salting, batch sizes).  JSON/YAML-loadable like the reference
(``optimized.py:148-157``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field


# Tier ladder: (name, min confidence threshold, candidate cap) —
# ultimate_address_matcher.py:276-364.  Order == priority (first wins).
TIER_TABLE: tuple[tuple[str, float, int], ...] = (
    ("exact", 95.0, 1),
    ("relaxed", 85.0, 3),
    ("partial", 75.0, 5),
    ("geographic", 65.0, 10),
    ("fuzzy", 55.0, 15),
    ("ultra_fuzzy", 45.0, 20),
    ("semantic", 35.0, 25),
    ("phonetic", 25.0, 30),
    ("keyword", 15.0, 35),
    ("desperate", 5.0, 50),
)

# Confidence adjustment per tier — ultimate_address_matcher.py:923-929.
LEVEL_ADJUSTMENTS: dict[str, float] = {
    "exact": 0, "relaxed": -5, "partial": -10, "geographic": -15,
    "fuzzy": -25, "ultra_fuzzy": -35, "semantic": -45,
    "phonetic": -55, "keyword": -65, "desperate": -75,
}

TIER_NAMES: tuple[str, ...] = tuple(t[0] for t in TIER_TABLE)
TIER_PRIORITY: dict[str, int] = {name: i for i, (name, _, _) in enumerate(TIER_TABLE)}
TIER_CAPS: dict[str, int] = {name: cap for name, _, cap in TIER_TABLE}

# Blocking-key family → retrieval tier.  Each key family in
# ``match_queries`` plays the role of one tier's ES query
# (ultimate_address_matcher.py:276-364), so candidate retrieval out of
# its blocks is truncated at that tier's ``max_results`` (the K1/K3
# per-tier caps): the recall/cost knob a reference user tunes per tier.
KEY_FAMILY_TIER: dict[str, str] = {
    "e": "exact",          # full normalized-address equality
    "h": "relaxed",        # house | street | zip
    "h2": "partial",       # house | street
    "f": "geographic",     # house | street-first-token | zip
    "s": "phonetic",       # house | soundex(street) | state
    "k": "keyword",        # street keyword | zip-or-state scope
}


@dataclass
class PipelineConfig:
    # ── component weights (sum to 1.0) — optimized.py:115-120 ──
    street_weight: float = 0.40
    house_weight: float = 0.25
    city_weight: float = 0.15
    zip_weight: float = 0.10
    state_weight: float = 0.05
    unit_weight: float = 0.05

    # ── thresholds — optimized.py:122-131 ──
    min_similarity_threshold: float = 70.0   # edge acceptance floor
    exact_threshold: float = 98.0
    high_conf_threshold: float = 85.0        # MatchResult.high_conf, optimized.py:188-189
    require_house: bool = False
    require_zip: bool = False

    # ── unit-match bonus/penalty — ultimate_address_matcher.py:911-917 ──
    unit_match_bonus: float = 50.0
    unit_mismatch_penalty: float = -20.0

    # ── variant fan-out caps — ultimate_address_matcher.py:651,893,1327 ──
    max_variants: int = 15
    variants_per_tier: int = 5
    speculative_unit_variants: bool = False  # the 19A/19B/19C expansion (U:1280-1296)

    # ── blocking / shuffle ──
    minhash_perms: int = 16          # MinHash signature length (linkage blocking)
    lsh_bands: int = 4               # bands (rows = perms // bands)
    # LSH band keys in the LINKAGE blocking: "degraded" emits them only
    # for docs whose address parse failed (no house+street).  For parsed
    # docs the address keys (exact/composite/phonetic) subsume every
    # pair the scoring tiers could later ACCEPT — a band-only pair of
    # two differently-parsed addresses is rejected by the ≥85-confidence
    # edge gate anyway — so full-corpus bands only add shuffle bytes
    # (they doubled the key-table at 4M pages).  "all" restores
    # belt-and-braces text blocking; dedup pipelines always band fully.
    lsh_scope: str = "degraded"
    dedup_minhash_perms: int = 64    # richer sketch for text near-dup dedup
    dedup_lsh_bands: int = 16
    shingle_size: int = 3            # token shingles for MinHash
    simhash_bits: int = 64
    max_block_size: int = 200        # rows per blocking group before salting
    max_pairs_per_block: int = 4000  # hard cap on emitted pairs per group
    salt_buckets: int = 8            # hot-key salt fan-out

    # ── execution ──
    score_batch_size: int = 4096
    # rows per block for the pre-scoring streaming split-repartition:
    # ~6 µs/pair scoring (PairScorer CPU time on the perfbench link_skew
    # pairs in 4096-row batches, one Xeon vCPU) ⇒ ~250k rows ≈ 1.5 s
    # tasks — small enough to pack cores evenly behind a skewed bucket
    # groupby, big enough that per-task overhead stays <1%
    score_block_rows: int = 250_000
    target_max_block_size_mb: int = 128
    seed: int = 42

    # ── edge acceptance for clustering ──
    edge_min_confidence: float = 85.0  # high_conf ⇒ edge (tiers exact/relaxed)

    # ── input column renames — the IndexFieldMapping analog
    # (optimized.py:94-109; SURVEY §2.11): real schemas make the
    # reference's field sniffing (U:191-242) unnecessary, a rename map
    # covers differently-named inputs ──
    column_map: dict = field(default_factory=dict)   # e.g. {"content": "html"}

    def __post_init__(self) -> None:
        total = (self.street_weight + self.house_weight + self.city_weight
                 + self.zip_weight + self.state_weight + self.unit_weight)
        if abs(total - 1.0) > 0.01:  # optimized.py:140-146
            raise ValueError(f"Weights must sum to 1.0, got {total}")
        if self.minhash_perms % self.lsh_bands:
            raise ValueError("minhash_perms must be divisible by lsh_bands")

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        """JSON/YAML config loading — optimized.py:148-157."""
        ext = os.path.splitext(path)[-1].lower()
        with open(path) as f:
            if ext in (".yaml", ".yml"):
                import yaml
                data = yaml.safe_load(f)
            else:
                data = json.load(f)
        return cls(**data)

    def fingerprint(self) -> str:
        """Stable hash of the config — part of checkpoint lineage."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
