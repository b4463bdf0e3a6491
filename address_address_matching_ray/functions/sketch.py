"""Mergeable distinct-count sketch (KMV / bottom-k).

A KMV sketch keeps the ``k`` smallest distinct 64-bit hashes of the
values seen.  Partials from different batches merge by unioning and
re-taking the k smallest — associative and commutative, so it composes
with any shuffle/aggregation order.  With fewer than ``k`` distinct
values the sketch degenerates to an exact distinct count; above ``k``
the estimator is ``(k - 1) / kth_smallest_normalized`` with relative
standard error ~ ``1/sqrt(k - 2)`` (Bar-Yossef et al. 2002; same
estimator family as HyperLogLog's precursor).

All kernels are vectorized numpy over uint64 arrays — a sketch partial
for a 10k-row batch is one hash pass + one ``np.partition``.
"""

from __future__ import annotations

import numpy as np

_FULL = np.float64(2.0 ** 64)


def hash_values(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer) of an integer
    array; strings should be hashed upstream (e.g. pandas
    ``hash_array``) before entering the sketch."""
    x = np.ascontiguousarray(values).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


def kmv_partial(hashes: np.ndarray, k: int) -> np.ndarray:
    """k smallest DISTINCT hashes of one batch (ascending uint64)."""
    u = np.unique(hashes.astype(np.uint64))     # unique() sorts
    return u[:k]


def kmv_merge(partials: np.ndarray, k: int) -> np.ndarray:
    """Union of partial sketches → one sketch (k smallest distinct)."""
    return kmv_partial(partials, k)


def kmv_estimate(sketch: np.ndarray, k: int) -> int:
    """Distinct-count estimate from a merged sketch.  Exact when the
    stream held fewer than ``k`` distinct values."""
    if len(sketch) < k:
        return int(len(sketch))
    kth = np.float64(sketch[k - 1]) + 1.0       # normalize to (0, 1]
    return int(round((k - 1) * _FULL / kth))


# ── KLL quantile sketch (Karnin-Lang-Liberty, FOCS 2016) ────────────
#
# Mergeable rank/quantile sketch: level l holds items of weight 2^l;
# when a level overflows its capacity (k shrinking geometrically by
# 2/3 per level below the top), it is sorted and every other item is
# promoted to level l+1.  Partials from any batch/shuffle order merge
# by concatenation + recompression.  Rank error is O(1/k) with the
# standard construction; the compaction offset here is DETERMINISTIC
# (parity of level + level count, not a coin flip) so results are
# reproducible under retries — the randomized guarantee degrades to
# an empirical bound, which the tests pin (same trade Apache
# DataSketches' deterministic test mode makes).
#
# Wire format is two parallel arrays ``(values float64, levels uint8)``
# — flat rows, so a per-key partial ships through an Arrow shuffle as
# ≤ ~3k scalar rows regardless of input size (the 100-TB per-key
# percentile shape; exact per-key percentiles need the whole group on
# one task).

_KLL_MIN_LEVEL_CAP = 2


def _kll_caps(k: int, num_levels: int) -> np.ndarray:
    """Capacity per level, top level = k, shrinking by 2/3 downward."""
    caps = np.array([max(int(np.ceil(k * (2.0 / 3.0) ** d)),
                         _KLL_MIN_LEVEL_CAP)
                     for d in range(num_levels - 1, -1, -1)], dtype=np.int64)
    return caps


def kll_compress(values: np.ndarray, levels: np.ndarray, k: int):
    """Compact ``(values, levels)`` until every level fits its cap."""
    values = np.asarray(values, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.uint8)
    while True:
        num_levels = int(levels.max()) + 1 if len(levels) else 1
        caps = _kll_caps(k, num_levels)
        counts = np.bincount(levels, minlength=num_levels)
        if len(values) <= caps.sum():
            return values, levels
        # sum(counts) > sum(caps) ⇒ some level exceeds its cap
        # (pigeonhole), and that level holds ≥ cap+1 ≥ 3 items, so
        # every iteration promotes ≥ 1 item — guaranteed progress
        l = int(np.flatnonzero(counts > caps)[0])
        sel = levels == l
        lv = np.sort(values[sel])
        offset = (l + len(lv)) & 1          # deterministic coin
        leftover = lv[:0]
        if len(lv) & 1:
            # odd count: one item stays at this level so total mass is
            # EXACTLY preserved (2m items of weight w → m of weight 2w)
            leftover, lv = (lv[:1], lv[1:]) if offset else (lv[-1:], lv[:-1])
        promoted = lv[offset::2]
        values = np.concatenate([values[~sel], leftover, promoted])
        levels = np.concatenate(
            [levels[~sel], np.full(len(leftover), l, dtype=np.uint8),
             np.full(len(promoted), l + 1, dtype=np.uint8)])


def kll_partial(raw: np.ndarray, k: int = 200):
    """Sketch of one batch of raw (weight-1) values."""
    raw = np.asarray(raw, dtype=np.float64)
    raw = raw[~np.isnan(raw)]
    return kll_compress(raw, np.zeros(len(raw), dtype=np.uint8), k)


def kll_merge(values: np.ndarray, levels: np.ndarray, k: int = 200):
    """Merge concatenated partial rows into one sketch — associative/
    commutative up to the deterministic compaction (tests pin the rank
    error across merge orders, not bitwise equality)."""
    return kll_compress(values, levels, k)


def kll_weight(levels: np.ndarray) -> np.ndarray:
    return (np.uint64(1) << levels.astype(np.uint64)).astype(np.float64)


def kll_quantile(values: np.ndarray, levels: np.ndarray, q: float) -> float:
    """Smallest sketch value whose cumulative weight reaches ``q`` of
    the total — the standard rank query."""
    if len(values) == 0:
        return float("nan")
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    cw = np.cumsum(kll_weight(np.asarray(levels)[order]))
    idx = int(np.searchsorted(cw, q * cw[-1], side="left"))
    return float(v[min(idx, len(v) - 1)])


# ── Bloom filter (mergeable membership sketch) ──────────────────────
#
# Standard Bloom construction (Bloom 1970; k probe positions via the
# Kirsch-Mitzenmacher double-hashing scheme h1 + i*h2, which preserves
# the asymptotic false-positive rate with only two base hashes).  The
# filter is a dense uint64 word array, so partials built over disjoint
# batches merge with a bitwise OR — associative, commutative,
# idempotent — and ``ray.put`` of the merged array is zero-copy
# shareable (numeric buffer) for every probe task.
#
# Used as the probe-side PREFILTER of the tiered semi-join
# (``pipelines/join.py:semi_join_ids``): it never decides membership
# on its own (false positives are rescued by an exact bucketed join on
# the survivors), so correctness never depends on the fpp.

_LN2 = 0.6931471805599453


def bloom_params(n_keys: int, fpp: float = 0.01) -> tuple[int, int]:
    """(m_words, k): filter size in 64-bit words and probe count for an
    expected ``fpp`` at ``n_keys`` distinct keys."""
    n = max(1, int(n_keys))
    m_bits = int(np.ceil(-n * np.log(fpp) / (_LN2 * _LN2)))
    m_words = max(1, (m_bits + 63) // 64)
    k = int(round(m_words * 64 / n * _LN2))
    return m_words, min(16, max(1, k))


def _bloom_positions(hashes: np.ndarray, m_words: int, k: int):
    """(k, len(hashes)) bit positions via double hashing."""
    h1 = hashes.astype(np.uint64, copy=False)
    h2 = hash_values(h1) | np.uint64(1)
    m_bits = np.uint64(m_words * 64)
    with np.errstate(over="ignore"):
        return [(h1 + np.uint64(i) * h2) % m_bits for i in range(k)]


def bloom_partial(hashes: np.ndarray, m_words: int, k: int) -> np.ndarray:
    """Dense partial filter (uint64 words) for one batch of hashes."""
    words = np.zeros(m_words, dtype=np.uint64)
    bloom_add(words, hashes, k)
    return words


def bloom_add(words: np.ndarray, hashes: np.ndarray, k: int) -> None:
    """Set the bits of ``hashes`` in-place (driver-side streaming
    build: OR batch after batch into one array, no per-batch 
    allocation)."""
    if len(hashes) == 0:
        return
    for pos in _bloom_positions(hashes, len(words), k):
        np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))


def bloom_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_or(a, b)


def bloom_contains(words: np.ndarray, hashes: np.ndarray,
                   k: int) -> np.ndarray:
    """Vectorized membership mask (true = possibly present)."""
    if len(hashes) == 0:
        return np.zeros(0, dtype=bool)
    mask = np.ones(len(hashes), dtype=bool)
    w = np.uint64(1)
    for pos in _bloom_positions(hashes, len(words), k):
        bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & w
        mask &= bit.astype(bool)
    return mask


# ── Misra-Gries heavy hitters (mergeable frequency sketch) ──────────
#
# The k-counter frequent-items summary (Misra & Gries 1982) with the
# mergeable-summaries combine rule of Agarwal et al. (PODS 2012):
# merging two summaries = sum counters per key, then subtract the
# (k+1)-th largest counter from all and drop the non-positive.  After
# any merge tree over a stream of N items, every surviving counter
# undercounts its key by at most N/(k+1) — so every key with true
# frequency > N/(k+1) is guaranteed present.  This is the bounded-state
# "approximate top words over 100 TB" shape: each batch contributes at
# most k rows to the merge, regardless of vocabulary size.

def mg_prune(keys: np.ndarray, counts: np.ndarray, k: int):
    """Keep at most ``k`` counters: subtract the (k+1)-th largest count
    and drop non-positive counters (the MG decrement step, applied in
    bulk)."""
    if len(keys) <= k:
        return keys, counts
    d = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
    kept = counts - d
    m = kept > 0
    return keys[m], kept[m]


def mg_merge(keys: np.ndarray, counts: np.ndarray, k: int):
    """Combine concatenated summaries (duplicate keys allowed): sum
    counts per key, then prune to ``k`` — associative up to the shared
    error bound (tests pin the bound, not bitwise layout)."""
    order = np.argsort(keys, kind="stable")
    sk, sc = keys[order], counts[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    uk = sk[starts]
    uc = np.add.reduceat(sc, starts)
    return mg_prune(uk, uc, k)


# ── HyperLogLog (Flajolet et al. 2007) ──────────────────────────────
#
# The industry-standard distinct sketch: FIXED 2^p-byte register state
# regardless of cardinality (vs KMV's k 8-byte rows), merge = register
# MAX (associative, commutative, idempotent — safe under any shuffle
# order AND retries), relative standard error 1.04/sqrt(2^p).  Uses
# the same splitmix64 ``hash_values`` as KMV so results are
# deterministic.  Estimator follows the original paper: alpha_m * m² /
# Σ 2^-M[j], with the small-range linear-counting correction below
# 2.5·m and the large-range correction near 2^32 omitted (64-bit
# hashes make it unnecessary; Heule et al. 2013 §4).

def _hll_alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_partial(hashes: np.ndarray, p: int = 12) -> np.ndarray:
    """Register array (uint8, length 2^p) for one batch of 64-bit
    hashes: register j = max rank (leading-zero count + 1) of the
    remaining 64-p bits among hashes whose top p bits equal j."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    h = hashes.astype(np.uint64)
    if len(h) == 0:
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)
    # rank = leading zeros of the remaining 64-bit word + 1, capped at
    # 64 - p + 1 for the all-zero remainder
    lz = np.full(len(h), 64 - p, dtype=np.int64)
    nz = rest != 0
    r = rest[nz]
    # bit_length via float log2 is unsafe at 64 bits; use a shift scan
    # (6 vectorized halving steps — branch-free)
    count = np.zeros(r.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = r < (np.uint64(1) << np.uint64(64 - shift))
        count[mask] += shift
        r = np.where(mask, r << np.uint64(shift), r)
    lz[nz] = count
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Register-wise max — associative/commutative/idempotent."""
    return np.maximum(a.astype(np.uint8), b.astype(np.uint8))


def hll_estimate(regs: np.ndarray, p: int = 12) -> int:
    m = 1 << p
    regs = regs.astype(np.int64)
    est = _hll_alpha(m) * m * m / np.sum(np.ldexp(1.0, -regs))
    if est <= 2.5 * m:
        zeros = int((regs == 0).sum())
        if zeros:
            est = m * np.log(m / zeros)     # linear counting
    return int(round(est))
