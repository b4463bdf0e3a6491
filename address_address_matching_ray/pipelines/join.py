"""General scale-safe equi-join (SURVEY §2.4 J3 family).

``ray.data.Dataset.join`` (Ray 2.49's hash-join operator) spins up a
dedicated actor pool per join and pays ~10 s of fixed setup regardless
of input size — fine for one giant join, wrong for a pipeline of
medium ones.  This module provides the two shapes that dominate in
practice, both built from primitives the streaming executor pipelines
well:

- **broadcast join** (small build side): the build table is pulled
  once, ``ray.put`` once, and each probe batch does a vectorized
  pandas merge against the worker-cached copy — zero shuffle, zero
  extra operators.  Gated by an exact build-side row count.
- **bucketed shuffle join** (both sides large): both sides are tagged
  with the same ``hash(key) % buckets`` bucket id, unioned, and one
  ``groupby(_b).map_groups`` does a vectorized ``pd.merge`` per
  bucket — ONE all-to-all exchange, same machinery as
  ``temporal.asof_join`` (shared ``_pad_to`` union-schema helpers).

At 100 TB the broadcast path covers dim tables (region/nation/
customer-segment maps); fact-fact joins take the bucketed path where
buckets should be sized so one bucket's rows fit a task (~buckets >=
total_bytes / 512MB).  Skewed keys: salt upstream (see
``stages/keys.py`` hot-key salting) — an equi-join bucket is exactly
as skewed as its hottest key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from address_address_matching_ray.pipelines.temporal import (
    _fields_of, _pad_to,
)


def equi_join(left, right, *, on: str, right_on: str | None = None,
              how: str = "inner", buckets: int = 64,
              broadcast_threshold: int = 5_000_000,
              left_fields: list[tuple[str, pa.DataType]] | None = None,
              right_fields: list[tuple[str, pa.DataType]] | None = None):
    """Join two Datasets on an integer key.  Column names must be
    disjoint apart from the key; ``right_on`` defaults to ``on`` (when
    they differ, both key columns are kept, like pandas/DuckDB).

    ``how``: ``'inner'``, ``'left'`` or ``'outer'`` (full outer).
    Left/outer joins widen nullable-side integer columns to float64
    unconditionally so every bucket emits one block schema (the
    asof-join ADVICE lesson).  Full outer requires ``on == right_on``
    (one shared key column, filled from whichever side matched) and
    always takes the bucketed path: a streaming broadcast probe cannot
    know which build rows went unmatched globally.

    Build side = ``right``; callers put the smaller table there.  Below
    ``broadcast_threshold`` build rows it is broadcast once and probed
    per batch (no shuffle); above, one bucketed union shuffle.

    ``left_fields`` / ``right_fields``: optional ``(name, arrow type)``
    schemas.  ``ds.schema()`` on an aggregate-fed Dataset EXECUTES the
    whole upstream plan just to see one row (Ray's limit-1 probe can't
    push through an all-to-all), and the join then re-executes it —
    callers that feed ``groupby().aggregate()`` outputs should pass the
    schemas they already know so each side runs exactly once.
    """
    right_on = right_on or on
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"how={how!r}")
    if how == "outer":
        if on != right_on:
            raise ValueError("full outer join requires a shared key column")
        return _shuffle_join(left, right, on=on, right_on=right_on,
                             how=how, buckets=buckets,
                             left_fields=left_fields,
                             right_fields=right_fields)

    n_right = right.count()
    if n_right <= broadcast_threshold:
        return _broadcast_join(left, right, on=on, right_on=right_on,
                               how=how)
    return _shuffle_join(left, right, on=on, right_on=right_on,
                         how=how, buckets=buckets,
                         left_fields=left_fields, right_fields=right_fields)


def _widen_right_ints(out: pd.DataFrame, right_cols: list[str],
                      restore: dict[str, np.dtype], how: str,
                      on: str) -> pd.DataFrame:
    """Post-merge dtype policy: left columns return to their exact
    dtypes (null-free by construction); right columns also do under
    ``inner``, but under ``left`` integer right columns stay float64
    in EVERY bucket so block schemas never diverge.  Under ``outer``
    every non-key integer column can be null on either side, so all
    of them widen; the shared key column is filled from whichever
    side matched and keeps its exact dtype."""
    for c, dt in restore.items():
        if c not in out.columns:
            continue
        if c != on and (how == "outer"
                        or (c in right_cols and how == "left")):
            out[c] = out[c].astype(np.float64)
        else:
            out[c] = out[c].astype(dt)
    return out


def _broadcast_join(left, right, *, on: str, right_on: str, how: str):
    import ray

    from address_address_matching_ray.stages.bcast import get_cached

    rdf = right.to_pandas()
    ref = ray.put(rdf)
    restore_right = {c: rdf[c].dtype for c in rdf.columns
                     if np.issubdtype(rdf[c].dtype, np.integer)}

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        r = get_cached(ref)
        out = df.merge(r, how=how, left_on=on, right_on=right_on)
        for c, dt in restore_right.items():
            # same dtype policy as the shuffle path: left-join nulls
            # widen right ints to float64 in EVERY batch
            if how == "left" and c != on:
                out[c] = out[c].astype(np.float64)
            else:
                out[c] = out[c].astype(dt)
        return out

    return left.map_batches(probe, batch_format="pandas")


def _shuffle_join(left, right, *, on: str, right_on: str, how: str,
                  buckets: int, left_fields=None, right_fields=None):
    lf = left_fields or _fields_of(left)
    rf = right_fields or _fields_of(right)
    union_fields = lf + [(n, t) for n, t in rf if n not in
                         {n0 for n0, _ in lf}]
    left_cols = [n for n, _ in lf]
    right_cols = [n for n, _ in rf]
    restore = {n: np.dtype(t.to_pandas_dtype())
               for n, t in union_fields if pa.types.is_integer(t)}

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["_side"] == 0, left_cols]
        r = g.loc[g["_side"] == 1, right_cols]
        for c in l.columns.intersection(restore):
            l[c] = l[c].astype(restore[c])
        for c in r.columns.intersection(restore):
            r[c] = r[c].astype(restore[c])
        if on == right_on:
            # one shared key column, coalesced from both sides (the
            # full-outer contract; inner/left are identical either way)
            out = l.merge(r, how=how, on=on)
        else:
            out = l.merge(r, how=how, left_on=on, right_on=right_on)
        out = _widen_right_ints(out, right_cols, restore, how, on)
        return out.reset_index(drop=True)

    tagged = (left.map_batches(_pad_to(union_fields, 0, on, buckets),
                               batch_format="pyarrow")
              .union(right.map_batches(
                  _pad_to(union_fields, 1, right_on, buckets),
                  batch_format="pyarrow")))
    return tagged.groupby("_b").map_groups(
        lambda g: merge_bucket(g.drop(columns=["_b"])),
        batch_format="pandas")


def pull_ids(ds, columns: list[str]) -> pa.Table:
    """The uint64 ``columns`` of ``ds`` on the driver, in ONE Ray
    execution: ``materialize`` (free on a materialized Dataset) and one
    parallel ``ray.get`` of its blocks.  ``to_arrow_refs`` on a lazy
    plan would execute it twice — once for the blocks, once more for
    their schema."""
    import ray

    schema = pa.schema([(c, pa.uint64()) for c in columns])
    # empty blocks may carry a degenerate schema
    blocks = [t.select(columns).cast(schema)
              for t in ray.get(ds.materialize().to_arrow_refs())
              if t.num_rows]
    return pa.concat_tables(blocks) if blocks else schema.empty_table()


def semi_join_ids(ds, ids_ds, *, id_col: str, ids_col: str | None = None,
                  broadcast_threshold: int = 5_000_000,
                  bloom_max_bytes: int = 64 << 20,
                  bloom_fpp: float = 0.01, buckets: int = 64):
    """Scale-safe LEFT SEMI join: keep ``ds`` rows whose integer
    ``id_col`` appears in ``ids_ds[ids_col]`` (the mirror of
    ``stages.cluster.filter_out_ids``).  Three tiers by key-side size:

    1. **broadcast exact** (≤ ``broadcast_threshold`` key rows): sorted
       uint64 key array ``ray.put`` once, searchsorted per probe batch —
       zero shuffle.
    2. **Bloom prefilter + bucketed exact** (filter fits
       ``bloom_max_bytes``, ~55M keys at 1% fpp per 64 MB): key hashes
       stream to the driver (8 B/distinct key, no text), build one
       dense filter, broadcast it (numeric → zero-copy), drop ~99 % of
       non-matching probe rows BEFORE the shuffle, then an exact
       bucketed semi-join on the survivors.  False positives are
       rescued by the exact stage, so correctness never depends on fpp.
    3. **bucketed exact** (huge key side): hash-bucket both sides on
       the key, per-bucket vectorized ``np.isin`` — one union shuffle
       of probe + key rows.
    """
    from address_address_matching_ray.functions import sketch as sk

    ids_col = ids_col or id_col
    # one execution: the count and the pull read the pinned id column
    ids_ds = ids_ds.select_columns([ids_col]).materialize()
    n = ids_ds.count()
    if n == 0:
        return ds.filter(expr=f"{id_col} != {id_col}")  # typed empty

    import ray

    if n <= broadcast_threshold:
        arr = pull_ids(ids_ds, [ids_col])[ids_col].to_numpy()
        ref = ray.put(np.unique(arr))

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            kk = ray.get(ref)
            v = df[id_col].to_numpy(dtype="uint64")
            pos = np.minimum(np.searchsorted(kk, v), len(kk) - 1)
            return df[kk[pos] == v]

        return ds.map_batches(keep, batch_format="pandas")

    m_words, k = sk.bloom_params(n, bloom_fpp)
    probe = ds
    if m_words * 8 <= bloom_max_bytes:
        # stream distinct key hashes to the driver (slim uint64 rows),
        # OR them into one filter — driver cost is vectorized hashing,
        # ~n*k bit sets, no text and no unbounded Python state
        def key_hashes(t: pa.Table) -> pa.Table:
            v = t[ids_col].to_numpy(zero_copy_only=False).astype("uint64")
            return pa.table({"h": pa.array(np.unique(sk.hash_values(v)),
                                           pa.uint64())})

        words = np.zeros(m_words, dtype=np.uint64)
        slim = ids_ds.map_batches(key_hashes, batch_format="pyarrow")
        for b in slim.iter_batches(batch_format="pyarrow",
                                   batch_size=1 << 20):
            sk.bloom_add(words, b["h"].to_numpy(zero_copy_only=False), k)
        fref = ray.put(words)

        def prefilter(df: pd.DataFrame) -> pd.DataFrame:
            w = ray.get(fref)           # numeric → zero-copy view
            h = sk.hash_values(df[id_col].to_numpy(dtype="uint64"))
            return df[sk.bloom_contains(w, h, k)]

        probe = ds.map_batches(prefilter, batch_format="pandas")

    # exact bucketed semi-join on (possibly prefiltered) probe rows
    return membership_join(probe, ids_ds, id_col=id_col, ids_col=ids_col,
                           keep=True, buckets=buckets)


def membership_join(probe, ids_ds, *, id_col: str,
                    ids_col: str | None = None, keep: bool = True,
                    buckets: int = 64):
    """Exact bucketed membership join: keep (semi) or drop (anti) the
    probe rows whose ``id_col`` appears in ``ids_ds[ids_col]`` — one
    union shuffle of probe + slim key rows, a vectorized searchsorted
    test per bucket.  The shared large-side backend of
    ``semi_join_ids`` and ``stages.cluster.filter_out_ids``."""
    ids_col = ids_col or id_col
    pf = _fields_of(probe)
    union_fields = pf if ids_col == id_col and any(
        nm == ids_col for nm, _ in pf) else pf + [
        (ids_col, pa.uint64())]
    probe_cols = [nm for nm, _ in pf]

    def test_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = g.loc[g["_side"] == 1, ids_col].to_numpy(dtype="uint64")
        l = g.loc[g["_side"] == 0, probe_cols]
        v = l[id_col].to_numpy(dtype="uint64")
        keys = np.unique(keys)
        if len(keys) == 0:
            hit = np.zeros(len(l), dtype=bool)
        else:
            pos = np.minimum(np.searchsorted(keys, v), len(keys) - 1)
            hit = keys[pos] == v
        return l[hit if keep else ~hit].reset_index(drop=True)

    keyed = ids_ds.select_columns([ids_col])
    tagged = (probe.map_batches(_pad_to(union_fields, 0, id_col, buckets),
                                batch_format="pyarrow")
              .union(keyed.map_batches(
                  _pad_to(union_fields, 1, ids_col, buckets),
                  batch_format="pyarrow")))
    restore = {nm: np.dtype(t.to_pandas_dtype())
               for nm, t in pf if pa.types.is_integer(t)}

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = test_bucket(g.drop(columns=["_b"]))
        for c in out.columns.intersection(restore):
            out[c] = out[c].astype(restore[c])
        return out

    return tagged.groupby("_b").map_groups(finish, batch_format="pandas")


def bucketed_sum(parts, key: str | list[str], value_cols: list[str], *,
                 buckets: int = 64, bucket_on: str | None = None):
    """Group-sum a partials Dataset by key without Ray's native
    ``groupby(key).aggregate(Sum)``.  The native reduce iterates
    Python-level per DISTINCT key — at ~2×10⁷ (user, day) keys it
    wedged for >38 min, and even 43k (type, window) keys took >95 s
    over 3M partial rows, where this shape (hash one integer key
    column into ``buckets`` groups, ONE vectorized pandas group-sum
    per bucket) finishes in seconds.  Use whenever key cardinality
    scales with the data; the native groupby stays fine for bounded
    enums (≤ a few hundred keys).

    ``key`` may be a list for composite keys; ``bucket_on`` names the
    integer-typed column to hash (default: the last key column).
    ``parts`` must already be per-batch combined (map_batches partial
    sums) so the shuffle ships one row per (key, batch) at most."""
    keys = [key] if isinstance(key, str) else list(key)
    bucket_on = bucket_on or keys[-1]

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        df["_b"] = (df[bucket_on].to_numpy().astype("uint64")
                    % np.uint64(buckets)).astype("int64")
        return df

    def red(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns=["_b"])
                .groupby(keys, as_index=False, sort=False)[value_cols]
                .sum())

    return (parts.map_batches(tag, batch_format="pandas")
            .groupby("_b").map_groups(red, batch_format="pandas"))


def shuffle_partitions(size_bytes: int | None = None,
                       target_bytes: int = 256 * 2**20,
                       max_parts: int = 8192) -> int:
    """Partition count for a wide shuffle: ≥ 2×cluster CPUs (keep every
    core busy), ≥ size/target (bound per-partition bytes), ≤ max_parts.

    Matters because Ray's sort shuffle creates in×out block fragments:
    a 1-GB table arriving in 256 small blocks made 65k tiny shuffle
    objects whose scheduling overhead dominated (45 s for ~15 s of
    work); coalescing to 2×CPU blocks first cut the stage to 6 s.
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 16)) if ray.is_initialized() else 16
    parts = 2 * cpus
    if size_bytes:
        parts = max(parts, -(-size_bytes // target_bytes))
    return min(parts, max_parts)


# Size bound of the local exchange path (see ``bucket_exchange``): the
# input size at which one local task's whole run costs what the
# bucketed exchanges pay before moving a byte.  Measured on
# ``pairs_stage`` (4-vCPU Xeon VM, Ray num_cpus=4, best of 3, synth
# key tables of 1-62 MB in ~8k-row blocks), seconds local / bucketed:
# 1 MB 0.19 / 1.36, 2 MB 0.19 / 1.27, 3.9 MB 0.26 / 1.44,
# 7.8 MB 0.46 / 1.57, 15.6 MB 0.68 / 1.83, 31 MB 1.26 / 2.44,
# 62 MB 2.82 / 4.24.  Fixed cost of the two bucketed exchanges
# ≈ 1.1 s; the local task runs at ≈ 28 MB of keys/s; 1.1 s × 28 MB/s
# ≈ 31 MB.  Below that the local task is done before the bucketed path
# has paid its fixed cost, however many CPUs share its per-bucket
# work.  Local still won at 62 MB here, so the bound is conservative;
# it also caps what one task holds (a skewed key table can grow ~16×
# into pairs).
LOCAL_EXCHANGE_BYTES = 32 << 20


def exchange_is_local(size_bytes: int | None) -> bool:
    """Whether an exchange over ``size_bytes`` measured input bytes runs
    as one local task (``None``: size unknown → bucketed)."""
    return size_bytes is not None and size_bytes <= LOCAL_EXCHANGE_BYTES


def bucket_exchange(ds, fn, bucket, size_bytes: int | None = None):
    """Run a bucket-decomposable Arrow kernel over ``ds``, choosing the
    exchange by measured input size.

    ``fn`` (pa.Table → pa.Table) must give the same rows on the whole
    table as on the union of its per-bucket calls — every group it
    reduces lives in one bucket.  ``bucket`` (pa.Table → int64 array)
    assigns rows to buckets.  At or below ``LOCAL_EXCHANGE_BYTES`` the
    whole table goes to ONE task (no sample, sort or shuffle; ``bucket``
    is never called); above it, or with the size unknown, rows are
    tagged, repartitioned to ``shuffle_partitions(size_bytes)`` blocks
    and one ``groupby(bucket)`` task runs ``fn`` per bucket."""
    if exchange_is_local(size_bytes):
        # Arrow blocks in: repartition's reduce takes one block type, and
        # ``ds`` may mix pandas and Arrow blocks (e.g. a union)
        return (ds.map_batches(lambda t: t, batch_format="pyarrow",
                               batch_size=None)
                .repartition(1).map_batches(fn, batch_format="pyarrow",
                                            batch_size=None))

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_b", pa.array(bucket(t), pa.int64()))

    return (ds.map_batches(tag, batch_format="pyarrow")
            .repartition(shuffle_partitions(size_bytes))
            .groupby("_b").map_groups(lambda g: fn(g.drop(["_b"])),
                                      batch_format="pyarrow"))


def bucketed_distinct(ds, key: str, *, buckets: int = 64):
    """DISTINCT over an integer column at unbounded cardinality:
    per-batch ``np.unique`` combiner → hash-bucket shuffle → one
    vectorized ``np.unique`` per bucket.  Same rationale as
    ``bucketed_sum`` — never pay the native per-distinct-key reduce."""
    def part(t: pa.Table) -> pd.DataFrame:
        u = np.unique(t[key].to_numpy(zero_copy_only=False))
        return pd.DataFrame({
            key: u,
            "_b": (u.astype("uint64") % np.uint64(buckets))
            .astype("int64")})

    def red(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: np.unique(g[key].to_numpy())})

    return (ds.map_batches(part, batch_format="pyarrow")
            .groupby("_b").map_groups(red, batch_format="pandas"))
