"""Per-layer timing from outside the package.

``Tracer.install()`` replaces the layer functions in the namespaces the
pipelines look them up from with wrappers that record a span (name,
start, end, parent, run id), materialize a returned Dataset so its lazy
work lands inside the span, and count rows and bytes after the span
closes.  The package itself is never edited.  Statistics gathered after
a span closes (counts, accept ratios, checkpoint bytes) are booked as
instrumentation time and excluded from every span's self time, so the
self times of a traced call add up to its traced total exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

PKG = "address_address_matching_ray"

# (module, attribute, span name): the stage functions imported at module
# top by pipelines.linkage, the same functions in the stage modules that
# incremental_linkage and build_clusters import at call time, the pass-0
# hot-key seam, the checkpoint manager and the membership join.
TARGETS = [
    ("pipelines.linkage", "extract_stage", "extract"),
    ("pipelines.linkage", "keys_stage", "keys"),
    ("pipelines.linkage", "pairs_stage", "pairs"),
    ("pipelines.linkage", "score_stage", "score"),
    ("pipelines.linkage", "connected_components", "cluster.cc"),
    ("pipelines.linkage", "attach_singletons", "cluster.attach"),
    ("stages.extract", "extract_stage", "extract"),
    ("stages.keys", "keys_stage", "keys"),
    ("stages.pairs", "pairs_stage", "pairs"),
    ("stages.pairs", "_find_hot_keys", "pairs.hot_pass"),
    ("stages.score", "score_stage", "score"),
    ("stages.cluster", "dedup_edge_pairs", "cluster.dedup"),
    ("stages.cluster", "connected_components", "cluster.cc"),
    ("stages.cluster", "attach_singletons", "cluster.attach"),
    ("pipelines.join", "membership_join", "join.membership"),
    ("state.checkpoint", "CheckpointManager.load_or_compute", "checkpoint"),
]

LAYERS = ["extract", "keys", "pairs.hot_pass", "pairs", "score",
          "cluster.dedup", "cluster.cc", "cluster.attach", "checkpoint",
          "join.membership"]


def _is_dataset(x) -> bool:
    return hasattr(x, "materialize") and hasattr(x, "size_bytes")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "run": self.run_id,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "id": len(self.spans), "start": time.perf_counter(),
               "end": None, "instr_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def instrumentation(self):
        """Time spent here is charged to the enclosing span as
        instrumentation, not as its work."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self._stack:
                self._stack[-1]["instr_s"] += time.perf_counter() - t0

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                if _is_dataset(out):
                    out = out.materialize()
            with tracer.instrumentation():
                _describe(rec, out, args)
            return out

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(f"{PKG}.{mod_name}")
            owner, leaf = mod, attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(mod, cls)
            fn = getattr(owner, leaf)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _describe(rec: dict, out, args) -> None:
    """Rows, bytes and layer-specific counters of one span's output."""
    name = rec["name"]
    if _is_dataset(out):
        rec["rows"] = out.count()
        rec["bytes"] = out.size_bytes()
    if name == "pairs.hot_pass":
        rec["hot_keys"] = len(out)
    elif name == "pairs" and rec["rows"]:
        capped = (out.filter(expr="dropped_pairs > 0")
                  .select_columns(["block_key", "dropped_pairs"]).to_pandas())
        rec["dropped_pairs"] = int(capped.drop_duplicates("block_key")
                                   ["dropped_pairs"].sum())
    elif name == "score":
        rec["accepted"] = out.filter(expr="accepted == True").count()
    elif name == "checkpoint":
        mgr, stage = args[0], args[1]
        rec["stage"] = stage
        rec["hit"] = bool(out[1])
        rec["bytes_written"] = 0 if out[1] else _dir_bytes(
            mgr._data_path(stage))


def summarize(spans: list[dict], root_id: int) -> dict:
    """Per-layer metrics of one traced call rooted at span ``root_id``."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_s(s):
        return dur(s) - sum(dur(c) for c in kids.get(s["id"], [])) \
            - s["instr_s"]

    tree, frontier = [], [root_id]
    while frontier:
        sid = frontier.pop()
        tree.append(spans[sid])
        frontier.extend(c["id"] for c in kids.get(sid, []))
    root = spans[root_id]
    total = dur(root) - sum(s["instr_s"] for s in tree)

    by = {layer: [s for s in tree if s["name"] == layer] for layer in LAYERS}

    def tot(layer, key):
        return float(sum(s.get(key, 0) for s in by[layer]))

    m = {f"{layer}.s": sum(self_s(s) for s in by[layer])
         for layer in LAYERS}
    for layer in ("extract", "keys", "pairs"):
        m[f"{layer}.rows_out"] = tot(layer, "rows")
        m[f"{layer}.bytes_out"] = tot(layer, "bytes")
    m["pairs.hot_keys"] = tot("pairs.hot_pass", "hot_keys")
    m["pairs.dropped_pairs"] = tot("pairs", "dropped_pairs")
    scored, accepted = tot("score", "rows"), tot("score", "accepted")
    m["score.rows_in"] = scored
    m["score.pairs_per_s"] = scored / m["score.s"] if m["score.s"] else 0.0
    m["score.accept_ratio"] = accepted / scored if scored else 0.0
    m["cluster.dedup.ratio"] = (tot("cluster.dedup", "rows") / accepted
                                if accepted else 0.0)
    m["cluster.cc.nodes"] = tot("cluster.cc", "rows")
    m["checkpoint.bytes_written"] = tot("checkpoint", "bytes_written")
    root_self = self_s(root)
    incremental = root["name"] == "incremental"
    m["incremental.self_s"] = root_self if incremental else 0.0
    m["linkage.self_s"] = 0.0 if incremental else root_self
    generated = tot("pairs", "rows")
    m["incremental.new_side_ratio"] = (scored / generated
                                       if incremental and generated else 0.0)
    m["trace.total_s"] = total

    def net(s):
        return self_s(s) + sum(net(c) for c in kids.get(s["id"], []))

    m["trace.top_level_s"] = sum(net(s) for s in kids.get(root_id, []))
    return m


# ── kernel microbenches on a workload's own pages ──

def _rate(fn, n: int, min_s: float = 0.3) -> float:
    times, t_all = [], time.perf_counter()
    while len(times) < 3 or time.perf_counter() - t_all < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return n / statistics.median(times)


def kernel_rates(pages, truth) -> dict:
    """rows/s of the hot kernels over ``pages`` (a pyarrow Table slice
    of the workload's input) paired by ``truth`` cluster ids."""
    import numpy as np

    from address_address_matching_ray.config import PipelineConfig
    from address_address_matching_ray.functions import fuzzy, scoring
    from address_address_matching_ray.functions.minhash import (
        MinHasher, shingles,
    )
    from address_address_matching_ray.functions.parse import parse_components
    from address_address_matching_ray.stages.extract import (
        extract_address, extract_parse, extract_text_series,
    )

    cfg = PipelineConfig()
    n = pages.num_rows
    htmls = pages["html"].to_pylist()
    texts = extract_text_series(htmls)
    addrs = [extract_address(t) for t in texts]
    ext = extract_parse(pages)
    col = {c: np.asarray(ext[c].to_pylist(), dtype=object)
           for c in ("norm_addr", "house", "street_name", "street_type",
                     "unit", "city", "state", "zip")}
    # partner = next page of the same planted cluster, else the next page
    order = np.lexsort((np.arange(n), truth))
    partner = np.empty(n, dtype=np.int64)
    same = truth[order][1:] == truth[order][:-1]
    partner[order[:-1]] = np.where(same, order[1:], (order[:-1] + 1) % n)
    partner[order[-1]] = (order[-1] + 1) % n
    street = np.array([" ".join(p for p in (a, b) if p) for a, b in
                       zip(col["street_name"], col["street_type"])],
                      dtype=object)
    q = {"street": street, "house": col["house"], "unit": col["unit"],
         "city": col["city"], "state": col["state"], "zip": col["zip"]}
    r = {"street_name": col["street_name"][partner],
         "street_type": col["street_type"][partner],
         "predir": np.full(n, "", dtype=object),
         **{k: col[k][partner] for k in
            ("house", "unit", "city", "state", "zip")}}
    hasher = MinHasher(cfg.minhash_perms, cfg.seed)
    toks = [shingles(t.lower().split(), cfg.shingle_size) for t in texts]
    l_na, r_na = col["norm_addr"], col["norm_addr"][partner]
    return {
        "extract.text.rows_per_s": _rate(
            lambda: extract_text_series(htmls), n),
        "functions.parse.rows_per_s": _rate(
            lambda: [parse_components(a) for a in addrs], n),
        "functions.minhash.docs_per_s": _rate(
            lambda: hasher.batch_signatures(toks), n),
        "functions.fuzzy.ratio_pairs_per_s": _rate(
            lambda: fuzzy.batch_ratio(l_na, r_na), n),
        "functions.scoring.pairs_per_s": _rate(
            lambda: scoring.component_scores(q, r), n),
    }
