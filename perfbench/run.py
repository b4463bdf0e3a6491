"""Benchmark of the flagship linkage engine on one core.

    python3 perfbench/run.py --workload link_skew --seed 1 --seconds 8 --trace 0

Run from the repository root.  Workloads (README.md has the details):

- ``link_skew``    run_linkage, pinned path, heavy-tailed clusters
- ``link_spill``   run_linkage through a fresh checkpoint root per call,
                   on link_skew's corpus
- ``absorb_delta`` incremental_linkage of a 5% delta into a prior
- ``link_crawl``   run_linkage, pinned path, default synthetic crawl
                   (runnable by hand; not in BENCHMARK.json)

Each timed call is checked: every input doc_id labelled exactly once, a
label digest equal across calls and runs (and between link_skew and
link_spill), absorb_delta equal to a full re-link, and pairwise
precision and recall against the planted truth.  ``--trace 1`` times
each layer from outside the package (spans.py) and runs the kernel
microbenches instead of reporting the end-to-end metrics.

The last line of stdout is one JSON object; lines before it starting
with ``#`` are diagnostics (per-call wall time, CPU steal, RSS).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

T_PROCESS = time.perf_counter()

PKG = "address_address_matching_ray"
CORES = 1                   # the workloads are sized for one core
OBJECT_STORE_BYTES = 768 * 2**20
SETUPS = 2                  # setup_s is the median of this many setups
MIN_CALLS = 2
DEADLINE_S = 140            # start no call past this point
ALARM_S = 155               # abort a hung run (cleanup may take 15 s)
RECALL_FLOOR = 0.995
PRECISION_FLOOR = 0.98
WORKLOADS = {  # name -> corpus; link_crawl is not in BENCHMARK.json
    "link_crawl": "crawl",
    "link_skew": "skew",
    "link_spill": "skew",
    "absorb_delta": "crawl",
}
BUCKETS = max(4 * CORES, 32)       # bench.py's formulas at this core count
PARTITIONS = max(CORES, 8)


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def ray_temp_dir(work: str) -> str:
    """Ray's session directory: inside the checkout when the path is
    short enough for Ray's unix sockets (107 bytes with the ~62-byte
    session suffix), otherwise a private temp dir.  Removed at exit."""
    d = os.path.join(work, f"rt{os.getpid()}")
    if len(d) <= 44:
        os.makedirs(d, exist_ok=True)
        return d
    return tempfile.mkdtemp(prefix="pbrt")


def label_digest(doc: "np.ndarray", cid: "np.ndarray") -> str:
    import numpy as np

    order = np.argsort(doc, kind="stable")
    pairs = np.stack([doc[order], cid[order]], axis=1).astype("<u8")
    return hashlib.sha256(pairs.tobytes()).hexdigest()


def pairwise_quality(pred: "np.ndarray", truth: "np.ndarray"
                     ) -> tuple[float, float]:
    """Pairwise precision and recall from a contingency table."""
    import pandas as pd

    def n_pairs(sizes) -> int:
        s = sizes.to_numpy(dtype="int64")
        return int((s * (s - 1) // 2).sum())

    df = pd.DataFrame({"p": pred, "t": truth})
    tp = n_pairs(df.groupby(["p", "t"]).size())
    pp = n_pairs(df.groupby("p").size())
    tt = n_pairs(df.groupby("t").size())
    return (tp / pp if pp else 1.0), (tp / tt if tt else 1.0)


class Bench:
    def __init__(self, args, import_s: float):
        self.args = args
        self.import_s = import_s
        self.root = os.getcwd()
        self.work = os.path.join(self.root, ".perfbench")
        self.cache = os.path.join(self.work, "cache")
        self.corpus = WORKLOADS[args.workload]
        self.ray_dir = None
        self.tracked: dict[int, int] = {}
        self.ckpt_dirs: list[str] = []

    # ── Ray lifecycle ──

    def ray_start(self) -> None:
        import ray
        import ray.data as rd

        if self.ray_dir is None:
            self.ray_dir = ray_temp_dir(self.work)
        ray.init(address="local", num_cpus=CORES,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.ray_dir)
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def ray_stop(self) -> None:
        import ray

        from procfs import descendants

        self.tracked.update(descendants())
        if ray.is_initialized():
            ray.shutdown()

    # ── inputs ──

    def prepare_raw(self) -> None:
        import inputs

        self.raw = inputs.raw_dir(self.cache, self.corpus, self.args.seed)
        self.derived = inputs.derived_dir(self.cache, self.corpus,
                                          self.args.seed)
        self.warm = os.path.join(self.raw, "warm.parquet")

    def prepare_derived(self) -> None:
        """Engine-derived expected state (needs Ray; untimed): the pinned
        label digest every workload on the corpus must reproduce (the
        first link_skew or link_crawl call defines it when absent), and
        absorb_delta's prior clusters and prior key table."""
        import inputs
        import ray.data as rd

        from address_address_matching_ray.pipelines.linkage import run_linkage
        from address_address_matching_ray.stages.extract import extract_stage
        from address_address_matching_ray.stages.keys import keys_stage

        name = self.args.workload
        if name in ("link_spill", "absorb_delta") and not os.path.exists(
                self.pinned_json()):
            _, doc, cid = self.pinned_call(os.path.join(self.raw, "pages"))
            inputs.save_json(self.pinned_json(),
                             {"digest": label_digest(doc, cid)})
        if name != "absorb_delta" or os.path.exists(
                os.path.join(self.derived, "prior_done")):
            return
        prior = os.path.join(self.raw, "prior")
        res = run_linkage(rd.read_parquet(prior), buckets=BUCKETS,
                          num_partitions=PARTITIONS,
                          doc_universe=rd.read_parquet(prior,
                                                       columns=["doc_id"]))
        for sub in ("prior_clusters", "prior_keys"):
            shutil.rmtree(os.path.join(self.derived, sub), ignore_errors=True)
        res.clusters.write_parquet(os.path.join(self.derived,
                                                "prior_clusters"))
        keys_stage(extract_stage(rd.read_parquet(prior))).write_parquet(
            os.path.join(self.derived, "prior_keys"))
        open(os.path.join(self.derived, "prior_done"), "w").close()

    def pinned_json(self) -> str:
        return os.path.join(self.derived, "pinned.json")

    def load_expected(self) -> None:
        import numpy as np
        import pyarrow.parquet as pq

        import inputs

        truth = pq.read_table(os.path.join(self.raw, "truth.parquet"))
        self.doc_ids = truth["doc_id"].to_numpy().astype("uint64")
        self.truth = truth["cluster_id"].to_numpy()
        if not np.all(np.diff(self.doc_ids.astype(np.int64)) > 0):
            raise ValueError(f"{self.raw}: truth doc_ids not sorted unique")
        self.expected = (inputs.load_json(self.pinned_json())
                         or {}).get("digest")
        if self.args.workload == "absorb_delta":
            self.n_input = pq.ParquetDataset(
                os.path.join(self.raw, "delta")).read(
                    columns=["doc_id"]).num_rows
        else:
            self.n_input = len(self.doc_ids)

    def warm_up(self) -> None:
        """Miniature linkage over the corpus's first pages: starts the
        worker and pays the imports and first-use costs of every
        operator the timed calls run."""
        self.pinned_call(self.warm)

    # ── the timed calls ──

    def pinned_call(self, pages: str):
        import ray.data as rd

        from address_address_matching_ray.pipelines.linkage import run_linkage

        t0 = time.perf_counter()
        res = run_linkage(rd.read_parquet(pages), buckets=BUCKETS,
                          num_partitions=PARTITIONS,
                          doc_universe=rd.read_parquet(pages,
                                                       columns=["doc_id"]))
        return _finish(t0, res)

    def spill_call(self, pages: str, ckpt: str):
        import ray.data as rd

        from address_address_matching_ray.pipelines.linkage import run_linkage

        t0 = time.perf_counter()
        res = run_linkage(rd.read_parquet(pages), buckets=BUCKETS,
                          num_partitions=PARTITIONS, checkpoint_root=ckpt,
                          input_fp=f"perfbench-{self.args.seed}",
                          approx_rows=len(self.doc_ids))
        return _finish(t0, res)

    def absorb_call(self):
        import ray.data as rd

        from address_address_matching_ray.pipelines.incremental import (
            incremental_linkage,
        )

        delta = os.path.join(self.raw, "delta")
        t0 = time.perf_counter()
        res = incremental_linkage(
            rd.read_parquet(delta),
            rd.read_parquet(os.path.join(self.derived, "prior_clusters")),
            prior_keys_ds=rd.read_parquet(
                os.path.join(self.derived, "prior_keys")),
            new_universe=rd.read_parquet(delta, columns=["doc_id"]),
            buckets=BUCKETS, num_partitions=PARTITIONS)
        return _finish(t0, res)

    def call(self):
        name = self.args.workload
        pages = os.path.join(self.raw, "pages")
        if name == "absorb_delta":
            return self.absorb_call()
        if name == "link_spill":
            ckpt = os.path.join(self.work, f"ckpt{os.getpid()}")
            self.ckpt_dirs.append(ckpt)
            shutil.rmtree(ckpt, ignore_errors=True)
            try:
                return self.spill_call(pages, ckpt)
            finally:
                shutil.rmtree(ckpt, ignore_errors=True)
        return self.pinned_call(pages)

    def check(self, doc, cid) -> tuple[list[str], float, float]:
        import numpy as np

        import inputs

        problems = []
        order = np.argsort(doc, kind="stable")
        doc, cid = doc[order], cid[order]
        if len(doc) != len(self.doc_ids) or not np.array_equal(
                doc, self.doc_ids):
            problems.append(f"labelled {len(doc)} rows, "
                            f"{len(np.unique(doc))} distinct doc_ids; "
                            f"expected each of {len(self.doc_ids)} once")
            return problems, 0.0, 0.0
        digest = label_digest(doc, cid)
        if self.expected is None:
            # first call on this corpus and seed defines the reference
            inputs.save_json(self.pinned_json(), {"digest": digest})
            self.expected = digest
        elif digest != self.expected:
            problems.append(f"label digest {digest[:12]} != expected "
                            f"{self.expected[:12]}")
        precision, recall = pairwise_quality(cid, self.truth)
        if recall < RECALL_FLOOR:
            problems.append(f"recall {recall:.4f} < {RECALL_FLOOR}")
        if precision < PRECISION_FLOOR:
            problems.append(f"precision {precision:.4f} < {PRECISION_FLOOR}")
        return problems, precision, recall


def _finish(t0: float, res):
    """Stop the clock once the cluster table is materialized and counted;
    return (wall seconds, doc_ids, cluster_ids)."""
    import numpy as np

    clusters = res.clusters.materialize()
    clusters.count()
    wall = time.perf_counter() - t0
    t = clusters.to_pandas()
    return (wall, t["doc_id"].to_numpy(dtype=np.uint64),
            t["cluster_id"].to_numpy(dtype=np.uint64))


def timed_calls(bench: Bench, seconds: float, min_calls: int,
                tracer=None) -> list[dict]:
    """Repeat the workload's call until ``seconds`` have passed and at
    least ``min_calls`` calls ran, checking every call's output."""
    from procfs import (
        cpu_times, descendants, peak_rss_mb, reset_peak_rss, steal_share,
    )

    calls: list[dict] = []
    t_begin = time.perf_counter()
    while True:
        rec = {"ok": False}
        pids = descendants()
        reset_peak_rss(pids)
        cpu0 = cpu_times()
        root = None
        try:
            if tracer is not None:
                tracer.run_id = f"call{len(calls)}"
                root_name = ("incremental"
                             if bench.args.workload == "absorb_delta"
                             else "linkage")
                with tracer.span(root_name) as span:
                    root = span["id"]
                    wall, doc, cid = bench.call()
            else:
                wall, doc, cid = bench.call()
            rec["steal"] = steal_share(cpu0, cpu_times())
            pids = descendants()
            bench.tracked.update(pids)
            rec["rss_mb"] = peak_rss_mb(pids)
            rec["wall"] = wall
            problems, rec["precision"], rec["recall"] = bench.check(doc, cid)
            rec["clusters"] = len(set(cid.tolist()))
            rec["ok"] = not problems
            rec["problems"] = problems
            rec["root"] = root
        except Exception as e:  # a raising call is a failed operation
            traceback.print_exc()
            rec["problems"] = [f"{type(e).__name__}: {e}"]
        calls.append(rec)
        what = f"{bench.args.workload} {'traced ' if tracer else ''}call"
        if rec["ok"]:
            log(f"{what} {len(calls)}: {rec['wall']:.3f} s, "
                f"{bench.n_input / rec['wall']:.1f} pages/s, "
                f"peak RSS {rec['rss_mb']:.0f} MB, "
                f"steal {100 * rec['steal']:.1f}%")
        else:
            log(f"{what} {len(calls)} FAILED: "
                f"{'; '.join(rec['problems'])}")
        now = time.perf_counter()
        last = rec.get("wall", now - t_begin)
        if now - T_PROCESS + last > DEADLINE_S:
            break
        if len(calls) >= min_calls and now - t_begin >= seconds:
            break
    return calls


def run(bench: Bench) -> dict:
    args = bench.args
    t0 = time.perf_counter()
    bench.prepare_raw()
    gen_s = time.perf_counter() - t0
    # imports are paid once per process; each setup repeats the rest
    import_s = bench.import_s
    setups = []
    n_setups = SETUPS if not args.trace else 1
    try:
        for k in range(n_setups):
            if k:
                bench.ray_stop()
            t0 = time.perf_counter()
            bench.ray_start()
            t_init = time.perf_counter()
            bench.warm_up()
            t_prep = time.perf_counter()
            if k == 0:
                bench.prepare_derived()
            t_loaded = time.perf_counter()
            bench.load_expected()
            t1 = time.perf_counter()
            gen_s += t_loaded - t_prep
            setups.append(import_s + (t_prep - t0) + (t1 - t_loaded))
            log(f"setup {k}: {setups[-1]:.3f} s (imports {import_s:.3f}, "
                f"ray.init {t_init - t0:.3f}, warm-up {t_prep - t_init:.3f},"
                f" load {t1 - t_loaded:.3f})")
        log(f"gen_s {gen_s:.3f} (input generation and expected state; "
            f"not gated)")

        tracer = None
        if args.trace:
            import spans

            untraced = timed_calls(bench, 0, 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                calls = timed_calls(bench, 0, 1, tracer)
            finally:
                tracer.uninstall()
            calls = untraced + calls
        else:
            calls = timed_calls(bench, args.seconds, MIN_CALLS)
    finally:
        bench.ray_stop()

    ok = [c for c in calls if c["ok"]]
    result = {"correct": len(ok) == len(calls), "attempted": len(calls),
              "failed": len(calls) - len(ok), "metrics": {}}
    if not ok:
        return result
    if not args.trace:
        result["metrics"] = {
            "pages_per_s": statistics.median(
                bench.n_input / c["wall"] for c in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in ok),
            "pairwise_precision": ok[0]["precision"],
            "pairwise_recall": ok[0]["recall"],
        }
    else:
        import pyarrow.parquet as pq

        import spans

        untraced = [c["wall"] for c in ok if c["root"] is None]
        traced = [c for c in ok if c["root"] is not None]
        per = [spans.summarize(tracer.spans, c["root"]) for c in traced]
        m = {k: statistics.median(p[k] for p in per) for k in per[0]}
        m["trace.residue_s"] = m["trace.total_s"] - statistics.median(
            untraced)
        m["cluster.clusters"] = float(ok[-1]["clusters"])
        for p in per:
            log(f"trace: top-level spans {p['trace.top_level_s']:.3f} s + "
                f"self {p['linkage.self_s'] + p['incremental.self_s']:.3f} s"
                f" = traced total {p['trace.total_s']:.3f} s")
        sample = pq.ParquetDataset(os.path.join(bench.raw, "pages")).read()
        sample = sample.slice(0, 2048)
        truth = bench.truth[:sample.num_rows]
        m.update(spans.kernel_rates(sample, truth))
        out = os.path.join(bench.work, "spans",
                           f"{args.workload}-s{args.seed}-{os.getpid()}.jsonl")
        tracer.write(out)
        log(f"spans written to {os.path.relpath(out)}")
        del m["trace.top_level_s"]
        result["metrics"] = m
    # names and units as BENCHMARK.json declares them, which also checks
    # that the run produced exactly the declared set
    with open(os.path.join(bench.root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} differ from "
                           f"BENCHMARK.json's {sorted(units)}")
    result["metrics"] = {k: {"value": float(v), "unit": units[k]}
                         for k, v in sorted(result["metrics"].items())}
    return result


def cleanup(bench: Bench) -> list[str]:
    """Remove per-run temp dirs; return Ray processes that had to be
    killed (an empty list means a clean exit)."""
    from procfs import reap

    killed = reap(bench.tracked, bench.ray_dir or "\0")
    for d in bench.ckpt_dirs:
        shutil.rmtree(d, ignore_errors=True)
    if bench.ray_dir:
        shutil.rmtree(bench.ray_dir, ignore_errors=True)
    return killed


def _alarm(signum, frame):
    raise TimeoutError("benchmark deadline reached")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, PKG)):
        print(f"perfbench: no {PKG}/ in {root}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    os.environ["POLARS_MAX_THREADS"] = str(CORES)
    os.environ["OMP_NUM_THREADS"] = str(CORES)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root, here] + [p for p in os.environ.get("PYTHONPATH", "")
                        .split(os.pathsep) if p])
    sys.path[:0] = [root]
    if len(os.sched_getaffinity(0)) < CORES:
        print("perfbench: fewer usable cores than the workloads assume",
              file=sys.stderr)
        return 2
    import logging

    import numpy  # noqa: F401
    import pandas  # noqa: F401
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import address_address_matching_ray.pipelines.incremental  # noqa: F401
    import address_address_matching_ray.pipelines.linkage  # noqa: F401

    logging.getLogger("ray").setLevel(logging.ERROR)

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    bench = Bench(args, import_s=time.perf_counter() - T_PROCESS)
    try:
        result = run(bench)
    finally:
        signal.alarm(0)
        killed = cleanup(bench)
    if killed:
        print("perfbench: Ray processes survived shutdown and were killed:\n"
              + "\n".join(killed), file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
