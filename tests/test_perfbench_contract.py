"""The benchmark's hold on the package, checked without Ray.

``perfbench/spans.py`` resolves its traced stage functions by name and
``perfbench/run.py`` calls the flagship pipelines by keyword; renaming
or deleting either side would only surface as a failed benchmark run.
These tests read ``perfbench/`` (never edit it) and fail fast instead.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _pipeline_calls(name: str) -> list[ast.Call]:
    """Every call to ``name`` in perfbench/run.py."""
    with open(os.path.join(PERFBENCH, "run.py")) as f:
        tree = ast.parse(f.read())
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def test_span_targets_resolve_to_callables():
    spans = _spans()
    assert spans.TARGETS
    for mod_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PKG}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


@pytest.mark.parametrize("module,name,required", [
    ("pipelines.linkage", "run_linkage",
     {"buckets", "num_partitions", "doc_universe", "checkpoint_root",
      "input_fp", "approx_rows"}),
    ("pipelines.incremental", "incremental_linkage",
     {"prior_keys_ds", "new_universe", "buckets", "num_partitions"}),
])
def test_pipeline_signatures_accept_perfbench_calls(module, name, required):
    fn = getattr(importlib.import_module(
        f"address_address_matching_ray.{module}"), name)
    sig = inspect.signature(fn)
    calls = _pipeline_calls(name)
    assert calls, f"perfbench/run.py no longer calls {name}"
    used = set()
    for call in calls:
        kws = [k.arg for k in call.keywords]
        used.update(kws)
        sig.bind(*[None] * len(call.args), **dict.fromkeys(kws))
    assert required <= used, required - used


def test_kernel_rates_run_on_a_synth_slice():
    """``spans.kernel_rates`` calls the hot kernels by their call shape
    (``scoring.component_scores(q, r)`` among them); on a 32-page
    ``sources.synth`` slice every rate must come out positive."""
    import numpy as np

    from address_address_matching_ray.sources.synth import (
        pages_batch, truth_batch,
    )

    ids = np.arange(32)
    truth = truth_batch(ids, 1)["cluster_id"].to_numpy().astype(np.int64)
    rates = _spans().kernel_rates(pages_batch(ids, 1), truth)
    assert set(rates) == {
        "extract.text.rows_per_s", "functions.parse.rows_per_s",
        "functions.minhash.docs_per_s", "functions.fuzzy.ratio_pairs_per_s",
        "functions.scoring.pairs_per_s"}
    assert all(v > 0 for v in rates.values()), rates
