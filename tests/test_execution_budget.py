"""Ray Data executions per call of the two flagship entry points.

Each start of a Ray Data execution costs tens of milliseconds of fixed
overhead, which on delta-sized inputs outweighs the work itself.  These
tests pin how many executions one call starts, so a hidden re-run (a
lazy ``schema()`` probe, a second pull of the same plan, a separate
pass over a table one task already holds) shows up as a failure.
"""

import pyarrow as pa
import pytest

from address_address_matching_ray.pipelines.incremental import (
    incremental_linkage,
)
from address_address_matching_ray.pipelines.linkage import run_linkage
from address_address_matching_ray.sources.synth import synth_pages


@pytest.fixture
def executions(monkeypatch):
    """A list that grows by one per ``StreamingExecutor.execute`` call."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    real = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return calls


def _parity(ds, want: int):
    def f(t: pa.Table, want=want) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array((ids % 2) == want))

    return ds.map_batches(f, batch_format="pyarrow")


def test_run_linkage_execution_budget(ray_session, executions):
    """Pinned ``run_linkage`` with ``doc_universe`` starts 4 executions:
    keys, edges, the CC edge materialize and clusters.  It used to start
    9: a ``keys_stage`` schema probe that re-ran extract, pass 0 as its
    own execution, two executions for the CC driver pull of an already
    materialized edge list, and one for the singleton attach's pull of
    the CC labels."""
    pages = synth_pages(400, seed=3)
    universe = synth_pages(400, seed=3).select_columns(["doc_id"])
    res = run_linkage(pages, buckets=8, num_partitions=4,
                      doc_universe=universe)
    assert res.clusters.count() == 400
    assert len(executions) == 4, len(executions)


def test_checkpointed_run_linkage_execution_budget(ray_session, executions,
                                                   tmp_path):
    """``run_linkage`` through a checkpoint root, with the extracted
    checkpoint as the singleton universe, up to the caller's clusters
    count starts 5 executions: the extracted, keys, edges (pairs and
    scoring) and clusters writes, and the CC edge materialize.  The
    clusters count reads Parquet footers.  Reading only the columns CC
    and the singleton attach use adds no execution."""
    res = run_linkage(synth_pages(400, seed=3), buckets=8, num_partitions=4,
                      checkpoint_root=str(tmp_path / "ckpt"), input_fp="n400s3")
    assert res.clusters.count() == 400
    assert len(executions) == 5, len(executions)


def test_incremental_execution_budget(ray_session, executions):
    """An absorb below the broadcast gate, up to its materialized
    clusters, starts 9 executions: the new-universe count, new keys,
    the new-key hash pull, the union keys, the new-id pull, the scored
    delta edges, the accepted-edge pull, the prior-label pass and the
    final clusters.  It used to start 17: the schema probe and pass 0
    as above, and after scoring eight delta-sized executions where two
    now run (the slim-edge materialize; the old-endpoint semi-join's
    count, pull and filter; CC's materialize and double pull; the new
    docs' singleton attach)."""
    prior = run_linkage(_parity(synth_pages(400, seed=23), 0), buckets=8,
                        num_partitions=4)
    prior_clusters = prior.clusters.materialize()
    executions.clear()
    res = incremental_linkage(_parity(synth_pages(400, seed=23), 1),
                              prior_clusters,
                              prior_extracted_ds=prior.extracted,
                              buckets=8, num_partitions=4)
    assert res.clusters.materialize().count() == 400
    assert res.merged_labels.count() > 0
    assert len(executions) == 9, len(executions)
