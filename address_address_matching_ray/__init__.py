"""Ray-Data-native record-linkage (entity-resolution) engine.

A from-scratch re-expression of the reference address-matching system
(``TAIntern/Address_Address_matching``, see ``SURVEY.md``) as idiomatic
Ray Data pipelines over zero-copy Arrow blocks:

- deterministic text extraction + normalization (stateless ``map_batches``)
- blocking via canonical-URL keys, exact composite keys and MinHash-LSH
  bands materialized as a salted ``groupby`` shuffle (no search service)
- tiered pairwise scoring (exact-hash short-circuit -> Indel/token-sort
  fuzzy -> token Jaccard) in tasks over per-worker cached scorers
- transitive clustering via iterative hash-partitioned label propagation
- per-partition checkpoints + lineage metadata for resumable re-runs

Subpackages:
    functions/  pure, vectorized kernels (normalize, fuzzy, parse, minhash, ...)
    stages/     Dataset stage callables (extract, keys, pairs, score, cluster)
    sources/    readers + deterministic synthetic pages generator
    pipelines/  end-to-end pipelines (linkage, dedup, text analysis, ANN, ...)
    state/      checkpoint / lineage / metrics
"""

from address_address_matching_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"
