"""Indexing substrate: minimizers and the flat three-level graph index.

Implements the paper's second pre-processing step (Section 5): the
three-level index (buckets -> minimizers -> seed locations, Fig. 6)
over ``<w,k>``-minimizers of the graph's node sequences, stored as
flat arrays (:class:`FlatIndex`), plus the per-chromosome
occurrence-frequency filter of Section 6.
"""

from repro.index.minimizer import (
    Minimizer,
    brute_force_minimizers,
    kmer_at,
    minimizers,
)
from repro.index.flat_index import (
    FlatIndex,
    IndexLayout,
    SeedHit,
    build_index,
)
from repro.index.occurrence import frequency_threshold

__all__ = [
    "Minimizer",
    "minimizers",
    "brute_force_minimizers",
    "kmer_at",
    "FlatIndex",
    "IndexLayout",
    "SeedHit",
    "build_index",
    "frequency_threshold",
]
