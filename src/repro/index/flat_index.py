"""Three-level minimizer index of a genome graph (paper Fig. 6).

The index maps minimizer hash values to their exact-match locations in
the graph's nodes.  :class:`FlatIndex` stores it as six contiguous
numpy arrays mirroring the paper's three levels:

1. **Buckets** — ``bucket_starts`` (one entry per bucket plus a
   sentinel, 4 B each): a minimizer hash is assigned to bucket
   ``hash & (2^bucket_bits - 1)``, and bucket ``b`` owns minimizer rows
   ``[bucket_starts[b], bucket_starts[b+1])``.
2. **Minimizers** — ``min_hash`` / ``min_loc_start`` / ``min_loc_count``
   (8 + 4 + 4 B per distinct minimizer, the paper's 12 B rows widened
   to a 64-bit hash): rows are sorted by ``(bucket, hash)``, so a
   query binary-searches its bucket's slice.
3. **Seed locations** — ``loc_node`` / ``loc_offset`` (4 + 4 B per
   location): each row's locations are contiguous and sorted by
   ``(node, offset)``.

The bucket count trades memory footprint against hash collisions
(minimizers per bucket — more collisions mean more memory lookups per
query); the paper's Fig. 7 sweeps it and settles on 2^24 for the human
genome.  :meth:`FlatIndex.layout` reproduces both curves for any
bucket width, using the paper's per-entry sizes below.

Because the arrays are contiguous and position-independent they can be
written to disk verbatim and attached read-only via ``mmap``
(:mod:`repro.io.artifact`): loading an index costs milliseconds
instead of a full rebuild, and N worker processes share one physical
copy of the pages.
"""

from __future__ import annotations

import math
import multiprocessing
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.index.minimizer import Scoring, minimizers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.genome_graph import GenomeGraph

#: Bytes per first-level bucket entry (paper Section 5).
BUCKET_ENTRY_BYTES = 4

#: Bytes per second-level minimizer entry (paper Section 5).
MINIMIZER_ENTRY_BYTES = 12

#: Bytes per third-level seed-location entry (paper Section 5).
LOCATION_ENTRY_BYTES = 8


@dataclass(frozen=True, order=True)
class SeedHit:
    """One seed location: a node ID and the offset within that node."""

    node_id: int
    offset: int


@dataclass(frozen=True)
class IndexLayout:
    """Memory-footprint view of the index at a given bucket width.

    Reproduces the two series of paper Fig. 7: the total footprint and
    the maximum number of minimizers falling into one bucket.
    """

    bucket_bits: int
    distinct_minimizers: int
    total_locations: int
    max_minimizers_per_bucket: int
    max_locations_per_minimizer: int

    @property
    def bucket_count(self) -> int:
        return 1 << self.bucket_bits

    @property
    def first_level_bytes(self) -> int:
        return self.bucket_count * BUCKET_ENTRY_BYTES

    @property
    def second_level_bytes(self) -> int:
        return self.distinct_minimizers * MINIMIZER_ENTRY_BYTES

    @property
    def third_level_bytes(self) -> int:
        return self.total_locations * LOCATION_ENTRY_BYTES

    @property
    def total_bytes(self) -> int:
        return (self.first_level_bytes + self.second_level_bytes
                + self.third_level_bytes)


@dataclass(frozen=True)
class LookupCost:
    """Memory-access accounting for one index query.

    The hardware model charges one main-memory access for the bucket
    probe, one per minimizer entry scanned within the bucket, and one
    per seed location fetched (paper Section 8.1's frequency and seed
    lookups).
    """

    bucket_probe: int
    minimizers_scanned: int
    locations_fetched: int

    @property
    def total_accesses(self) -> int:
        return self.bucket_probe + self.minimizers_scanned \
            + self.locations_fetched


class FlatIndex:
    """Array-backed three-level minimizer index.

    Arrays may be owned (freshly built) or borrowed read-only views
    into a memory-mapped artifact — queries never write to them.
    """

    def __init__(
        self,
        bucket_starts: np.ndarray,
        min_hash: np.ndarray,
        min_loc_start: np.ndarray,
        min_loc_count: np.ndarray,
        loc_node: np.ndarray,
        loc_offset: np.ndarray,
        w: int,
        k: int,
        bucket_bits: int,
        scoring: Scoring = "hash",
    ) -> None:
        if bucket_bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bucket_bits}")
        if len(bucket_starts) != (1 << bucket_bits) + 1:
            raise ValueError(
                f"bucket_starts has {len(bucket_starts)} entries, "
                f"expected 2^{bucket_bits} + 1"
            )
        self.w = w
        self.k = k
        self.bucket_bits = bucket_bits
        self.scoring = scoring
        self.bucket_starts = bucket_starts
        self.min_hash = min_hash
        self.min_loc_start = min_loc_start
        self.min_loc_count = min_loc_count
        self.loc_node = loc_node
        self.loc_offset = loc_offset
        self._mask = (1 << bucket_bits) - 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_occurrences(
        cls,
        hashes: np.ndarray,
        nodes: np.ndarray,
        offsets: np.ndarray,
        w: int,
        k: int,
        bucket_bits: int,
        scoring: Scoring = "hash",
    ) -> "FlatIndex":
        """Build the three levels from raw (hash, node, offset) triples.

        One vectorized lexsort by ``(bucket, hash, node, offset)``
        produces the paper's layout in one pass: equal hashes become
        one minimizer row whose locations are already contiguous and
        sorted, and the per-bucket row counts prefix-sum into the
        bucket directory.
        """
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        nodes = np.ascontiguousarray(nodes, dtype=np.uint32)
        offsets = np.ascontiguousarray(offsets, dtype=np.uint32)
        bucket_count = 1 << bucket_bits
        if len(hashes) == 0:
            empty32 = np.zeros(0, dtype=np.uint32)
            return cls(
                bucket_starts=np.zeros(bucket_count + 1, dtype=np.uint32),
                min_hash=np.zeros(0, dtype=np.uint64),
                min_loc_start=empty32, min_loc_count=empty32,
                loc_node=empty32, loc_offset=empty32.copy(),
                w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
            )
        buckets = hashes & np.uint64(bucket_count - 1)
        order = np.lexsort((offsets, nodes, hashes, buckets))
        hashes, nodes, offsets = hashes[order], nodes[order], offsets[order]
        is_first = np.empty(len(hashes), dtype=bool)
        is_first[0] = True
        np.not_equal(hashes[1:], hashes[:-1], out=is_first[1:])
        loc_start = np.flatnonzero(is_first).astype(np.uint32)
        loc_count = np.diff(
            np.append(loc_start, np.uint32(len(hashes)))
        ).astype(np.uint32)
        min_hash = hashes[is_first]
        row_buckets = (min_hash & np.uint64(bucket_count - 1)) \
            .astype(np.int64)
        counts = np.bincount(row_buckets, minlength=bucket_count)
        bucket_starts = np.zeros(bucket_count + 1, dtype=np.uint32)
        np.cumsum(counts, out=bucket_starts[1:])
        return cls(
            bucket_starts=bucket_starts,
            min_hash=np.ascontiguousarray(min_hash),
            min_loc_start=loc_start, min_loc_count=loc_count,
            loc_node=np.ascontiguousarray(nodes),
            loc_offset=np.ascontiguousarray(offsets),
            w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def probe(self, hash_value: int) -> tuple[LookupCost, int]:
        """One binary search of the hash's bucket.

        Returns the memory accesses a hardware query would issue and
        the hash's minimizer row (-1 when absent).  The cost charges
        the paper's linear in-bucket scan — up to and including the
        first row whose hash is >= the query — plus one access per
        location, so ``cost.locations_fetched`` is the frequency.
        Every other query answers from this one search.
        """
        bucket = hash_value & self._mask
        lo = self.bucket_starts.item(bucket)
        hi = self.bucket_starts.item(bucket + 1)
        # Buckets hold a handful of rows: a list bisect beats numpy's
        # per-call overhead.
        rows = self.min_hash[lo:hi].tolist()
        position = bisect_left(rows, hash_value)
        scanned = min(position + 1, hi - lo)
        if position < len(rows) and rows[position] == hash_value:
            row = lo + position
            return LookupCost(1, scanned, self.min_loc_count.item(row)), row
        return LookupCost(1, scanned, 0), -1

    def row_locations(self, row: int) -> list[tuple[int, int]]:
        """``(node, offset)`` seed locations of a minimizer row from
        :meth:`probe`, sorted; empty for row -1."""
        if row < 0:
            return []
        start = self.min_loc_start.item(row)
        stop = start + self.min_loc_count.item(row)
        return list(zip(self.loc_node[start:stop].tolist(),
                        self.loc_offset[start:stop].tolist()))

    def frequency(self, hash_value: int) -> int:
        """Occurrence count of a minimizer (0 when absent).

        This is MinSeed's first memory round trip per minimizer
        (step 3 in paper Fig. 4): fetch the frequency, then decide
        whether to fetch the locations at all.
        """
        return self.probe(hash_value)[0].locations_fetched

    def lookup(self, hash_value: int) -> tuple[SeedHit, ...]:
        """All seed locations of a minimizer (step 5 in paper Fig. 4)."""
        row = self.probe(hash_value)[1]
        return tuple(SeedHit(node_id=node, offset=offset)
                     for node, offset in self.row_locations(row))

    def lookup_cost(self, hash_value: int) -> LookupCost:
        """Memory accesses a hardware query would issue for this hash."""
        return self.probe(hash_value)[0]

    # ------------------------------------------------------------------
    # Statistics / layout
    # ------------------------------------------------------------------

    @property
    def distinct_minimizers(self) -> int:
        return len(self.min_hash)

    @property
    def total_locations(self) -> int:
        return len(self.loc_node)

    def frequencies(self) -> list[int]:
        """Occurrence counts of all distinct minimizers."""
        return self.min_loc_count.tolist()

    def layout(self, bucket_bits: int | None = None) -> IndexLayout:
        """Compute the Fig. 7 footprint curves for a bucket width."""
        bits = self.bucket_bits if bucket_bits is None else bucket_bits
        if bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bits}")
        if len(self.min_hash):
            buckets = (self.min_hash
                       & np.uint64((1 << bits) - 1)).astype(np.int64)
            max_per_bucket = int(np.bincount(buckets).max())
            max_locations = int(self.min_loc_count.max())
        else:
            max_per_bucket = 0
            max_locations = 0
        return IndexLayout(
            bucket_bits=bits,
            distinct_minimizers=self.distinct_minimizers,
            total_locations=self.total_locations,
            max_minimizers_per_bucket=max_per_bucket,
            max_locations_per_minimizer=max_locations,
        )

    def __repr__(self) -> str:
        return (f"FlatIndex(<w={self.w},k={self.k}>, "
                f"2^{self.bucket_bits} buckets, "
                f"{self.distinct_minimizers} minimizers, "
                f"{self.total_locations} locations)")


# ----------------------------------------------------------------------
# Construction by scanning a graph (optionally sharded per contig)
# ----------------------------------------------------------------------

def scan_minimizer_occurrences(
    graph: "GenomeGraph",
    w: int,
    k: int,
    scoring: Scoring = "hash",
    node_lo: int = 0,
    node_hi: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hash, node, offset) triples of nodes ``[node_lo, node_hi)``.

    Minimizers are computed *within* node sequences, so ranges
    partition cleanly and nodes shorter than ``k`` contribute none.
    """
    if node_hi is None:
        node_hi = graph.node_count
    hashes: list[int] = []
    nodes: list[int] = []
    offsets: list[int] = []
    for node_id in range(node_lo, node_hi):
        for minimizer in minimizers(graph.sequence_of(node_id),
                                    w=w, k=k, scoring=scoring):
            hashes.append(minimizer.score)
            nodes.append(node_id)
            offsets.append(minimizer.position)
    return (np.asarray(hashes, dtype=np.uint64),
            np.asarray(nodes, dtype=np.uint32),
            np.asarray(offsets, dtype=np.uint32))


_SCAN_STATE: "tuple | None" = None


def _scan_worker_init(graph, w: int, k: int, scoring: Scoring) -> None:
    global _SCAN_STATE
    # Per-process cache by design: each scan worker installs its own
    # arguments once at pool start; nothing reads this parent-side.
    _SCAN_STATE = (graph, w, k, scoring)  # repro: allow[fork-safety]


def _scan_worker_run(node_range: tuple[int, int]):
    graph, w, k, scoring = _SCAN_STATE
    return scan_minimizer_occurrences(graph, w, k, scoring,
                                      node_lo=node_range[0],
                                      node_hi=node_range[1])


def _split_ranges(ranges: Sequence[tuple[int, int]],
                  pieces: int) -> list[tuple[int, int]]:
    """Subdivide node ranges into ~``pieces`` same-size chunks.

    Contig boundaries are respected (a chunk never spans two input
    ranges), so per-contig construction shards stay per-contig.
    """
    total = sum(hi - lo for lo, hi in ranges)
    if total == 0:
        return [r for r in ranges if r[1] > r[0]]
    target = max(1, math.ceil(total / max(1, pieces)))
    chunks: list[tuple[int, int]] = []
    for lo, hi in ranges:
        start = lo
        while start < hi:
            stop = min(hi, start + target)
            chunks.append((start, stop))
            start = stop
    return chunks


def build_index(
    graph: "GenomeGraph",
    w: int = 10,
    k: int = 15,
    bucket_bits: int = 14,
    scoring: Scoring = "hash",
    jobs: int = 1,
    node_ranges: Iterable[tuple[int, int]] | None = None,
) -> FlatIndex:
    """Index the ``<w,k>``-minimizers of every node sequence of a graph.

    Minimizers are computed *within* node sequences (the paper indexes
    "the minimizers' exact matching locations in the graphs' nodes",
    Section 5); seeds spanning node boundaries are not indexed, which
    is why variation-dense regions rely on the alignment step's
    tolerance.  Defaults follow minimap2's short-read-profile
    ``<w,k>`` with a scaled-down bucket width; the paper uses 2^24
    buckets for the 3.1 Gbp human genome, and the Fig. 7 benchmark
    sweeps this parameter.

    ``node_ranges`` (half-open, e.g. the per-contig node ranges of a
    :class:`~repro.refs.ReferenceSet`) shards the scan; with
    ``jobs > 1`` and a ``fork``-capable platform the shards run in
    parallel worker processes (the graph is shared copy-on-write) and
    their occurrence arrays are merged by the same global sort the
    sequential path uses — the result is identical for any sharding.
    """
    ranges = list(node_ranges) if node_ranges is not None \
        else [(0, graph.node_count)]
    jobs = max(1, jobs)
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        jobs = 1
    chunks = _split_ranges(ranges, jobs * 2 if jobs > 1 else 1)
    if jobs == 1 or len(chunks) <= 1:
        parts = [scan_minimizer_occurrences(graph, w, k, scoring, lo, hi)
                 for lo, hi in chunks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(chunks)),
                      initializer=_scan_worker_init,
                      initargs=(graph, w, k, scoring)) as pool:
            parts = pool.map(_scan_worker_run, chunks)
    if parts:
        hashes = np.concatenate([p[0] for p in parts])
        nodes = np.concatenate([p[1] for p in parts])
        offsets = np.concatenate([p[2] for p in parts])
    else:
        hashes = np.zeros(0, dtype=np.uint64)
        nodes = np.zeros(0, dtype=np.uint32)
        offsets = np.zeros(0, dtype=np.uint32)
    return FlatIndex.from_occurrences(
        hashes, nodes, offsets,
        w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
    )
