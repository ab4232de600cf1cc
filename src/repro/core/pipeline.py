"""Staged mapping pipeline engine (software mirror of paper Fig. 2).

SeGraM's hardware is an explicit pipeline: MinSeed units produce
candidate regions that flow through queues into BitAlign units, with
per-stage scratchpads acting as caches (Sections 6-8).  This module
expresses the same decomposition in software.  Every oriented read
(forward and, optionally, reverse-complement) passes through three
per-read stages::

    seed -> filter/chain -> extract+linearize

then the *align* stage aligns the collected regions of a whole batch
of oriented reads through shared kernel dispatches, and a *select*
stage folds each read's per-orientation results into the final
:class:`~repro.core.mapper.MappingResult`.  Each stage reports typed
counters (items in/out, dropped, wall time) into a
:class:`PipelineStats` object, the software analogue of the paper's
per-unit utilization counters.

Two throughput features ride on the stage boundary:

* a **region cache** (:class:`RegionCache`) — an LRU memo of
  ``extract_region`` + ``linearize`` keyed by the **node range**
  ``(first_node, last_node, hop_limit)`` the span selects.
  ``extract_region`` includes partially-overlapping nodes whole, so
  every span selecting the same contiguous node range derives the
  identical subgraph — node-range keys are exact (bit-for-bit the
  same alignments) while also serving the *pair path*: the two mates
  of a fragment land an insert length apart, usually inside the same
  node range, so the second mate's extractions hit the entries the
  first mate warmed.  Extraction and linearization are the hot path
  of the pure-Python mapper; the cache plays the role of BitAlign's
  input scratchpad.  The pair driver can additionally **prefetch**
  the mate's expected insert-window span on a cache hit
  (:meth:`MappingPipeline.prefetch_span`), and its share of the
  traffic is reported separately (``pair_cache_hits`` /
  ``pair_cache_misses`` in :class:`PipelineStats`).
* a **worker pool** (:class:`PersistentPool`) — :func:`run_sharded`
  splits a read set into contiguous shards and maps them on worker
  processes, either forked from the parent (the index and a warm
  region cache are inherited copy-on-write) or attached to an
  ``.sgidx`` artifact by path; per-shard :class:`PipelineStats` are
  merged back into the parent's.

Batching, the cache and sharding change *when* work happens, never
*what* is computed: results are bit-for-bit those of mapping each
read alone.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import seq as seqmod
from repro.core.chaining import chain_regions
from repro.core.minseed import SeedRegion, SeedingStats
from repro.graph.linearize import LinearizedGraph, linearize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mapper import AlignmentCandidate, MappingResult, \
        SeGraM


#: Stage names in execution order (also the row order of stats tables).
STAGE_ORDER = ("seed", "filter", "extract", "align", "select")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class StageStats:
    """Counters for one pipeline stage.

    Attributes:
        name: stage name (one of :data:`STAGE_ORDER`).
        items_in: work items entering the stage (reads for ``seed`` and
            ``select``, regions for the middle stages).
        items_out: items surviving the stage.
        dropped: items discarded by the stage: regions cut by the
            filter cap or chaining; in ``extract``, regions collapsed
            into an earlier region of the same oriented read with the
            same cache key and anchor diagonal; in ``align``, distinct
            regions left unaligned by ``early_exit_distance`` (regions
            are aligned in rounds; those past the exit are extracted
            but never aligned).
        seconds: wall time spent inside the stage.
    """

    name: str
    items_in: int = 0
    items_out: int = 0
    dropped: int = 0
    seconds: float = 0.0

    def merge(self, other: "StageStats") -> None:
        self.items_in += other.items_in
        self.items_out += other.items_out
        self.dropped += other.dropped
        self.seconds += other.seconds


@dataclass
class PipelineStats:
    """Aggregate pipeline statistics over any number of reads.

    Mergeable (:meth:`merge`) so per-shard statistics from batch
    workers fold into one report, and picklable so they survive the
    ``multiprocessing`` result queue.
    """

    reads: int = 0
    reads_mapped: int = 0
    regions_seeded: int = 0
    regions_chained: int = 0
    #: Kept regions left after the extract stage collapses repeats of
    #: one (region, anchor diagonal) per oriented read — the align
    #: stage's work list.
    regions_distinct: int = 0
    regions_aligned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Region-cache traffic attributable to the *pair path*: lookups
    #: performed while mapping the second mate of a pair (a subset of
    #: ``cache_hits``/``cache_misses``).  The pair driver accounts
    #: these; single-end mapping leaves them at 0.
    pair_cache_hits: int = 0
    pair_cache_misses: int = 0
    #: Regions extracted ahead of need by the mate-window prefetch
    #: (not counted as misses — nothing looked them up yet).
    cache_prefetches: int = 0
    windows: int = 0
    rescues: int = 0
    #: Alignment-kernel dispatches: one per-window backend call or one
    #: batched multi-window call each count 1.  Unlike the result
    #: counters this *is* backend-dependent (batching shrinks it) —
    #: it measures dispatch work, never what is computed.
    align_calls: int = 0
    #: Windows that were served by a batched (multi-problem) kernel
    #: dispatch — 0 for backends without a batched kernel.
    align_windows_batched: int = 0
    #: Alignment-backend name the pipeline ran with (a configuration
    #: label, not a counter — results are backend-independent).
    backend: str = "python"
    seeding: SeedingStats = field(default_factory=SeedingStats)
    stages: "OrderedDict[str, StageStats]" = field(default_factory=OrderedDict)

    @classmethod
    def empty(cls) -> "PipelineStats":
        stats = cls()
        for name in STAGE_ORDER:
            stats.stages[name] = StageStats(name=name)
        return stats

    def stage(self, name: str) -> StageStats:
        if name not in self.stages:
            self.stages[name] = StageStats(name=name)
        return self.stages[name]

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def pair_cache_hit_rate(self) -> float:
        """Hit rate of the pair-path share of the cache traffic."""
        total = self.pair_cache_hits + self.pair_cache_misses
        return self.pair_cache_hits / total if total else 0.0

    def merge(self, other: "PipelineStats") -> None:
        # ``backend`` is a label: shards inherit the parent's pipeline
        # configuration, so keeping the receiver's value is exact.
        self.reads += other.reads
        self.reads_mapped += other.reads_mapped
        self.regions_seeded += other.regions_seeded
        self.regions_chained += other.regions_chained
        self.regions_distinct += other.regions_distinct
        self.regions_aligned += other.regions_aligned
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.pair_cache_hits += other.pair_cache_hits
        self.pair_cache_misses += other.pair_cache_misses
        self.cache_prefetches += other.cache_prefetches
        self.windows += other.windows
        self.rescues += other.rescues
        self.align_calls += other.align_calls
        self.align_windows_batched += other.align_windows_batched
        self.seeding.merge(other.seeding)
        for name, stage in other.stages.items():
            self.stage(name).merge(stage)

    def stage_rows(self) -> list[dict]:
        """Rows for :func:`repro.eval.report.format_table`.

        The ``calls`` / ``batched`` columns surface kernel-dispatch
        counts on the align row (blank elsewhere): ``calls`` counts
        backend dispatches, ``batched`` the windows that shared one.
        """
        return [
            {"stage": s.name, "in": s.items_in, "out": s.items_out,
             "dropped": s.dropped,
             "calls": self.align_calls if s.name == "align" else None,
             "batched": self.align_windows_batched
             if s.name == "align" else None,
             "seconds": round(s.seconds, 4)}
            for s in self.stages.values()
        ]

    def summary_lines(self) -> list[str]:
        """Human-readable roll-up printed by ``python -m repro map``."""
        return [
            f"reads: {self.reads} total, {self.reads_mapped} mapped",
            f"regions: {self.regions_seeded} seeded -> "
            f"{self.regions_chained} kept -> "
            f"{self.regions_distinct} distinct -> "
            f"{self.regions_aligned} aligned",
            f"region cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"(hit rate {self.cache_hit_rate:.1%})",
            f"alignment work: {self.windows} windows, "
            f"{self.rescues} rescues, {self.align_calls} kernel "
            f"dispatches ({self.align_windows_batched} windows "
            f"batched; backend: {self.backend})",
        ] + ([
            f"pair path: {self.pair_cache_hits} hits / "
            f"{self.pair_cache_misses} misses "
            f"(hit rate {self.pair_cache_hit_rate:.1%}), "
            f"{self.cache_prefetches} regions prefetched",
        ] if self.pair_cache_hits or self.pair_cache_misses
            or self.cache_prefetches else [])


@contextmanager
def _timed(stage: StageStats):
    start = time.perf_counter()
    try:
        yield
    finally:
        stage.seconds += time.perf_counter() - start


# ----------------------------------------------------------------------
# Region cache
# ----------------------------------------------------------------------

@dataclass
class CachedRegion:
    """Memoized products of ``extract_region`` + ``linearize``.

    ``anchor`` arithmetic is per-seed, so it stays outside the cache;
    everything derived from the span alone is in here.
    """

    lin: LinearizedGraph
    original_ids: list[int]
    offsets: Sequence[int]


class RegionCache:
    """LRU memo for region extraction + linearization.

    Keyed by the node range ``(first_node, last_node, hop_limit)``
    that a span selects (see :meth:`MappingPipeline.node_range`):
    ``extract_region`` includes partially-overlapping nodes whole, so
    two spans selecting the same node range derive byte-identical
    subgraphs — the pair-aware key that lets one mate's extractions
    serve the other's.  ``capacity`` bounds the number of retained
    regions (0 disables caching entirely — every lookup misses and
    nothing is stored).  Hit/miss accounting lives in
    :class:`PipelineStats` (the mergeable source of truth), not here.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CachedRegion]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> CachedRegion | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry

    def store(self, key: tuple, entry: CachedRegion) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


# ----------------------------------------------------------------------
# Stage payloads
# ----------------------------------------------------------------------

@dataclass
class ReadTask:
    """One oriented read entering the pipeline."""

    name: str
    sequence: str
    strand: str


@dataclass
class SeededRead:
    """Output of the seed (and filter) stage."""

    task: ReadTask
    regions: list[SeedRegion]
    stats: SeedingStats


@dataclass
class PreparedRegion:
    """Output of the extract stage: one alignable region."""

    region: SeedRegion
    lin: LinearizedGraph
    original_ids: list[int]
    anchor: tuple[int, int]


@dataclass
class CollectedRead:
    """Output of the extract stage: one oriented read's alignment
    work list, every kept region extracted and anchored."""

    seeded: SeededRead
    regions: list[PreparedRegion]


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class SeedStage:
    """Step 1 (paper Section 6): MinSeed candidate-region generation."""

    name = "seed"

    def run(self, task: ReadTask, pipe: "MappingPipeline") -> SeededRead:
        stats = pipe.stats.stage(self.name)
        with _timed(stats):
            regions, seed_stats = pipe.minseed.seed(task.sequence)
            stats.items_in += 1
            stats.items_out += len(regions)
            pipe.stats.regions_seeded += len(regions)
            pipe.stats.seeding.merge(seed_stats)
        return SeededRead(task=task, regions=regions, stats=seed_stats)


class ChainFilterStage:
    """Step 2 (paper Fig. 2): optional chaining, ordering, and cap.

    Regions are ordered rarest-minimizer-first so a per-read cap and
    the early-exit knob both see the likeliest candidates early, then
    truncated to ``max_seeds_per_read``.
    """

    name = "filter"

    def run(self, seeded: SeededRead,
            pipe: "MappingPipeline") -> SeededRead:
        stats = pipe.stats.stage(self.name)
        config = pipe.config
        with _timed(stats):
            regions = seeded.regions
            n_in = len(regions)
            stats.items_in += n_in
            if config.chaining and regions:
                regions = chain_regions(
                    regions,
                    read_length=len(seeded.task.sequence),
                    error_rate=config.error_rate,
                    total_chars=pipe.graph.total_sequence_length,
                    top_n=config.max_seeds_per_read,
                )
            regions = sorted(
                regions,
                key=lambda r: (r.seed.frequency, r.seed.read_start),
            )
            if config.max_seeds_per_read is not None:
                regions = regions[:config.max_seeds_per_read]
            stats.items_out += len(regions)
            stats.dropped += max(0, n_in - len(regions))
            pipe.stats.regions_chained += len(regions)
        return SeededRead(task=seeded.task, regions=regions,
                          stats=seeded.stats)


class ExtractStage:
    """Step 3: subgraph extraction + linearization, memoized.

    Each region is extracted (or recalled from the
    :class:`RegionCache`) and its seed anchored in linearized
    coordinates.  A region whose cache key and anchor diagonal
    (``anchor[0] - anchor[1]``) repeat an earlier region of the same
    oriented read is collapsed into it: both seeds put the read on the
    same diagonal of the same subgraph, so aligning both would repeat
    the work.  The earlier region (anchored at the rarer seed, in the
    filter's order) is kept and the repeat counts as ``dropped``.
    """

    name = "extract"

    def run(self, seeded: SeededRead,
            pipe: "MappingPipeline") -> CollectedRead:
        stats = pipe.stats.stage(self.name)
        regions: list[PreparedRegion] = []
        seen: set[tuple] = set()
        with _timed(stats):
            for region in seeded.regions:
                lo, hi = pipe.node_range(region.start, region.end)
                key = (lo, hi, pipe.config.hop_limit)
                entry = pipe.cache.lookup(key)
                if entry is None:
                    pipe.stats.cache_misses += 1
                    entry = pipe.build_region_entry(lo, hi)
                    pipe.cache.store(key, entry)
                else:
                    pipe.stats.cache_hits += 1
                # The seed is an exact match: anchor the windowed
                # aligner at its position (paper Fig. 9's left/right
                # extensions).
                local_node = entry.original_ids.index(
                    region.seed.node_id)
                anchor = (entry.offsets[local_node]
                          + region.seed.node_offset,
                          region.seed.read_start)
                diagonal = key + (anchor[0] - anchor[1],)
                if diagonal in seen:
                    continue
                seen.add(diagonal)
                regions.append(PreparedRegion(
                    region=region, lin=entry.lin,
                    original_ids=entry.original_ids, anchor=anchor))
            stats.items_in += len(seeded.regions)
            stats.items_out += len(regions)
            stats.dropped += len(seeded.regions) - len(regions)
            pipe.stats.regions_distinct += len(regions)
        return CollectedRead(seeded=seeded, regions=regions)


class AlignStage:
    """Step 4 (paper Section 7): windowed BitAlign over each region,
    keeping the ``top_n_alignments`` best alignments by edit distance.

    Every aligned region yields an
    :class:`~repro.core.mapper.AlignmentCandidate`; candidates are
    ordered by the stable ``(distance, strand, position)`` key,
    deduplicated by locus (overlapping seed regions re-derive the same
    placement — only distinct loci may count as MAPQ competitors), and
    truncated to the configured top N.  The best candidate becomes the
    result's reported placement, exactly as the old single-winner
    stage chose it.

    The align work itself is dispatched by
    :meth:`MappingPipeline._align_collected`, which batches the regions
    of many oriented reads through
    :meth:`~repro.core.windows.WindowedAligner.align_many`;
    :meth:`commit` folds one oriented read's alignments back into its
    result.
    """

    name = "align"

    def commit(self, collected: CollectedRead, aligned_list,
               pipe: "MappingPipeline") -> "MappingResult":
        """Fold one oriented read's alignments into its result.

        ``aligned_list`` holds one
        :class:`~repro.core.windows.WindowedAlignment` per aligned
        region, in region order: every collected region, or a prefix
        of them when ``early_exit_distance`` stopped the rounds.
        """
        from repro.core.mapper import MappingResult

        stats = pipe.stats.stage(self.name)
        seeded = collected.seeded
        task = seeded.task
        result = MappingResult(
            read_name=task.name, read_length=len(task.sequence),
            mapped=False, strand=task.strand, seeding=seeded.stats,
        )
        candidates: "list[AlignmentCandidate]" = []
        for region, aligned in zip(collected.regions, aligned_list):
            result.regions_aligned += 1
            pipe.stats.windows += aligned.windows
            pipe.stats.rescues += aligned.rescues
            candidates.append(
                self._candidate(aligned, region, task.strand, pipe))
        pipe.stats.regions_aligned += result.regions_aligned
        stats.items_in += len(collected.regions)
        stats.items_out += result.regions_aligned
        stats.dropped += len(collected.regions) - result.regions_aligned
        commit_candidates(result, candidates,
                          pipe.config.top_n_alignments)
        return result

    @staticmethod
    def _candidate(aligned, region: PreparedRegion, strand: str,
                   pipe: "MappingPipeline") -> "AlignmentCandidate":
        """Materialize one aligned region as a candidate placement."""
        from repro.core.mapper import AlignmentCandidate

        node_id = node_offset = linear_position = contig = None
        path_nodes: tuple[int, ...] = ()
        lin = region.lin
        if aligned.path:
            first = aligned.path[0]
            local_node = lin.node_ids[first]
            node_id = region.original_ids[local_node]
            node_offset = lin.node_offsets[first]
            nodes: list[int] = []
            for position in aligned.path:
                node = region.original_ids[lin.node_ids[position]]
                if not nodes or nodes[-1] != node:
                    nodes.append(node)
            path_nodes = tuple(nodes)
            if pipe.refs is not None:
                contig, linear_position = pipe.refs.project(
                    node_id, node_offset,
                )
            elif pipe.built is not None:
                linear_position = pipe.built.project_to_reference(
                    node_id, node_offset,
                )
        return AlignmentCandidate(
            distance=aligned.distance, cigar=aligned.cigar,
            strand=strand, node_id=node_id, node_offset=node_offset,
            path_nodes=path_nodes, linear_position=linear_position,
            contig=contig,
            windows=aligned.windows, rescues=aligned.rescues,
        )


def _same_locus(a: "AlignmentCandidate", b: "AlignmentCandidate",
                read_length: int) -> bool:
    """Whether two candidates describe the same reference locus.

    Overlapping seed regions of one read re-derive the same placement
    (possibly shifted by an indel); counting them as independent
    candidates would fake a repeat tie and zero out MAPQ on unique
    reads.  Two placements on the same strand whose starts are within
    half a read length are one locus; with no linear projection
    (graph-only mappers) the exact ``(node_id, node_offset)`` anchor
    decides.
    """
    if a.strand != b.strand:
        return False
    if a.contig != b.contig:
        return False
    if a.linear_position is not None and b.linear_position is not None:
        return abs(a.linear_position - b.linear_position) \
            < max(1, read_length // 2)
    return (a.node_id, a.node_offset) == (b.node_id, b.node_offset)


def commit_candidates(result: "MappingResult",
                      candidates: "list[AlignmentCandidate]",
                      top_n: int) -> None:
    """Order, deduplicate, truncate, and commit candidates.

    Candidates are sorted by the stable ``(distance, strand,
    position)`` key, collapsed per locus (best survivor wins), and
    the top ``top_n`` retained.  The best candidate's placement is
    written onto ``result``; ``second_best_distance`` /
    ``candidate_count`` record the calibration signal.
    """
    ordered = sorted(candidates, key=lambda c: c.sort_key)
    kept: "list[AlignmentCandidate]" = []
    for candidate in ordered:
        if any(_same_locus(candidate, existing, result.read_length)
               for existing in kept):
            continue
        kept.append(candidate)
    result.candidate_count = len(kept)
    result.candidates = tuple(kept[:top_n])
    if not kept:
        return
    best = kept[0]
    result.mapped = True
    result.distance = best.distance
    result.cigar = best.cigar
    result.node_id = best.node_id
    result.node_offset = best.node_offset
    result.path_nodes = best.path_nodes
    result.linear_position = best.linear_position
    result.contig = best.contig
    result.windows = best.windows
    result.rescues = best.rescues
    # From the full deduplicated list, not the truncated tuple: the
    # runner-up locus calibrates MAPQ even at top_n_alignments=1.
    result.second_best_distance = kept[1].distance \
        if len(kept) >= 2 else None


class SelectStage:
    """Step 5: fold per-orientation results into the final one.

    Beyond picking the winning orientation (:func:`best_of`), the
    candidate lists of both orientations merge under the same
    ``(distance, strand, position)`` key, so the final result's
    ``second_best_distance`` sees cross-strand competitors too — a
    reverse-strand repeat copy is as real a MAPQ threat as a
    forward-strand one.
    """

    name = "select"

    def run(self, forward: "MappingResult",
            reverse: "MappingResult | None",
            pipe: "MappingPipeline") -> "MappingResult":
        stats = pipe.stats.stage(self.name)
        with _timed(stats):
            stats.items_in += 1 if reverse is None else 2
            stats.items_out += 1
            best = best_of(forward, reverse)
            if reverse is not None and (forward.candidates
                                        or reverse.candidates):
                merged = sorted(
                    forward.candidates + reverse.candidates,
                    key=lambda c: c.sort_key,
                )[:pipe.config.top_n_alignments]
                loser = reverse if best is forward else forward
                # The cross-orientation runner-up is either the
                # winner's own second locus or the other strand's
                # best — strands never share a locus.
                second = best.second_best_distance
                if loser.mapped and loser.distance is not None:
                    second = loser.distance if second is None \
                        else min(second, loser.distance)
                best.candidates = tuple(merged)
                best.candidate_count = (forward.candidate_count
                                        + reverse.candidate_count)
                best.second_best_distance = second
            pipe.stats.reads += 1
            if best.mapped:
                pipe.stats.reads_mapped += 1
        return best


def best_of(forward: "MappingResult",
            reverse: "MappingResult | None") -> "MappingResult":
    """None-safe best-of-two orientations; forward wins ties.

    An unmapped result never beats a mapped one; between two mapped
    results the lower edit distance wins, and on equal distance (or a
    missing distance on either side) the forward orientation is kept —
    the deterministic tie-break the strand-reporting contract relies
    on.  The same ordering governs candidate lists (the
    ``AlignmentCandidate.sort_key`` tuple ``(distance, strand,
    position)``), so the selected placement, the candidate ranking,
    and therefore MAPQ are identical under ``--jobs`` sharding and
    any region-enumeration order.
    """
    if reverse is None or not reverse.mapped:
        return forward
    if not forward.mapped:
        return reverse
    if forward.distance is None:
        return reverse if reverse.distance is not None else forward
    if reverse.distance is None:
        return forward
    return reverse if reverse.distance < forward.distance else forward


# ----------------------------------------------------------------------
# The pipeline driver
# ----------------------------------------------------------------------

class MappingPipeline:
    """Composable staged mapping engine.

    Owns the stage list, the region cache, and the cumulative
    :class:`PipelineStats`.  ``SeGraM`` delegates all mapping to an
    instance of this class.
    """

    def __init__(self, graph, config, minseed, aligner,
                 built=None, refs=None) -> None:
        self.graph = graph
        self.config = config
        self.minseed = minseed
        self.aligner = aligner
        self.built = built
        self.refs = refs
        self.cache = RegionCache(config.region_cache_size)
        # Node starts in the global character space, for the O(log n)
        # span -> node-range cache-key computation.
        self._node_starts = graph.offsets()
        self.stages = (SeedStage(), ChainFilterStage(), ExtractStage())
        self.align_stage = AlignStage()
        self.select = SelectStage()
        self.reset_stats()

    def node_range(self, start: int, end: int) -> tuple[int, int]:
        """Inclusive node-ID range a character span selects.

        Mirrors :meth:`~repro.graph.genome_graph.GenomeGraph.
        extract_region`'s selection rule (nodes overlapping
        ``[start, end)``, included whole), so the range identifies the
        extraction result exactly — it is the region cache key.
        """
        lo = max(0, bisect_right(self._node_starts, start) - 1)
        hi = max(lo, bisect_right(self._node_starts, end - 1) - 1)
        return lo, hi

    def build_region_entry(self, lo_node: int,
                           hi_node: int) -> CachedRegion:
        """Extract + linearize one node range (the cache-miss work).

        The range is the cache key (:meth:`node_range`), so the
        extraction is O(range) — no full-graph scan per miss.
        """
        subgraph, original_ids = self.graph.extract_node_range(
            lo_node, hi_node)
        return CachedRegion(
            lin=linearize(subgraph, hop_limit=self.config.hop_limit),
            original_ids=original_ids,
            offsets=subgraph.offsets(),
        )

    def prefetch_span(self, start: int, end: int) -> None:
        """Warm the region cache for every node range a small seed
        region inside ``[start, end)`` could select.

        The pair driver calls this with the mate's expected
        insert-window span: a short-read seed region selects one node
        or two adjacent nodes, so singleton ``(n, n)`` and adjacent
        ``(n, n+1)`` ranges over the window cover the mate's future
        lookups.  Prefetched extractions are counted in
        ``cache_prefetches`` (not as misses — nothing looked them up
        yet); a capacity-0 cache makes this a no-op.
        """
        if self.cache.capacity == 0:
            return
        total = self.graph.total_sequence_length
        start = max(0, min(start, total - 1))
        end = max(start + 1, min(end, total))
        lo, hi = self.node_range(start, end)
        hop = self.config.hop_limit
        for node in range(lo, hi + 1):
            ranges = [(node, node)]
            if node < hi:
                ranges.append((node, node + 1))
            for lo_node, hi_node in ranges:
                key = (lo_node, hi_node, hop)
                if self.cache.lookup(key) is not None:
                    continue
                self.cache.store(key, self.build_region_entry(
                    lo_node, hi_node))
                self.stats.cache_prefetches += 1

    def reset_stats(self) -> None:
        self.stats = PipelineStats.empty()
        backend_name = getattr(self.aligner, "backend_name", None)
        if backend_name is not None:
            self.stats.backend = backend_name

    def map_reads(
        self, reads: Sequence[tuple[str, str]],
    ) -> "list[MappingResult]":
        """Map ``(name, sequence)`` reads; one result per read.

        Reads may contain ``N`` (the read-side ambiguity policy of
        :mod:`repro.seq`); any other non-ACGT base raises before any
        read is mapped.  Stages 1-3 run per oriented read in input
        order, :meth:`_align_collected` aligns the regions of every
        oriented read through shared kernel dispatches, and stage 5
        selects per read.  Results are bit-for-bit those of mapping
        each read alone: the batch decides how kernel work is
        dispatched, never what is computed.
        """
        validated = [
            (name, seqmod.validate(sequence, "read",
                                   allow_ambiguous=True))
            for name, sequence in reads
        ]
        return [best for best, _, _ in
                self._map(validated, self.config.both_strands)]

    def map_read_candidates(
        self, read: str, name: str,
    ) -> "tuple[MappingResult, MappingResult, MappingResult]":
        """Map one (validated) read on *both* strands, exposing the
        per-orientation candidates.

        Returns ``(best, forward, reverse)``: the per-orientation
        results of stages 1-4 plus the stage-5 selection over them.
        The paired-end driver scores orientation combinations of the
        two mates, so it needs both candidates, not only the winner;
        ``best`` is identical to :meth:`map_reads` under
        ``both_strands=True`` (FR pairing always considers both).
        """
        return self._map([(name, read)], both_strands=True)[0]

    def _map(
        self, reads: Sequence[tuple[str, str]], both_strands: bool,
    ) -> "list[tuple[MappingResult, MappingResult, MappingResult | None]]":
        """``(best, forward, reverse)`` per read (``reverse`` is None
        unless ``both_strands``)."""
        collected: list[CollectedRead] = []
        for name, sequence in reads:
            collected.append(self._collect(sequence, name, "+"))
            if both_strands:
                collected.append(self._collect(
                    seqmod.reverse_complement(sequence), name, "-"))
        results = self._align_collected(collected)
        step = 2 if both_strands else 1
        out = []
        for i in range(0, len(results), step):
            forward = results[i]
            reverse = results[i + 1] if both_strands else None
            out.append((self.select.run(forward, reverse, self),
                        forward, reverse))
        return out

    def _collect(self, read: str, name: str,
                 strand: str) -> CollectedRead:
        """Stages 1-3 for one oriented read."""
        item = ReadTask(name=name, sequence=read, strand=strand)
        for stage in self.stages:
            item = stage.run(item, self)
        return item

    def _align_collected(
        self, collected: list[CollectedRead],
    ) -> "list[MappingResult]":
        """Align the collected regions in rounds; one result per
        oriented read.

        Without ``early_exit_distance`` one round holds every region
        of every oriented read, so all of them length-bucket together
        in the kernel.  With it, each round holds the next region of
        every oriented read that has not yet found an alignment at or
        below the distance; the regions left over are never aligned.
        """
        exit_at = self.config.early_exit_distance
        aligned: list[list] = [[] for _ in collected]
        if exit_at is None:
            self._align_round([(i, region)
                               for i, batch in enumerate(collected)
                               for region in batch.regions],
                              collected, aligned)
        else:
            def unfinished(i: int) -> bool:
                # A read stays pending only while every earlier
                # alignment missed the exit, so the newest decides.
                done = aligned[i]
                return len(done) < len(collected[i].regions) and \
                    (not done or done[-1].distance > exit_at)

            pending = [i for i in range(len(collected)) if unfinished(i)]
            while pending:
                self._align_round(
                    [(i, collected[i].regions[len(aligned[i])])
                     for i in pending],
                    collected, aligned)
                pending = [i for i in pending if unfinished(i)]
        return [self.align_stage.commit(batch, done, self)
                for batch, done in zip(collected, aligned)]

    def _align_round(self, work: list, collected: list[CollectedRead],
                     aligned: list[list]) -> None:
        """Align ``(oriented read index, region)`` items in one
        :meth:`~repro.core.windows.WindowedAligner.align_many` call,
        appending each alignment to its read's list."""
        items = [(region.lin, collected[i].seeded.task.sequence,
                  region.anchor) for i, region in work]
        with _timed(self.stats.stage(self.align_stage.name)):
            results = self.aligner.align_many(items, counters=self.stats)
        for (i, _), result in zip(work, results):
            aligned[i].append(result)


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------

def effective_jobs(jobs: int, read_count: int) -> int:
    """Worker processes that will actually run for this batch.

    Bounded by the read count, and 1 on platforms without the ``fork``
    start method (the index cannot be shared copy-on-write there).
    """
    jobs = max(1, min(jobs, read_count))
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return jobs


class ShardContext:
    """What the generic shard runner needs from a mapping engine.

    ``map_items`` runs both in the parent (sequential fallback) and in
    pool workers, where it is preceded by ``reset_stats`` so each
    shard's statistics are accounted exactly once, then shipped back
    via the picklable ``collect_stats`` payload and folded into the
    parent with ``merge_stats``.
    """

    def map_items(self, items: Sequence) -> list:
        raise NotImplementedError

    def reset_stats(self) -> None:
        raise NotImplementedError

    def collect_stats(self):
        raise NotImplementedError

    def merge_stats(self, payload) -> None:
        raise NotImplementedError


def shard_items(items: Sequence, jobs: int) -> list:
    """Split ``items`` into at most ``jobs`` contiguous shards.

    The one shard-boundary rule of every pool, so forked and
    artifact-attached workers get byte-identical work lists (and
    therefore produce identical results *and* identical per-shard
    statistics).
    """
    jobs = max(1, min(jobs, len(items)))
    chunk = math.ceil(len(items) / jobs)
    return [items[i * chunk:(i + 1) * chunk] for i in range(jobs)
            if items[i * chunk:(i + 1) * chunk]]


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------

_POOL_CONTEXTS = None


def _pool_worker_init(factory) -> None:
    """Pool initializer: build this worker's engines from the factory."""
    global _POOL_CONTEXTS
    # Per-process cache by design: each worker builds its own engine
    # from the factory; nothing ever reads it parent-side.
    _POOL_CONTEXTS = factory()  # repro: allow[fork-safety]


def _pool_worker_run(payload):
    mode, items = payload
    contexts = _POOL_CONTEXTS
    assert contexts is not None, "worker pool not initialized"
    context = contexts.shard_context(mode)
    context.reset_stats()
    return context.map_items(items), context.collect_stats()


class _InheritedContext:
    """Pool factory for forked workers: the parent's own shard
    context, which each worker inherits copy-on-write (the engine is
    never pickled)."""

    def __init__(self, context: ShardContext) -> None:
        self.context = context

    def __call__(self) -> "_InheritedContext":
        return self

    def shard_context(self, mode: str) -> ShardContext:
        return self.context


class PersistentPool:
    """A standing worker pool; every multi-process mapping runs on one.

    Each worker runs ``factory()`` once at start-up and then serves
    any number of batches, keeping its region cache warm across them.
    The factory returns an object with ``shard_context(mode)``
    (``mode`` is ``"reads"``, ``"reads_batched"`` or ``"pairs"``)
    yielding a :class:`ShardContext` for that payload kind.  Two
    factories exist:

    * :class:`repro.api._ArtifactWorkerFactory` is picklable (it
      carries an artifact *path*, not an engine), so the pool works
      under ``spawn`` as well as ``fork``; workers attach to the
      memory-mapped ``.sgidx`` artifact themselves.
    * :func:`run_sharded` builds a one-batch ``fork`` pool whose
      factory hands back the context the parent already built.

    Shard boundaries come from :func:`shard_items` either way, so
    results are identical between the two.
    """

    def __init__(self, factory, jobs: int,
                 start_method: str | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        elif start_method not in methods:
            raise ValueError(
                f"start method {start_method!r} unavailable; "
                f"have {methods}"
            )
        self.jobs = jobs
        self.start_method = start_method
        self._pool = multiprocessing.get_context(start_method).Pool(
            processes=jobs,
            initializer=_pool_worker_init,
            initargs=(factory,),
        )

    def run(self, items: Sequence, mode: str) -> list:
        """Map shards of ``items`` across the standing workers.

        Returns the per-shard ``(results, stats payload)`` pairs in
        shard order; :func:`run_sharded` flattens and merges them.
        """
        if self._pool is None:
            raise RuntimeError("persistent pool is closed")
        shards = shard_items(items, min(self.jobs, len(items)))
        return self._pool.map(_pool_worker_run,
                              [(mode, shard) for shard in shards])

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_sharded(context: ShardContext, items: Sequence,
                jobs: int = 1, pool: "PersistentPool | None" = None,
                mode: str = "reads") -> list:
    """Shard ``items`` across pool workers.

    Contiguous shards keep neighbouring items (and therefore their
    overlapping candidate regions) on the same worker's region cache.
    With ``pool=None`` and ``jobs > 1`` a one-batch ``fork`` pool
    inherits ``context`` — the parent's index and any warmth already
    in its region cache — copy-on-write; a standing
    :class:`PersistentPool` serves the shards instead (``jobs`` is
    then ignored — the pool's width governs).  Only items, results and
    the picklable statistics payloads travel; per-shard statistics
    are merged back through ``context``.  Results are returned in
    input order and are identical to a sequential ``map_items`` loop.
    """
    items = list(items)
    if pool is None:
        requested = jobs
        jobs = effective_jobs(jobs, len(items))
        if jobs == 1:
            if requested > 1 and len(items) > 1:
                warnings.warn(
                    "multiprocessing start method 'fork' is "
                    "unavailable on this platform; mapping "
                    "sequentially",
                    RuntimeWarning, stacklevel=3,
                )
            return context.map_items(items)
        with PersistentPool(_InheritedContext(context), jobs,
                            start_method="fork") as forked:
            return run_sharded(context, items, pool=forked, mode=mode)
    if not items:
        return []
    results: list = []
    for shard_results, payload in pool.run(items, mode):
        results.extend(shard_results)
        context.merge_stats(payload)
    return results


class _ReadShardContext(ShardContext):
    """Shard context for single-end ``map_batch``.

    ``coalesce=True`` maps the whole shard through one
    :meth:`MappingPipeline.map_reads` call instead of one call per
    read — same results, fewer and wider kernel calls, more memory.
    """

    def __init__(self, mapper: "SeGraM",
                 coalesce: bool = False) -> None:
        self.mapper = mapper
        self.coalesce = coalesce

    def map_items(self, reads):
        if self.coalesce:
            return self.mapper.pipeline.map_reads(reads)
        return [self.mapper.map_read(sequence, name)
                for name, sequence in reads]

    def reset_stats(self) -> None:
        self.mapper.pipeline.reset_stats()

    def collect_stats(self) -> PipelineStats:
        return self.mapper.pipeline.stats

    def merge_stats(self, payload: PipelineStats) -> None:
        self.mapper.pipeline.stats.merge(payload)


def map_batch_sharded(
    mapper: "SeGraM",
    reads: Sequence[tuple[str, str]],
    jobs: int,
    pool: "PersistentPool | None" = None,
    coalesce: bool = False,
) -> "list[MappingResult]":
    """Shard ``reads`` across workers (see :func:`run_sharded` for
    the sharing/merging contract).

    ``coalesce=True`` maps each shard in one call (the
    ``"reads_batched"`` pool mode) — bit-identical results, fewer
    kernel calls per shard.
    """
    return run_sharded(_ReadShardContext(mapper, coalesce=coalesce),
                       reads, jobs, pool=pool,
                       mode="reads_batched" if coalesce else "reads")
