"""Tests for the MinSeed seeding stage."""

from __future__ import annotations

import random

import pytest

from repro.core.minseed import MinSeed
from repro.graph.genome_graph import GenomeGraph
from repro.index import build_index
from repro.sim.reference import random_reference


@pytest.fixture(scope="module")
def seeded():
    rng = random.Random(99)
    reference = random_reference(30_000, rng)
    graph = GenomeGraph.from_linear(reference, node_length=2_000)
    index = build_index(graph, w=10, k=15, bucket_bits=12)
    minseed = MinSeed(graph, index, error_rate=0.05)
    return reference, graph, minseed


class TestSeeding:
    def test_exact_read_seeds_cover_true_locus(self, seeded):
        reference, graph, minseed = seeded
        start = 12_345
        read = reference[start:start + 300]
        regions, stats = minseed.seed(read)
        assert stats.minimizer_count > 0
        assert regions, "an exact read must produce seed regions"
        # Some region must cover the true locus.
        assert any(r.start <= start < r.end for r in regions)

    def test_seed_region_arithmetic_matches_fig9(self, seeded):
        reference, graph, minseed = seeded
        read = reference[5_000:5_200]
        regions, _ = minseed.seed(read)
        m = len(read)
        e = minseed.error_rate
        for region in regions:
            seed = region.seed
            a, b = seed.read_start, seed.read_end
            c, d = seed.graph_start, seed.graph_end
            assert b == a + minseed.index.k - 1
            assert d == c + minseed.index.k - 1
            x = int(c - a * (1 + e))
            y = int(d + (m - b - 1) * (1 + e))
            assert region.start == max(0, x)
            assert region.end == min(graph.total_sequence_length, y + 1)

    def test_region_contains_room_for_whole_read(self, seeded):
        """The left+right extensions must make the region at least as
        long as the read (up to clamping at reference ends)."""
        reference, graph, minseed = seeded
        read = reference[10_000:10_400]
        regions, _ = minseed.seed(read)
        for region in regions:
            if region.start > 0 and \
                    region.end < graph.total_sequence_length:
                assert region.length >= len(read)

    def test_seed_matches_are_exact(self, seeded):
        """Every reported seed is a true exact k-mer match."""
        reference, graph, minseed = seeded
        read = reference[20_000:20_250]
        regions, _ = minseed.seed(read)
        k = minseed.index.k
        for region in regions:
            seed = region.seed
            read_kmer = read[seed.read_start:seed.read_start + k]
            node_seq = graph.sequence_of(seed.node_id)
            graph_kmer = node_seq[seed.node_offset:seed.node_offset + k]
            assert read_kmer == graph_kmer

    def test_duplicate_spans_deduped(self, seeded):
        _, _, minseed = seeded
        read = "ACGT" * 30  # highly periodic: many identical regions
        regions, stats = minseed.seed(read)
        spans = [(r.start, r.end) for r in regions]
        assert len(spans) == len(set(spans))

    def test_empty_read_rejected(self, seeded):
        _, _, minseed = seeded
        with pytest.raises(ValueError):
            minseed.seed("")

    def test_error_rate_validation(self, seeded):
        reference, graph, minseed = seeded
        with pytest.raises(ValueError):
            MinSeed(graph, minseed.index, error_rate=1.5)

    def test_stats_accounting(self, seeded):
        reference, _, minseed = seeded
        read = reference[8_000:8_300]
        regions, stats = minseed.seed(read)
        assert stats.region_count == len(regions)
        assert stats.seed_count >= stats.region_count
        assert stats.index_accesses > 0
        assert stats.surviving_minimizers == \
            stats.minimizer_count - stats.filtered_minimizers


class TestFrequencyFilter:
    def test_repetitive_minimizers_filtered(self):
        rng = random.Random(5)
        # A genome that is one repeated unit: every minimizer is highly
        # frequent except boundary effects.
        unit = random_reference(200, rng)
        reference = unit * 50 + random_reference(10_000, rng)
        graph = GenomeGraph.from_linear(reference, node_length=2_000)
        index = build_index(graph, w=10, k=15, bucket_bits=12)
        # The repeat minimizers are ~2 % of distinct minimizers, all at
        # the same frequency; a 5 % top fraction clears the tie group.
        minseed = MinSeed(graph, index, error_rate=0.05,
                          freq_top_fraction=0.05)
        read = unit * 2
        regions, stats = minseed.seed(read)
        assert stats.filtered_minimizers > 0

    def test_explicit_threshold_respected(self, seeded):
        reference, graph, minseed = seeded
        strict = MinSeed(graph, minseed.index, error_rate=0.05,
                         freq_threshold=0)
        read = reference[1_000:1_300]
        regions, stats = strict.seed(read)
        # Threshold 0 discards every minimizer present in the index.
        assert regions == []
        assert stats.seed_count == 0
        assert stats.filtered_minimizers > 0
