"""Golden-file tests for the SAM and GAF writers.

A small deterministic read set is mapped with a pinned configuration
and the emitted SAM/GAF is compared **byte-for-byte** against files
checked in under ``tests/golden/``.  Any refactor of the pipeline, the
alignment backends, or the writers that silently changes output
formatting (or mapping results) fails here first.

A second golden SAM pins ``early_exit_distance``: on a repeat-rich
reference the exit fires part-way through some reads' region lists
and never for others, so the reported placement, and the MAPQ that
the second-best distance calibrates, depend on exactly where the
align rounds stop.

Regenerate after an *intentional* output change with::

    PYTHONPATH=src python tests/test_io_golden.py --regenerate

and review the golden diff like any other code change.
"""

from __future__ import annotations

import io
import random
from pathlib import Path

import pytest

from repro import seq as seqmod
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.io.gaf import (
    read_gaf,
    result_to_gaf,
    validate_gaf_record,
    write_gaf,
)
from repro.io.sam import (
    read_sam,
    result_to_sam,
    validate_sam_record,
    write_sam,
)
from repro.sim.reference import random_reference, \
    reference_with_repeats

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SAM = GOLDEN_DIR / "expected.sam"
GOLDEN_GAF = GOLDEN_DIR / "expected.gaf"
GOLDEN_EARLY_EXIT_SAM = GOLDEN_DIR / "expected_early_exit.sam"

REFERENCE_NAME = "chr_golden"


def _workload() -> tuple[str, list[tuple[str, str]]]:
    """The pinned reference and read set (fully deterministic)."""
    rng = random.Random(0x601D)
    reference = random_reference(3_000, rng)
    exact = reference[500:740]
    # One substitution, one deletion, one insertion — hand-placed so
    # the expected CIGAR features every operation.
    edited = list(reference[1_200:1_440])
    edited[40] = "A" if edited[40] != "A" else "C"
    del edited[120]
    edited.insert(200, "G")
    reverse = seqmod.reverse_complement(reference[2_100:2_340])
    unmapped = "".join(rng.choice("ACGT") for _ in range(240))
    return reference, [
        ("read_exact", exact),
        ("read_edited", "".join(edited)),
        ("read_reverse", reverse),
        ("read_unmapped", unmapped),
    ]


def _mapper(reference: str) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.10,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True,
    )
    return SeGraM.from_reference(reference, config=config,
                                 name=REFERENCE_NAME,
                                 max_node_length=1_024)


def _render() -> tuple[str, str]:
    """Map the pinned workload and render SAM + GAF as strings."""
    reference, reads = _workload()
    mapper = _mapper(reference)
    results = [(mapper.map_read(sequence, name), sequence)
               for name, sequence in reads]
    sam_buffer = io.StringIO()
    write_sam(sam_buffer,
              [result_to_sam(result, sequence, REFERENCE_NAME)
               for result, sequence in results],
              REFERENCE_NAME, len(reference))
    gaf_buffer = io.StringIO()
    gaf_records = [result_to_gaf(result, mapper.graph, sequence)
                   for result, sequence in results]
    write_gaf(gaf_buffer, [r for r in gaf_records if r is not None])
    return sam_buffer.getvalue(), gaf_buffer.getvalue()


#: The early-exit golden's exit distance.
EARLY_EXIT_DISTANCE = 4


def _early_exit_workload() -> tuple[str, list[tuple[str, str]]]:
    """A repeat-rich reference and reads with 0-9 substitutions.

    Reads drawn from diverged repeat copies align at several loci
    within a few edits of each other; their distance to the exit
    decides how many regions each orientation aligns.
    """
    rng = random.Random(3)
    reference = reference_with_repeats(4_000, rng, repeat_fraction=0.5,
                                       repeat_length=300,
                                       family_count=2)
    reads = []
    for i in range(16):
        start = rng.randrange(0, len(reference) - 150)
        read = list(reference[start:start + 150])
        for position in rng.sample(range(150),
                                   rng.choice([0, 2, 3, 4, 5, 9])):
            read[position] = rng.choice(
                [b for b in "ACGT" if b != read[position]])
        sequence = "".join(read)
        if rng.random() < 0.5:
            sequence = seqmod.reverse_complement(sequence)
        reads.append((f"r{i}", sequence))
    return reference, reads


def _early_exit_mapper(reference: str,
                       backend: str | None = None) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.10,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=6, both_strands=True,
        early_exit_distance=EARLY_EXIT_DISTANCE,
        align_backend=backend,
    )
    return SeGraM.from_reference(reference, config=config,
                                 name=REFERENCE_NAME,
                                 max_node_length=1_024)


def _render_early_exit(backend: str | None = None,
                       coalesce: bool = False) -> str:
    """Map the early-exit workload read by read (or, with
    ``coalesce``, in one batch) and render it as SAM."""
    reference, reads = _early_exit_workload()
    mapper = _early_exit_mapper(reference, backend)
    results = mapper.map_batch(reads, coalesce=coalesce)
    buffer = io.StringIO()
    write_sam(buffer,
              [result_to_sam(result, sequence, REFERENCE_NAME)
               for result, (_, sequence) in zip(results, reads)],
              REFERENCE_NAME, len(reference))
    return buffer.getvalue()


@pytest.fixture(scope="module")
def rendered() -> tuple[str, str]:
    return _render()


class TestGoldenOutput:
    def test_sam_matches_golden_bytes(self, rendered):
        sam_text, _ = rendered
        assert GOLDEN_SAM.exists(), \
            "golden SAM missing; run this module with --regenerate"
        assert sam_text.encode("ascii") == GOLDEN_SAM.read_bytes()

    def test_gaf_matches_golden_bytes(self, rendered):
        _, gaf_text = rendered
        assert GOLDEN_GAF.exists(), \
            "golden GAF missing; run this module with --regenerate"
        assert gaf_text.encode("ascii") == GOLDEN_GAF.read_bytes()

    def test_workload_covers_the_format(self, rendered):
        """The fixture must keep exercising every format feature."""
        sam_text, gaf_text = rendered
        records = read_sam(io.StringIO(sam_text))
        assert [r.qname for r in records] == [
            "read_exact", "read_edited", "read_reverse",
            "read_unmapped",
        ]
        by_name = {r.qname: r for r in records}
        assert by_name["read_exact"].cigar == "240="
        assert not by_name["read_exact"].is_reverse
        assert by_name["read_edited"].edit_distance == 3
        for op in "=XID":
            assert op in by_name["read_edited"].cigar
        assert by_name["read_reverse"].is_reverse
        assert by_name["read_unmapped"].is_unmapped
        assert len(read_gaf(io.StringIO(gaf_text))) == 3  # mapped only

    def test_reverse_strand_seq_is_reverse_complement(self, rendered):
        """SAM spec: FLAG 0x10 stores SEQ reverse-complemented.

        The golden read_reverse input is the reverse complement of a
        reference slice, so its stored SEQ must be byte-for-byte the
        reverse complement of the input read — i.e. the reference
        slice itself (the regression the PR 3 bugfix pins)."""
        sam_text, _ = rendered
        _, reads = _workload()
        read_of = dict(reads)
        records = {r.qname: r for r in read_sam(io.StringIO(sam_text))}
        record = records["read_reverse"]
        assert record.seq == \
            seqmod.reverse_complement(read_of["read_reverse"])
        # Forward-strand records keep the read as sequenced.
        assert records["read_exact"].seq == read_of["read_exact"]

    def test_golden_records_validate(self, rendered):
        sam_text, gaf_text = rendered
        for record in read_sam(io.StringIO(sam_text)):
            validate_sam_record(record)
        reference, _ = _workload()
        graph = _mapper(reference).graph
        for record in read_gaf(io.StringIO(gaf_text)):
            validate_gaf_record(record, graph)

    def test_backends_agree_with_golden(self, rendered):
        """Both alignment backends reproduce the golden bytes."""
        import repro.align.backends as backends_module

        sam_text, gaf_text = rendered
        reference, reads = _workload()
        config = SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.10,
            windowing=WindowingConfig(window_size=128, overlap=48,
                                      k=16),
            max_seeds_per_read=4, both_strands=True,
            align_backend="numpy",
        )
        mapper = SeGraM.from_reference(reference, config=config,
                                       name=REFERENCE_NAME,
                                       max_node_length=1_024)
        assert isinstance(mapper.aligner.backend,
                          backends_module.NumpyBackend)
        results = [(mapper.map_read(sequence, name), sequence)
                   for name, sequence in reads]
        buffer = io.StringIO()
        write_sam(buffer,
                  [result_to_sam(result, sequence, REFERENCE_NAME)
                   for result, sequence in results],
                  REFERENCE_NAME, len(reference))
        assert buffer.getvalue() == sam_text
        buffer = io.StringIO()
        write_gaf(buffer,
                  [record for record in
                   (result_to_gaf(result, mapper.graph, sequence)
                    for result, sequence in results)
                   if record is not None])
        assert buffer.getvalue() == gaf_text


class TestEarlyExitGolden:
    @pytest.mark.parametrize("coalesce", [False, True])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sam_matches_golden_bytes(self, backend, coalesce):
        assert GOLDEN_EARLY_EXIT_SAM.exists(), \
            "early-exit golden missing; run this module with " \
            "--regenerate"
        assert _render_early_exit(backend, coalesce).encode("ascii") \
            == GOLDEN_EARLY_EXIT_SAM.read_bytes()

    def test_workload_cuts_region_lists(self):
        """The exit must fire part-way for some reads and never for
        others, or the golden stops pinning where the cut falls."""
        reference, reads = _early_exit_workload()
        mapper = _early_exit_mapper(reference)
        results = [mapper.map_read(sequence, name)
                   for name, sequence in reads]
        assert any(r.distance is not None
                   and r.distance <= EARLY_EXIT_DISTANCE
                   and r.regions_aligned > 1 for r in results)
        assert any(r.distance is not None
                   and r.distance > EARLY_EXIT_DISTANCE
                   for r in results)
        stats = mapper.stats
        assert 0 < stats.stage("align").dropped \
            < stats.regions_chained


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    sam_text, gaf_text = _render()
    GOLDEN_SAM.write_bytes(sam_text.encode("ascii"))
    GOLDEN_GAF.write_bytes(gaf_text.encode("ascii"))
    early_exit_text = _render_early_exit()
    GOLDEN_EARLY_EXIT_SAM.write_bytes(early_exit_text.encode("ascii"))
    print(f"wrote {GOLDEN_SAM} ({len(sam_text)} bytes), "
          f"{GOLDEN_GAF} ({len(gaf_text)} bytes) and "
          f"{GOLDEN_EARLY_EXIT_SAM} ({len(early_exit_text)} bytes)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        raise SystemExit("usage: test_io_golden.py --regenerate")
