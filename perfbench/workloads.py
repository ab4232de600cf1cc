"""Seeded input generation for the mapper benchmark.

Every workload shares one 200 kb reference with planted repeats
(``reference_with_repeats(repeat_fraction=0.2)``): the repeats give a
real minimizer-frequency skew and ambiguous reads, so ``accuracy`` can
move.  The inputs of a workload are a FASTA reference, a VCF, and
gzip FASTQ read chunks, all a pure function of ``--seed``; each chunk
is one ``repro map`` call.
"""

from __future__ import annotations

import gzip
import io
import random
from dataclasses import dataclass
from pathlib import Path

from repro import seq as seqmod
from repro.graph.builder import build_graph
from repro.io.fasta import FastaRecord, FastqRecord, write_fasta, \
    write_fastq
from repro.io.vcf import VcfRecord, read_vcf, write_vcf
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import reference_with_repeats
from repro.sim.variants import VariantProfile, simulate_variants

CHROM = "chr1"
REFERENCE_LENGTH = 200_000
#: Distinct read chunks per workload, more than a run maps at today's
#: speed; a faster mapper cycles through them again.
CHUNKS = 16

#: Variant densities.  ``sparse`` is the GIAB-like default profile;
#: ``dense`` is ~4x its rates, the ``dense`` profile of
#: ``benchmarks/scenarios/run_scenarios.py`` (more alt nodes, more hops).
PROFILES = {
    "sparse": VariantProfile(),
    "dense": VariantProfile(snp_rate=0.008, insertion_rate=0.0007,
                            deletion_rate=0.0007, sv_rate=0.00001),
}

#: The engine settings every workload passes; everything else stays at
#: the ``repro map`` default, so a changed default is measured the way a
#: user would feel it.
ENGINE_ARGS = ["--align-backend", "numpy", "--both-strands",
               "--format", "sam", "--jobs", "1"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``chunk_reads`` reads (pairs, for ``paired``) go into one ``repro
    map`` call.
    """

    name: str
    read_length: int
    profile: str
    paired: bool
    index: bool
    chunk_reads: int

    def reads_per_chunk(self) -> int:
        return self.chunk_reads * (2 if self.paired else 1)


#: Why each workload was chosen: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = {
    w.name: w for w in (
        Workload("short_single", read_length=150, profile="sparse",
                 paired=False, index=True, chunk_reads=100),
        Workload("long_dense_graph", read_length=2000, profile="dense",
                 paired=False, index=True, chunk_reads=4),
        Workload("short_paired", read_length=150, profile="sparse",
                 paired=True, index=False, chunk_reads=50),
    )
}


@dataclass
class Inputs:
    """Generated files plus the simulated truth of every read."""

    reference: Path
    vcf: Path
    #: Per chunk: the read file(s) of one ``repro map`` call.
    chunks: list[list[Path]]
    #: Per chunk: ``{read name: (origin, sequence)}``; paired names
    #: carry ``/1`` or ``/2``.
    truth: list[dict[str, tuple[int, str]]]
    #: A two-read (two-pair) input mapped untimed before measuring.
    warmup: list[Path]
    variants: int


def _rng(seed: int, label: str) -> random.Random:
    # A string seed is stable across processes (hash() is salted).
    return random.Random(f"perfbench:{seed}:{label}")


def to_vcf_record(reference: str, variant) -> VcfRecord:
    """A normalized :class:`~repro.graph.builder.Variant` as a VCF
    record; indels get the preceding reference base as anchor."""
    if variant.is_snp:
        return VcfRecord(CHROM, variant.start + 1,
                         reference[variant.start], variant.alt)
    anchor = variant.start - 1
    return VcfRecord(CHROM, anchor + 1,
                     reference[anchor:variant.end],
                     reference[anchor] + variant.alt)


def _write_fastq_gz(path: Path, reads: list[tuple[str, str]]) -> None:
    # mtime=0 keeps the bytes a pure function of the seed.
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        text = io.TextIOWrapper(gz, encoding="ascii")
        write_fastq(text, [FastqRecord(name, seq, "I" * len(seq))
                           for name, seq in reads])
        text.flush()
        text.detach()


def _starts(rng: random.Random, count: int, span: int) -> list[int]:
    """One uniform start in each of ``count`` equal strata of
    ``[0, span)``, shuffled.

    A chunk then samples the whole reference evenly -- repeats in
    proportion to their share -- so chunks differ less in how much
    work they hold, while the shuffled read order keeps the region
    cache from seeing neighbouring reads back to back.
    """
    starts = [int((j + rng.random()) * span / count)
              for j in range(count)]
    rng.shuffle(starts)
    return starts


def _single_reads(workload: Workload, reference: str,
                  rng: random.Random, count: int, first: int):
    """``count`` reads named from ``r{first}``; half are reverse
    complemented.  Returns ``(name, sequence, origin)`` triples."""
    length = workload.read_length
    model = ErrorModel.nanopore(0.10) if length > 1000 \
        else ErrorModel.illumina(0.01)
    reads = []
    for index, start in enumerate(
            _starts(rng, count, len(reference) - length + 1), first):
        fragment = reference[start:start + length]
        sequence = apply_errors(fragment, model, rng)[0] or fragment
        if rng.random() < 0.5:
            sequence = seqmod.reverse_complement(sequence)
        reads.append((f"r{index}", sequence, start))
    return reads


def _pairs(reference: str, rng: random.Random, count: int, first: int):
    """``count`` FR pairs (insert 350 +- 50) named from ``p{first}``.
    Returns ``(name, mate 1, origin 1, mate 2, origin 2)`` tuples."""
    profile = PairedEndProfile.illumina(read_length=150,
                                        error_rate=0.01,
                                        insert_mean=350.0,
                                        insert_std=50.0)
    pairs = []
    # Starts stay clear of the reference end, so no insert is clamped.
    for index, start in enumerate(
            _starts(rng, count, len(reference) - 1000), first):
        (f,) = simulate_fragments(reference, 1, rng, profile,
                                  start_range=(start, start + 1))
        pairs.append((f"p{index}", f.mate1.sequence, f.mate1.ref_start,
                      f.mate2.sequence, f.mate2.ref_start))
    return pairs


def generate(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    reference = reference_with_repeats(
        REFERENCE_LENGTH, _rng(seed, "reference"), repeat_fraction=0.2)
    # A variant at position 0 has no preceding anchor base for VCF.
    variants = [v for v in simulate_variants(
        reference, _rng(seed, f"variants:{workload.profile}"),
        PROFILES[workload.profile]) if v.start > 0]
    ref_path = workdir / "ref.fa"
    vcf_path = workdir / "var.vcf"
    write_fasta(ref_path, [FastaRecord(CHROM, reference)])
    write_vcf(vcf_path, [to_vcf_record(reference, v) for v in variants])
    check_vcf_graph(reference, variants, vcf_path)

    rng = _rng(seed, f"reads:{workload.name}")
    size = workload.chunk_reads
    chunk_paths: list[list[Path]] = []
    truth: list[dict[str, tuple[int, str]]] = []
    if workload.paired:
        for c in range(CHUNKS):
            part = _pairs(reference, rng, size, c * size)
            paths = [workdir / f"c{c}_1.fq.gz", workdir / f"c{c}_2.fq.gz"]
            _write_fastq_gz(paths[0], [(f"{p[0]}/1", p[1]) for p in part])
            _write_fastq_gz(paths[1], [(f"{p[0]}/2", p[3]) for p in part])
            chunk_paths.append(paths)
            truth.append({**{f"{p[0]}/1": (p[2], p[1]) for p in part},
                          **{f"{p[0]}/2": (p[4], p[3]) for p in part}})
        warm = _pairs(reference, _rng(seed, "warmup"), 2, 0)
        warmup = [workdir / "warm_1.fq.gz", workdir / "warm_2.fq.gz"]
        _write_fastq_gz(warmup[0], [(f"{p[0]}/1", p[1]) for p in warm])
        _write_fastq_gz(warmup[1], [(f"{p[0]}/2", p[3]) for p in warm])
    else:
        for c in range(CHUNKS):
            part = _single_reads(workload, reference, rng, size, c * size)
            path = workdir / f"c{c}.fq.gz"
            _write_fastq_gz(path, [(name, seq) for name, seq, _ in part])
            chunk_paths.append([path])
            truth.append({name: (origin, seq)
                          for name, seq, origin in part})
        warm = _single_reads(workload, reference,
                             _rng(seed, "warmup"), 2, 0)
        warmup = [workdir / "warm.fq.gz"]
        _write_fastq_gz(warmup[0], [(name, seq) for name, seq, _ in warm])
    return Inputs(ref_path, vcf_path, chunk_paths, truth, warmup,
                  len(variants))


def check_vcf_graph(reference: str, variants, vcf_path: Path) -> None:
    """The graph built from the written VCF must have the node and
    edge counts of the graph built from the variant list."""
    direct = build_graph(reference, variants).graph
    via_vcf = build_graph(reference, read_vcf(vcf_path)).graph
    if (direct.node_count, direct.edge_count) != \
            (via_vcf.node_count, via_vcf.edge_count):
        raise RuntimeError(
            f"VCF graph differs: {via_vcf.node_count} nodes / "
            f"{via_vcf.edge_count} edges, variant list gives "
            f"{direct.node_count} / {direct.edge_count}")


def map_argv(workload: Workload, inputs: Inputs, artifact: Path | None,
             reads: list[Path]) -> list[str]:
    """The ``repro map`` argument list of one call, less ``--output``."""
    argv = ["map"]
    if workload.index:
        argv += ["--index", str(artifact)]
    else:
        argv += ["--reference", str(inputs.reference),
                 "--vcf", str(inputs.vcf)]
    argv += ["--reads", str(reads[0])]
    if workload.paired:
        argv += ["--paired", str(reads[1])]
    return argv + ENGINE_ARGS
