"""Output checks: the SAM each ``repro map`` call wrote, against the
simulated truth.

``accuracy``, ``failed`` and ``proper_pair_frac`` are derived here from
the SAM bytes alone, never from the program's own counters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro import seq as seqmod
from repro.io.fasta import mate_base_name
from repro.io.sam import SamFormatError, read_sam, validate_sam_pair, \
    validate_sam_record

from workloads import CHROM

#: A mapped read is accurate when its primary position lies within
#: this many bases of the simulated origin.
TOLERANCE = 40
#: SAM FLAG bits of records that are not a read's primary record.
SECONDARY_OR_SUPPLEMENTARY = 0x100 | 0x800


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    accurate: int = 0
    pairs: int = 0
    proper: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.accurate += other.accurate
        self.pairs += other.pairs
        self.proper += other.proper
        self.problems += other.problems


def _read_problem(record, sequence: str) -> str | None:
    """Why a read's single primary record is invalid, or None."""
    try:
        validate_sam_record(record)
    except SamFormatError as exc:
        return str(exc)
    expected = seqmod.reverse_complement(sequence) \
        if record.is_reverse and not record.is_unmapped else sequence
    if record.seq != expected:
        return f"{record.qname}: SEQ is not the read"
    return None


def check_call(sam_path: str, exit_code: int,
               truth: dict[str, tuple[int, str]], paired: bool) -> Tally:
    """Score one call's SAM; every read of a failed call fails."""
    tally = Tally(attempted=len(truth))
    if paired:
        tally.pairs = len(truth) // 2
    if exit_code != 0:
        tally.failed = len(truth)
        tally.problems.append(f"{sam_path}: repro map exited "
                              f"{exit_code}")
        return tally
    try:
        records = read_sam(sam_path)
    except (OSError, SamFormatError) as exc:
        tally.failed = len(truth)
        tally.problems.append(f"{sam_path}: {exc}")
        return tally
    by_read = defaultdict(list)
    for record in records:
        if record.flag & SECONDARY_OR_SUPPLEMENTARY:
            continue
        name = record.qname
        if paired:
            # Mates may carry their /1 /2 suffix in QNAME or not.
            name = mate_base_name(name) + \
                ("/1" if record.is_first_in_pair else "/2")
        by_read[name].append(record)
    for name in sorted(set(by_read) - set(truth)):
        tally.problems.append(f"{sam_path}: record for unknown read "
                              f"{name}")
    valid = {}
    for name, (_, sequence) in truth.items():
        found = by_read.get(name, [])
        problem = _read_problem(found[0], sequence) \
            if len(found) == 1 else \
            f"{name}: {len(found)} primary records"
        if problem is not None:
            tally.failed += 1
            tally.problems.append(f"{sam_path}: {problem}")
            continue
        valid[name] = found[0]
    if paired:
        for base in sorted({name[:-2] for name in truth}):
            mate1 = valid.get(f"{base}/1")
            mate2 = valid.get(f"{base}/2")
            if mate1 is None or mate2 is None:
                continue
            try:
                validate_sam_pair(mate1, mate2)
            except SamFormatError as exc:
                tally.failed += 2
                tally.problems.append(f"{sam_path}: {exc}")
                del valid[f"{base}/1"], valid[f"{base}/2"]
                continue
            if mate1.is_proper_pair:
                tally.proper += 1
    for name, record in valid.items():
        if not record.is_unmapped and record.rname == CHROM \
                and abs(record.pos - 1 - truth[name][0]) <= TOLERANCE:
            tally.accurate += 1
    return tally
