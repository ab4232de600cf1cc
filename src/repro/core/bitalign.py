"""BitAlign: bitvector-based sequence-to-graph alignment (Algorithm 1).

BitAlign generalizes the GenASM/Bitap recurrence to genome graphs.  The
input is a *linearized, topologically sorted* subgraph (one character
per position with successor lists — :class:`~repro.graph.linearize.
LinearizedGraph`), the query read (the *pattern*), and an edit-distance
threshold ``k``.

Semantics (0-active bitvectors): after processing linearized position
``i``, bit ``j`` of ``R[i][d]`` is 0 iff the pattern *suffix* of length
``j + 1`` matches some path of the graph starting at position ``i``
with at most ``d`` edits.  A full occurrence of the read starting at
``i`` exists iff bit ``m - 1`` of ``R[i][d]`` is 0 — fitting-alignment
semantics with free reference flanks, mirroring the DP ground truth in
:mod:`repro.align.dp_graph` (which anchors the *end* instead; the
minima agree).

Positions are processed from last to first, so every successor's
bitvectors exist when a position needs them (this is why the paper
topologically sorts the graph during pre-processing).  The four
intermediate bitvectors follow Algorithm 1 exactly:

* insertion ``I = R[i][d-1] << 1`` — consumes a read character only,
  so it does *not* involve the successors;
* deletion ``D = R[s][d-1]``, substitution ``S = R[s][d-1] << 1`` and
  match ``M = (R[s][d] << 1) | PM[char]`` — consume the reference
  character, so they are computed per successor ``s`` (the *hops*) and
  AND-combined (0-active OR over alternative paths).

Positions with no in-window successors use a virtual all-ones
successor, exactly like the hardware substitutes an all-ones bitvector
when a HopBits entry is 0 (Section 8.2) and like linear GenASM's
initialization beyond the text end — this is what allows alignments to
end at the last character of a subgraph.

Traceback regenerates the intermediate bitvectors on demand from the
stored ``R[d]`` vectors — the paper's 3x memory-footprint reduction
(Section 7) — and emits a SAM-style CIGAR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.genasm import pattern_bitmasks, virtual_row
from repro.core.alignment import Cigar
from repro.graph.linearize import LinearizedGraph


@dataclass(frozen=True)
class BitAlignResult:
    """A BitAlign alignment of a read against a linearized graph.

    Attributes:
        distance: edit distance of the reported alignment.
        cigar: traceback operations (read vs. spelled path).
        path: linearized positions consumed, in order (one per
            ``=``/``X``/``D`` operation).
        reference: the spelled characters of ``path``, for replay
            validation.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    reference: str

    @property
    def start(self) -> int:
        """First consumed linearized position (-1 when none)."""
        return self.path[0] if self.path else -1

    @property
    def end(self) -> int:
        """Last consumed linearized position (-1 when none)."""
        return self.path[-1] if self.path else -1


def generate_bitvectors(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
    masks: dict[str, int] | None = None,
) -> list[list[int]]:
    """Compute ``allR[i][d]`` for every position and error budget.

    This is the edit-distance-calculation phase of BitAlign (Algorithm 1
    lines 5–24).  Returns a list of ``k + 1`` status bitvectors per
    linearized position; all bitvectors are ``len(pattern)`` bits wide.
    ``masks`` are the pattern's :func:`~repro.align.genasm.
    pattern_bitmasks`, when the caller already has them.
    """
    if not pattern:
        raise ValueError("pattern must not be empty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m = len(pattern)
    n = len(lin)
    mask = (1 << m) - 1
    if masks is None:
        masks = pattern_bitmasks(pattern)
    # Positions with no (in-window) successors see a virtual successor
    # whose bitvectors encode "only insertions remain" — the 0-active
    # mirror of Bitap's (1 << d) - 1 initialization.  This both allows
    # alignments to end at the last character of a subgraph and keeps
    # trailing-insertion alignments representable.
    virtual = virtual_row(m, k)
    all_r: list[list[int]] = [[mask] * (k + 1) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        cur_pm = masks.get(lin.chars[i], mask)
        succ_rows = [all_r[s] for s in lin.successors[i]]
        if not succ_rows:
            succ_rows = [virtual]
        row = all_r[i]
        r0 = mask
        for succ in succ_rows:
            r0 &= ((succ[0] << 1) | cur_pm) & mask
        row[0] = r0
        for d in range(1, k + 1):
            rd = (row[d - 1] << 1) & mask  # insertion
            for succ in succ_rows:
                deletion = succ[d - 1]
                substitution = (succ[d - 1] << 1) & mask
                match = ((succ[d] << 1) | cur_pm) & mask
                rd &= deletion & substitution & match
            row[d] = rd
    return all_r


def _best_start(all_r: list[list[int]], m: int, k: int,
                candidates: list[int] | None = None) -> tuple[int, int] | None:
    """Smallest (d, position) with an accepting bit, or None."""
    accept = 1 << (m - 1)
    positions = range(len(all_r)) if candidates is None else candidates
    for d in range(k + 1):
        for i in positions:
            if not all_r[i][d] & accept:
                return d, i
    return None


def bitalign_distance(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
) -> tuple[int, int] | None:
    """Best fitting-alignment distance within threshold ``k``.

    Returns ``(distance, start_position)`` (smallest distance, leftmost
    start on ties) or None when no alignment with <= k edits exists.
    """
    if len(lin) == 0:
        return (len(pattern), 0) if len(pattern) <= k else None
    all_r = generate_bitvectors(lin, pattern, k)
    return _best_start(all_r, len(pattern), k)


def traceback(
    lin: LinearizedGraph,
    pattern: str,
    all_r: list[list[int]],
    start: int,
    budget: int,
    masks: dict[str, int] | None = None,
) -> BitAlignResult:
    """Walk the stored bitvectors forward and emit the CIGAR.

    ``start`` must satisfy the invariant that bit ``m - 1`` of
    ``all_r[start][budget]`` is 0.  Intermediate bitvectors are
    regenerated on demand; operation preference is match, substitution,
    deletion, insertion (ties resolved toward the closest successor).
    ``masks`` are the pattern bitmasks the bitvectors were generated
    with, when the caller has them (computed here otherwise).
    """
    m = len(pattern)
    mask = (1 << m) - 1
    if masks is None:
        masks = pattern_bitmasks(pattern)
    virtual = virtual_row(m, budget)

    def bit_is_zero(value: int, bit: int) -> bool:
        if bit < 0:
            return True  # the empty suffix matches everywhere
        return not (value >> bit) & 1

    ops: list[str] = []
    path: list[int] = []
    i, j, d = start, m - 1, budget
    while j >= 0:
        cur_pm = masks.get(lin.chars[i], mask)
        succs = lin.successors[i]
        succ_pairs = [(s, all_r[s]) for s in succs] or [(None, virtual)]
        moved = False
        done = False
        # 1. Match: consumes lin.chars[i] and the read character.
        if bit_is_zero(cur_pm, j):
            for succ, succ_row in succ_pairs:
                if bit_is_zero(succ_row[d], j - 1):
                    ops.append("=")
                    path.append(i)
                    j -= 1
                    if j >= 0 and succ is None:
                        # Dead end: the remaining read characters can
                        # only be insertions (the virtual row's zero
                        # bits guarantee the budget covers them).
                        ops.extend("I" * (j + 1))
                        done = True
                    elif j >= 0:
                        i = succ
                    moved = True
                    break
        if done:
            break
        if moved:
            continue
        if d > 0:
            # 2. Substitution (emitted as '=' if the characters happen
            #    to be equal — a budget-wasting match stays truthful).
            for succ, succ_row in succ_pairs:
                if bit_is_zero(succ_row[d - 1], j - 1):
                    ops.append("X" if not bit_is_zero(cur_pm, j) else "=")
                    path.append(i)
                    j -= 1
                    d -= 1
                    if j >= 0 and succ is None:
                        ops.extend("I" * (j + 1))
                        done = True
                    elif j >= 0:
                        i = succ
                    moved = True
                    break
            if done:
                break
            if moved:
                continue
            # 3. Deletion: consumes the reference character only.
            for succ, succ_row in succ_pairs:
                if succ is not None and bit_is_zero(succ_row[d - 1], j):
                    ops.append("D")
                    path.append(i)
                    i = succ
                    d -= 1
                    moved = True
                    break
            if moved:
                continue
            # 4. Insertion: consumes the read character only.
            if bit_is_zero(all_r[i][d - 1], j - 1):
                ops.append("I")
                j -= 1
                d -= 1
                continue
        raise AssertionError(
            f"BitAlign traceback stuck at position {i}, pattern bit {j}, "
            f"budget {d}"
        )  # pragma: no cover - would indicate a recurrence bug

    cigar = Cigar.from_ops(ops)
    reference = "".join(lin.chars[p] for p in path)
    return BitAlignResult(
        distance=cigar.edit_distance,
        cigar=cigar,
        path=tuple(path),
        reference=reference,
    )


def bitalign(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
    anchors: list[int] | None = None,
    backend=None,
) -> BitAlignResult | None:
    """Full BitAlign: bitvector generation plus traceback.

    Args:
        lin: linearized, topologically sorted subgraph (the candidate
            region MinSeed fetched).
        pattern: the query read (or read chunk, in windowed mode).
        k: edit-distance threshold.
        anchors: optional restriction of the allowed start positions —
            the windowed aligner uses this to chain a window onto the
            successors of the previous window's endpoint.
        backend: optional alignment backend (name, instance, or None
            for the reference recurrence) — see
            :mod:`repro.align.backends`.  When the window is a plain
            chain (no hops), the backend's packed kernel generates the
            bitvectors; the recurrence is identical, so results are
            bit-for-bit the same for every backend.  Graph windows
            with hops always use the reference recurrence.

    Returns:
        The best alignment, or None when no alignment within ``k``
        edits exists (from the allowed anchors).
    """
    if len(lin) == 0:
        if len(pattern) <= k:
            return BitAlignResult(
                distance=len(pattern),
                cigar=Cigar((("I", len(pattern)),)),
                path=(),
                reference="",
            )
        return None
    all_r = None
    if backend is not None:
        from repro.align.backends import resolve_backend

        resolved = resolve_backend(backend)
        if resolved.provides_chain_kernel and lin.is_chain():
            all_r = resolved.chain_bitvectors(lin.chars, pattern, k)
    if all_r is None:
        masks = pattern_bitmasks(pattern)
        all_r = generate_bitvectors(lin, pattern, k, masks)
        located = _best_start(all_r, len(pattern), k, candidates=anchors)
    else:
        masks = getattr(all_r, "masks", None)
        located = all_r.best_start(candidates=anchors)
    if located is None:
        return None
    budget, start = located
    return traceback(lin, pattern, all_r, start, budget, masks)
