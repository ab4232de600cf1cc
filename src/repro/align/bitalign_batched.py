"""Cross-problem batched BitAlign: one wavefront over many problems.

The paper's throughput comes from an *array* of BitAlign units
sweeping many alignments concurrently; the word-packed kernel of
:mod:`repro.align.bitalign_packed` reproduces one unit's datapath but
still pays the per-call numpy dispatch overhead for every (window,
read) problem — at the pipeline's 128-bit windows that overhead
dominates the vector work (which is why the scalar chain kernel
defers to Python bigints below
:data:`repro.align.backends.NumpyBackend.CHAIN_KERNEL_MIN_BITS`).
This module amortizes it: N problems whose patterns pack into the
same number of uint64 words are stacked along a batch axis and the
anti-diagonal wavefront advances across *all of them* in one numpy
pass per diagonal.

Batching across problems of different sizes is exact, not
approximate:

* **Patterns** within a bucket share the packed word count
  (``ceil(m / 64)`` equal), not the exact width.  Every recurrence
  operation — left shift with upward carry, AND, OR with the pattern
  mask — lets bit ``j`` of a cell depend only on bits ``<= j`` of its
  inputs, so bits ``0..m_b - 1`` of every cell are bit-identical to
  the problem's own scalar sweep no matter what garbage accumulates
  above; the per-problem accept bit ``m_b - 1`` and the masked cell
  decode never see the garbage.  (The scalar kernel's top-word mask
  only canonicalizes those same dead bits.)
* **Texts** are front-padded to the bucket maximum ``n_max``.  The
  recurrence runs right-to-left and cell ``(i, d)`` depends only on
  cells with ``i' >= i``, so cells at real text positions are exact;
  with diagonals indexed ``t = n - i + d`` from the text *end*, a
  front pad leaves every real cell of problem ``b`` at the very same
  ``(t, d)`` coordinates as its unpadded sweep, and all pad-prefix
  garbage strictly at ``t > n_b + d``.  Accept scans and traceback
  decodes (which only ever move toward larger ``i``, i.e. smaller
  ``t``) are confined to ``t <= n_b + d`` and cannot observe it.
* **Early exit per problem**: the batch is ordered by text length
  descending, so the set of problems still doing real work at
  diagonal ``t`` (those with ``n_b + k >= t``) is a prefix of the
  batch axis — finished problems drop out of every vector op by a
  plain slice.
* The frontier bounds of the scalar sweep carry over: the upper
  frontier is width-independent, and the batch maintains the
  conservative (lowest) relevance floor over its members, which only
  ever *adds* maintained words.

Traceback stays lazy and per-problem: :class:`BatchedRows` /
:class:`BatchedChainRows` mirror :class:`~repro.align.bitalign_packed.
PackedAllR` / :class:`~repro.align.bitalign_packed.PackedChainRows`
over one slot of the batch tensor, so the shared GenASM/graph
traceback machinery runs unchanged and results are bit-for-bit
identical to the scalar backends.

Scheduling reuses the :class:`repro.hw.bitalign_unit.
BitAlignCycleModel` as a cost oracle (:class:`BatchCostModel`): the
hardware model's slope prices the per-diagonal lane work and its
fill/drain intercept generalizes to the software dispatch overhead,
which is what decides bucket composition (how much padding a batch
may absorb) and the scalar/batched cutover (singleton buckets gain
nothing).
"""

from __future__ import annotations

import numpy as np

from repro.align.bitalign_packed import (
    DEFAULT_MAX_WORDS,
    WORD_BITS,
    WORD_BYTES,
    _CARRY_SHIFT,
    _ONE,
    _encode_text,
    _pattern_mask_planes,
    pack_int,
    words_for,
)
from repro.align.dp_linear import AlignmentSizeError

#: One alignment problem: ``(text, pattern)``.
AlignJob = tuple[str, str]


def batch_storage_words(text_lengths, k: int, words: int) -> int:
    """Packed words of one batched sweep's diagonal tensor.

    The tensor is shaped ``(n_max + k + 1, batch, words, k + 1)``:
    every problem pays for the padded diagonal count of the bucket's
    longest text.
    """
    lengths = list(text_lengths)
    if not lengths:
        return 0
    return (max(lengths) + k + 1) * len(lengths) * words * (k + 1)


class _BatchedSweep:
    """One wavefront sweep over a batch of same-word-count problems.

    The diagonal tensor is ``alld[t, b, word, d]``; every vector op of
    the scalar :class:`~repro.align.bitalign_packed._Sweep` gains a
    leading (live-sliced) batch axis and is otherwise identical.  See
    the module docstring for why mixed text/pattern lengths inside a
    word bucket stay exact.
    """

    def __init__(self, jobs: "list[AlignJob]", k: int,
                 max_words: int = DEFAULT_MAX_WORDS) -> None:
        if not jobs:
            raise ValueError("batch must not be empty")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        widths = {words_for(len(p)) for _, p in jobs if p}
        if any(not p for _, p in jobs):
            raise ValueError("pattern must not be empty")
        if len(widths) != 1:
            raise ValueError(
                f"batch mixes packed widths {sorted(widths)}; bucket "
                "jobs by words_for(len(pattern)) first"
            )
        self.k = k
        self.words = words = widths.pop()
        # Batch slots ordered by text length descending, so the live
        # problems of any diagonal are a prefix of the batch axis.
        self.order = sorted(range(len(jobs)),
                            key=lambda j: -len(jobs[j][0]))
        self.n_of = [len(jobs[j][0]) for j in self.order]
        self.m_of = [len(jobs[j][1]) for j in self.order]
        self.slot_of = {job: slot for slot, job
                        in enumerate(self.order)}
        batch = len(jobs)
        n_max = self.n_of[0]
        self.n_max = n_max
        self.diagonals = n_max + k + 1
        total = self.diagonals * batch * words * (k + 1)
        if total > max_words:
            raise AlignmentSizeError(
                f"batched traceback storage of {total} words exceeds "
                f"the {max_words}-word budget; split the batch"
            )
        # Per-slot packed inputs.  Pad-prefix mask columns stay 0 —
        # they are only ever read by pad-garbage cells.
        pm = np.zeros((batch, words, n_max), dtype=np.uint64)
        full = np.empty((batch, words), dtype=np.uint64)
        #: Unpacked pattern bitmasks per slot, for the traceback.
        self.masks_of: list[dict[str, int]] = []
        for slot, job_index in enumerate(self.order):
            text, pattern = jobs[job_index]
            planes, table, masks = _pattern_mask_planes(pattern, words)
            self.masks_of.append(masks)
            full[slot] = planes[0]
            if text:
                codes = table[_encode_text(text)]
                pm[slot, :, n_max - len(text):] = planes[codes].T
        # virtual_row(m, k)[d] = full_mask & ~((1 << d) - 1): one
        # shared low-bits plane serves every slot.
        vlow = np.array([pack_int((1 << d) - 1, words)
                         for d in range(k + 1)], dtype=np.uint64).T
        self.virtual = full[:, :, None] & ~vlow[None, :, :]
        self.pm = pm
        # Live-prefix length per diagonal: slots with n_b + k >= t.
        n_desc = np.array(self.n_of, dtype=np.int64)
        self.live_at = [
            int(np.searchsorted(-n_desc, -(t - k), side="right"))
            if t > k else batch
            for t in range(self.diagonals)
        ]
        self.alld = np.empty((self.diagonals, batch, words, k + 1),
                             dtype=np.uint64)
        self.alld.view(np.uint8).fill(0xFF)
        self._run()
        # Per-slot accept planes over the slot's own accept bit.
        self.accept = []
        for slot in range(batch):
            accept_word = (self.m_of[slot] - 1) // WORD_BITS
            accept_bit = np.uint64((self.m_of[slot] - 1) % WORD_BITS)
            raw = self.alld[:, slot, accept_word, :]
            self.accept.append(((raw >> accept_bit) & _ONE) == 0)

    def _run(self) -> None:
        k, n, words = self.k, self.n_max, self.words
        pm, virtual, alld = self.pm, self.virtual, self.alld
        batch = alld.shape[1]
        # Conservative relevance floor over the bucket: the smallest
        # pattern has the lowest floor, and maintaining extra words is
        # always exact.
        floor_base = n + k - min(self.m_of) + 1 + (WORD_BITS - 1)
        shape = (batch, words, k + 1)
        sp = np.full(shape, np.uint64(0xFFFF_FFFF_FFFF_FFFF),
                     dtype=np.uint64)
        q_ping, q_pong = sp.copy(), sp.copy()
        carry = np.empty(shape, dtype=np.uint64)
        bitwise_and = np.bitwise_and
        bitwise_or = np.bitwise_or
        left_shift = np.left_shift
        right_shift = np.right_shift
        for t in range(self.diagonals):
            live = self.live_at[t]
            cur = alld[t, :live]
            wl = t // WORD_BITS + 1
            if wl > words:
                wl = words
            fw = 0 if t <= floor_base else (t - floor_base) // WORD_BITS
            lo = 0 if t <= n else t - n
            hi = min(k, t - 1)
            band = slice(fw, wl)
            sp_l = sp[:live]
            q2 = q_ping[:live]  # Q of diagonal t - 2
            if hi >= lo:
                i0 = n - t + lo
                target = cur[:, band, lo:hi + 1]
                bitwise_or(sp_l[:, band, lo:hi + 1],
                           pm[:live, band, i0:i0 + hi - lo + 1],
                           out=target)
                if lo == 0:
                    if hi >= 1:
                        target = cur[:, band, 1:hi + 1]
                        target &= sp_l[:, band, 0:hi]
                        target &= q2[:, band, 0:hi]
                else:
                    target &= sp_l[:, band, lo - 1:hi]
                    target &= q2[:, band, lo - 1:hi]
            if t <= k:
                cur[:, :, t] = virtual[:live, :, t]
            live_band = cur[:, band]
            shifted = sp_l[:, band]
            left_shift(live_band, _ONE, out=shifted)
            if wl - fw > 1:
                cbuf = carry[:live, fw:wl - 1]
                right_shift(live_band[:, :-1], _CARRY_SHIFT, out=cbuf)
                shifted[:, 1:] |= cbuf
            bitwise_and(live_band, shifted, out=q2[:, band])
            q_ping, q_pong = q_pong, q_ping


class _BatchedLazyRow:
    """One ``all_r[i]`` row of one batch slot, decoded on access."""

    __slots__ = ("_rows", "_i")

    def __init__(self, rows: "BatchedRows", i: int) -> None:
        self._rows = rows
        self._i = i

    def __getitem__(self, d: int) -> int:
        return self._rows.cell(self._i, d)


class BatchedRows:
    """Row view over one problem of a batched sweep.

    Interchangeable with :class:`~repro.align.bitalign_packed.
    PackedAllR` for the same problem: positions ``0..n`` (virtual row
    last), lazy block decode, identical :meth:`best` tie-breaks.
    Decoded cells are masked to the problem's own pattern width, which
    strips the shared-bucket garbage bits (see the module docstring).
    """

    #: Consecutive positions decoded per miss.
    BLOCK = 64

    def __init__(self, sweep: _BatchedSweep, slot: int) -> None:
        self._sweep = sweep
        self._slot = slot
        self.n = sweep.n_of[slot]
        self.m = sweep.m_of[slot]
        self.k = sweep.k
        #: Pattern bitmasks of this problem (see :func:`repro.core.
        #: bitalign.traceback`).
        self.masks = sweep.masks_of[slot]
        self._mask = (1 << self.m) - 1
        self._accept = sweep.accept[slot]
        self._rows: dict[int, _BatchedLazyRow] = {}
        self._cells: dict[int, int] = {}

    def __len__(self) -> int:
        return self.n + 1

    def __getitem__(self, i: int) -> _BatchedLazyRow:
        row = self._rows.get(i)
        if row is None:
            if not 0 <= i <= self.n:
                raise IndexError(i)
            row = self._rows[i] = _BatchedLazyRow(self, i)
        return row

    def cell(self, i: int, d: int) -> int:
        key = i * (self.k + 1) + d
        value = self._cells.get(key)
        if value is None:
            sweep = self._sweep
            last = min(self.n, i + self.BLOCK - 1)
            # Front padding keeps real cells at the unpadded diagonal
            # indices: t = n_b - i' + d.
            t_hi = self.n - i + d
            t_lo = self.n - last + d
            block = np.ascontiguousarray(
                sweep.alld[t_lo:t_hi + 1, self._slot, :, d])
            raw = block.tobytes()
            stride = sweep.words * WORD_BYTES
            cells = self._cells
            mask = self._mask
            for offset, position in enumerate(range(last, i - 1, -1)):
                cells[position * (self.k + 1) + d] = mask & \
                    int.from_bytes(
                        raw[offset * stride:(offset + 1) * stride],
                        "little")
            value = cells[key]
        return value

    def best(self) -> tuple[int, int] | None:
        """Mirror of :meth:`~repro.align.bitalign_packed._Sweep.best`
        over this problem's real diagonal range."""
        n = self.n
        for d in range(self.k + 1):
            column = self._accept[d:n + d + 1, d]
            hits = np.flatnonzero(column)
            if hits.size:
                t = d + int(hits[-1])
                return d, n - t + d
        return None


class BatchedChainRows(BatchedRows):
    """Batched mirror of :class:`~repro.align.bitalign_packed.
    PackedChainRows`: ``len`` counts text positions only and
    ``best_start`` answers the graph aligner's anchored query."""

    def __len__(self) -> int:
        return self.n

    def best_start(
        self, candidates: list[int] | None = None,
    ) -> tuple[int, int] | None:
        n = self.n
        accept = self._accept
        if candidates is not None:
            anchor_t = n - np.asarray(candidates, dtype=np.intp)
            for d in range(self.k + 1):
                hits = np.flatnonzero(accept[anchor_t + d, d])
                if hits.size:
                    return d, candidates[int(hits[0])]
            return None
        for d in range(self.k + 1):
            column = accept[d + 1:n + d + 1, d]
            hits = np.flatnonzero(column)
            if hits.size:
                t = d + 1 + int(hits[-1])
                return d, n - t + d
        return None


def _bucketed_sweeps(jobs: "list[AlignJob]", k: int, max_words: int):
    """Group jobs by packed width, sweep each bucket, yield
    ``(job_index, sweep, slot)`` triples.

    Buckets whose tensor would blow ``max_words`` are split along the
    (length-sorted) batch axis so every chunk fits; a single job too
    large on its own raises, matching the scalar ``align`` budget.
    """
    buckets: dict[int, list[int]] = {}
    for index, (_, pattern) in enumerate(jobs):
        if not pattern:
            raise ValueError("pattern must not be empty")
        buckets.setdefault(words_for(len(pattern)), []).append(index)
    for words, indices in buckets.items():
        indices = sorted(indices, key=lambda j: -len(jobs[j][0]))
        start = 0
        while start < len(indices):
            end = start + 1
            n_max = len(jobs[indices[start]][0])
            used = (n_max + k + 1) * words * (k + 1)
            if used > max_words:
                raise AlignmentSizeError(
                    f"batched traceback storage of {used} words for "
                    f"one problem exceeds the {max_words}-word budget"
                )
            # Texts are sorted descending, so n_max is fixed and every
            # extra problem costs the same padded diagonal count.
            per_job = (n_max + k + 1) * words * (k + 1)
            while end < len(indices) \
                    and used + per_job <= max_words:
                used += per_job
                end += 1
            chunk = [indices[j] for j in range(start, end)]
            sweep = _BatchedSweep([jobs[j] for j in chunk], k,
                                  max_words=max_words)
            for slot, job_index in enumerate(sweep.order):
                yield chunk[job_index], sweep, slot
            start = end


def batched_generate(jobs: "list[AlignJob]", k: int,
                     max_words: int = DEFAULT_MAX_WORDS,
                     ) -> "list[BatchedRows]":
    """Batched :func:`~repro.align.bitalign_packed.packed_generate`.

    Returns one :class:`BatchedRows` per job, in input order.  Jobs
    are bucketed by packed pattern width internally; every bucket runs
    as one wavefront sweep.
    """
    results: list[BatchedRows | None] = [None] * len(jobs)
    for index, sweep, slot in _bucketed_sweeps(jobs, k, max_words):
        results[index] = BatchedRows(sweep, slot)
    return results


def batched_chain_rows(jobs: "list[AlignJob]", k: int,
                       max_words: int = DEFAULT_MAX_WORDS,
                       ) -> "list[BatchedChainRows]":
    """Batched :func:`~repro.align.bitalign_packed.packed_chain_rows`
    (one chain-window row view per job, in input order)."""
    results: list[BatchedChainRows | None] = [None] * len(jobs)
    for index, sweep, slot in _bucketed_sweeps(jobs, k, max_words):
        results[index] = BatchedChainRows(sweep, slot)
    return results


# ----------------------------------------------------------------------
# Scheduling oracle
# ----------------------------------------------------------------------

class BatchCostModel:
    """Bucket-composition and cutover oracle on the hw cycle model.

    The :class:`~repro.hw.bitalign_unit.BitAlignCycleModel` prices one
    window as ``slope * chars + intercept``; both terms generalize to
    the software kernel — the slope to per-diagonal vector lane work,
    the intercept to the fixed overhead of issuing one wavefront step
    (pipeline fill/drain in hardware, numpy dispatch in software).
    Software dispatch is far more expensive relative to lane work than
    the array's fill/drain, so the intercept is re-expressed as the
    lane-equivalent ``dispatch_words`` and the slope is read off the
    hardware model (both anchors, no private constants).

    Predicted cost of one kernel invocation over ``steps`` wavefront
    diagonals with ``lanes`` uint64 words of live payload per step::

        cycles = steps * (per_word * dispatch_words + per_word * lanes)

    Batching shares the dispatch term across the batch; padding adds
    lane work.  :meth:`plan` trades the two.
    """

    #: Software dispatch overhead of one wavefront step, expressed as
    #: equivalent uint64 lane-words of vector work (one step issues a
    #: handful of numpy ops, each costing roughly the throughput of a
    #: few thousand word lanes).
    DEFAULT_DISPATCH_WORDS = 4096

    def __init__(self, model=None,
                 dispatch_words: int | None = None) -> None:
        if model is None:
            # The dispatcher's cost heuristic deliberately consults
            # the hardware cycle model this kernel mirrors; the edge
            # is read-only, function-local, and has no substitute at
            # layer 1.  # repro: allow[layering]
            from repro.hw.bitalign_unit import BitAlignCycleModel

            model = BitAlignCycleModel()
        self.model = model
        self.dispatch_words = self.DEFAULT_DISPATCH_WORDS \
            if dispatch_words is None else dispatch_words
        # Slope of the hw model in cycles per packed word, derived
        # from two published anchors (169 @ 64b, 272 @ 128b -> 103).
        self.cycles_per_word = (
            model.cycles_per_window(2 * WORD_BITS)
            - model.cycles_per_window(WORD_BITS))

    def _step_lanes(self, words: int, k: int) -> int:
        """Live payload words of one problem on one diagonal."""
        return words * (k + 1)

    def scalar_cycles(self, n: int, m: int, k: int) -> int:
        """Predicted cycles of one per-problem kernel call."""
        words = words_for(m)
        return (n + k + 1) * self.cycles_per_word * (
            self.dispatch_words + self._step_lanes(words, k))

    def batched_cycles(self, text_lengths, k: int, words: int) -> int:
        """Predicted cycles of one batched sweep over a bucket."""
        lengths = list(text_lengths)
        if not lengths:
            return 0
        steps = max(lengths) + k + 1
        return steps * self.cycles_per_word * (
            self.dispatch_words
            + len(lengths) * self._step_lanes(words, k))

    def plan(self, shapes: "list[tuple[int, int]]", k: int,
             ) -> "list[tuple[str, list[int]]]":
        """Partition job indices into batched buckets and scalar runs.

        ``shapes`` holds ``(text_length, pattern_length)`` per job.
        Within a packed-width bucket (sorted by text length
        descending) a job joins the open batch while its padding lane
        work stays below its share of the saved dispatch overhead;
        otherwise it opens a new batch.  A closed batch is kept only
        if the model predicts it beats per-problem calls (a singleton
        never does), so the cutover and the composition come from the
        same oracle.

        Returns ``[("batched", indices), ..., ("scalar", indices)]``
        with every input index appearing exactly once.
        """
        by_words: dict[int, list[int]] = {}
        for index, (_, m) in enumerate(shapes):
            by_words.setdefault(words_for(m), []).append(index)
        plans: list[tuple[str, list[int]]] = []
        scalars: list[int] = []
        for words, indices in sorted(by_words.items()):
            indices = sorted(indices,
                             key=lambda j: (-shapes[j][0], j))
            lanes = self._step_lanes(words, k)
            open_batch: list[int] = []
            head_n = 0

            def close(batch: "list[int]") -> None:
                if not batch:
                    return
                lengths = [shapes[j][0] for j in batch]
                batched = self.batched_cycles(lengths, k, words)
                scalar = sum(self.scalar_cycles(n, shapes[j][1], k)
                             for j, n in zip(batch, lengths))
                if batched < scalar:
                    plans.append(("batched", list(batch)))
                else:
                    scalars.extend(batch)

            for j in indices:
                n = shapes[j][0]
                if not open_batch:
                    open_batch = [j]
                    head_n = n
                    continue
                padding = (head_n - n) * lanes
                saved = (n + k + 1) * self.dispatch_words
                if padding <= saved:
                    open_batch.append(j)
                else:
                    close(open_batch)
                    open_batch = [j]
                    head_n = n
            close(open_batch)
        if scalars:
            plans.append(("scalar", sorted(scalars)))
        return plans
