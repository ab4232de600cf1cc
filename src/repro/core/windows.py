"""Divide-and-conquer windowing for BitAlign (paper Section 7).

Bitvectors are as wide as the pattern, so the hardware processes at
most ``W`` pattern characters at a time (W = 64 bits/PE in GenASM,
128 in BitAlign).  Long reads are aligned window by window: the read
is cut into overlapping chunks, each chunk is aligned with BitAlign
against a window of the linearized subgraph, and only the first
``W - overlap`` read characters of each window's traceback are
*committed* — the overlap region is re-aligned by the next window,
which absorbs alignment drift across the cut.  The committed
tracebacks are concatenated into the final CIGAR ("after all windows'
traceback outputs are found, we merge them").

**Seed anchoring.**  A seed gives an exact correspondence between a
read position and a graph position.  :meth:`WindowedAligner.align`
accepts that anchor and extends in both directions — forward windowing
from the anchor for the right extension, and forward windowing *on the
edge-reversed graph* for the left extension (reversing the read
prefix), mirroring the left/right extension arithmetic of paper
Fig. 9.  Without an anchor the first window searches every start
position of the whole region (fitting semantics), which is exact but
linear in the region length.

Chaining across windows preserves *graph-path validity*: each window
after the first is anchored on the graph successors of the previous
window's last consumed position, so the concatenated path is a real
walk through the graph.  Windows that fail at the configured error
threshold are rescued by doubling ``k`` (up to the chunk length, where
an alignment always exists); the rescue count is reported so callers
can see when a read is far noisier than the configuration assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.alignment import Cigar
from repro.core.bitalign import BitAlignResult, bitalign, traceback
from repro.graph.linearize import LinearizedGraph


@dataclass(frozen=True)
class WindowEvent:
    """One executed alignment window, reported to observers.

    The hardware simulator (:mod:`repro.hw.simulator`) consumes these
    to charge cycles against the real, data-dependent execution.

    Attributes:
        text_length: reference characters in the window.
        chunk_length: read characters in the window (bitvector width).
        k: the edit threshold the window ran at (after any rescue
            doubling).
        rescued: whether this execution was a rescue retry.
        hops_in_window: inter-character hops (distance > 1) the window
            contains — each one costs hop-queue reads in hardware.
        ops_committed: traceback operations committed from this window.
    """

    text_length: int
    chunk_length: int
    k: int
    rescued: bool
    hops_in_window: int
    ops_committed: int


WindowObserver = Callable[[WindowEvent], None]


@dataclass(frozen=True)
class WindowingConfig:
    """Windowing parameters.

    Attributes:
        window_size: read characters per window — the bitvector width
            ``W`` (paper: 64 for GenASM-class hardware, 128 for
            BitAlign).
        overlap: read characters of each window left uncommitted and
            re-aligned by the next window.  The paper's window counts
            (250 windows per 10 kbp read at W=64, 125 at W=128 —
            Section 11.3) imply a commit step of ``5W/8``, i.e. an
            overlap of ``3W/8``: 24 for GenASM, 48 for BitAlign.
        k: per-window edit-distance threshold (the number of stored
            ``R[d]`` bitvectors is ``k + 1``).
    """

    window_size: int = 128
    overlap: int = 48
    k: int = 32

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if not 0 <= self.overlap < self.window_size:
            raise ValueError(
                "overlap must satisfy 0 <= overlap < window_size"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class WindowedAlignment:
    """Merged result of a windowed BitAlign run.

    ``distance``/``cigar``/``path``/``reference`` follow
    :class:`~repro.core.bitalign.BitAlignResult`; the extra counters
    expose windowing behaviour to the benchmarks and the hardware
    model.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    reference: str
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0

    @property
    def start(self) -> int:
        return self.path[0] if self.path else -1

    @property
    def end(self) -> int:
        return self.path[-1] if self.path else -1


def _count_hops(lin: LinearizedGraph) -> int:
    """Inter-character hops (successor distance > 1) in a window."""
    return sum(
        1
        for position, succs in enumerate(lin.successors)
        for succ in succs
        if succ - position > 1
    )


@dataclass
class _Extension:
    """One directional extension: flat ops plus consumed positions."""

    ops: list[str]
    path: list[int]
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0


@dataclass
class _WindowJob:
    """One pending window alignment of a suspended extension.

    The windowing loop (:meth:`WindowedAligner._extend_steps`) yields
    these instead of calling the kernel directly, so a dispatcher can
    gather the pending windows of *many* reads and resolve them
    through one batched backend call.  ``anchors`` are already in
    window-local coordinates.
    """

    window: LinearizedGraph
    chunk: str
    k: int
    anchors: list[int] | None


class _AlignSession:
    """One read's windowed alignment, suspended between windows.

    Wraps the one-or-two directional extensions of
    :meth:`WindowedAligner.align` (right from the anchor, then left on
    the reversed view) as resumable generators: :attr:`pending` is the
    next window needing a kernel result, :meth:`advance` feeds one in,
    and :meth:`finish` merges the extensions exactly as the sequential
    path does.  Driving a session one window at a time reproduces
    ``align`` verbatim; interleaving many sessions lets the dispatcher
    batch their windows without changing any per-read result.
    """

    def __init__(self, aligner: "WindowedAligner",
                 lin: LinearizedGraph, read: str,
                 anchor: tuple[int, int] | None,
                 observer: WindowObserver | None = None) -> None:
        if not read:
            raise ValueError("read must not be empty")
        self.lin = lin
        if anchor is None:
            stages = [("only", lin, read, None)]
        else:
            anchor_pos, anchor_read = anchor
            if not 0 <= anchor_pos < len(lin):
                raise ValueError(
                    f"anchor position {anchor_pos} outside the region"
                )
            if not 0 <= anchor_read < len(read):
                raise ValueError(
                    f"anchor read offset {anchor_read} outside the read"
                )
            stages = [("right", lin, read[anchor_read:], [anchor_pos])]
            if anchor_read > 0:
                rev = lin.reversed_view()
                n = len(lin)
                # In reversed coordinates the left extension starts at
                # the (reversed) successors of the anchor, i.e. the
                # original predecessors.
                rev_anchors = list(rev.successors[n - 1 - anchor_pos])
                stages.append(("left", rev,
                               read[:anchor_read][::-1], rev_anchors))
        self._aligner = aligner
        self._observer = observer
        self._stages = stages
        self._stage = 0
        self._gen = None
        self._parts: dict[str, _Extension] = {}
        #: The window awaiting a kernel result (None once finished).
        self.pending: _WindowJob | None = None
        self._open_next()

    def _open_next(self) -> None:
        while self._stage < len(self._stages):
            label, lin, read, anchors = self._stages[self._stage]
            self._gen = self._aligner._extend_steps(
                lin, read, anchors, self._observer)
            try:
                self.pending = next(self._gen)
                return
            except StopIteration as stop:
                self._parts[label] = stop.value
                self._gen = None
                self._stage += 1
        self.pending = None

    def advance(self, result: BitAlignResult | None) -> None:
        """Feed the kernel result of :attr:`pending` and move on."""
        if self.pending is None:
            raise RuntimeError("alignment session already finished")
        try:
            self.pending = self._gen.send(result)
        except StopIteration as stop:
            label = self._stages[self._stage][0]
            self._parts[label] = stop.value
            self._gen = None
            self._stage += 1
            self._open_next()

    def finish(self) -> WindowedAlignment:
        """Merge the finished extensions (sequential-path semantics)."""
        if self.pending is not None:
            raise RuntimeError("alignment session still has windows")
        parts = self._parts
        if "only" in parts:
            extension = parts["only"]
            ops, path = extension.ops, extension.path
            windows = extension.windows
            rescues = extension.rescues
            dead_end = extension.dead_end_insertions
        else:
            right = parts["right"]
            windows, rescues = right.windows, right.rescues
            dead_end = right.dead_end_insertions
            ops, path = right.ops, right.path
            left = parts.get("left")
            if left is not None:
                n = len(self.lin)
                windows += left.windows
                rescues += left.rescues
                dead_end += left.dead_end_insertions
                ops = list(reversed(left.ops)) + ops
                path = [n - 1 - p for p in reversed(left.path)] + path
        cigar = Cigar.from_ops(ops)
        reference = "".join(self.lin.chars[p] for p in path)
        return WindowedAlignment(
            distance=cigar.edit_distance,
            cigar=cigar,
            path=tuple(path),
            reference=reference,
            windows=windows,
            rescues=rescues,
            dead_end_insertions=dead_end,
        )


class WindowedAligner:
    """Aligns arbitrarily long reads against a linearized subgraph.

    Args:
        config: windowing parameters.
        backend: alignment backend selection (a name from
            :func:`repro.align.backends.list_backends`, a backend
            instance, or None for the process default).  The backend
            supplies the bitvector-generation kernel for hop-free
            windows; results are bit-for-bit identical across
            backends.
    """

    def __init__(self, config: WindowingConfig | None = None,
                 backend=None) -> None:
        from repro.align.backends import resolve_backend

        self.config = config or WindowingConfig()
        self.backend = resolve_backend(backend)

    @property
    def backend_name(self) -> str:
        """Registry name of the active alignment backend."""
        return self.backend.name

    def align(
        self,
        lin: LinearizedGraph,
        read: str,
        anchor: tuple[int, int] | None = None,
        observer: WindowObserver | None = None,
        counters=None,
    ) -> WindowedAlignment:
        """Windowed fitting alignment of ``read`` against ``lin``.

        Args:
            lin: the linearized candidate region.
            read: the query read.
            anchor: optional ``(graph_position, read_position)`` exact
                correspondence from a seed: the read character at
                ``read_position`` is known to occur at linearized
                position ``graph_position``.  With an anchor the
                aligner extends left and right from it; without one the
                first window searches all start positions.
            counters: optional stats object with ``align_calls`` /
                ``align_windows_batched`` attributes to charge kernel
                dispatches against (see
                :class:`repro.core.pipeline.PipelineStats`).

        The reported distance is the edit distance of the *reported*
        alignment (replay-exact); like GenASM's, the heuristic may
        exceed the global optimum when an error cluster straddles a
        window cut.
        """
        session = _AlignSession(self, lin, read, anchor, observer)
        while session.pending is not None:
            session.advance(self._resolve_job(session.pending,
                                              counters))
        return session.finish()

    def align_many(
        self,
        items: "list[tuple[LinearizedGraph, str, tuple[int, int] | None]]",
        observer: WindowObserver | None = None,
        counters=None,
    ) -> list[WindowedAlignment]:
        """Windowed alignment of many ``(lin, read, anchor)`` items.

        Per-item results are bit-for-bit those of :meth:`align` — the
        same windowing sessions run, only the *dispatch* changes: each
        round gathers every session's pending window, routes the plain
        chain windows (grouped by their current ``k``) through the
        backend's :meth:`~repro.align.backends.AlignmentBackend.
        chain_bitvectors_many` batch entry, and resolves the rest
        (graph windows with hops, empty windows, and whatever the
        backend declines) through the per-window path.  The traceback
        tail is shared with :func:`repro.core.bitalign.bitalign`, so
        the routing never changes an alignment.
        """
        sessions = [
            _AlignSession(self, lin, read, anchor, observer)
            for lin, read, anchor in items
        ]
        backend = self.backend
        batchable = backend.provides_chain_kernel
        while True:
            pending = [(session, session.pending)
                       for session in sessions
                       if session.pending is not None]
            if not pending:
                break
            scalar = []
            by_k: dict[int, list] = {}
            for session, job in pending:
                if batchable and len(job.window) > 0 \
                        and job.window.is_chain():
                    by_k.setdefault(job.k, []).append((session, job))
                else:
                    scalar.append((session, job))
            for k, group in sorted(by_k.items()):
                rows_list = backend.chain_bitvectors_many(
                    [(job.window.chars, job.chunk)
                     for _, job in group], k)
                served = sum(1 for rows in rows_list
                             if rows is not None)
                if counters is not None and served:
                    counters.align_calls += 1
                    counters.align_windows_batched += served
                for (session, job), rows in zip(group, rows_list):
                    if rows is None:
                        session.advance(
                            self._resolve_job(job, counters))
                    else:
                        session.advance(
                            self._traceback_from_rows(job, rows))
            for session, job in scalar:
                session.advance(self._resolve_job(job, counters))
        return [session.finish() for session in sessions]

    def _resolve_job(self, job: _WindowJob,
                     counters=None) -> BitAlignResult | None:
        """Per-window kernel path (one backend dispatch)."""
        if counters is not None:
            counters.align_calls += 1
        return bitalign(job.window, job.chunk, job.k,
                        anchors=job.anchors, backend=self.backend)

    @staticmethod
    def _traceback_from_rows(job: _WindowJob,
                             rows) -> BitAlignResult | None:
        """Finish a window from backend-provided bitvector rows —
        the chain-kernel tail of :func:`repro.core.bitalign.bitalign`
        verbatim."""
        located = rows.best_start(candidates=job.anchors)
        if located is None:
            return None
        budget, start = located
        return traceback(job.window, job.chunk, rows, start, budget,
                         getattr(rows, "masks", None))

    def _extend_steps(
        self,
        lin: LinearizedGraph,
        read: str,
        anchors: list[int] | None,
        observer: WindowObserver | None = None,
    ):
        """Forward windowing loop, as a resumable generator.

        Yields a :class:`_WindowJob` wherever the sequential loop
        called the kernel and receives the corresponding
        :class:`~repro.core.bitalign.BitAlignResult` (or None) back
        via ``send``; returns the finished :class:`_Extension`.
        ``anchors`` restricts the allowed start positions of the first
        window (None = search every position of the whole region, the
        un-anchored fitting mode).
        """
        extension = _Extension(ops=[], path=[])
        if not read:
            return extension
        w = self.config.window_size
        overlap = self.config.overlap
        pos_pat = 0
        base = 0
        first_window = True

        while pos_pat < len(read):
            chunk = read[pos_pat:pos_pat + w]
            is_final = pos_pat + len(chunk) == len(read)
            if anchors is not None and not anchors:
                # Dead end with read remaining: only insertions left.
                remaining = len(read) - pos_pat
                extension.ops.extend("I" * remaining)
                extension.dead_end_insertions += remaining
                break
            if anchors is not None:
                base = min(anchors)
            if base >= len(lin):
                remaining = len(read) - pos_pat
                extension.ops.extend("I" * remaining)
                extension.dead_end_insertions += remaining
                break

            k = min(self.config.k, len(chunk))
            result: BitAlignResult | None = None
            rescued = False
            while True:
                if first_window and anchors is None:
                    # Un-anchored start discovery: the whole region.
                    text_end = len(lin)
                else:
                    text_end = min(len(lin), base + len(chunk) + k)
                window = lin.slice(base, text_end)
                local_anchors = None if anchors is None else \
                    [a - base for a in anchors if a - base < len(window)]
                if local_anchors is not None and not local_anchors:
                    # All anchors fell beyond the window (a huge hop);
                    # widen to include the nearest one.
                    text_end = min(len(lin), max(anchors) + 1)
                    window = lin.slice(base, text_end)
                    local_anchors = [a - base for a in anchors
                                     if a - base < len(window)]
                result = yield _WindowJob(window, chunk, k,
                                          local_anchors)
                if result is not None:
                    break
                if k >= len(chunk):
                    raise AssertionError(
                        "window alignment failed at k == chunk length"
                    )  # pragma: no cover - insertion chain guarantees it
                if observer is not None:
                    observer(WindowEvent(
                        text_length=len(window),
                        chunk_length=len(chunk),
                        k=k, rescued=rescued,
                        hops_in_window=_count_hops(window),
                        ops_committed=0,
                    ))
                k = min(len(chunk), k * 2)
                extension.rescues += 1
                rescued = True
            extension.windows += 1
            first_window = False

            # Commit the window's traceback: everything for the final
            # window, the first chunk-minus-overlap read characters
            # otherwise.
            commit_target = len(chunk) if is_final \
                else max(1, len(chunk) - overlap)
            committed_read = 0
            path_cursor = 0
            last_consumed: int | None = None
            ops_before = len(extension.ops)
            for op in result.cigar.expand():
                if committed_read >= commit_target:
                    break
                extension.ops.append(op)
                if op in "=XD":
                    last_consumed = result.path[path_cursor] + base
                    extension.path.append(last_consumed)
                    path_cursor += 1
                if op in "=XI":
                    committed_read += 1
            pos_pat += committed_read
            if observer is not None:
                observer(WindowEvent(
                    text_length=len(window),
                    chunk_length=len(chunk),
                    k=k, rescued=rescued,
                    hops_in_window=_count_hops(window),
                    ops_committed=len(extension.ops) - ops_before,
                ))
            if last_consumed is not None:
                anchors = list(lin.successors[last_consumed])
            # else: nothing consumed (pure insertions) — anchors stay.

        return extension

    def window_count(self, read_length: int) -> int:
        """Number of windows needed for a read of the given length.

        Every window commits ``window_size - overlap`` read characters
        except the last, which commits the remainder — the quantity the
        paper's cycle analysis counts (Section 11.3: 250 windows for a
        10 kbp read at W=64 vs 125 at W=128).
        """
        if read_length < 1:
            raise ValueError("read_length must be >= 1")
        step = self.config.window_size - self.config.overlap
        if read_length <= self.config.window_size:
            return 1
        return 1 + math.ceil((read_length - self.config.window_size) / step)
