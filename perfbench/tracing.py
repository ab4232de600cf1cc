"""Spans around the public entry point of each mapper layer.

The benchmark wraps each layer's entry point from outside the program
(no code in ``src/`` changes), records one span per call -- name,
start, end, parent -- plus counts at the same boundary, keeps the
spans in memory, and derives the per-layer metrics from them once the
traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Per-layer metric name -> unit, in report order.
METRICS = {
    "map.s": "s",
    "io.parse_s": "s",
    "io.write_s": "s",
    "artifact.attach_s": "s",
    "seed.s": "s",
    "seed.calls": "count",
    "seed.regions": "count",
    "filter.kept_ratio": "ratio",
    "extract.s": "s",
    "extract.builds": "count",
    "graph.slice_s": "s",
    "graph.slice_calls": "count",
    "pairing.self_s": "s",
    "pairing.prefetch_s": "s",
    "align.s": "s",
    "align.self_s": "s",
    "align.items": "count",
    "align.useful_ratio": "ratio",
    "kernel_batched.s": "s",
    "kernel_batched.calls": "count",
    "kernel_batched.windows": "count",
    "kernel_scalar.s": "s",
    "kernel_scalar.calls": "count",
    "traceback.s": "s",
    "traceback.calls": "count",
    "trace.reads_per_s": "reads/s",
    "trace.untraced_reads_per_s": "reads/s",
    "trace.overhead_ratio": "ratio",
}

#: The layers called only from inside ``align``: with ``align.self_s``
#: their times must add up to ``align.s``.
ALIGN_PARTS = ("align.self_s", "kernel_batched.s", "kernel_scalar.s",
               "traceback.s", "graph.slice_s")

#: Metrics that must repeat exactly across two traced runs of one seed.
EXACT = [name for name, unit in METRICS.items()
         if unit in ("count", "ratio") and not name.startswith("trace.")]


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent]`` lists, ``parent``
    being the index of the enclosing span (-1 at the top).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: id(LinearizedGraph) -> (first node, last node) of the region
        #: it was built from; the lins are pinned so ids stay unique.
        self._region_of: dict[int, tuple[int, int]] = {}
        self._pinned: list = []
        self._align_keys: set = set()

    # -- recording ---------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, kwargs,
        result)`` adds the call's counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterator; one span per item pulled."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                span = tracer._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item
        return traced

    def patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    # -- layer entry points ------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry point (see README.md)."""
        import repro.cli
        import repro.core.windows
        import repro.io.artifact
        from repro.align.backends import NumpyBackend
        from repro.core.minseed import MinSeed
        from repro.core.pairing import PairedEndMapper
        from repro.core.pipeline import MappingPipeline
        from repro.core.windows import WindowedAligner
        from repro.graph.linearize import LinearizedGraph
        from repro.io.sam import SamWriter

        # ``repro.core`` re-exports the function ``bitalign`` under the
        # submodule's name, so fetch the module itself.
        bitalign = importlib.import_module("repro.core.bitalign")
        counts = self.counts
        wrap = self.wrap

        def seed_counts(args, kwargs, result):
            counts["seed.calls"] += 1
            counts["seed.regions"] += len(result[0])

        def extract_counts(args, kwargs, entry):
            counts["extract.builds"] += 1
            self._region_of[id(entry.lin)] = (args[1], args[2])
            self._pinned.append(entry.lin)

        def align_counts(args, kwargs, result):
            items = args[1]
            counts["align.items"] += len(items)
            for lin, read, anchor in items:
                diagonal = anchor[0] - anchor[1] if anchor else None
                self._align_keys.add(
                    (self._region_of.get(id(lin), id(lin)), read,
                     diagonal))

        def batched_counts(args, kwargs, result):
            counts["kernel_batched.calls"] += 1
            counts["kernel_batched.windows"] += len(args[1])

        def calls(metric):
            def count(args, kwargs, result):
                counts[metric] += 1
            return count

        self.patch(repro.cli, "iter_reads",
                   self.wrap_iter("io.parse", repro.cli.iter_reads))
        self.patch(repro.cli, "iter_mate_pairs",
                   self.wrap_iter("io.parse", repro.cli.iter_mate_pairs))
        self.patch(SamWriter, "write", wrap("io.write", SamWriter.write))
        self.patch(repro.io.artifact, "load_index_artifact",
                   wrap("artifact.attach",
                        repro.io.artifact.load_index_artifact))
        self.patch(MinSeed, "seed",
                   wrap("seed", MinSeed.seed, seed_counts))
        self.patch(MappingPipeline, "build_region_entry",
                   wrap("extract", MappingPipeline.build_region_entry,
                        extract_counts))
        self.patch(LinearizedGraph, "slice",
                   wrap("graph.slice", LinearizedGraph.slice,
                        calls("graph.slice_calls")))
        self.patch(PairedEndMapper, "map_pair",
                   wrap("pairing", PairedEndMapper.map_pair))
        self.patch(MappingPipeline, "prefetch_span",
                   wrap("pairing.prefetch",
                        MappingPipeline.prefetch_span))
        self.patch(MappingPipeline, "map_read_candidates",
                   wrap("pairing.candidates",
                        MappingPipeline.map_read_candidates))
        self.patch(WindowedAligner, "align_many",
                   wrap("align", WindowedAligner.align_many,
                        align_counts))
        self.patch(NumpyBackend, "chain_bitvectors_many",
                   wrap("kernel_batched",
                        NumpyBackend.chain_bitvectors_many,
                        batched_counts))
        self.patch(bitalign, "generate_bitvectors",
                   wrap("kernel_scalar",
                        bitalign.generate_bitvectors,
                        calls("kernel_scalar.calls")))
        # ``traceback`` is also imported by name into core.windows.
        traced_traceback = wrap("traceback",
                                bitalign.traceback,
                                calls("traceback.calls"))
        self.patch(bitalign, "traceback", traced_traceback)
        self.patch(repro.core.windows, "traceback", traced_traceback)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_call(self) -> None:
        """Forget the regions of a finished ``repro map`` call (the
        next call builds a new mapper)."""
        self._region_of.clear()
        self._pinned.clear()

    # -- derived metrics ---------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check_nesting(self) -> list[str]:
        """Problems with the span tree (empty when consistent)."""
        problems = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {index} ({name}) ends before "
                                "it starts")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {index} ({name}) leaks out "
                                    f"of its parent {parent}")
        return problems

    def metrics(self) -> dict[str, float]:
        """Per-layer totals (times in s) and counts of the run."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, self_time in zip(self.spans, self.self_times()):
            total[span[0]] += span[2] - span[1]
            own[span[0]] += self_time
        items = self.counts["align.items"]
        regions = self.counts["seed.regions"]
        out = {
            "io.parse_s": total["io.parse"],
            "io.write_s": total["io.write"],
            "artifact.attach_s": total["artifact.attach"],
            "seed.s": total["seed"],
            "filter.kept_ratio": items / regions if regions else 0.0,
            "extract.s": total["extract"],
            "graph.slice_s": total["graph.slice"],
            "pairing.self_s": own["pairing"],
            "pairing.prefetch_s": total["pairing.prefetch"],
            "align.s": total["align"],
            "align.self_s": own["align"],
            "align.useful_ratio":
                len(self._align_keys) / items if items else 0.0,
            "kernel_batched.s": total["kernel_batched"],
            "kernel_scalar.s": total["kernel_scalar"],
            "traceback.s": total["traceback"],
        }
        for name in ("seed.calls", "seed.regions", "extract.builds",
                     "graph.slice_calls", "align.items",
                     "kernel_batched.calls", "kernel_batched.windows",
                     "kernel_scalar.calls", "traceback.calls"):
            out[name] = self.counts[name]
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": self.spans}))
