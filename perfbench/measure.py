"""Child process of the benchmark: times in-process ``repro map`` calls.

Usage: ``python3 perfbench/measure.py PLAN.json``.  The plan (written
by ``run.py``) names a warm-up call, the per-chunk map calls, and
either a time budget (``seconds``; calls cycle through the chunks until
it is spent) or an exact call count (``calls``).  With ``trace`` set the
layer entry points are wrapped (see ``tracing.py``) after the warm-up.
The result goes to the plan's ``result`` path as JSON.  Running in a
fresh process makes its peak RSS the workload's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def map_once(argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one in-process ``repro map`` call;
    its console report is captured, as a user's terminal would be."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) \
            else int(exc.code is not None)
    except Exception:  # a crashing call counts its reads failed
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, code


def run(plan: dict) -> dict:
    outdir = Path(plan["outdir"])
    map_once(plan["warmup"] + ["--output", str(outdir / "warmup.sam")])
    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()
    calls = []
    chunks = plan["chunks"]
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        index = len(calls)
        if plan["calls"] is not None:
            if index >= plan["calls"]:
                break
        elif index and time.perf_counter() >= deadline:
            break
        chunk = chunks[index % len(chunks)]
        output = outdir / f"call{index}.sam"
        seconds, code = map_once(chunk + ["--output", str(output)])
        calls.append({"chunk": index % len(chunks), "seconds": seconds,
                      "code": code, "sam": str(output)})
        if tracer is not None:
            tracer.end_call()
    result = {"calls": calls}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["nesting"] = tracer.check_nesting()
        spans = outdir / "spans.json"
        tracer.write(spans)
        result["spans"] = str(spans)
    return result


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    result = run(plan)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
