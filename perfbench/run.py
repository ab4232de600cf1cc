"""The mapper benchmark: one command, seeded workloads, checked output.

Usage (from the repository root)::

    python3 perfbench/run.py --workload short_single --seed 1 \
        --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), times the
reference set-up several times, then maps chunk after chunk through the
in-process ``repro.cli.main(["map", ...])`` in a fresh child process
until ``--seconds`` are spent, checks every SAM it wrote, and prints
the metrics.  ``--trace 1`` adds two traced runs over the same chunks
and reports the per-layer breakdown instead (see README.md).  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END = {
    "reads_per_s": "reads/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        raise BenchmarkError(f"no mapper sources under {src}")
    sys.path.insert(0, str(src))


def time_setup(workload, inputs, artifact: Path, repeats: int) -> list:
    """Wall times of building the index the workload maps with: the
    ``.sgidx`` artifact for ``--index`` workloads, the in-memory
    mapper for the ``--reference`` one."""
    from repro import cli
    from repro.api import Mapper

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        if workload.index:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["index", "build", str(inputs.reference),
                                 "--vcf", str(inputs.vcf),
                                 "-o", str(artifact)])
            if code != 0:
                raise BenchmarkError(f"repro index build exited {code}")
        else:
            Mapper.from_fasta(inputs.reference, inputs.vcf)
        times.append(time.perf_counter() - start)
    return times


def run_child(plan: dict, name: str, deadline: float) -> dict:
    """Run ``measure.py`` on ``plan`` in a fresh process."""
    outdir = WORK / name
    outdir.mkdir()
    plan = dict(plan, outdir=str(outdir),
                result=str(outdir / "result.json"))
    plan_path = outdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), str(plan_path)],
        stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"{name} run exceeded the time limit") \
            from None
    if code != 0:
        raise BenchmarkError(f"{name} run exited {code}")
    return json.loads((outdir / "result.json").read_text())


def reads_per_s(workload, calls: list) -> float:
    """Median over calls of reads mapped per second of call wall."""
    per_call = workload.reads_per_chunk()
    return statistics.median(per_call / c["seconds"] for c in calls)


def tally_calls(workload, inputs, calls: list):
    from checks import Tally, check_call

    total = Tally()
    for call in calls:
        total.add(check_call(call["sam"], call["code"],
                             inputs.truth[call["chunk"]],
                             workload.paired))
    return total


def trace_metrics(workload, untraced: list, plan: dict,
                  deadline: float) -> tuple[dict, list[str]]:
    """Two traced runs over the untraced run's calls: per-layer
    metrics plus every integrity problem found."""
    from tracing import ALIGN_PARTS, EXACT, METRICS

    problems = []
    plan = dict(plan, trace=True, calls=len(untraced))
    runs = [run_child(plan, f"traced{i}", deadline) for i in (1, 2)]
    for i, run in enumerate(runs, start=1):
        for call, base in zip(run["calls"], untraced):
            if Path(call["sam"]).read_bytes() != \
                    Path(base["sam"]).read_bytes():
                problems.append(f"traced run {i}: {call['sam']} differs "
                                f"from the untraced {base['sam']}")
        problems += [f"traced run {i}: {p}" for p in run["nesting"]]
        found = run["layers"]
        parts = sum(found[name] for name in ALIGN_PARTS)
        if abs(parts - found["align.s"]) > 1e-6 * max(1.0, parts) \
                or found["align.self_s"] < 0:
            problems.append(f"traced run {i}: align.s is "
                            f"{found['align.s']}, its parts sum to "
                            f"{parts}")
    first, second = (run["layers"] for run in runs)
    for name in EXACT:
        if first[name] != second[name]:
            problems.append(f"{name} differs across two traced runs: "
                            f"{first[name]} vs {second[name]}")
    layers = dict(first)
    traced_s = sum(c["seconds"] for c in runs[0]["calls"])
    untraced_s = sum(c["seconds"] for c in untraced)
    layers["map.s"] = traced_s
    layers["trace.reads_per_s"] = reads_per_s(workload, runs[0]["calls"])
    layers["trace.untraced_reads_per_s"] = reads_per_s(workload,
                                                       untraced)
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    ordered = {name: {"value": layers[name], "unit": unit}
               for name, unit in METRICS.items()}
    return ordered, problems


def run(args) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    _import_program()
    from workloads import WORKLOADS, generate, map_argv

    workload = WORKLOADS[args.workload]
    if WORK.exists():
        shutil.rmtree(WORK)
    inputs = generate(workload, args.seed, WORK / "inputs")
    artifact = WORK / "inputs" / "ref.sgidx"
    setup = time_setup(workload, inputs, artifact,
                       1 if args.trace else SETUP_REPEATS)
    plan = {
        "warmup": map_argv(workload, inputs, artifact, inputs.warmup),
        "chunks": [map_argv(workload, inputs, artifact, paths)
                   for paths in inputs.chunks],
        # A traced run repeats the untraced calls twice; halving the
        # untraced budget keeps it near the end-to-end run's length.
        "seconds": args.seconds / 2 if args.trace else args.seconds,
        "calls": None, "trace": False,
    }
    result = run_child(plan, "untraced", deadline)
    # The untraced run is the first child, so this is its own peak.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    calls = result["calls"]
    tally = tally_calls(workload, inputs, calls)
    problems = list(tally.problems)

    summary = {
        "reads_per_s": reads_per_s(workload, calls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "accuracy": tally.accurate / tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
    }
    if workload.paired:
        summary["proper_pair_frac"] = tally.proper / tally.pairs
    if args.trace:
        metrics, trace_problems = trace_metrics(workload, calls, plan,
                                                deadline)
        problems += trace_problems
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"{workload.name} seed {args.seed}: {len(calls)} map calls, "
          f"{tally.attempted} reads, {inputs.variants} variants, "
          f"{time.monotonic() - started:.1f} s")
    for name, value in summary.items():
        print(f"  {name:<18} {value:.6g}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("short_single", "long_dense_graph",
                                 "short_paired"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
