"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload shrinks to one small chunk; the test checks that each
metric ``BENCHMARK.json`` names is emitted with its unit, that the
output checks pass, and that the count metrics repeat across two
traced invocations at one seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"short_single": 6, "long_dense_graph": 1, "short_paired": 3}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "CHUNKS", 2)
    for name, size in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name,
            dataclasses.replace(workloads.WORKLOADS[name],
                                chunk_reads=size))


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracing.METRICS


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    for result in (first, second):
        assert result["correct"]
        assert {name: m["unit"]
                for name, m in result["metrics"].items()} == \
            tracing.METRICS
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["align.items"]["value"] > 0
