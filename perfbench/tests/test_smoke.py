"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics(name):
    metrics, passes = run.measure(workloads, name, 1, 0.01, workloads.TINY_SIZES)
    assert list(metrics) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(value > 0 for value in metrics.values())
    assert sum(p.failed for p in passes) == 0
    assert metrics["ok_ratio"] == 1.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics(name):
    metrics, passes, consistent = run.measure_traced(
        workloads, name, 1, workloads.TINY_SIZES
    )
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]
    assert sum(p.failed for p in passes) == 0
    assert consistent
    if name == "matrices":
        sizes = workloads.TINY_SIZES["matrices"]
        accepts, rejects = (sum(sizes[k].values()) for k in ("accept", "reject"))
        # today's code path: one rank scan per reject, two per accept
        assert metrics["tropical.sym_trop_rank.calls"] == 2 * accepts + rejects
        assert metrics["correspond.verdicts.accepted"] == accepts
        assert metrics["correspond.verdicts.not_rank_two"] == rejects
        assert metrics["correspond.rank_scans_per_matrix"] == 2.0


def test_benchmark_declares_the_units_it_prints():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert declared == {**dict(run.END_TO_END), **dict(spans.PER_LAYER)}
