"""Tests of the benchmark itself: span arithmetic, patching, and a smoke run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Span, Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def test_self_time_subtracts_children_union():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),    # overlaps b: the union counts once
        Span("d", 9.8, 11.0, 0),   # runs past its parent: clipped
    ]
    got = self_times(spans)
    # root: 10 - ([1,4] + [5,9.5] + [9.8,10]) = 10 - 7.7
    assert got == pytest.approx([2.3, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_report_averages_item_spans_and_sums_others():
    t = Tracer()
    t.spans = [
        Span("bench.setup", 0.0, 1.0, -1),
        Span("model.init_params", 0.1, 0.9, 0),
        Span("bench.step", 1.0, 1.3, -1),
        Span("ndtensor.matmul", 1.0, 1.1, 2),
        Span("bench.step", 2.0, 2.5, -1),
        Span("ndtensor.matmul", 2.0, 2.1, 4),
        Span("ndtensor.matmul", 2.2, 2.3, 4),
    ]
    t.counts[("bench.step", "ndtensor.nodes_per_step")] = 6
    t.counts[("bench.setup", "optim.checkpoint_mb")] = 7
    report, n = t.report("bench.step")
    assert n == 2
    assert report["model.init_params.ms"] == pytest.approx(800.0)
    assert report["ndtensor.matmul.calls"] == 1.5
    assert report["ndtensor.matmul.ms"] == pytest.approx(150.0)
    assert report["bench.step.self_ms"] == pytest.approx(250.0)
    assert report["ndtensor.nodes_per_step"] == 3
    assert report["optim.checkpoint_mb"] == 7


def test_install_patches_every_binding_and_uninstall_restores():
    from patchcount import encoder, ndtensor, optim
    originals = (ndtensor.matmul, encoder.matmul, optim.backward, ndtensor.add)
    t = Tracer()
    t.install("patchcount")
    try:
        assert encoder.matmul is ndtensor.matmul
        assert encoder.matmul is not originals[0]
        assert optim.backward is ndtensor.backward is not originals[2]
        a = ndtensor.Tensor([[1.0, 2.0]])
        t.begin("bench.step")
        encoder.matmul(a, ndtensor.Tensor([[1.0], [1.0]]))
        a + a  # operator sugar reaches the patched add through ndtensor's globals
        t.end()
    finally:
        t.uninstall()
    assert (ndtensor.matmul, encoder.matmul, optim.backward, ndtensor.add) == originals
    report, _ = t.report("bench.step")
    assert report["ndtensor.matmul.calls"] == 1
    assert report["ndtensor.nodes_per_step"] == 2


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_tiny(workload, trace, tmp_path):
    out = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny", "--out-dir", str(tmp_path)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{workload}_seed5_trace{trace}.json").read_text())
    assert all(c["passed"] for c in record["checks"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(["--workload", "toy-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
