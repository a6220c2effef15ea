#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at 64x64 covers and sub-second phases.

    python3 svdbench/smoke_test.py        (or: python3 -m pytest svdbench/smoke_test.py)

Checks that every workload, untraced and traced, prints each metric that
BENCHMARK.json declares with its unit, that the exact per-op counts match
the code paths, and that a deliberately wrong expectation is counted as a
failed op instead of crashing the run.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ("embed-512", "verify-512", "sweep-256", "color-256")
SIZE = "64"


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--size", SIZE],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


def test_untraced_metrics():
    declared = _declared("end_to_end")
    for workload in WORKLOADS:
        report, result = _run(workload, 0)
        _check_result(result, declared)
        assert all(result["metrics"][m]["value"] > 0 for m in declared)
        for key in ("failed_ops_ratio", "key_bytes_per_image", "extract_nc_min",
                    "op_tail_percentile", "samples", "provenance"):
            assert key in report, key
        assert report["samples"] == result["attempted"]
        assert report["provenance"]["cover_size"] == int(SIZE)


def test_traced_metrics_and_exact_counts():
    declared = _declared("per_layer")
    counts = {}
    for workload in WORKLOADS:
        report, result = _run(workload, 1)
        _check_result(result, declared)
        assert result["metrics"]["trace.top_level_coverage_min"]["value"] >= 0.95
        counts[workload] = report["per_kind_counts"]
    assert counts["embed-512"]["embed"]["matrix.svd"] == 2
    assert counts["embed-512"]["embed-hash"]["matrix.svd"] == 2
    assert counts["embed-512"]["embed-hash"]["matrix.orthogonality_residual"] == 6
    assert all(c["matrix.svd"] == 0 for c in counts["verify-512"].values())
    assert counts["verify-512"]["extract"]["formats.key_reads"] == 2
    assert counts["sweep-256"]["sweep"]["matrix.svd"] == 20
    assert counts["color-256"]["perchannel/semi"]["matrix.svd"] == 6


def test_wrong_expectation_counts_as_failed_op():
    sys.path.insert(0, run.SRC)
    import workloads

    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        workload = workloads.verify_512(work, 0, size=int(SIZE))
        make_op = workload.make_op

        def wrong_id_expected_to_pass(i):
            op = make_op(i)
            if op.kind == "verify-hash-wrong-id":
                op.calls = [(argv, 0) for argv, _ in op.calls]
            return op

        workload.make_op = wrong_id_expected_to_pass
        args = run.parse_args(["--workload", workload.name, "--seconds", "0.3"])
        result, report = run.measure(args, workload)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 4 > 0
    assert report["failed_ops_ratio"] == 0.25
    assert "exited 2, expected 0" in report["failures"][0]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
