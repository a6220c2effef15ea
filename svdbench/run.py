#!/usr/bin/env python3
"""svdmark benchmark: one closed-loop client calling ``cli_main`` in-process.

    python3 svdbench/run.py --workload embed-512 --seed 0 --seconds 25 --trace 0

Workloads: embed-512, verify-512, sweep-256, color-256 (see workloads.py
and README.md).  Inputs are generated from ``--seed`` before timing.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops untraced and then traced, and prints the per-layer metrics.  The last
stdout line is the result object; the line before it is a report with
provenance, sample counts, per-kind figures and (traced) the per-function
table.  ``--blas-threads 1`` gives the single-threaded baseline.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

IMPORT_PROBES = 5
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import svdmark.cli; "
                 "print(time.perf_counter() - t)")
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 starts the pool at COVER_SEED/WM_SEED")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="length of the timed phase (split in two when traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="BLAS/OpenMP threads (default: nproc)")
    p.add_argument("--size", type=int, default=None,
                   help="override the cover side length (smoke test)")
    return p.parse_args(argv)


class Phase:
    """Outcome of one closed-loop phase: per-op wall times and checks."""

    def __init__(self):
        self.walls = []
        self.kinds = []
        self.failures = []
        self.ncs = []
        self.key_bytes = []

    @property
    def ops_per_s(self):
        return len(self.walls) / sum(self.walls)


def run_phase(workload, seconds, run_cli, recorder=None):
    """Run whole op cycles until ``seconds`` of wall time have passed.

    Only the CLI calls are timed (and traced); each op's check runs with
    the clock stopped, so checks do not dilute ``ops_per_s``.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = workload.make_op(i)
        outputs, reason = [], None
        if recorder is not None:
            recorder.op = i
            recorder.enabled = True
        t0 = time.perf_counter()
        for argv, expected in op.calls:
            rc, out = run_cli(argv)
            outputs.append(out)
            if rc != expected:
                reason = f"{argv[0]} exited {rc}, expected {expected}"
                break
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.enabled = False
        if reason is None:
            try:
                reason = op.check(outputs, phase.ncs)
            except Exception as exc:  # a broken output is a failed op, not a crash
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            phase.failures.append(f"op {i} ({op.kind}): {reason}")
        elif op.key_path:
            phase.key_bytes.append(os.path.getsize(op.key_path))
        phase.walls.append(wall)
        phase.kinds.append(op.kind)
        i += 1
        if i % workload.cycle == 0 and time.perf_counter() >= deadline:
            return phase


def tail(walls):
    """The 11th-largest latency: the highest order statistic with >= 10
    samples beyond it, and its percentile."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_seconds():
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def provenance(args, workload, threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "env": {v: os.environ.get(v) for v in _BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cover_size": workload.size,
        "pool": workload.pool,
        "seed": args.seed,
        "git_commit": commit,
    }


def _metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def main(argv=None):
    args = parse_args(argv)
    threads = args.blas_threads or len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:  # before numpy loads BLAS
        os.environ[var] = str(threads)
    if not os.path.isdir(os.path.join(SRC, "svdmark")):
        sys.exit(f"error: no svdmark sources under {SRC}")
    sys.path.insert(0, SRC)
    import svdmark
    if not os.path.abspath(svdmark.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported svdmark from {svdmark.__file__}, not {SRC}")
    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        sized = {"size": args.size} if args.size else {}
        workload = factory(work, args.seed, **sized)
        result, report = measure(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["provenance"] = provenance(args, workload, threads)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(args, workload):
    """Set up, warm up and time ``workload``; returns ``(result, report)``.

    Expects ``src`` on ``sys.path``, as ``main`` arranges.
    """
    import spans
    from workloads import run_cli

    t0 = time.perf_counter()
    for argv in workload.setup_calls:
        rc, out = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"set-up call {argv[0]} exited {rc}: {out}")
    setup_calls_s = time.perf_counter() - t0
    import_s = import_seconds()
    for argv, _ in workload.make_op(0).calls:  # warm-up: lazy init, page cache
        run_cli(argv)

    report = {"workload": workload.name, "trace": args.trace,
              "setup": {"import_s": import_s, "calls_s": setup_calls_s}}
    if args.trace:
        untraced = run_phase(workload, args.seconds / 2, run_cli)
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            traced = run_phase(workload, args.seconds / 2, run_cli, recorder)
        finally:
            restore()
        phases = [untraced, traced]
        values, per_kind, per_function = spans.layer_metrics(
            recorder.spans, traced.walls, traced.kinds)
        values["trace.ops_per_s_untraced"] = untraced.ops_per_s
        values["trace.ops_per_s_traced"] = traced.ops_per_s
        values["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s - 1.0
        report["per_kind_counts"] = per_kind
        report["per_function"] = per_function
        with open(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json"), "w") as f:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [s[:5] for s in recorder.spans]}, f)
    else:
        phases = [run_phase(workload, args.seconds, run_cli)]
        timed = phases[0]
        tail_s, tail_pct = tail(timed.walls)
        values = {
            "setup_s": statistics.median(import_s) + setup_calls_s,
            "ops_per_s": timed.ops_per_s,
            "op_p50_ms": 1000.0 * statistics.median(timed.walls),
            "op_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["op_tail_percentile"] = tail_pct
        report["per_kind_p50_ms"] = {
            kind: 1000.0 * statistics.median(
                w for w, k in zip(timed.walls, timed.kinds) if k == kind)
            for kind in dict.fromkeys(timed.kinds)
        }

    attempted = sum(len(p.walls) for p in phases)
    failures = [f for p in phases for f in p.failures]
    key_bytes = [b for p in phases for b in p.key_bytes] or [
        os.path.getsize(path) for path in workload.setup_key_paths]
    ncs = [x for p in phases for x in p.ncs]
    quality = {
        "failed_ops_ratio": len(failures) / attempted,
        "key_bytes_per_image": statistics.mean(key_bytes) if key_bytes else 0,
        "extract_nc_min": min(ncs) if ncs else 0.0,
    }
    report.update(quality, samples=attempted, failures=failures[:10])
    if args.trace:
        values.update(quality)
        metrics = _metric_block(values, spans.LAYER_METRICS)
    else:
        metrics = _metric_block(values, END_TO_END)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
