"""Span recorder that wraps svdmark's public functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces every public
function of the layer modules, at every module attribute that binds it
(including ``from .matrix import svd`` copies in sibling modules), with a
wrapper that records ``[name, start, end, parent, op, extra]`` in memory.
``cli``'s private ``_cmd_*`` handlers are wrapped too and named
``cli.<subcommand>``.  A function a later refactor removes is simply not
wrapped, and its metrics read 0.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("matrix", "semiblind", "invisible", "hashstream", "color", "analysis",
          "formats", "cli")

# Public entry points that each read and parse one key file.
KEY_READERS = ("formats.is_bundle_file", "formats.load_sideinfo", "formats.load_bundle")
KEY_WRITERS = ("formats.save_sideinfo", "formats.save_bundle")

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _ms(name):
    return (name + ".ms", "ms")


def _self(name):
    return (name + ".self_ms", "ms")


def _calls(name):
    return (name + ".calls", "count")


# Per-layer metrics reported by a traced run, each per op unless noted.
LAYER_METRICS = [
    _calls("matrix.svd"), _ms("matrix.svd"), _self("matrix.svd"),
    ("matrix.svd.distinct_input_ratio", "ratio"),
    _calls("matrix.orthogonality_residual"), _ms("matrix.orthogonality_residual"),
    _calls("matrix.as_matrix"), _ms("matrix.as_matrix"),
    _ms("formats.save_sideinfo"), _ms("formats.save_bundle"),
    ("formats.key_bytes_written", "B"),
    _ms("formats.load_sideinfo"), _self("formats.load_sideinfo"), _ms("formats.load_bundle"),
    _calls("formats.is_bundle_file"), ("formats.key_reads_per_op", "count"),
    *(_ms("formats." + f) for f in ("read_pgm", "read_ppm", "read_float_image",
                                    "write_float_image", "write_pgm", "write_ppm")),
    _self("semiblind.recover_principal_components"), _self("semiblind.embed"),
    _calls("semiblind.split_watermark"),
    *(_self("invisible." + f) for f in ("embed_invisible", "recover_masked_bytes",
                                        "verify_invisible")),
    *(_ms("hashstream." + f) for f in ("derive_mask", "quantize", "dequantize", "xor_mask")),
    _calls("hashstream.derive_mask"),
    _self("color.embed_color"), _self("color.extract_color"),
    _ms("color.luminance_split"), _ms("color.luminance_merge"),
    _self("analysis.robustness_sweep"),
    *(_ms("analysis." + f) for f in ("apply_attack", "psnr", "normalized_correlation",
                                     "resize_bilinear")),
    _self("cli.cli_main"),
    *(_ms("cli." + c) for c in ("embed", "embed-hash", "extract", "extract-hash",
                                "verify-hash", "sweep")),
    ("trace.top_level_coverage_min", "ratio"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("key_bytes_per_image", "B"),
    ("extract_nc_min", "ratio"),
    ("failed_ops_ratio", "ratio"),
]


def _fingerprint(a):
    # A strided sample identifies an image: distinct covers and watermarks
    # differ almost everywhere, and hashing the whole input would add
    # milliseconds to the parent span.
    a = np.asarray(a)
    if a.ndim != 2:
        return None
    return (a.shape, a[::7, ::7].tobytes())


class Recorder:
    """In-memory span list; recording happens only while ``enabled``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.enabled = False

    def wrap(self, name, fn, per_command=False):
        """Return a recording wrapper for ``fn``.

        With ``per_command`` the span is named after the subcommand of the
        ``args`` namespace the wrapped CLI handler receives.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            first = args[0] if args else None
            span = f"cli.{getattr(first, 'command', None)}" if per_command else name
            extra = _fingerprint(first) if name == "matrix.svd" else None
            record = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, extra]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                self._stack.pop()
                if name in KEY_WRITERS:
                    record[EXTRA] = _file_size(args[1] if len(args) > 1 else kwargs.get("path"))

        return wrapper


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(recorder):
    """Wrap every public layer function everywhere it is bound.

    Returns a callable that restores the original bindings.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"svdmark.{layer}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            per_command = layer == "cli" and attr.startswith("_cmd_")
            if attr.startswith("_") and not per_command:
                continue
            wrappers[id(obj)] = recorder.wrap(f"{layer}.{attr}", obj, per_command)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "svdmark" and not modname.startswith("svdmark."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(module, attr, wrappers[id(obj)])
                patched.append((module, attr, obj))

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore


def layer_metrics(spans, op_walls, op_kinds):
    """Per-op layer metrics over a traced phase.

    ``op_walls[i]`` is the wall time of op ``i`` as the benchmark timed it
    and ``op_kinds[i]`` its kind.  Returns ``(metrics, per_kind_counts,
    per_function)``: the LAYER_METRICS values that spans determine, exact
    per-kind counts for the report, and the full per-function table.
    """
    n_ops = len(op_walls)
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    top_level = [0.0] * n_ops
    key_bytes = 0
    svd_inputs = defaultdict(list)
    kind_counts = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        self_time[name] += dur - child[i]
        if not _nested_in_same(spans, i):
            total[name] += dur
        if s[PARENT] < 0:
            top_level[s[OP]] += dur
        if name in KEY_WRITERS and s[EXTRA]:
            key_bytes += s[EXTRA]
        if name == "matrix.svd":
            svd_inputs[s[OP]].append(s[EXTRA])
        counted = "formats.key_reads" if name in KEY_READERS else name
        kind_counts[op_kinds[s[OP]]][counted] += 1

    per_op = max(n_ops, 1)
    metrics = {}
    for name, _unit in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls[base] / per_op
        elif stat == "ms":
            metrics[name] = 1000.0 * total[base] / per_op
        elif stat == "self_ms":
            metrics[name] = 1000.0 * self_time[base] / per_op
    ratios = [len(set(v)) / len(v) for v in svd_inputs.values()]
    metrics["matrix.svd.distinct_input_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
    metrics["formats.key_bytes_written"] = key_bytes / per_op
    metrics["formats.key_reads_per_op"] = sum(calls[n] for n in KEY_READERS) / per_op
    coverage = [t / w for t, w in zip(top_level, op_walls) if w > 0]
    metrics["trace.top_level_coverage_min"] = min(coverage) if coverage else 0.0

    per_kind = {
        kind: {name: kind_counts[kind][name] / n for name in (
            "matrix.svd", "matrix.orthogonality_residual", "matrix.as_matrix",
            "hashstream.derive_mask", "formats.key_reads")}
        for kind, n in Counter(op_kinds).items()
    }
    per_function = {
        name: {"calls": calls[name] / per_op, "ms": 1000.0 * total[name] / per_op,
               "self_ms": 1000.0 * self_time[name] / per_op}
        for name in sorted(calls)
    }
    return metrics, per_kind, per_function


def _nested_in_same(spans, i):
    name = spans[i][NAME]
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
