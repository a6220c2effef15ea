"""The embed's threads, checked in subprocesses because the BLAS thread
count is fixed when numpy loads.

Every embed, from the library or the CLI, takes its SVDs through
``matrix._map``: numpy's OpenBLAS is pinned to one thread and the SVDs,
the watermark's and one per plane, run on as many threads as BLAS had, at
most one per SVD, the watermark's on the calling thread: two for a grey,
``blue`` or ``luminance`` embed, four for a ``perchannel`` one.
Afterwards BLAS has its thread count back, also after a refused keyed
embed.  Pinning stops OpenBLAS's idle workers, or, where the stop cannot
be found, only pins; either way a matrix product after the pin is
bit-identical to one before it.
"""

import pytest

from conftest import needs_openblas, run_with_blas_threads

SCRIPT = """
import hashlib, io, contextlib, json, os, sys, threading
import numpy as np
import svdmark as sm
from conftest import FakeOpenBLAS
from svdmark import color, matrix, semiblind
from svdmark.cli import cli_main

started = []
start = threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))[1]

# The real thread functions, each set and stop logged.
blas = matrix._bundled_openblas = FakeOpenBLAS()

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

os.chdir(sys.argv[1])
img = sm.synthetic_rgb(64, 64, seed=5)
wm = sm.synthetic_image(64, 64, 2002, roughness=1.2, contrast=70.0)
sm.write_ppm(img, "c.ppm")
sm.write_pgm(wm, "w.pgm")
sm.write_pgm(sm.synthetic_image(64, 64, 1001, roughness=2.0, contrast=52.0), "c.pgm")
img, wm = sm.read_ppm("c.ppm"), sm.read_pgm("w.pgm")  # the 8-bit planes the CLI reads
names = {digest(wm): "watermark", digest(color.luminance_split(img)): "luminance"}
names.update((digest(p), n) for n, p in zip("rgb", img.channels()))

svds = []  # [input, on the calling thread, BLAS threads] of each embed SVD
decompose = semiblind.svd
def traced(m):
    svds.append([names.get(digest(m), "cover"),
                 threading.current_thread() is threading.main_thread(), blas.get()])
    return decompose(m)
semiblind.svd = traced

report = {}

def step(name, run):
    del started[:], svds[:], blas.calls[:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        value = run()
    report[name] = {"value": value, "stderr": err.getvalue(),
                    "threads_started": len(started), "svds": sorted(svds),
                    "stops": blas.stops(), "blas_threads_after": blas.get()}

def embed(cover, scheme, strategy=None, alpha="0.1"):
    argv = ["embed" if scheme == "semi" else "embed-hash", "--cover", cover,
            "--watermark", "w.pgm", "--out", "m" + cover[1:], "--key", "k.svdk",
            "--alpha", alpha]
    argv += ["--id", "alice|8f3a9c"] if scheme == "keyed" else []
    argv += ["--strategy", strategy] if strategy else []
    for f in ("m.pgm", "m.ppm", "k.svdk"):
        if os.path.exists(f):
            os.unlink(f)
    code = cli_main(argv)
    return [code, sorted(f for f in os.listdir() if f.startswith(("m.", "k.")))]

def library(scheme):
    ident = sm.Identity.from_string("alice|8f3a9c") if scheme == "keyed" else None
    sm.embed_color(img, wm, "perchannel", scheme_tags[scheme], 0.1, ident)
    return 0

scheme_tags = {"semi": sm.SchemeTag.SEMI_BLIND, "keyed": sm.SchemeTag.HASH_CODE}
report["blas_threads"] = blas.get()
for scheme in ("semi", "keyed"):
    step(f"library/{scheme}", lambda: library(scheme))
    step(f"grey/{scheme}", lambda: embed("c.pgm", scheme))
    for strategy in ("blue", "luminance", "perchannel"):
        step(f"{strategy}/{scheme}", lambda: embed("c.ppm", scheme, strategy))
step("perchannel/refused", lambda: embed("c.ppm", "keyed", "perchannel", "1e-13"))
blas.found = False
step("perchannel/no_blas_lookup", lambda: embed("c.ppm", "semi", "perchannel"))
print(json.dumps(report))
"""


def _run(value, svds, threads_started=0, stops=0, blas_threads_after=None, stderr=""):
    return {"value": value, "stderr": stderr, "threads_started": threads_started,
            "svds": sorted(svds), "stops": stops, "blas_threads_after": blas_threads_after}


def _svds(planes, workers, blas, jobs=None):
    """Where an embed's first ``jobs`` SVDs ran: job ``i`` (the watermark's,
    then each of ``planes``' in turn) on the calling thread when
    ``i % workers == 0``, each at ``blas`` BLAS threads."""
    return [[name, i % workers == 0, blas]
            for i, name in enumerate(["watermark", *planes][:jobs])]


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_cli_embed_threads(threads, tmp_path):
    r = run_with_blas_threads(SCRIPT, str(tmp_path), threads=threads)
    assert r["blas_threads"] == threads
    # With BLAS on one thread, an embed's SVDs share min(threads, SVDs)
    # threads, and the pool's idle workers were stopped once, after the pin.
    def pinned(svds):
        workers = min(threads, svds)
        return workers, {"threads_started": workers - 1, "stops": int(workers > 1),
                         "blas_threads_after": threads}

    for scheme in ("semi", "keyed"):
        # The library's embed_color takes its SVDs as the CLI's perchannel embed.
        workers, pin = pinned(4)
        assert r[f"library/{scheme}"] == _run(0, _svds("rgb", workers, 1), **pin)
        for name, planes, out in (("grey", ["cover"], "m.pgm"), ("blue", ["b"], "m.ppm"),
                                  ("luminance", ["luminance"], "m.ppm"),
                                  ("perchannel", "rgb", "m.ppm")):
            workers, pin = pinned(len(planes) + 1)
            assert r[f"{name}/{scheme}"] == _run([0, ["k.svdk", out]],
                                                 _svds(planes, workers, 1), **pin), name
    # A keyed embed at an alpha too small to round back from on any plane
    # is refused: each thread stops at its first plane, the error is
    # r's, nothing is written and BLAS gets its count back.
    workers, pin = pinned(4)
    line = "error: InvalidParameter: alpha 1e-13 is too small to recover a mark from\n"
    assert r["perchannel/refused"] == _run([1, []], _svds("rgb", workers, 1, workers + 1),
                                           stderr=line, **pin)
    # Without the OpenBLAS functions the embed runs on the calling thread.
    assert r["perchannel/no_blas_lookup"] == _run([0, ["k.svdk", "m.ppm"]],
                                                  _svds("rgb", 1, threads),
                                                  blas_threads_after=threads)


STOP = """
import json, threading
import numpy as np
from conftest import FakeOpenBLAS
from svdmark import matrix

real = matrix._bundled_openblas
report = {"stop_found": bool(real()[2])}
rng = np.random.default_rng(0)
a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 512))
before = (a @ b).tobytes()
for name, stop in (("stop", True), ("no_stop", False)):
    matrix._bundled_openblas = real
    blas = matrix._bundled_openblas = FakeOpenBLAS(stop=stop)
    a @ b  # wakes BLAS's workers, if it has any
    inside = matrix._map(lambda _: [blas.get(), threading.get_ident()], range(3))
    report[name] = {"threads": len({t for _, t in inside}), "inside": [n for n, _ in inside],
                    "calls": blas.calls, "after": blas.get(),
                    "gemm_after": (a @ b).tobytes() == before}
print(json.dumps(report))
"""


@needs_openblas
def test_pin_stops_idle_workers():
    r = run_with_blas_threads(STOP, threads=2)
    assert r["stop_found"]
    # Three items share BLAS's two threads, on which BLAS reads one; the
    # workers are stopped once BLAS is on one thread, and a product after
    # the pin, which starts them again, keeps its bits.
    assert r["stop"] == {"threads": 2, "inside": [1, 1, 1],
                         "calls": [["set", 1], ["stop", 1], ["set", 2]],
                         "after": 2, "gemm_after": True}
    # Without the stop the pin still sets and restores the count.
    assert r["no_stop"] == {"threads": 2, "inside": [1, 1, 1],
                            "calls": [["set", 1], ["set", 2]], "after": 2, "gemm_after": True}
