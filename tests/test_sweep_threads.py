"""The sweep's threads, in the library and the CLI, checked in subprocesses
because the BLAS thread count is fixed when numpy loads.

``robustness_sweep``, which the CLI's ``sweep`` calls, takes the cover's
and the watermark's SVDs side by side through ``matrix._map``, then
spreads its alphas over ``_map`` too: each time numpy's OpenBLAS is
pinned to one thread and the work runs on as many threads as BLAS had,
the calling thread one of them.  Its CSV must not change: under 1 and
under 2 BLAS threads, and at BLAS's own default count, the canonical
scene's CSV hashes to ``SWEEP_256_CSV_SHA256``, from the library as from
the CLI.  Afterwards BLAS has its thread count back, also after a failing
sweep.  A sweep of one alpha still takes its two SVDs side by side, and a
sweep where the OpenBLAS functions cannot be found starts no thread and
leaves BLAS alone.  A failing alpha is named in the one error line,
whichever thread meets it, and so is a failing SVD, whichever of the two
fails.
"""

import pytest

import thresholds as th
from conftest import needs_openblas, run_with_blas_threads
from svdmark import matrix

SCRIPT = """
import hashlib, json, os, sys, threading
import svdmark as sm
import thresholds as th
from conftest import FakeOpenBLAS
from svdmark import analysis, matrix
from svdmark.cli import cli_main

started = []
start = threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))[1]

blas = matrix._bundled_openblas = FakeOpenBLAS()  # the real thread functions

during = set()  # the BLAS thread counts the alpha rows met
mark = analysis._mark
def counted_mark(*args):
    during.add(blas.get())
    return mark(*args)
analysis._mark = counted_mark

svds = []  # [input, on the calling thread, BLAS threads] of each sweep SVD
def traced(name, decompose):
    def call(m):
        svds.append([name, threading.current_thread() is threading.main_thread(),
                     blas.get()])
        return decompose(m)
    return call
analysis.svd = traced("cover", analysis.svd)
analysis.split_watermark = traced("watermark", analysis.split_watermark)

os.chdir(sys.argv[1])
cover = sm.synthetic_image(256, 256, th.COVER_SEED, roughness=2.0, contrast=52.0)
wm = sm.synthetic_image(256, 256, th.WM_SEED, roughness=1.2, contrast=70.0)
sm.write_pgm(cover, "c.pgm")  # lossless: the scene's pixels are integral
sm.write_pgm(wm, "w.pgm")
q = 256 // 8
specs = [sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
         sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
         sm.AttackSpec(kind=sm.AttackKind.CROP, rect=(q, q, 2 * q, 2 * q)),
         sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.5)]
alphas = [round(0.05 * k, 2) for k in range(1, 11)]
report = {}

def step(name, run):
    del started[:], svds[:]
    during.clear()
    value = run()
    report[name] = {"value": value, "threads_started": len(started),
                    "blas_threads_during": sorted(during), "svds": sorted(svds),
                    "blas_threads_after": blas.get()}

def sweep(alphas_arg, out="r.csv"):
    code = cli_main(["sweep", "--cover", "c.pgm", "--watermark", "w.pgm",
                     "--alphas", alphas_arg, "--out", out, "--attacks",
                     f"gaussian-noise:sigma=2:seed=7,quantize-8bit,"
                     f"crop:rect={q};{q};{2 * q};{2 * q},rescale:scale=0.5"])
    with open(out, "rb") as f:
        return code, hashlib.sha256(f.read()).hexdigest()

def library():
    csv = sm.robustness_sweep(cover, wm, alphas, specs).to_csv()
    return hashlib.sha256(csv.encode("ascii")).hexdigest()

step("library", library)
report["blas_threads"] = blas.get()
step("cli", lambda: sweep(",".join(map(str, alphas))))
step("cli_one_alpha", lambda: sweep("0.1", "r1.csv")[0])
step("cli_failing", lambda: cli_main(["sweep", "--cover", "c.pgm", "--watermark", "w.pgm",
                                      "--alphas", "0.1,0.2,5e-324", "--attacks",
                                      "quantize-8bit", "--out", "bad.csv"]))
blas.found = False
step("cli_no_blas_lookup", lambda: sweep(",".join(map(str, alphas)), "r2.csv"))
print(json.dumps(report))
"""


def _svds(blas, side_by_side):
    """Where a sweep's two SVDs ran: the cover's on the calling thread, the
    watermark's on a helper when they ran side by side, both at ``blas``."""
    return [["cover", True, blas], ["watermark", not side_by_side, blas]]


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_cli_sweep_threads(threads, tmp_path):
    r = run_with_blas_threads(SCRIPT, str(tmp_path), threads=threads)
    assert r["blas_threads"] == threads
    # With BLAS on one thread, the two SVDs share min(threads, 2) threads,
    # then the alphas one thread per BLAS thread, the calling one included
    # each time.  The library sweep is the CLI's, threads and all.
    side_by_side = threads >= 2
    assert r["library"] == {"value": th.SWEEP_256_CSV_SHA256,
                            "threads_started": (min(threads, 2) - 1) + (min(threads, 10) - 1),
                            "blas_threads_during": [1], "svds": _svds(1, side_by_side),
                            "blas_threads_after": threads}
    assert r["cli"] == {"value": [0, th.SWEEP_256_CSV_SHA256],
                        "threads_started": (min(threads, 2) - 1) + (min(threads, 10) - 1),
                        "blas_threads_during": [1], "svds": _svds(1, side_by_side),
                        "blas_threads_after": threads}
    assert r["cli_failing"] == {"value": 1,
                                "threads_started": (min(threads, 2) - 1) + (min(threads, 3) - 1),
                                "blas_threads_during": [1], "svds": _svds(1, side_by_side),
                                "blas_threads_after": threads}
    # One alpha runs on the calling thread, pinned, after the two SVDs
    # ran side by side.
    assert r["cli_one_alpha"] == {"value": 0, "threads_started": min(threads, 2) - 1,
                                  "blas_threads_during": [1],
                                  "svds": _svds(1, side_by_side),
                                  "blas_threads_after": threads}
    # Without the OpenBLAS functions the sweep runs on the calling thread.
    assert r["cli_no_blas_lookup"] == {"value": [0, th.SWEEP_256_CSV_SHA256],
                                       "threads_started": 0,
                                       "blas_threads_during": [threads],
                                       "svds": _svds(threads, False),
                                       "blas_threads_after": threads}


@needs_openblas
def test_cli_sweep_threads_at_blas_default(tmp_path):
    # Neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is set, so BLAS
    # picks its own count (the core count), the one case that can start
    # more than one helper for the alphas.
    r = run_with_blas_threads(SCRIPT, str(tmp_path))
    threads = r["blas_threads"]
    assert r["cli"] == {"value": [0, th.SWEEP_256_CSV_SHA256],
                        "threads_started": (min(threads, 2) - 1) + (min(threads, 10) - 1),
                        "blas_threads_during": [1], "svds": _svds(1, threads >= 2),
                        "blas_threads_after": threads}


TINY_ALPHA = """
import contextlib, io, json, os, sys
import svdmark as sm
import thresholds as th
from svdmark.cli import cli_main

os.chdir(sys.argv[1])
sm.write_pgm(sm.synthetic_image(64, 64, th.COVER_SEED, roughness=2.0, contrast=52.0), "c.pgm")
sm.write_pgm(sm.synthetic_image(64, 64, th.WM_SEED, roughness=1.2, contrast=70.0), "w.pgm")
runs = []
for alphas in ("5e-324,0.1,0.2,0.3", "0.1,0.2,0.3,5e-324"):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["sweep", "--cover", "c.pgm", "--watermark", "w.pgm", "--alphas",
                         alphas, "--attacks", "quantize-8bit", "--out", "r.csv"])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_tiny_alpha_is_named_in_one_error_line(threads, tmp_path):
    # Recovery at alpha 5e-324 divides by it and overflows; whichever
    # thread meets that alpha, first or last, the error names it.
    line = ("error: InvalidInput: the watermark recovered at alpha 5e-324 "
            "contains NaN or Inf entries\n")
    assert run_with_blas_threads(TINY_ALPHA, str(tmp_path), threads=threads) == [
        [1, "", line], [1, "", line]]
    assert not (tmp_path / "r.csv").exists()


OVERFLOW_SVD = """
import contextlib, io, json, os, sys
import numpy as np
import svdmark as sm
import thresholds as th
from svdmark import matrix
from svdmark.cli import cli_main

os.chdir(sys.argv[1])
sm.write_pgm(sm.synthetic_image(64, 64, th.COVER_SEED, roughness=2.0, contrast=52.0), "c.pgm")
sm.write_float_image(np.full((64, 64), 1e308), "h.svdf")  # its SVD overflows sigma
runs = []
for cover, watermark in (("h.svdf", "c.pgm"), ("c.pgm", "h.svdf")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["sweep", "--cover", cover, "--watermark", watermark, "--alphas",
                         "0.1,0.2,0.3", "--attacks", "quantize-8bit", "--out", "r.csv"])
    get = matrix._bundled_openblas()[0]
    runs.append([code, out.getvalue(), err.getvalue(), os.path.exists("r.csv"),
                 get and get()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_svd_is_one_error_line(threads, tmp_path):
    # Over three alphas the cover's and the watermark's SVDs may run on two
    # threads; whichever overflows, the sweep fails with one line, writes
    # no CSV and gives BLAS its thread count back.
    blas = threads if matrix._bundled_openblas()[0] else None
    line = "error: InvalidInput: s contains NaN or Inf entries\n"
    assert run_with_blas_threads(OVERFLOW_SVD, str(tmp_path), threads=threads) == [
        [1, "", line, False, blas], [1, "", line, False, blas]]
