import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svdmark as sm
import thresholds as th


def make_cover(n=256):
    return sm.synthetic_image(n, n, th.COVER_SEED, roughness=2.0, contrast=52.0)

def make_watermark(n=256):
    return sm.synthetic_image(n, n, th.WM_SEED, roughness=1.2, contrast=70.0)

def make_reference(seed, n=256):
    return sm.synthetic_image(n, n, seed, roughness=1.9, contrast=55.0)


@pytest.fixture(scope="session")
def cover256():
    return make_cover(256)

@pytest.fixture(scope="session")
def watermark256():
    return make_watermark(256)

@pytest.fixture(scope="session")
def cover64():
    return make_cover(64)

@pytest.fixture(scope="session")
def watermark64():
    return make_watermark(64)

@pytest.fixture(scope="session")
def identity():
    return sm.Identity.from_string(th.EMBED_ID)


def seeded_matrix(seed, rows, cols, low=0.0, high=255.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(low, high, (rows, cols))


def dense_s(f):
    """The M x N ``S`` of factors ``f``: ``f.sigma`` on the diagonal, zeros off it."""
    s = np.zeros((len(f.u), len(f.v)))
    np.fill_diagonal(s, f.sigma)
    return s


TESTS = Path(__file__).resolve().parent


def run_with_blas_threads(script, *args, threads=None):
    """Run ``script`` with ``args`` in a fresh interpreter, since the BLAS
    thread count is fixed when numpy loads, under ``threads`` OpenBLAS
    threads, or BLAS's own default when ``None``; return its last stdout
    line, parsed as JSON."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])
