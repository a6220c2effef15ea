import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svdmark as sm
import thresholds as th
from svdmark import matrix


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


class FakeOpenBLAS:
    """A stand-in for ``matrix._bundled_openblas``: OpenBLAS's thread getter,
    setter and worker stop, each set and stop logged in ``calls`` (a stop
    with the count it found), and the real ``dgesdd``.  The three pass
    through to the bundled OpenBLAS or, given ``threads``, keep a count of
    their own that no BLAS call follows.  ``stop=False`` leaves the stop
    out, and ``found = False`` all three, as a BLAS that does not export
    them; ``get`` still reads the count."""

    def __init__(self, threads=None, stop=True):
        self._get, self._set, self._stop, self.gesdd = matrix._bundled_openblas()
        if threads is not None:
            count = [threads]
            self._get, self._set = (lambda: count[0]), (lambda n: count.__setitem__(0, n))
            self._stop = lambda: 0
        self.has_stop, self.found, self.calls = stop, True, []

    def __call__(self):
        if not self.found:
            return [None, None, None, self.gesdd]
        return [self.get, self.set, self.stop if self.has_stop else None, self.gesdd]

    def get(self):
        return self._get()

    def set(self, n):
        self.calls.append(["set", n])
        self._set(n)

    def stop(self):
        self.calls.append(["stop", self._get()])
        return self._stop()

    def stops(self):
        return sum(call[0] == "stop" for call in self.calls)


@pytest.fixture()
def fake_openblas(monkeypatch):
    """``install(**kwargs)``: a ``FakeOpenBLAS(**kwargs)`` in place of
    ``matrix._bundled_openblas`` for the test, returned."""
    def install(**kwargs):
        fake = FakeOpenBLAS(**kwargs)
        monkeypatch.setattr(matrix, "_bundled_openblas", fake)
        return fake
    return install


needs_openblas = pytest.mark.skipif(not matrix._bundled_openblas()[0],
                                    reason="numpy's BLAS is not its bundled OpenBLAS")
