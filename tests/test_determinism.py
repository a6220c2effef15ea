"""How far the README's determinism claim reaches, checked in subprocesses
because the BLAS thread count is fixed when numpy loads.

Run twice with the same thread count (1 or 2), the pinned pipeline
repeats every output bit-for-bit.  Across 1 and 2 OpenBLAS threads only
the set in ``STABLE`` is bit-identical: the BLAS reduction order changes
the last bits of ``V``, ``V_w``, the marked images and the extracted
watermarks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

PIPELINE = """
import hashlib, json
import numpy as np
import svdmark as sm
import thresholds as th

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

cover = sm.synthetic_image(256, 256, th.COVER_SEED, roughness=2.0, contrast=52.0)
wm = sm.synthetic_image(256, 256, th.WM_SEED, roughness=1.2, contrast=70.0)
ident = sm.Identity.from_string(th.EMBED_ID)
marked, info = sm.embed(cover, wm, 0.1)
marked_h, info_h = sm.embed_invisible(cover, wm, ident, 0.1)
attacks = [sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=2.0, seed=7),
           sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
           sm.AttackSpec(kind=sm.AttackKind.RESCALE, scale=0.5)]
csv = sm.robustness_sweep(cover, wm, [0.05, 0.1, 0.2], attacks).to_csv()
print(json.dumps({
    "u": digest(info.u), "s": digest(info.s), "v": digest(info.v),
    "v_w": digest(info.v_w), "marked": digest(marked),
    "extracted": digest(sm.extract(marked, info)),
    "marked_hash": digest(marked_h),
    "keyed_bytes": digest(sm.recover_masked_bytes(marked_h, info_h)),
    "extracted_hash": digest(sm.extract_invisible(marked_h, info_h, ident)),
    "sweep_csv": hashlib.sha256(csv.encode("ascii")).hexdigest(),
}))
"""

STABLE = {"u", "s", "keyed_bytes", "sweep_csv"}


def _run(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", PIPELINE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_outputs_across_blas_thread_counts():
    one, two, one_again, two_again = _run(1), _run(2), _run(1), _run(2)
    assert one == one_again and two == two_again
    assert {k: one[k] for k in STABLE} == {k: two[k] for k in STABLE}
