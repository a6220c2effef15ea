"""How far the README's determinism claim reaches, checked in subprocesses
because the BLAS thread count is fixed when numpy loads.

Every SVD the package takes, from the library or the CLI, runs with BLAS
pinned to one thread, ``matrix.svd`` seeing to it whoever calls it, the
public ``svd`` and ``split_watermark`` included, and every correlation and
orthogonality residual is summed by numpy rather than BLAS, so the
pipeline's outputs are bit-identical under 1, 2 and 4 OpenBLAS threads:
the factors and their orthogonality residuals, the marked images, the
extracted watermarks, the keyed bytes, the sweep CSV, and the
full-precision NC and PSNR floats of the sweep's rows, of an extraction
and of a keyed verification.  Likewise every CLI embed writes the same
marked image and key bytes, and ``detect-reference`` the same projection,
under 1, 2 and 4 (the ``perchannel`` embeds under 1 and 2).
"""

from conftest import needs_openblas, run_with_blas_threads
from svdmark.matrix import ORTHOGONALITY_TOL

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
report = sm.robustness_sweep(cover, wm, [0.05, 0.1, 0.2], attacks)
csv = report.to_csv()
print(json.dumps({
    "u": digest(info.u), "s": digest(info.sigma), "v": digest(info.v),
    "v_w": digest(info.v_w), "marked": digest(marked),
    "extracted": digest(sm.extract(marked, info)),
    "marked_hash": digest(marked_h),
    "keyed_bytes": digest(sm.recover_masked_bytes(marked_h, info_h)),
    "extracted_hash": digest(sm.extract_invisible(marked_h, info_h, ident)),
    "sweep_csv": hashlib.sha256(csv.encode("ascii")).hexdigest(),
    # Full precision, where the CSV rounds to 6 decimals.
    "sweep_floats": [[row.nc.hex(), row.psnr_db.hex()] for row in report.rows],
    "extracted_nc": sm.normalized_correlation(sm.extract(marked, info), wm).hex(),
    "verify_nc": sm.verify_invisible(marked_h, info_h, ident, wm).nc_score.hex(),
}))
"""


def test_outputs_across_blas_thread_counts():
    one, two, four, one_again, two_again = (run_with_blas_threads(PIPELINE, threads=t)
                                             for t in (1, 2, 4, 1, 2))
    assert one == one_again and two == two_again
    assert one == two == four


FACTORS = """
import hashlib, json
import numpy as np
import svdmark as sm
import thresholds as th
from svdmark.matrix import orthogonality_residual

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

cover = sm.synthetic_image(256, 256, th.COVER_SEED, roughness=2.0, contrast=52.0)
wm = sm.synthetic_image(256, 256, th.WM_SEED, roughness=1.2, contrast=70.0)
f = sm.svd(cover)
a_wa, v_w = sm.split_watermark(wm)
print(json.dumps({
    "factors": [digest(x) for x in (f.u, f.sigma, f.v, a_wa, v_w)],
    "residuals": [orthogonality_residual(x).hex() for x in (f.u, v_w)],
}))
"""


@needs_openblas
def test_public_svd_and_split_watermark_across_blas_thread_counts():
    # Called outside any batch, ``svd`` pins BLAS to one thread itself.
    runs = [run_with_blas_threads(FACTORS, threads=t) for t in (1, 2, 4)]
    assert all(r["factors"] == runs[0]["factors"] for r in runs[1:])
    # The residual is summed by numpy, not BLAS, so its bits repeat too.
    assert all(r["residuals"] == runs[0]["residuals"] for r in runs[1:])
    assert max(float.fromhex(x) for x in runs[0]["residuals"]) < ORTHOGONALITY_TOL


CLI_EMBEDS = """
import contextlib, hashlib, io, json, os, sys
import svdmark as sm
import thresholds as th
from svdmark.cli import cli_main

os.chdir(sys.argv[1])
sm.write_pgm(sm.synthetic_image(256, 256, th.COVER_SEED, roughness=2.0, contrast=52.0), "c.pgm")
sm.write_ppm(sm.synthetic_rgb(256, 256, th.COVER_SEED), "c.ppm")
sm.write_pgm(sm.synthetic_image(256, 256, th.WM_SEED, roughness=1.2, contrast=70.0), "w.pgm")
sm.write_pgm(sm.synthetic_image(256, 256, th.REF_SEEDS[0], roughness=1.9, contrast=55.0),
             "r.pgm")
keyed = ["--id", th.EMBED_ID]
cases = {"grey": ("embed", "c.pgm", []), "grey-hash": ("embed-hash", "c.pgm", keyed)}
for strategy in ("blue", "luminance", "perchannel"):
    cases[strategy] = ("embed", "c.ppm", ["--strategy", strategy])
    cases[strategy + "-hash"] = ("embed-hash", "c.ppm", ["--strategy", strategy, *keyed])

def digests(*files):
    return [hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files]

out = {}
for name in sys.argv[2:]:
    if name == "detect-reference":  # on the grey embed's marked image and key
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli_main(["detect-reference", "--marked", "m.pgm", "--key", "k.svdk",
                             "--reference", "r.pgm", "--out", "p.svdf"])
        out[name] = [code, printed.getvalue()] + digests("p.svdf")
        continue
    command, cover, extra = cases[name]
    marked = "m" + cover[1:]
    code = cli_main([command, "--cover", cover, "--watermark", "w.pgm", *extra,
                     "--out", marked, "--key", "k.svdk"])
    out[name] = [code] + digests(marked, "k.svdk")
print(json.dumps(out))
"""


def _cli_embeds(tmp_path, names, threads):
    runs = [run_with_blas_threads(CLI_EMBEDS, str(tmp_path), *names, threads=t)
            for t in threads]
    assert all(run == runs[0] for run in runs[1:])
    assert [v[0] for v in runs[0].values()] == [0] * len(names)


@needs_openblas
def test_perchannel_cli_embed_across_blas_thread_counts(tmp_path):
    # Its four SVDs run side by side with BLAS pinned to one thread, so the
    # thread count changes neither the marked image nor the key.
    _cli_embeds(tmp_path, ["perchannel", "perchannel-hash"], (1, 2))


@needs_openblas
def test_one_plane_cli_embed_across_blas_thread_counts(tmp_path):
    # A one-plane embed's two SVDs, the watermark's and the plane's, run
    # side by side with BLAS pinned to one thread too.
    _cli_embeds(tmp_path, ["grey", "grey-hash", "blue", "luminance"], (1, 2, 4))


@needs_openblas
def test_detect_reference_across_blas_thread_counts(tmp_path):
    # The reference's SVD runs with BLAS pinned to one thread, as the embed's do.
    _cli_embeds(tmp_path, ["grey", "detect-reference"], (1, 2, 4))
