"""How many SVDs and orthogonality checks each composite operation runs.

The cover and watermark factors are computed once per operation: a sweep
shares them across its alphas and a per-channel color embed shares the
watermark split across its planes.  Factors have one trust rule: fresh
LAPACK factors hold the invariants by construction, so an embed builds
its side info from them with no orthogonality check, and the sweep
checks none either.  Factors from outside are checked once, where they
enter: a key file's when it is loaded, and caller data when it is
wrapped.  A key checks what its records share once, so a bundle load
checks ``2 * records + 1`` matrices.  ``detect_reference`` takes a
reference image and trusts its fresh SVD, so it checks none; the CLI
takes that SVD once for every plane a colour key marks.
Every embed, from the library or the CLI, checks its arguments (and the
CLI its ``--out`` name) before the first SVD, so a refused embed runs
none.  Every other command that writes an image checks that path before
it reads any input, so a refused one does no work either.  An input
whose factors would pass ``matrix.MAX_FACTOR_ENTRIES`` reaches ``svd``
but never LAPACK.
Every LAPACK call, from every CLI command and every library entry point
that takes an SVD, runs with BLAS pinned to one thread, and two library
callers in two threads each get the one-thread bits.
"""

import math
import os
import re
import sys
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import svdmark as sm
from svdmark import matrix
from svdmark.cli import cli_main

from conftest import needs_openblas, run_with_blas_threads, seeded_matrix
from keyfiles import key_parts, key_payload, write_key_parts


def _count_calls(monkeypatch, func):
    """Count calls of ``matrix.<func>`` through every svdmark module that binds it."""
    calls = []
    original = getattr(matrix, func)

    def counting(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "svdmark" and getattr(module, func, None) is original:
            monkeypatch.setattr(module, func, counting)
    return calls


@pytest.fixture()
def svd_calls(monkeypatch):
    return _count_calls(monkeypatch, "svd")


@pytest.fixture()
def orthogonality_checks(monkeypatch):
    return _count_calls(monkeypatch, "orthogonality_residual")


@pytest.mark.parametrize("n_alphas", [1, 3, 10])
def test_sweep_runs_two_svds(svd_calls, n_alphas):
    cover, wm = seeded_matrix(1, 24, 24), seeded_matrix(2, 24, 24)
    alphas = [0.05 * (k + 1) for k in range(n_alphas)]
    attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
               sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=1.0, seed=3)]
    sm.robustness_sweep(cover, wm, alphas, attacks)
    assert len(svd_calls) == 2


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("strategy,expected", [
    (sm.ChannelStrategy.PER_CHANNEL, 4),
    (sm.ChannelStrategy.LUMINANCE, 2),
    (sm.ChannelStrategy.BLUE_CHANNEL, 2),
])
def test_color_embed_svd_count(svd_calls, identity, scheme, strategy, expected):
    img = sm.synthetic_rgb(24, 24, seed=5)
    ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
    sm.embed_color(img, seeded_matrix(3, 24, 24), strategy, scheme, alpha=0.1,
                   identity=ident)
    assert len(svd_calls) == expected


def test_embed_trusts_fresh_factors(orthogonality_checks, identity):
    cover, wm = seeded_matrix(1, 24, 20), seeded_matrix(2, 24, 20)
    sm.embed(cover, wm, 0.1)
    sm.embed_invisible(cover, wm, identity, 0.1)
    sm.embed_color(sm.synthetic_rgb(24, 20, seed=5), wm, sm.ChannelStrategy.PER_CHANNEL,
                   sm.SchemeTag.SEMI_BLIND, alpha=0.1)
    assert orthogonality_checks == []


def test_sweep_checks_no_factors(orthogonality_checks):
    cover, wm = seeded_matrix(1, 24, 24), seeded_matrix(2, 24, 24)
    sm.robustness_sweep(cover, wm, [0.05, 0.1],
                        [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])
    assert orthogonality_checks == []


def test_trust_boundaries_keep_their_checks(orthogonality_checks, tmp_path):
    marked, info = sm.embed(seeded_matrix(1, 24, 20), seeded_matrix(2, 24, 20), 0.1)
    path = str(tmp_path / "key.json")
    sm.save_sideinfo(info, path)
    del orthogonality_checks[:]
    sm.load_sideinfo(path)
    assert len(orthogonality_checks) == 3
    sm.SvdFactors(u=info.u, s=info.sigma, v=info.v)
    assert len(orthogonality_checks) == 5
    sm.detect_reference(marked, info, seeded_matrix(3, 24, 20))  # trusts the reference's SVD
    assert len(orthogonality_checks) == 5


def _saved_bundle(tmp_path, strategy):
    _, bundle = sm.embed_color(sm.synthetic_rgb(24, 20, seed=5), seeded_matrix(2, 24, 20),
                               strategy, sm.SchemeTag.SEMI_BLIND)
    path = str(tmp_path / "bundle.svdk")
    sm.save_bundle(bundle, path)
    return bundle, path


@pytest.mark.parametrize("strategy, records", [("perchannel", 3), ("luminance", 1)])
def test_bundle_load_checks_every_record(orthogonality_checks, tmp_path, strategy, records):
    # Each record's u and v is checked, and the v_w they share once.  The
    # wrong loader refuses the bundle before building any record.
    _, path = _saved_bundle(tmp_path, strategy)
    with pytest.raises(sm.MalformedSideInfo):
        sm.load_sideinfo(path)
    assert orthogonality_checks == []
    sm.load_bundle(path)
    assert len(orthogonality_checks) == 2 * records + 1


@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
def test_embed_and_load_build_bundles_unchecked(monkeypatch, tmp_path, strategy):
    # Their records share scheme, alpha, quant, shape and v_w by
    # construction; a bundle a caller builds is still checked.
    checked = []
    monkeypatch.setattr(sm.SideInfoBundle, "__post_init__", lambda b: checked.append(b))
    bundle, path = _saved_bundle(tmp_path, strategy)
    loaded = sm.load_bundle(path)
    assert checked == []
    for b in (bundle, loaded):
        assert b.strategy is strategy and isinstance(b.infos, tuple)
        assert len(b.infos) == (3 if strategy is sm.ChannelStrategy.PER_CHANNEL else 1)
    caller_built = sm.SideInfoBundle(strategy, loaded.infos)
    assert len(checked) == 1 and checked[0] is caller_built


RECORD_DEFECTS = {
    "u-not-orthogonal": lambda r: dict(r, u=r["u"] * 1.01),
    "v-not-orthogonal": lambda r: dict(r, v=r["v"] + 1e-3),
    "sigma-increasing": lambda r: dict(r, sigma=r["sigma"][::-1]),
}


@pytest.mark.parametrize("defect", list(RECORD_DEFECTS))
@pytest.mark.parametrize("record", [1, 2])
def test_bundle_load_checks_each_later_record(tmp_path, record, defect):
    # Records after the first take the shared fields from it, yet their
    # own factors are checked as the first record's are.
    bundle, path = _saved_bundle(tmp_path, "perchannel")
    meta, _ = key_parts(path)
    records = [{k: vars(i)[k] for k in ("u", "sigma", "v", "v_w")} for i in bundle.infos]
    records[record] = RECORD_DEFECTS[defect](records[record])
    write_key_parts(path, meta, key_payload([SimpleNamespace(**r) for r in records]))
    with pytest.raises(sm.InvalidInput):
        sm.load_bundle(path)


# Alphas every embed refuses: recovery divides by alpha, so it must be
# finite and positive.
BAD_ALPHAS = [0.0, -0.0, -0.1, math.nan, math.inf]


def _library_embeds(identity):
    cover, wm = seeded_matrix(1, 24, 20), seeded_matrix(2, 24, 20)
    img = sm.synthetic_rgb(24, 20, seed=5)
    yield "embed", partial(sm.embed, cover, wm)
    yield "embed_invisible", partial(sm.embed_invisible, cover, wm, identity)
    for strategy in sm.ChannelStrategy:
        for scheme in sm.SchemeTag:
            ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
            yield (f"embed_color/{strategy.value}/{scheme.value}",
                   partial(sm.embed_color, img, wm, strategy, scheme, identity=ident))


@pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=str)
def test_library_embed_refuses_alpha_before_any_svd(svd_calls, identity, alpha):
    for name, enter in _library_embeds(identity):
        with pytest.raises(sm.InvalidParameter, match="finite and positive"):
            enter(alpha)
        assert svd_calls == [], name


def _embed_argv(tmp_path, command, cover_ext, out):
    cover, wm = str(tmp_path / f"cover.{cover_ext}"), str(tmp_path / "wm.pgm")
    if cover_ext == "ppm":
        sm.write_ppm(sm.synthetic_rgb(16, 16, seed=5), cover)
    else:
        sm.write_pgm(seeded_matrix(1, 16, 16), cover)
    sm.write_pgm(seeded_matrix(2, 16, 16), wm)
    ident = ["--id", "alice|8f3a9c"] if command == "embed-hash" else []
    return [command, "--cover", cover, "--watermark", wm, *ident,
            "--out", str(tmp_path / out), "--key", str(tmp_path / "key.svdk")]


def _refused(tmp_path, capsys, argv, error, inputs):
    """Run ``argv``: exit 1 with one ``error`` line, and no file but ``inputs``."""
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}:") and err.count("\n") == 1, err
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=str)
@pytest.mark.parametrize("cover_ext", ["pgm", "ppm"])
@pytest.mark.parametrize("command", ["embed", "embed-hash"])
def test_cli_embed_refuses_alpha_before_any_svd(svd_calls, tmp_path, capsys,
                                                command, cover_ext, alpha):
    argv = _embed_argv(tmp_path, command, cover_ext, f"marked.{cover_ext}")
    _refused(tmp_path, capsys, [*argv, f"--alpha={alpha}"], "InvalidParameter",
             [f"cover.{cover_ext}", "wm.pgm"])
    assert svd_calls == []


@pytest.mark.parametrize("out", ["m.txt", "m.ppm", "m"])
@pytest.mark.parametrize("command", ["embed", "embed-hash"])
def test_grayscale_embed_checks_out_before_any_svd(svd_calls, tmp_path, capsys,
                                                   command, out):
    argv = _embed_argv(tmp_path, command, "pgm", out)
    _refused(tmp_path, capsys, argv, "UnsupportedFormat", ["cover.pgm", "wm.pgm"])
    assert svd_calls == []
    # Checked before any input is read, so missing inputs do not matter.
    for name in ("cover.pgm", "wm.pgm"):
        (tmp_path / name).unlink()
    _refused(tmp_path, capsys, argv, "UnsupportedFormat", [])


def _work_argv(tmp_path, command, out):
    """Inputs for ``command`` and its argv, with ``out`` as the image it writes."""
    cover, wm = seeded_matrix(1, 16, 16), seeded_matrix(2, 16, 16)
    marked, key, source = (str(tmp_path / n) for n in ("marked.svdf", "key.svdk", "in.pgm"))
    sm.write_pgm(cover, source)
    out = str(tmp_path / out)
    if command == "attack":
        return ["attack", "--input", source, "--output", out, "--kind", "quantize-8bit"]
    ident = ["--id", "alice|8f3a9c"] if command == "extract-hash" else []
    if ident:
        m, info = sm.embed_invisible(cover, wm, sm.Identity.from_string(ident[1]), 0.1)
    else:
        m, info = sm.embed(cover, wm, 0.1)
    sm.write_float_image(m, marked)
    sm.save_sideinfo(info, key)
    argv = [command, "--marked", marked, "--key", key, *ident, "--out", out]
    return argv + (["--reference", source] if command == "detect-reference" else [])


@pytest.mark.parametrize("shape", [(32, 32), (32, 16), (16, 32)])
def test_detect_reference_checks_the_reference_shape_before_its_svd(svd_calls, tmp_path,
                                                                    capsys, shape):
    # A 16 x 16 key, and a reference of another shape in place of in.pgm.
    argv = _work_argv(tmp_path, "detect-reference", "p.svdf")
    sm.write_pgm(seeded_matrix(3, *shape), str(tmp_path / "in.pgm"))
    inputs = sorted(f.name for f in tmp_path.iterdir())
    del svd_calls[:]
    _refused(tmp_path, capsys, argv, "DimensionError", inputs)
    assert svd_calls == []


def test_detect_reference_checks_the_key_once(svd_calls, orthogonality_checks, tmp_path,
                                              capsys):
    # The key's three factors are checked; the reference's one SVD is trusted.
    argv = _work_argv(tmp_path, "detect-reference", "p.svdf")
    del svd_calls[:], orthogonality_checks[:]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.startswith("nc=")
    assert (len(orthogonality_checks), len(svd_calls)) == (3, 1)


@pytest.mark.parametrize("strategy", list(sm.ChannelStrategy))
def test_detect_reference_takes_one_reference_svd(svd_calls, tmp_path, capsys, strategy):
    # A perchannel key projects three planes, all onto the one SVD.
    marked, key, ref = (str(tmp_path / n) for n in ("m.ppm", "k.svdk", "r.pgm"))
    m, bundle = sm.embed_color(sm.synthetic_rgb(16, 16, seed=5), seeded_matrix(2, 16, 16),
                               strategy, sm.SchemeTag.SEMI_BLIND)
    sm.write_ppm(m, marked)
    sm.save_bundle(bundle, key)
    sm.write_pgm(seeded_matrix(3, 16, 16), ref)
    del svd_calls[:]
    assert cli_main(["detect-reference", "--marked", marked, "--key", key,
                     "--reference", ref]) == 0
    assert capsys.readouterr().out.startswith("nc=")
    assert len(svd_calls) == 1


@pytest.mark.parametrize("out", ["m.txt", "m.ppm", "m"])
@pytest.mark.parametrize("command", ["extract", "extract-hash", "detect-reference", "attack"])
def test_output_path_checked_before_any_work(svd_calls, tmp_path, capsys, command, out):
    argv = _work_argv(tmp_path, command, out)
    inputs = sorted(f.name for f in tmp_path.iterdir())
    del svd_calls[:]
    _refused(tmp_path, capsys, argv, "UnsupportedFormat", inputs)
    assert svd_calls == []
    # Checked before any input is read, so missing inputs do not matter.
    for name in inputs:
        (tmp_path / name).unlink()
    _refused(tmp_path, capsys, argv, "UnsupportedFormat", [])


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Every call into LAPACK's SVD, by the direct ``dgesdd`` route or by
    ``np.linalg.svd``."""
    calls = []
    original = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: (calls.append(a), original(*a, **k))[1])
    *threads, gesdd = matrix._bundled_openblas()
    counted = gesdd and (lambda *a: (calls.append(a), gesdd(*a))[1])
    monkeypatch.setattr(matrix, "_bundled_openblas", lambda: [*threads, counted])
    return calls


# Just past matrix.MAX_FACTOR_ENTRIES: 1 + 16385² > 2**28.  Their factors
# would take 2 GiB, for an input of 128 KiB.
STRIPS = [(1, 16385), (16385, 1)]


@pytest.mark.parametrize("shape", STRIPS)
def test_svd_refuses_factors_past_the_bound(lapack_calls, shape):
    tracemalloc.start()
    try:
        with pytest.raises(sm.InvalidInput, match=re.escape(
                f"the SVD of a {shape[0]}x{shape[1]} matrix needs 2147745808 bytes of "
                f"factors, over the 2147483648-byte bound")):
            matrix.svd(np.zeros(shape))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert lapack_calls == []
    # The largest strip the bound admits still reaches LAPACK.
    assert 1 + 16383**2 <= matrix.MAX_FACTOR_ENTRIES < 1 + 16384**2


@pytest.mark.parametrize("argv", [
    ["embed"], ["embed-hash", "--id", "alice|8f3a9c"],
    ["embed", "--strategy", "perchannel"], ["sweep"]], ids=lambda a: " ".join(a[:3]))
def test_cli_refuses_a_strip_past_the_bound(lapack_calls, tmp_path, capsys, argv):
    colour = "--strategy" in argv
    cover, wm = str(tmp_path / ("c.ppm" if colour else "c.pgm")), str(tmp_path / "w.pgm")
    strip = np.zeros(STRIPS[0])
    if colour:
        sm.write_ppm(sm.RgbImage(r=strip, g=strip, b=strip), cover)
    else:
        sm.write_pgm(strip, cover)
    sm.write_pgm(strip, wm)
    if argv == ["sweep"]:
        argv = [*argv, "--alphas", "0.1,0.2", "--attacks", "quantize-8bit",
                "--out", str(tmp_path / "r.csv")]
    else:
        argv = [*argv, "--out", str(tmp_path / f"m{os.path.splitext(cover)[1]}"),
                "--key", str(tmp_path / "k.svdk")]
    _refused(tmp_path, capsys, [*argv, "--cover", cover, "--watermark", wm], "InvalidInput",
             [os.path.basename(cover), "w.pgm"])
    assert lapack_calls == []


def test_every_lapack_call_runs_with_blas_pinned(fake_openblas, monkeypatch, tmp_path,
                                                 capsys, identity):
    # Under 2 (fake) BLAS threads, each command and entry point records the
    # BLAS thread count at each LAPACK call it makes.
    cover, wm, ref = (seeded_matrix(seed, 16, 16).round() for seed in (1, 2, 3))
    marked, info = sm.embed(cover, wm, 0.1)
    blas = fake_openblas(threads=2)
    counts, lapack = {}, matrix._lapack_svd
    monkeypatch.setattr(matrix, "_lapack_svd",
                        lambda a: (counts[name].append(blas.get()), lapack(a))[1])
    img = sm.synthetic_rgb(16, 16, seed=5)
    p = {n: str(tmp_path / n) for n in ("c.pgm", "w.pgm", "r.pgm", "c.ppm", "m.pgm", "m.ppm",
                                        "mh.pgm", "a.pgm", "k.svdk", "kc.svdk", "kh.svdk",
                                        "x.svdf", "r.csv")}
    for image, path in ((cover, "c.pgm"), (wm, "w.pgm"), (ref, "r.pgm")):
        sm.write_pgm(image, p[path])
    sm.write_ppm(img, p["c.ppm"])
    ident = ["--id", "alice|8f3a9c"]
    pair = ["--cover", p["c.pgm"], "--watermark", p["w.pgm"]]
    argvs = {
        "embed": ["embed", *pair, "--out", p["m.pgm"], "--key", p["k.svdk"]],
        "embed --strategy perchannel": [
            "embed", "--cover", p["c.ppm"], "--watermark", p["w.pgm"],
            "--strategy", "perchannel", "--out", p["m.ppm"], "--key", p["kc.svdk"]],
        "embed-hash": ["embed-hash", *pair, *ident, "--out", p["mh.pgm"],
                       "--key", p["kh.svdk"]],
        "extract": ["extract", "--marked", p["m.pgm"], "--key", p["k.svdk"],
                    "--out", p["x.svdf"]],
        "extract-hash": ["extract-hash", "--marked", p["mh.pgm"],
                         "--key", p["kh.svdk"], *ident, "--out", p["x.svdf"]],
        "verify-hash": ["verify-hash", "--marked", p["mh.pgm"],
                        "--key", p["kh.svdk"], *ident, "--claimed", p["w.pgm"]],
        "detect-reference": ["detect-reference", "--marked", p["m.pgm"], "--key", p["k.svdk"],
                             "--reference", p["r.pgm"]],
        "detect-reference perchannel": ["detect-reference", "--marked", p["m.ppm"],
                                        "--key", p["kc.svdk"], "--reference", p["r.pgm"]],
        "metrics": ["metrics", "--a", p["c.pgm"], "--b", p["m.pgm"]],
        "attack": ["attack", "--input", p["m.pgm"], "--output", p["a.pgm"],
                   "--kind", "quantize-8bit"],
        "sweep": ["sweep", *pair, "--alphas", "0.05,0.1,0.2", "--attacks", "quantize-8bit",
                  "--out", p["r.csv"]],
    }
    for name, argv in argvs.items():
        counts[name] = []
        assert cli_main(argv) in (0, 2), name
    capsys.readouterr()
    attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)]
    calls = {
        "library embed": lambda: sm.embed(cover, wm, 0.1),
        "library embed_invisible": lambda: sm.embed_invisible(cover, wm, identity, 0.1),
        "library embed_color": lambda: sm.embed_color(
            img, wm, sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.HASH_CODE, 0.1, identity),
        "library svd": lambda: sm.svd(cover),
        "library split_watermark": lambda: sm.split_watermark(wm),
        "library detect_reference": lambda: sm.detect_reference(marked, info, ref),
        "library robustness_sweep": lambda: sm.robustness_sweep(cover, wm, [0.05, 0.1],
                                                                attacks),
    }
    for name, call in calls.items():
        counts[name] = []
        call()
    takes = {"embed": 2, "embed --strategy perchannel": 4, "embed-hash": 2,
             "detect-reference": 1, "detect-reference perchannel": 1, "sweep": 2,
             "library embed": 2, "library embed_invisible": 2, "library embed_color": 4,
             "library svd": 1, "library split_watermark": 1,
             "library detect_reference": 1, "library robustness_sweep": 2}
    assert counts == {name: [1] * takes.get(name, 0) for name in counts}
    assert blas.get() == 2


TWO_CALLERS = """
import hashlib, json, sys, threading
import numpy as np
import svdmark as sm
import thresholds as th
from svdmark import matrix

cover = sm.synthetic_image(256, 256, th.COVER_SEED, roughness=2.0, contrast=52.0)
wm = sm.synthetic_image(256, 256, th.WM_SEED, roughness=1.2, contrast=70.0)

def embed():
    marked, info = sm.embed(cover, wm, 0.1)
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (marked, info.u, info.sigma, info.v, info.v_w)]

runs = [None] * int(sys.argv[1])
def run(k):
    runs[k] = embed()
callers = [threading.Thread(target=run, args=(k,)) for k in range(len(runs))]
for t in callers:
    t.start()
for t in callers:
    t.join()
print(json.dumps({"runs": runs, "blas_after": matrix._bundled_openblas()[0]()}))
"""


@needs_openblas
def test_two_library_callers_get_the_one_thread_bits():
    # The pin's lock keeps one caller's restore from unpinning the other's SVDs.
    one = run_with_blas_threads(TWO_CALLERS, "1", threads=1)
    two = run_with_blas_threads(TWO_CALLERS, "2", threads=2)
    assert two == {"runs": one["runs"] * 2, "blas_after": 2}
