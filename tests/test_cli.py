import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svdmark as sm
from svdmark.cli import cli_main

import thresholds as th
from conftest import make_cover, make_reference, make_watermark
from keyfiles import key_parts, rewrite_key_metadata, write_key_parts

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def scene(tmp_path):
    cover = make_cover(64)
    wm = make_watermark(64)
    paths = {
        "cover": tmp_path / "cover.pgm",
        "wm": tmp_path / "wm.pgm",
        "marked": tmp_path / "marked.svdf",
        "key": tmp_path / "key.json",
        "out": tmp_path / "extracted.svdf",
    }
    sm.write_pgm(cover, str(paths["cover"]))
    sm.write_pgm(wm, str(paths["wm"]))
    return cover, wm, {k: str(v) for k, v in paths.items()}


def run(argv):
    return cli_main(argv)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["embed", "--cover", "x.pgm"]) == 1
        assert "error: usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "svdmark" in capsys.readouterr().out


class TestEmbedExtract:
    def test_semiblind_pipeline(self, scene, capsys):
        cover, wm, p = scene
        assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                    "--alpha", "0.1", "--out", p["marked"], "--key", p["key"]]) == 0
        assert run(["extract", "--marked", p["marked"], "--key", p["key"],
                    "--out", p["out"]]) == 0
        w_star = sm.read_float_image(p["out"])
        wm_file = sm.read_pgm(p["wm"])
        assert sm.normalized_correlation(w_star, wm_file) >= 0.99

    def test_file_pipeline_matches_in_memory(self, scene):
        cover, wm, p = scene
        run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
             "--alpha", "0.1", "--out", p["marked"], "--key", p["key"]])
        run(["extract", "--marked", p["marked"], "--key", p["key"],
             "--out", p["out"]])
        cover_file = sm.read_pgm(p["cover"])
        wm_file = sm.read_pgm(p["wm"])
        marked_mem, info_mem = sm.embed(cover_file, wm_file, 0.1)
        assert sm.read_float_image(p["marked"]).tobytes() == marked_mem.tobytes()
        w_star_mem = sm.extract(marked_mem, info_mem)
        assert sm.read_float_image(p["out"]).tobytes() == w_star_mem.tobytes()

    def test_resize_watermark(self, scene, tmp_path):
        cover, wm, p = scene
        small = str(tmp_path / "small.pgm")
        sm.write_pgm(make_watermark(32), small)
        assert run(["embed", "--cover", p["cover"], "--watermark", small,
                    "--out", p["marked"], "--key", p["key"],
                    "--resize-watermark"]) == 0

    def test_size_mismatch_without_resize(self, scene, tmp_path, capsys):
        cover, wm, p = scene
        small = str(tmp_path / "small.pgm")
        sm.write_pgm(make_watermark(32), small)
        assert run(["embed", "--cover", p["cover"], "--watermark", small,
                    "--out", p["marked"], "--key", p["key"]]) == 1
        assert "DimensionError" in capsys.readouterr().err

    def test_missing_file_reports_io_error(self, scene, capsys):
        _, _, p = scene
        assert run(["extract", "--marked", "missing.svdf", "--key", p["key"],
                    "--out", p["out"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestHashCommands:
    def test_verify_roundtrip_and_rejection(self, scene, capsys):
        cover, wm, p = scene
        assert run(["embed-hash", "--cover", p["cover"], "--watermark", p["wm"],
                    "--id", th.EMBED_ID, "--alpha", "0.05",
                    "--out", p["marked"], "--key", p["key"]]) == 0
        assert run(["verify-hash", "--marked", p["marked"], "--key", p["key"],
                    "--id", th.EMBED_ID, "--claimed", p["wm"]]) == 0
        out = capsys.readouterr().out
        assert "decision=verified" in out
        assert run(["verify-hash", "--marked", p["marked"], "--key", p["key"],
                    "--id", "mallory|999", "--claimed", p["wm"]]) == 2
        assert "decision=rejected" in capsys.readouterr().out

    def test_extract_hash(self, scene):
        cover, wm, p = scene
        run(["embed-hash", "--cover", p["cover"], "--watermark", p["wm"],
             "--id", th.EMBED_ID, "--out", p["marked"], "--key", p["key"]])
        assert run(["extract-hash", "--marked", p["marked"], "--key", p["key"],
                    "--id", th.EMBED_ID, "--out", p["out"]]) == 0
        w_star = sm.read_float_image(p["out"])
        assert sm.normalized_correlation(w_star, sm.read_pgm(p["wm"])) >= th.HASH_NC_MIN


class TestDetectReference:
    def test_reference_scores_below_true_watermark(self, scene, tmp_path, capsys):
        cover, wm, p = scene
        ref = str(tmp_path / "ref.pgm")
        sm.write_pgm(make_reference(th.REF_SEEDS[0], 64), ref)
        run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
             "--alpha", "0.1", "--out", p["marked"], "--key", p["key"]])
        capsys.readouterr()
        assert run(["detect-reference", "--marked", p["marked"], "--key", p["key"],
                    "--reference", p["wm"]]) == 0
        nc_true = float(capsys.readouterr().out.split("nc=")[1])
        assert run(["detect-reference", "--marked", p["marked"], "--key", p["key"],
                    "--reference", ref]) == 0
        nc_ref = float(capsys.readouterr().out.split("nc=")[1])
        assert nc_ref < nc_true


class TestMetricsAttackSweep:
    def test_metrics_output(self, scene, capsys):
        _, _, p = scene
        assert run(["metrics", "--a", p["cover"], "--b", p["cover"]]) == 0
        out = capsys.readouterr().out
        assert "psnr_db=inf" in out
        assert "nc=" in out

    def test_attack_roundtrip(self, scene, tmp_path):
        _, _, p = scene
        out = str(tmp_path / "attacked.svdf")
        assert run(["attack", "--input", p["cover"], "--output", out,
                    "--kind", "gaussian-noise", "--sigma", "2.0",
                    "--seed", "7"]) == 0
        attacked = sm.read_float_image(out)
        assert attacked.shape == (64, 64)

    def test_attack_env_seed_override(self, scene, tmp_path, monkeypatch):
        _, _, p = scene
        out_a = str(tmp_path / "a.svdf")
        out_b = str(tmp_path / "b.svdf")
        out_c = str(tmp_path / "c.svdf")
        run(["attack", "--input", p["cover"], "--output", out_a,
             "--kind", "gaussian-noise", "--sigma", "2.0", "--seed", "7"])
        monkeypatch.setenv("SVDMARK_SEED", "1234")
        run(["attack", "--input", p["cover"], "--output", out_b,
             "--kind", "gaussian-noise", "--sigma", "2.0", "--seed", "7"])
        monkeypatch.delenv("SVDMARK_SEED")
        run(["attack", "--input", p["cover"], "--output", out_c,
             "--kind", "gaussian-noise", "--sigma", "2.0", "--seed", "1234"])
        a = sm.read_float_image(out_a)
        b = sm.read_float_image(out_b)
        c = sm.read_float_image(out_c)
        assert not np.array_equal(a, b)
        assert np.array_equal(b, c)

    def test_attack_stochastic_without_seed_fails(self, scene, tmp_path, capsys):
        _, _, p = scene
        assert run(["attack", "--input", p["cover"],
                    "--output", str(tmp_path / "x.svdf"),
                    "--kind", "gaussian-noise", "--sigma", "2.0"]) == 1
        assert "InvalidParameter" in capsys.readouterr().err

    def test_sweep_csv(self, scene, tmp_path):
        _, _, p = scene
        out = str(tmp_path / "report.csv")
        assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"],
                    "--alphas", "0.05,0.1",
                    "--attacks", "gaussian-noise:sigma=1:seed=3,quantize-8bit",
                    "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "alpha,attack,params,seed,psnr_db,nc"
        assert len(lines) == 5

    def test_sweep_bad_attack_kind(self, scene, tmp_path, capsys):
        _, _, p = scene
        assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"],
                    "--alphas", "0.1", "--attacks", "jpeg:q=50",
                    "--out", str(tmp_path / "r.csv")]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["nan", "0.1,inf"])
    def test_sweep_non_finite_alpha(self, scene, tmp_path, capsys, alphas):
        _, _, p = scene
        out = tmp_path / "r.csv"
        assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"],
                    "--alphas", alphas, "--attacks", "quantize-8bit",
                    "--out", str(out)]) == 1
        assert "error: InvalidParameter" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_shape_mismatch(self, scene, tmp_path, capsys):
        _, _, p = scene
        small = str(tmp_path / "small.pgm")
        sm.write_pgm(make_watermark(32), small)
        assert run(["sweep", "--cover", p["cover"], "--watermark", small,
                    "--alphas", "0.1", "--attacks", "quantize-8bit",
                    "--out", str(tmp_path / "r.csv")]) == 1
        assert "error: DimensionError" in capsys.readouterr().err


class TestColorCli:
    def test_ppm_blue_pipeline(self, tmp_path):
        img = sm.synthetic_rgb(48, 48, seed=21)
        wm = sm.synthetic_image(48, 48, 22, roughness=1.2, contrast=70.0)
        cover = str(tmp_path / "cover.ppm")
        wm_path = str(tmp_path / "wm.pgm")
        marked = str(tmp_path / "marked.ppm")
        key = str(tmp_path / "key.json")
        out = str(tmp_path / "w.svdf")
        sm.write_ppm(img, cover)
        sm.write_pgm(wm, wm_path)
        assert run(["embed", "--cover", cover, "--watermark", wm_path,
                    "--strategy", "blue", "--alpha", "0.1",
                    "--out", marked, "--key", key]) == 0
        assert run(["extract", "--marked", marked, "--key", key,
                    "--out", out]) == 0
        w_star = sm.read_float_image(out)
        # marked.ppm is 8-bit, so extraction sees rounding distortion
        assert sm.normalized_correlation(w_star, wm) >= 0.9

    def test_ppm_hash_embed_writes_bundle(self, tmp_path):
        # exact keyed extraction needs the float pipeline, and the PPM
        # carrier is 8-bit; through the CLI only the mechanics are checked
        img = sm.synthetic_rgb(48, 48, seed=31)
        wm = sm.synthetic_image(48, 48, 32, roughness=1.2, contrast=70.0)
        cover = str(tmp_path / "cover.ppm")
        wm_path = str(tmp_path / "wm.pgm")
        marked = str(tmp_path / "marked.ppm")
        key = str(tmp_path / "key.json")
        out = str(tmp_path / "w.svdf")
        sm.write_ppm(img, cover)
        sm.write_pgm(wm, wm_path)
        assert run(["embed-hash", "--cover", cover, "--watermark", wm_path,
                    "--strategy", "blue", "--alpha", "0.05", "--id", th.EMBED_ID,
                    "--out", marked, "--key", key]) == 0
        bundle = sm.load_bundle(key)
        assert bundle.strategy is sm.ChannelStrategy.BLUE_CHANNEL
        assert bundle.infos[0].scheme is sm.SchemeTag.HASH_CODE
        assert bundle.infos[0].quant is not None
        assert run(["extract-hash", "--marked", marked, "--key", key,
                    "--id", th.EMBED_ID, "--out", out]) == 0
        assert sm.read_float_image(out).shape == (48, 48)


class TestKeyRouting:
    @pytest.fixture()
    def keys(self, scene, tmp_path):
        _, _, p = scene
        assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                    "--out", p["marked"], "--key", p["key"]]) == 0
        cover = str(tmp_path / "cover.ppm")
        sm.write_ppm(sm.synthetic_rgb(64, 64, seed=21), cover)
        paths = dict(p, ppm=str(tmp_path / "marked.ppm"), pgm=str(tmp_path / "marked.pgm"),
                     bundle=str(tmp_path / "bundle.json"))
        assert run(["embed", "--cover", cover, "--watermark", p["wm"],
                    "--out", paths["ppm"], "--key", paths["bundle"]]) == 0
        sm.write_pgm(sm.read_float_image(p["marked"]), paths["pgm"])
        return paths

    @pytest.mark.parametrize("marked, key", [
        ("pgm", "bundle"), ("marked", "bundle"), ("ppm", "key"),
    ])
    def test_key_and_image_kind_mismatch(self, keys, capsys, marked, key):
        assert run(["extract", "--marked", keys[marked], "--key", keys[key],
                    "--out", keys["out"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedSideInfo") and "Traceback" not in err

    @pytest.mark.parametrize("infos", [5, None])
    def test_bundle_infos_not_a_list(self, keys, capsys, infos):
        rewrite_key_metadata(keys["bundle"], lambda d: d.__setitem__("infos", infos))
        assert run(["extract", "--marked", keys["ppm"], "--key", keys["bundle"],
                    "--out", keys["out"]]) == 1
        assert capsys.readouterr().err.startswith("error: MalformedSideInfo")


class TestOverflowKeepsOneErrorLine:
    """Huge finite entries overflow numpy arithmetic on the way to their
    rejection; stderr must still be the one ``error:`` line.  Run in a
    subprocess, since pytest captures warnings in-process."""

    @staticmethod
    def extract(tmp_path, marked, key):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "svdmark.cli", "extract", "--marked", marked,
             "--key", key, "--out", str(tmp_path / "w.svdf")],
            env=env, capture_output=True, text=True, timeout=60)

    @pytest.fixture()
    def embedded(self, scene):
        _, _, p = scene
        assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                    "--out", p["marked"], "--key", p["key"]]) == 0
        return p

    def test_key_with_huge_u_entry(self, embedded, tmp_path):
        meta, payload = key_parts(embedded["key"])
        payload = np.float64(1e300).tobytes() + payload[8:]  # u[0, 0]
        bad_key = str(tmp_path / "bad.svdk")
        write_key_parts(bad_key, meta, payload)
        proc = self.extract(tmp_path, embedded["marked"], bad_key)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: InvalidInput: u is not orthogonal"]

    def test_marked_image_with_huge_entry(self, embedded, tmp_path):
        marked = sm.read_float_image(embedded["marked"])
        marked[0, 0] = np.finfo(np.float64).max
        bad_marked = str(tmp_path / "bad.svdf")
        sm.write_float_image(marked, bad_marked)
        proc = self.extract(tmp_path, bad_marked, embedded["key"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: InvalidInput: m contains NaN or Inf entries"]


def test_sweep_alpha_with_overflowing_psnr_is_one_error_line(tmp_path):
    # Run in a subprocess, since pytest captures warnings in-process.
    cover, wm = str(tmp_path / "cover.pgm"), str(tmp_path / "wm.pgm")
    sm.write_pgm(make_cover(16), cover)
    sm.write_pgm(make_watermark(16), wm)
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "svdmark.cli", "sweep", "--cover", cover,
         "--watermark", wm, "--alphas", "1e300", "--attacks", "quantize-8bit",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: InvalidParameter: sweep alpha 1e+300 overflows the marked image's PSNR"]
    assert not out.exists()
