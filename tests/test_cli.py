import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svdmark as sm
from svdmark.cli import cli_main

import thresholds as th
from conftest import make_cover, make_reference, make_watermark
from keyfiles import V1_KEYS, key_parts, rewrite_key_metadata, write_key_parts, write_v2_key

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

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "nan"])
    def test_threshold_outside_the_open_unit_interval(self, scene, capsys, threshold):
        _, _, p = scene
        assert run(["embed-hash", "--cover", p["cover"], "--watermark", p["wm"],
                    "--id", th.EMBED_ID, "--out", p["marked"], "--key", p["key"]]) == 0
        capsys.readouterr()
        assert run(["verify-hash", "--marked", p["marked"], "--key", p["key"],
                    "--id", th.EMBED_ID, "--claimed", p["wm"], "--threshold", threshold]) == 1
        assert capsys.readouterr() == ("", "error: InvalidParameter: threshold must lie in "
                                           f"(0, 1), got {float(threshold)}\n")


# Of two faults in one command, the one reported is the first in this order:
# an output extension, detect-reference's reference, a --strategy on an image
# that is not .ppm, the key, the marked image, the extraction, and last
# verify-hash's --claimed and --threshold.
@pytest.mark.parametrize("argv, line", [
    (["extract", "--strategy", "blue", "--out", "w.txt"],
     "error: UnsupportedFormat: cannot write a matrix to .txt files"),
    (["detect-reference", "--reference", "none.pgm", "--key", "none.svdk"],
     "error: IOError: [Errno 2] No such file or directory: 'none.pgm'"),
    (["verify-hash", "--id", "alice|1", "--claimed", "none.pgm", "--threshold", "1.5"],
     "error: MalformedSideInfo: expected hash-code side info, got semi-blind"),
])
def test_reader_reports_its_first_fault(scene, capsys, monkeypatch, argv, line):
    _, _, p = scene
    assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                "--out", p["marked"], "--key", p["key"]]) == 0
    capsys.readouterr()
    monkeypatch.chdir(os.path.dirname(p["key"]))
    key = [] if "--key" in argv else ["--key", p["key"]]
    assert run([*argv, "--marked", p["marked"], *key]) == 1
    assert capsys.readouterr() == ("", line + "\n")


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

    def test_reference_whose_singular_values_overflow(self, scene, tmp_path, capsys):
        # LAPACK's rescaling overflows this finite reference's singular
        # values, and ``svd`` refuses them: no score is made from them.
        _, _, p = scene
        ref = str(tmp_path / "ref.svdf")
        sm.write_float_image(np.full((64, 64), 1e308), ref)
        assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                    "--out", p["marked"], "--key", p["key"]]) == 0
        capsys.readouterr()
        assert run(["detect-reference", "--marked", p["marked"], "--key", p["key"],
                    "--reference", ref]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: InvalidInput: s contains NaN or Inf entries"]


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


class TestColorReaders:
    """Every reader takes a colour key through a PPM image, for each strategy."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("colour-readers")
        paths = {name: str(d / name) for name in ("cover.ppm", "wm.pgm", "ref.pgm", "w.svdf")}
        sm.write_ppm(sm.synthetic_rgb(128, 128, seed=4004), paths["cover.ppm"])
        sm.write_pgm(sm.synthetic_image(128, 128, 2002, roughness=1.2, contrast=70.0),
                     paths["wm.pgm"])
        sm.write_pgm(make_reference(th.REF_SEEDS[0], 128), paths["ref.pgm"])
        for strategy in ("luminance", "blue", "perchannel"):
            for embed, ident in (("embed", []), ("embed-hash", ["--id", th.EMBED_ID])):
                name = f"{strategy}-{embed}"
                paths[name] = (str(d / f"{name}.ppm"), str(d / f"{name}.svdk"))
                assert run([embed, "--cover", paths["cover.ppm"], "--watermark", paths["wm.pgm"],
                            *ident, "--strategy", strategy, "--alpha", "0.1",
                            "--out", paths[name][0], "--key", paths[name][1]]) == 0
        return paths

    @staticmethod
    def nc(argv, capsys, codes=(0,)):
        capsys.readouterr()
        assert run(argv) in codes
        out, err = capsys.readouterr()
        assert err == ""
        return out.split("nc=")[1].split()[0]

    @pytest.mark.parametrize("strategy", ["luminance", "blue", "perchannel"])
    def test_detect_reference(self, files, capsys, strategy):
        marked, key = files[f"{strategy}-embed"]
        detect = ["detect-reference", "--marked", marked, "--key", key, "--reference"]
        nc_true = float(self.nc([*detect, files["wm.pgm"], "--out", files["w.svdf"]], capsys))
        nc_ref = float(self.nc([*detect, files["ref.pgm"]], capsys))
        assert nc_true >= th.COLOR_LUMINANCE_NC_8BIT_MIN
        assert nc_true - nc_ref >= th.REFERENCE_GAP_MIN
        assert sm.read_float_image(files["w.svdf"]).shape == (128, 128)

    # A keyed mark does not survive the 8-bit PPM write, so the verdict is
    # not pinned here; the score must be the one extract-hash gives.
    @pytest.mark.parametrize("strategy", ["luminance", "blue", "perchannel"])
    def test_verify_hash_scores_what_extract_hash_gives(self, files, capsys, strategy):
        marked, key = files[f"{strategy}-embed-hash"]
        read = ["--marked", marked, "--key", key]
        assert run(["extract-hash", *read, "--id", th.EMBED_ID, "--out", files["w.svdf"]]) == 0
        extracted = self.nc(["metrics", "--a", files["w.svdf"], "--b", files["wm.pgm"]], capsys)
        verify = ["verify-hash", *read, "--claimed", files["wm.pgm"], "--id"]
        assert self.nc([*verify, th.EMBED_ID], capsys, codes=(0, 2)) == extracted
        wrong = float(self.nc([*verify, "mallory|999"], capsys, codes=(2,)))
        assert abs(wrong) <= th.COLOR_WRONG_ID_MAX


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

    @pytest.mark.parametrize("marked, key, message", [
        ("pgm", "bundle", "this is a color key bundle; load it as a bundle"),
        ("marked", "bundle", "this is a color key bundle; load it as a bundle"),
        ("ppm", "key", "not a color key bundle (no strategy)"),
    ])
    @pytest.mark.parametrize("command", ["verify-hash", "detect-reference"])
    def test_every_reader_refuses_a_kind_mismatch(self, keys, capsys, command, marked, key,
                                                  message):
        extra = (["--id", th.EMBED_ID, "--claimed", keys["wm"]] if command == "verify-hash"
                 else ["--reference", keys["wm"]])
        assert run([command, "--marked", keys[marked], "--key", keys[key], *extra]) == 1
        assert capsys.readouterr() == ("", f"error: MalformedSideInfo: {message}\n")

    @pytest.mark.parametrize("key", ["pgm", "v1-single", "v1-bundle"])
    @pytest.mark.parametrize("marked", ["marked", "ppm"])
    def test_key_that_is_not_svdk(self, keys, tmp_path, capsys, marked, key):
        if key != "pgm":
            keys[key] = str(tmp_path / f"{key}.json")
            Path(keys[key]).write_text(V1_KEYS[key.removeprefix("v1-")])
        assert run(["extract", "--marked", keys[marked], "--key", keys[key],
                    "--out", keys["out"]]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: CodecError: not an SVDK key file"]

    # Bundles have no infos list; the strategy sets the record count, so a
    # strategy that names none stands in for a bad list.
    @pytest.mark.parametrize("strategy", [5, None])
    def test_bundle_infos_not_a_list(self, keys, capsys, strategy):
        rewrite_key_metadata(keys["bundle"], lambda d: d.__setitem__("strategy", strategy))
        assert run(["extract", "--marked", keys["ppm"], "--key", keys["bundle"],
                    "--out", keys["out"]]) == 1
        assert capsys.readouterr().err.startswith("error: MalformedSideInfo")

    @pytest.mark.parametrize("marked, key", [("marked", "key"), ("ppm", "bundle")])
    def test_version_2_key_refused(self, keys, capsys, marked, key):
        info = (sm.load_bundle(keys[key]).infos[0] if key == "bundle"
                else sm.load_sideinfo(keys[key]))
        write_v2_key(keys[key], info, strategy="blue" if key == "bundle" else None)
        assert run(["extract", "--marked", keys[marked], "--key", keys[key],
                    "--out", keys["out"]]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: UnsupportedVersion: key container version 2 is not supported"]
        assert not Path(keys["out"]).exists()


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
        assert proc.stderr.splitlines() == [
            "error: InvalidInput: the watermark recovered at alpha 0.1 contains NaN or Inf entries"]


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
        "error: InvalidParameter: alpha 1e+300 overflows the marked image's PSNR"]
    assert not out.exists()


def test_embed_alpha_with_overflowing_squared_error_is_one_error_line(tmp_path):
    # Run in a subprocess, since pytest captures warnings in-process.
    cover, wm = str(tmp_path / "cover.pgm"), str(tmp_path / "wm.pgm")
    sm.write_pgm(make_cover(16), cover)
    sm.write_pgm(make_watermark(16), wm)
    marked, key = tmp_path / "marked.svdf", tmp_path / "key.svdk"
    proc = subprocess.run(
        [sys.executable, "-m", "svdmark.cli", "embed", "--cover", cover, "--watermark", wm,
         "--alpha", "1e155", "--out", str(marked), "--key", str(key)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: InvalidParameter: alpha 1e+155 overflows the marked image's PSNR"]
    assert not marked.exists() and not key.exists()


def test_metrics_prints_a_tiny_negative_correlation_unsigned(tmp_path, capsys):
    a, b = str(tmp_path / "a.svdf"), str(tmp_path / "b.svdf")
    sm.write_float_image(np.array([[1.0, -1.0], [0.0, 0.0]]), a)
    sm.write_float_image(np.array([[-1e-9, 1e-9], [1.0, -1.0]]), b)
    assert -5e-7 < sm.normalized_correlation(sm.read_float_image(a),
                                             sm.read_float_image(b)) < 0
    assert run(["metrics", "--a", a, "--b", b]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "nc=0.000000"


@pytest.mark.filterwarnings("error")
def test_metrics_prints_an_overflowing_psnr_as_minus_inf(tmp_path, capsys):
    # The squared error of a cover against a copy scaled to ~1e200 overflows.
    cover = make_cover(16)
    scaled = cover * np.random.default_rng(5).uniform(0.5, 1.5, cover.shape) * 1e198
    a, b = str(tmp_path / "a.svdf"), str(tmp_path / "b.svdf")
    sm.write_float_image(cover, a)
    sm.write_float_image(scaled, b)
    assert run(["metrics", "--a", a, "--b", b]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "psnr_db=-inf"
    assert captured.err == ""


# Each subcommand's required flags, and which of --alpha, --strategy and
# --seed it reads; the other pairs are usage errors.
MINIMAL_ARGV = {
    "embed": ["--cover", "c.pgm", "--watermark", "w.pgm", "--out", "m.svdf",
              "--key", "k.svdk"],
    "extract": ["--marked", "m.svdf", "--key", "k.svdk", "--out", "w.svdf"],
    "verify-hash": ["--marked", "m.svdf", "--key", "k.svdk", "--id", "a",
                    "--claimed", "w.pgm"],
    "detect-reference": ["--marked", "m.svdf", "--key", "k.svdk", "--reference", "r.pgm"],
    "metrics": ["--a", "a.pgm", "--b", "b.pgm"],
    "attack": ["--input", "a.pgm", "--output", "b.svdf", "--kind", "quantize-8bit"],
    "sweep": ["--cover", "c.pgm", "--watermark", "w.pgm", "--alphas", "0.1",
              "--attacks", "quantize-8bit", "--out", "r.csv"],
}
MINIMAL_ARGV["embed-hash"] = MINIMAL_ARGV["embed"] + ["--id", "a"]
MINIMAL_ARGV["extract-hash"] = MINIMAL_ARGV["extract"] + ["--id", "a"]
OPTIONS = {"--alpha": "0.1", "--strategy": "blue", "--seed": "1"}
READS = {
    "--alpha": {"embed", "embed-hash"},
    "--strategy": {"embed", "embed-hash", "extract", "extract-hash"},
    "--seed": {"attack", "sweep"},
}
# 19 of the 27 (subcommand, option) pairs.
UNREAD = [(c, o) for o in OPTIONS for c in MINIMAL_ARGV if c not in READS[o]]


@pytest.mark.parametrize("command, option", UNREAD)
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, command, option):
    assert run([command, *MINIMAL_ARGV[command], option, OPTIONS[option]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: usage: unrecognized arguments: {option}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["embed-hash", "extract-hash", "verify-hash"])
def test_non_utf8_id_is_one_usage_line(tmp_path, command):
    # Run in a subprocess, since pytest would capture a traceback in-process.
    argv = MINIMAL_ARGV[command].copy()
    argv[argv.index("--id") + 1] = b"\xff"
    proc = subprocess.run([sys.executable, "-m", "svdmark.cli", command, *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: usage: argument --id:"), lines
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha", ["0", "-0.0"])
@pytest.mark.parametrize("cover_ext", ["pgm", "ppm"])
def test_embed_alpha_zero_writes_no_key(scene, tmp_path, capsys, alpha, cover_ext):
    _, _, p = scene
    cover = p["cover"]
    if cover_ext == "ppm":
        cover = str(tmp_path / "cover.ppm")
        sm.write_ppm(sm.synthetic_rgb(64, 64, seed=21), cover)
    key = tmp_path / "alpha0.svdk"
    assert run(["embed", "--cover", cover, "--watermark", p["wm"], "--alpha", alpha,
                "--out", str(tmp_path / f"m.{cover_ext}"), "--key", str(key)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: InvalidParameter: alpha must be finite and positive, got {float(alpha)}"]
    assert not key.exists()


@pytest.mark.parametrize("failure", ["alpha-zero", "key-dir-missing"])
@pytest.mark.parametrize("out_ext", ["pgm", "svdf", "ppm"])
def test_failed_embed_writes_no_output(scene, tmp_path, capsys, out_ext, failure):
    # The marked image is written first; a key that cannot be written
    # takes it back, so no marked image is left without its key.
    _, _, p = scene
    cover = p["cover"]
    if out_ext == "ppm":
        cover = str(tmp_path / "cover.ppm")
        sm.write_ppm(sm.synthetic_rgb(64, 64, seed=21), cover)
    out = tmp_path / f"m.{out_ext}"
    key = tmp_path / ("nodir" if failure == "key-dir-missing" else "") / "k.svdk"
    alpha = "0" if failure == "alpha-zero" else "0.1"
    assert run(["embed", "--cover", cover, "--watermark", p["wm"], "--alpha", alpha,
                "--out", str(out), "--key", str(key)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists() and not key.exists()
    left = {Path(f).name for f in (cover, p["cover"], p["wm"])}
    assert {f.name for f in tmp_path.iterdir()} == left


@pytest.mark.parametrize("out_ext", ["svdf", "pgm", "txt", "PGM", "SVDF", ""])
def test_colour_embed_writes_only_ppm(tmp_path, capsys, out_ext):
    # A colour embed makes a PPM image; under another name no reader would
    # take it back.  Extensions match in either case.
    line = ("error: UnsupportedFormat: cannot write a colour image to "
            f"{'.' + out_ext.lower() if out_ext else 'extensionless'} files\n")
    wm = str(tmp_path / "wm.pgm")
    sm.write_pgm(make_watermark(16), wm)
    for cover_ext in ("ppm", "PPM"):
        cover = str(tmp_path / f"cover.{cover_ext}")
        sm.write_ppm(sm.synthetic_rgb(16, 16, seed=21), cover)
        out = tmp_path / (f"m.{out_ext}" if out_ext else "m")
        key = tmp_path / f"k-{cover_ext}.svdk"
        assert run(["embed", "--cover", cover, "--watermark", wm,
                    "--out", str(out), "--key", str(key)]) == 1
        assert capsys.readouterr() == ("", line)
        assert not out.exists() and not key.exists()
        out = tmp_path / f"m.{cover_ext}"
        assert run(["embed", "--cover", cover, "--watermark", wm,
                    "--out", str(out), "--key", str(key)]) == 0
        assert sm.read_ppm(str(out)).rows == 16 and key.exists()
        capsys.readouterr()


@pytest.mark.parametrize("command", ["embed", "embed-hash"])
@pytest.mark.parametrize("out_ext", ["pgm", "svdf", "ppm"])
def test_embed_out_and_key_on_one_file_is_a_usage_error(scene, tmp_path, capsys,
                                                         command, out_ext):
    # The key would replace the marked image.  Refused before any input is
    # read, so a missing cover does not matter.
    _, _, p = scene
    same = tmp_path / f"same.{out_ext}"
    ident = ["--id", "alice|8f3a9c"] if command == "embed-hash" else []
    assert run([command, "--cover", str(tmp_path / f"absent.{out_ext}"), "--watermark",
                p["wm"], *ident, "--out", str(same),
                "--key", f"{tmp_path}/./same.{out_ext}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: usage: --out and --key name the same file"]
    assert not same.exists()


@pytest.mark.parametrize("spec, field", [
    ("quantize-8bit:foo=1", "foo"),
    ("gaussian-noise:sigma=1:seed=2:kind=crop", "kind"),
    ("crop:rect=1;1;2;2:Rect=1;1;2;2", "Rect"),
])
def test_sweep_unknown_attack_field_is_one_usage_line(scene, tmp_path, capsys, spec, field):
    _, _, p = scene
    assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"], "--alphas", "0.1",
                "--attacks", spec, "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: usage: unknown attack parameter {field!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    "quantize-8bit:sigma=3", "rescale:scale=0.5:seed=4", "crop:rect=1;1;2;2:scale=0.5",
    "gaussian-noise:sigma=1:seed=2:rect=1;1;2;2", "rescale:rect=1;1;2;2",
])
def test_sweep_attack_parameter_its_kind_does_not_read(scene, tmp_path, capsys, spec):
    _, _, p = scene
    out = tmp_path / "r.csv"
    assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"], "--alphas", "0.1",
                "--attacks", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidParameter:")
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--sigma", "3"], ["--scale", "0.2"],
                                   ["--rect", "1", "1", "2", "2"]])
def test_attack_flag_its_kind_does_not_read(scene, tmp_path, capsys, extra):
    _, _, p = scene
    assert run(["attack", "--input", p["cover"], "--output", str(tmp_path / "x.svdf"),
                "--kind", "quantize-8bit", *extra]) == 1
    assert capsys.readouterr().err.startswith(
        "error: InvalidParameter: quantize-8bit takes no parameters")


@pytest.mark.parametrize("via_env", [False, True])
def test_default_seed_fills_only_stochastic_attacks(scene, tmp_path, monkeypatch, via_env):
    _, _, p = scene
    if via_env:
        monkeypatch.setenv("SVDMARK_SEED", "5")
    out = tmp_path / "r.csv"
    assert run(["sweep", "--cover", p["cover"], "--watermark", p["wm"], "--alphas", "0.1",
                "--attacks", "quantize-8bit,crop:rect=1;1;2;2,rescale:scale=0.5,"
                             "gaussian-noise:sigma=1,gaussian-noise:sigma=1:seed=9",
                "--seed", "8", "--out", str(out)]) == 0
    seeds = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert seeds == ["", "", "", "5" if via_env else "8", "9"]
    attacked = tmp_path / "q.svdf"
    assert run(["attack", "--input", p["cover"], "--output", str(attacked),
                "--kind", "quantize-8bit", "--seed", "8"]) == 0
    assert np.array_equal(sm.read_float_image(str(attacked)), sm.read_pgm(p["cover"]))


@pytest.mark.parametrize("route", ["attack", "sweep", "env"])
def test_negative_seed_is_one_error_line(scene, tmp_path, monkeypatch, capsys, route):
    _, _, p = scene
    out = tmp_path / ("r.csv" if route == "sweep" else "x.svdf")
    if route == "sweep":
        argv = ["sweep", "--cover", p["cover"], "--watermark", p["wm"], "--alphas", "0.1",
                "--attacks", "gaussian-noise:sigma=1:seed=-3", "--out", str(out)]
    else:
        argv = ["attack", "--input", p["cover"], "--output", str(out),
                "--kind", "gaussian-noise", "--sigma", "1", "--seed", "-1"]
    if route == "env":
        monkeypatch.setenv("SVDMARK_SEED", "-1")
        argv[-1] = "7"  # the environment overrides a valid --seed
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: InvalidParameter: gaussian-noise needs an integer seed >= 0, got "
        + ("-3" if route == "sweep" else "-1")]
    assert not out.exists()


@pytest.mark.parametrize("command, outputs, name", [
    ("embed", ["--out", "nodir/m.svdf", "--key", "k.svdk"], "nodir/m.svdf"),
    ("embed", ["--out", "m.svdf", "--key", "nodir/k.svdk"], "nodir/k.svdk"),
    ("sweep", ["--alphas", "0.1", "--attacks", "quantize-8bit", "--out", "nodir/r.csv"],
     "nodir/r.csv"),
])
def test_write_error_names_the_given_path(scene, tmp_path, monkeypatch, capsys,
                                          command, outputs, name):
    # Writers go through a temp file; the error names the path given, so
    # stderr is the same on every run, and no file is left behind.
    _, _, p = scene
    monkeypatch.chdir(tmp_path)
    argv = [command, "--cover", p["cover"], "--watermark", p["wm"], *outputs]
    for _ in range(2):
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: IOError: [Errno 2] No such file or directory: '{name}'\n")
    assert sorted(os.listdir(tmp_path)) == ["cover.pgm", "wm.pgm"]


def test_abbreviated_option_is_a_usage_error(scene, capsys):
    _, _, p = scene
    assert run(["metrics", "--a", p["cover"], "--b", p["cover"]]) == 0
    capsys.readouterr()
    assert run(["embed", "--cov", p["cover"], "--watermark", p["wm"],
                "--out", p["marked"], "--key", p["key"]]) == 1
    assert capsys.readouterr().err.startswith("error: usage:")


def test_every_exported_error_class_is_raised():
    # The CLI prints errors by class name; a class nothing raises is a
    # name no user can meet.
    source = "\n".join(f.read_text() for f in (SRC / "svdmark").glob("*.py"))
    classes = [name for name in sm.__all__
               if isinstance(getattr(sm, name), type)
               and issubclass(getattr(sm, name), sm.WatermarkError)
               and getattr(sm, name) is not sm.WatermarkError]
    assert len(classes) >= 8
    assert [name for name in classes if f"raise {name}(" not in source] == []


def _extract_argv(p, mutate_meta):
    """Embed, rewrite the key's metadata to ``mutate_meta(meta)``, then extract."""
    assert run(["embed", "--cover", p["cover"], "--watermark", p["wm"],
                "--out", p["marked"], "--key", p["key"]]) == 0
    meta, payload = key_parts(p["key"])
    write_key_parts(p["key"], mutate_meta(meta), payload)
    return ["extract", "--marked", p["marked"], "--key", p["key"], "--out", p["out"]]


def _sweep_argv(p, alphas="0.1", attacks="quantize-8bit"):
    return ["sweep", "--cover", p["cover"], "--watermark", p["wm"], "--alphas", alphas,
            "--attacks", attacks, "--out", p["out"] + ".csv"]


def _attack_argv(p, *kind):
    return ["attack", "--input", p["cover"], "--output", p["out"], "--kind", *kind]


def _directory_target(p):
    os.mkdir(p["out"])  # os.replace cannot put the written temp file there
    return _attack_argv(p, "quantize-8bit")


def _metrics_argv(p, name, data):
    """Write ``data`` to image file ``name``, then compare it with the cover."""
    path = os.path.join(os.path.dirname(p["cover"]), name)
    Path(path).write_bytes(data)
    return ["metrics", "--a", path, "--b", p["cover"]]


# Each case builds its inputs in the scene and returns the argv and the
# one error line it must give.
REFUSALS = {
    "output-is-a-directory": lambda p: (
        _directory_target(p),
        f"error: IOError: [Errno 21] Is a directory: '{p['out']}'"),
    "pnm-zero-width": lambda p: (
        _metrics_argv(p, "z.pgm", b"P5\n0 4\n255\n"),
        "error: CodecError: bad image dimensions 4x0"),
    "svdf-non-finite": lambda p: (
        _metrics_argv(p, "nan.svdf", struct.pack("<4sHII", b"SVDF", 1, 1, 1)
                    + np.float64(np.nan).tobytes()),
        "error: CodecError: payload contains non-finite values"),
    "key-meta-not-an-object": lambda p: (
        _extract_argv(p, lambda meta: [meta]),
        "error: MalformedSideInfo: key metadata root must be a JSON object"),
    "key-zero-rows": lambda p: (
        _extract_argv(p, lambda meta: dict(meta, rows=0)),
        "error: MalformedSideInfo: bad dimensions 0x64"),
    "seed-env-not-an-integer": lambda p: (
        _attack_argv(p, "gaussian-noise", "--sigma", "1"),
        "error: usage: SVDMARK_SEED must be an integer, got 'seven'"),
    "attack-parameter-without-value": lambda p: (
        _sweep_argv(p, attacks="gaussian-noise:sigma:seed=1"),
        "error: usage: malformed attack parameter 'sigma'"),
    "attack-value-not-a-number": lambda p: (
        _sweep_argv(p, attacks="gaussian-noise:sigma=x:seed=1"),
        "error: usage: malformed attack spec 'gaussian-noise:sigma=x:seed=1': "
        "could not convert string to float: 'x'"),
    "crop-rect-entry-not-an-integer": lambda p: (
        _sweep_argv(p, attacks="crop:rect=0;0;a;2"),
        "error: usage: malformed attack spec 'crop:rect=0;0;a;2': "
        "invalid literal for int() with base 10: 'a'"),
    "crop-rect-of-three": lambda p: (
        _sweep_argv(p, attacks="crop:rect=0;0;4"),
        "error: InvalidParameter: crop needs rect = (row0, col0, height, width)"),
    "negative-noise-sigma": lambda p: (
        _attack_argv(p, "gaussian-noise", "--sigma", "-1", "--seed", "1"),
        "error: InvalidParameter: gaussian-noise needs sigma >= 0"),
    "alphas-not-numbers": lambda p: (
        _sweep_argv(p, alphas="0.1,x"),
        "error: usage: malformed --alphas: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_is_one_error_line(scene, monkeypatch, capsys, case):
    _, _, p = scene
    if case == "seed-env-not-an-integer":
        monkeypatch.setenv("SVDMARK_SEED", "seven")
    else:
        monkeypatch.delenv("SVDMARK_SEED", raising=False)
    argv, line = REFUSALS[case](p)
    before = sorted(os.listdir(os.path.dirname(p["cover"])))
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [line]
    # Nothing written, and no temp file left beside the target.
    assert sorted(os.listdir(os.path.dirname(p["cover"]))) == before


def test_out_of_memory_is_one_error_line(tmp_path):
    # A 1 x 16383 cover, the longest strip matrix.MAX_FACTOR_ENTRIES admits,
    # asks LAPACK for a 16383 x 16383 V (2.00 GiB).  The child lowers its
    # own address-space cap once numpy is loaded, so that allocation fails
    # there and nothing is allocated here.
    cover, out, key = (str(tmp_path / name) for name in ("c.pgm", "m.svdf", "k.svdk"))
    sm.write_pgm(np.zeros((1, 16383)), cover)
    script = ("import resource, sys\n"
              "from svdmark.cli import cli_main\n"
              "cap = 1_500_000_000\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
              "assert resource.getrlimit(resource.RLIMIT_AS) == (cap, cap)\n"
              "sys.exit(cli_main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, "embed", "--cover", cover, "--watermark", cover,
         "--out", out, "--key", key],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: MemoryError: Unable to allocate 2.00 GiB")
    assert os.listdir(tmp_path) == ["c.pgm"]
