"""One check for every recovery, and an embed that refuses what it
could not recover.

Recovery divides by alpha, so a key whose stored alpha is subnormal, or
a lossless marked image of 1e308 entries, makes it overflow.  Every
reader (``extract``, ``extract-hash``, ``verify-hash``,
``detect-reference`` and the colour extracts) and the sweep recover
through one step, which refuses a result with NaN or Inf entries in one
line naming the alpha: exit 1, no output file, and never a verdict.  An
embed at such an alpha writes neither a marked image nor a key.
"""

from pathlib import Path

import numpy as np
import pytest

import svdmark as sm
from svdmark.cli import cli_main
from svdmark.errors import InvalidInput, InvalidParameter

from conftest import make_cover, make_watermark
from keyfiles import rewrite_key_metadata

ID = "alice|8f3a9c"
TINY = 5e-324
STRATEGIES = ("luminance", "blue", "perchannel")


def recovery_error(alpha):
    return [f"error: InvalidInput: the watermark recovered at alpha {alpha} "
            "contains NaN or Inf entries"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Marked images and keys at alpha 0.1, each key's copy at a
    subnormal alpha, and an all-1e308 marked image, at 32 x 32."""
    d = tmp_path_factory.mktemp("recovery")
    p = {k: str(d / name) for k, name in (
        ("cover", "cover.pgm"), ("wm", "wm.pgm"), ("huge", "huge.svdf"),
        ("rgb", "cover.ppm"))}
    sm.write_pgm(make_cover(32), p["cover"])
    sm.write_pgm(make_watermark(32), p["wm"])
    sm.write_float_image(np.full((32, 32), 1e308), p["huge"])
    sm.write_ppm(sm.synthetic_rgb(32, 32, seed=21), p["rgb"])
    embeds = [("semi", "embed", p["cover"], "svdf", [])]
    embeds += [("keyed", "embed-hash", p["cover"], "svdf", ["--id", ID])]
    for s in STRATEGIES:
        embeds += [(f"semi-{s}", "embed", p["rgb"], "ppm", ["--strategy", s]),
                   (f"keyed-{s}", "embed-hash", p["rgb"], "ppm", ["--id", ID, "--strategy", s])]
    for name, command, cover, ext, extra in embeds:
        p[f"{name}-marked"] = str(d / f"{name}.{ext}")
        p[f"{name}-key"] = str(d / f"{name}.svdk")
        assert cli_main([command, "--cover", cover, "--watermark", p["wm"], *extra,
                         "--out", p[f"{name}-marked"], "--key", p[f"{name}-key"]]) == 0
        p[f"{name}-tiny"] = str(d / f"{name}-tiny.svdk")
        Path(p[f"{name}-tiny"]).write_bytes(Path(p[f"{name}-key"]).read_bytes())
        rewrite_key_metadata(p[f"{name}-tiny"], lambda meta: meta.__setitem__("alpha", TINY))
    return p


# Each grayscale reader by label: the key it reads, its command line
# without --marked, --key and --out, and the extension of its --out.
READERS = {
    "extract.svdf": ("semi", ["extract"], "svdf"),
    "extract.pgm": ("semi", ["extract"], "pgm"),
    "extract-hash": ("keyed", ["extract-hash", "--id", ID], "svdf"),
    "verify-hash": ("keyed", ["verify-hash", "--id", ID, "--claimed", "{wm}"], None),
    "detect-reference": ("semi", ["detect-reference", "--reference", "{wm}"], None),
    "detect-reference--out": ("semi", ["detect-reference", "--reference", "{wm}"], "svdf"),
}


def reader(files, label, tmp_path):
    """``(key kind, argv, output path or None)`` of one grayscale reader."""
    kind, argv, ext = READERS[label]
    argv = [a.format(wm=files["wm"]) for a in argv]
    out = None if ext is None else str(tmp_path / f"x.{ext}")
    return kind, argv + ([] if out is None else ["--out", out]), out


def assert_refused(argv, capsys, alpha, out):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == recovery_error(alpha)
    if out is not None:
        assert not Path(out).exists()


class TestEveryReaderRefuses:
    @pytest.mark.parametrize("label", READERS)
    def test_key_at_subnormal_alpha(self, files, tmp_path, capsys, label):
        kind, argv, out = reader(files, label, tmp_path)
        argv += ["--marked", files[f"{kind}-marked"], "--key", files[f"{kind}-tiny"]]
        assert_refused(argv, capsys, TINY, out)

    @pytest.mark.parametrize("label", READERS)
    def test_overflowing_marked_image(self, files, tmp_path, capsys, label):
        kind, argv, out = reader(files, label, tmp_path)
        argv += ["--marked", files["huge"], "--key", files[f"{kind}-key"]]
        assert_refused(argv, capsys, 0.1, out)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("command", ["extract", "extract-hash"])
    def test_colour_key_at_subnormal_alpha(self, files, tmp_path, capsys, command, strategy):
        kind = f"{'keyed' if command == 'extract-hash' else 'semi'}-{strategy}"
        out = str(tmp_path / "x.svdf")
        ident = ["--id", ID] if command == "extract-hash" else []
        assert_refused([command, "--marked", files[f"{kind}-marked"],
                        "--key", files[f"{kind}-tiny"], *ident, "--out", out],
                       capsys, TINY, out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLibraryReadersRaise:
    @pytest.mark.parametrize("case", ["tiny", "huge"])
    def test_every_reader(self, files, case):
        wm = sm.read_pgm(files["wm"])
        key = "tiny" if case == "tiny" else "key"
        semi, keyed = (sm.load_sideinfo(files[f"{kind}-{key}"]) for kind in ("semi", "keyed"))
        semi_marked, keyed_marked = (
            sm.read_float_image(files["huge" if case == "huge" else f"{kind}-marked"])
            for kind in ("semi", "keyed"))
        identity = sm.Identity.from_string(ID)
        calls = [
            lambda: sm.extract(semi_marked, semi),
            lambda: sm.detect_reference(semi_marked, semi, wm),
            lambda: sm.recover_masked_bytes(keyed_marked, keyed),
            lambda: sm.extract_invisible(keyed_marked, keyed, identity),
            lambda: sm.verify_invisible(keyed_marked, keyed, identity, wm),
        ]
        alpha = TINY if case == "tiny" else 0.1
        for call in calls:
            with pytest.raises(InvalidInput, match=f"recovered at alpha {alpha} contains"):
                call()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_colour_extract(self, files, strategy):
        identity = sm.Identity.from_string(ID)
        for kind, ident in (("semi", None), ("keyed", identity)):
            img = sm.read_ppm(files[f"{kind}-{strategy}-marked"])
            bundle = sm.load_bundle(files[f"{kind}-{strategy}-tiny"])
            with pytest.raises(InvalidInput, match=f"recovered at alpha {TINY} contains"):
                sm.extract_color(img, bundle, strategy, identity=ident)


class TestEmbedRefusesUnrecoverableAlpha:
    LINE = [f"error: InvalidParameter: alpha {TINY} is too small to recover a mark from"]

    @pytest.mark.parametrize("strategy", [None, *STRATEGIES])
    @pytest.mark.parametrize("command", ["embed", "embed-hash"])
    def test_cli(self, files, tmp_path, capsys, command, strategy):
        cover, ext = (files["cover"], "svdf") if strategy is None else (files["rgb"], "ppm")
        marked, key = tmp_path / f"m.{ext}", tmp_path / "k.svdk"
        extra = ["--id", ID] if command == "embed-hash" else []
        extra += [] if strategy is None else ["--strategy", strategy]
        assert cli_main([command, "--cover", cover, "--watermark", files["wm"], *extra,
                         "--alpha", str(TINY), "--out", str(marked), "--key", str(key)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == self.LINE
        assert not marked.exists() and not key.exists()

    def test_library(self):
        cover, wm = make_cover(32), make_watermark(32)
        identity = sm.Identity.from_string(ID)
        rgb = sm.synthetic_rgb(32, 32, seed=21)
        calls = [lambda: sm.embed(cover, wm, TINY),
                 lambda: sm.embed_invisible(cover, wm, identity, TINY)]
        for s in STRATEGIES:
            calls += [lambda s=s: sm.embed_color(rgb, wm, s, sm.SchemeTag.SEMI_BLIND, TINY),
                      lambda s=s: sm.embed_color(rgb, wm, s, sm.SchemeTag.HASH_CODE, TINY,
                                                 identity=identity)]
        for call in calls:
            with pytest.raises(InvalidParameter, match="too small to recover a mark from"):
                call()

    @pytest.mark.parametrize("shape", [(32, 32), (48, 64), (64, 48), (32, 200)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_keyed_embed_that_exits_0_verifies(self, tmp_path, capsys, shape):
        # Down an alpha grid, keyed embeds to the lossless SVDF carrier each
        # recover their committed bytes exactly and verify, until the float
        # error could pass the rounding budget; from there on each is refused
        # and writes nothing.
        rows, cols = shape
        cover, wm = str(tmp_path / "cover.svdf"), str(tmp_path / "wm.pgm")
        sm.write_float_image(sm.synthetic_image(rows, cols, 1001, contrast=52.0), cover)
        sm.write_pgm(sm.synthetic_image(rows, cols, 2002, roughness=1.2, contrast=70.0), wm)
        identity = sm.Identity.from_string(ID)
        payload, _ = sm.quantize(sm.split_watermark(sm.read_pgm(wm))[0])
        committed = sm.xor_mask(payload, sm.derive_mask(identity, rows, cols))
        codes = []
        for alpha in (10.0 ** (-k / 4) for k in range(24, 60)):
            marked, key = tmp_path / f"m{alpha}.svdf", tmp_path / f"k{alpha}.svdk"
            codes.append(cli_main(["embed-hash", "--cover", cover, "--watermark", wm,
                                   "--id", ID, "--alpha", str(alpha),
                                   "--out", str(marked), "--key", str(key)]))
            err = capsys.readouterr().err
            if codes[-1]:
                assert err.splitlines() == [f"error: InvalidParameter: alpha {alpha} "
                                            "is too small to recover a mark from"]
                assert not marked.exists() and not key.exists()
                continue
            recovered = sm.recover_masked_bytes(sm.read_float_image(str(marked)),
                                                sm.load_sideinfo(str(key)))
            np.testing.assert_array_equal(recovered, committed)
            assert cli_main(["verify-hash", "--marked", str(marked), "--key", str(key),
                             "--id", ID, "--claimed", wm]) == 0
            assert "decision=verified" in capsys.readouterr().out
        assert codes == sorted(codes) and codes[0] == 0 and codes[-1] == 1, codes

    def test_tiny_alpha_that_divides_sigma_finitely_embeds(self):
        # The bound is the recovery's, not a fixed floor: an alpha that
        # divides the cover's largest singular value finitely embeds.
        cover, wm = make_cover(32), make_watermark(32)
        _, info = sm.embed(cover, wm, 1e-300)
        assert info.alpha == 1e-300
