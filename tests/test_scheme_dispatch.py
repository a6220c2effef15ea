"""One embed and one extract path for both schemes, grayscale and colour.

The semi-blind and keyed schemes share every step but the keyed payload
mask, so grayscale files, colour files and the library entry points must
agree on what each scheme accepts and how a key of the other scheme is
refused.
"""

import pytest

import svdmark as sm
from svdmark import invisible, semiblind
from svdmark.cli import cli_main

from conftest import seeded_matrix
from keyfiles import rewrite_key_metadata

ID = "alice|8f3a9c"
CARRIERS = ["pgm", "svdf", "luminance", "blue", "perchannel"]


def _cli(capsys, *argv):
    rc = cli_main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _one_error(err, cls):
    assert err.startswith(f"error: {cls}:") and err.count("\n") == 1, err


@pytest.fixture()
def files(tmp_path):
    def make(carrier):
        colour = carrier not in ("pgm", "svdf")
        cover = str(tmp_path / ("cover.ppm" if colour else "cover.pgm"))
        if colour:
            sm.write_ppm(sm.synthetic_rgb(32, 32, seed=5), cover)
        else:
            sm.write_pgm(seeded_matrix(1, 32, 32), cover)
        wm = str(tmp_path / "wm.pgm")
        sm.write_pgm(seeded_matrix(2, 32, 32), wm)
        ext = "ppm" if colour else carrier
        strategy = ["--strategy", carrier] if colour else []
        p = {"cover": cover, "wm": wm, "out": str(tmp_path / "w.svdf"),
             "semi": str(tmp_path / f"semi.{ext}"), "semi_key": str(tmp_path / "semi.svdk"),
             "hash": str(tmp_path / f"hash.{ext}"), "hash_key": str(tmp_path / "hash.svdk")}
        assert cli_main(["embed", "--cover", cover, "--watermark", wm, *strategy,
                         "--out", p["semi"], "--key", p["semi_key"]]) == 0
        assert cli_main(["embed-hash", "--cover", cover, "--watermark", wm, *strategy,
                         "--id", ID, "--out", p["hash"], "--key", p["hash_key"]]) == 0
        return p
    return make


class TestCliSchemeMismatch:
    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_extract_with_keyed_key(self, files, capsys, carrier):
        p = files(carrier)
        capsys.readouterr()
        rc, out, err = _cli(capsys, "extract", "--marked", p["hash"], "--key", p["hash_key"],
                            "--out", p["out"])
        assert (rc, out) == (1, "")
        _one_error(err, "InvalidKey")

    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_extract_hash_with_semiblind_key(self, files, capsys, carrier):
        p = files(carrier)
        capsys.readouterr()
        rc, out, err = _cli(capsys, "extract-hash", "--marked", p["semi"],
                            "--key", p["semi_key"], "--id", ID, "--out", p["out"])
        assert (rc, out) == (1, "")
        _one_error(err, "MalformedSideInfo")

    @pytest.mark.parametrize("carrier", ["pgm", "svdf"])
    def test_detect_reference_refuses_keyed_key(self, files, capsys, carrier):
        p = files(carrier)
        capsys.readouterr()
        rc, out, err = _cli(capsys, "detect-reference", "--marked", p["hash"],
                            "--key", p["hash_key"], "--reference", p["wm"])
        assert (rc, out) == (1, "")
        _one_error(err, "MalformedSideInfo")

    @pytest.mark.parametrize("command", ["embed-hash", "extract-hash"])
    def test_empty_id(self, files, capsys, command):
        p = files("pgm")
        capsys.readouterr()
        inputs = (["--cover", p["cover"], "--watermark", p["wm"], "--key", p["hash_key"]]
                  if command == "embed-hash" else ["--marked", p["hash"], "--key", p["hash_key"]])
        rc, out, err = _cli(capsys, command, *inputs, "--id", "", "--out", p["out"])
        assert (rc, out) == (1, "")
        _one_error(err, "InvalidKey")


COLOURS = CARRIERS[2:]


class TestCliStrategy:
    """``--strategy`` picks a colour embed's planes and is checked against
    the key on a colour extract; a grayscale carrier takes none."""

    @staticmethod
    def _extract_argv(p, command):
        scheme = "semi" if command == "extract" else "hash"
        ident = ["--id", ID] if command == "extract-hash" else []
        return [command, "--marked", p[scheme], "--key", p[f"{scheme}_key"], *ident]

    @pytest.mark.parametrize("command", ["extract", "extract-hash"])
    @pytest.mark.parametrize("carrier", COLOURS)
    def test_extract_strategy_must_match_the_key(self, files, capsys, tmp_path,
                                                 command, carrier):
        p = files(carrier)
        capsys.readouterr()
        argv = self._extract_argv(p, command)
        for other in COLOURS:
            if other != carrier:
                rc, out, err = _cli(capsys, *argv, "--strategy", other, "--out", p["out"])
                assert (rc, out) == (1, "")
                _one_error(err, "MalformedSideInfo")
        own = str(tmp_path / "own.svdf")
        assert cli_main([*argv, "--out", p["out"]]) == 0
        assert cli_main([*argv, "--strategy", carrier, "--out", own]) == 0
        assert open(own, "rb").read() == open(p["out"], "rb").read()

    @pytest.mark.parametrize("command", ["embed", "embed-hash", "extract", "extract-hash"])
    @pytest.mark.parametrize("carrier", ["pgm", "svdf"])
    def test_grayscale_carrier_takes_no_strategy(self, files, capsys, tmp_path,
                                                 command, carrier):
        p = files(carrier)
        capsys.readouterr()
        out = tmp_path / "out.svdf"
        if command.startswith("embed"):
            argv = [command, "--cover", p["semi"], "--watermark", p["wm"],
                    "--key", str(tmp_path / "k.svdk")]
            argv += ["--id", ID] if command == "embed-hash" else []
        else:
            argv = self._extract_argv(p, command)
        rc, stdout, err = _cli(capsys, *argv, "--strategy", "blue", "--out", str(out))
        assert (rc, stdout) == (1, "")
        _one_error(err, "usage")
        assert not out.exists()


def test_perchannel_keyed_embed_masks_once(monkeypatch, identity):
    calls = []
    for name in ("derive_mask", "quantize"):
        original = getattr(semiblind, name)
        monkeypatch.setattr(semiblind, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    sm.embed_color(sm.synthetic_rgb(24, 24, seed=5), seeded_matrix(3, 24, 24),
                   sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.HASH_CODE, 0.1, identity)
    assert sorted(calls) == ["derive_mask", "quantize"]


@pytest.mark.parametrize("carrier, reader", [
    *((c, r) for c in CARRIERS for r in ("extract-hash", "verify-hash")),
    *((c, "extract_color") for c in CARRIERS[2:])])
def test_keyed_read_masks_once(monkeypatch, files, identity, carrier, reader):
    # Every plane of a key shares one shape, so a read derives the
    # identity's mask once, as the embed does, however many planes it has.
    p = files(carrier)
    calls = []
    original = invisible.derive_mask
    monkeypatch.setattr(invisible, "derive_mask",
                        lambda *a: calls.append(a[1:]) or original(*a))
    if reader == "extract_color":
        sm.extract_color(sm.read_ppm(p["hash"]), sm.load_bundle(p["hash_key"]), carrier,
                         identity)
    else:
        check = ["--claimed", p["wm"]] if reader == "verify-hash" else ["--out", p["out"]]
        assert cli_main([reader, "--marked", p["hash"], "--key", p["hash_key"], "--id", ID,
                         *check]) in (0, 2)
    assert calls == [(32, 32)]


def _same_info(a, b):
    for name in ("u", "sigma", "v", "v_w"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (a.scheme, a.alpha, a.quant) == (b.scheme, b.alpha, b.quant)


def _same_bytes(a, b):
    assert a[0].tobytes() == b[0].tobytes()
    _same_info(a[1], b[1])


def test_nested_lists_embed_like_arrays(identity):
    cover, wm = seeded_matrix(1, 12, 10), seeded_matrix(2, 12, 10)
    _same_bytes(sm.embed(cover.tolist(), wm.tolist(), 0.1), sm.embed(cover, wm, 0.1))
    _same_bytes(sm.embed_invisible(cover.tolist(), wm.tolist(), identity, 0.1),
                sm.embed_invisible(cover, wm, identity, 0.1))
    img = sm.synthetic_rgb(12, 10, seed=5)
    for scheme, ident in ((sm.SchemeTag.SEMI_BLIND, None), (sm.SchemeTag.HASH_CODE, identity)):
        lists = sm.embed_color(img, wm.tolist(), "perchannel", scheme, 0.1, ident)
        arrays = sm.embed_color(img, wm, "perchannel", scheme, 0.1, ident)
        for x, y in zip(lists[0].channels(), arrays[0].channels()):
            assert x.tobytes() == y.tobytes()
        for a, b in zip(lists[1].infos, arrays[1].infos, strict=True):
            _same_info(a, b)


# The error class each way an alpha enters raises; None means it is
# accepted.  Every entry point keeps one rule, finite and positive.  The
# embeds and the sweep also mark an image, which a huge alpha overflows;
# side info, built directly or loaded from a key, marks nothing.  A list,
# not a dict, since 0.0 == -0.0.
ALPHA_OUTCOMES = [  # (alpha, (marks an image, side info only))
    (0.0, (sm.InvalidParameter, sm.InvalidParameter)),
    (-0.0, (sm.InvalidParameter, sm.InvalidParameter)),
    (-0.1, (sm.InvalidParameter, sm.InvalidParameter)),
    (float("nan"), (sm.InvalidParameter, sm.InvalidParameter)),
    (float("inf"), (sm.InvalidParameter, sm.InvalidParameter)),
    (1e155, (sm.InvalidParameter, None)),
    (1e308, (sm.InvalidInput, None)),
]


def _with_stored_alpha(path, alpha):
    """``path``, after setting the alpha its key metadata holds."""
    rewrite_key_metadata(path, lambda meta: meta.__setitem__("alpha", alpha))
    return path


def _alpha_entry_points(identity, tmp_path):
    cover, wm = seeded_matrix(1, 16, 16), seeded_matrix(2, 16, 16)
    img = sm.synthetic_rgb(16, 16, seed=5)
    yield "embed", 0, lambda a: sm.embed(cover, wm, a)
    yield "embed_invisible", 0, lambda a: sm.embed_invisible(cover, wm, identity, a)
    for strategy in sm.ChannelStrategy:
        yield (f"embed_color/{strategy.value}/semi-blind", 0,
               lambda a, s=strategy: sm.embed_color(img, wm, s, "semi-blind", a))
        yield (f"embed_color/{strategy.value}/hash-code", 0,
               lambda a, s=strategy: sm.embed_color(img, wm, s, "hash-code", a, identity))
    attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)]
    yield "robustness_sweep", 0, lambda a: sm.robustness_sweep(cover, wm, [a], attacks)
    f = sm.svd(cover)
    yield "SideInfo", 1, lambda a: sm.SideInfo(f.u, f.sigma, f.v, f.v, a, 16, 16)
    info = sm.embed(cover, wm, 0.1)[1]
    single, bundle = str(tmp_path / "single.svdk"), str(tmp_path / "bundle.svdk")
    sm.save_sideinfo(info, single)
    sm.save_bundle(sm.SideInfoBundle(sm.ChannelStrategy.BLUE_CHANNEL, (info,)), bundle)
    yield "load_sideinfo", 1, lambda a: sm.load_sideinfo(_with_stored_alpha(single, a))
    yield "load_bundle", 1, lambda a: sm.load_bundle(_with_stored_alpha(bundle, a))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, at 1e308
@pytest.mark.parametrize("alpha, outcomes", ALPHA_OUTCOMES,
                         ids=[str(alpha) for alpha, _ in ALPHA_OUTCOMES])
def test_alpha_errors_per_entry_point(identity, tmp_path, alpha, outcomes):
    for name, record_only, enter in _alpha_entry_points(identity, tmp_path):
        expected = outcomes[record_only]
        if expected is None:
            enter(alpha)
            continue
        with pytest.raises(sm.WatermarkError) as caught:
            enter(alpha)
        assert type(caught.value) is expected, (name, caught.value)
