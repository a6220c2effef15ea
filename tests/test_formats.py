import json
import os

import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import (
    CodecError,
    InvalidParameter,
    MalformedSideInfo,
    UnsupportedFormat,
    UnsupportedVersion,
)

from conftest import seeded_matrix
from svdmark.cli import cli_main
from keyfiles import (
    HEADER,
    V1_KEYS,
    key_parts,
    key_payload,
    rewrite_key_metadata,
    write_key_parts,
    write_v2_key,
)


class TestPgm:
    def test_roundtrip_integral(self, tmp_path):
        m = np.rint(seeded_matrix(1, 5, 7))
        path = tmp_path / "img.pgm"
        sm.write_pgm(m, str(path))
        np.testing.assert_array_equal(sm.read_pgm(str(path)), m)

    def test_exact_body_bytes(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        sm.write_pgm(np.array([[0.0, 255.0], [128.0, 1.0]]), str(path))
        data = path.read_bytes()
        assert data == b"P5\n2 2\n255\n" + bytes([0x00, 0xFF, 0x80, 0x01])

    @pytest.mark.parametrize("layout", ["transposed", "strided"])
    def test_writers_take_any_memory_layout(self, tmp_path, layout):
        # The payload is written straight from the array, in row order.
        m = np.rint(seeded_matrix(2, 6, 10))
        view = m.T if layout == "transposed" else m[:, ::2]
        sm.write_pgm(view, str(tmp_path / "v.pgm"))
        sm.write_pgm(view.copy(), str(tmp_path / "c.pgm"))
        sm.write_float_image(view, str(tmp_path / "v.svdf"))
        sm.write_ppm(sm.RgbImage(r=view, g=view, b=view), str(tmp_path / "v.ppm"))
        assert (tmp_path / "v.pgm").read_bytes() == (tmp_path / "c.pgm").read_bytes()
        np.testing.assert_array_equal(sm.read_pgm(str(tmp_path / "v.pgm")), view)
        np.testing.assert_array_equal(sm.read_float_image(str(tmp_path / "v.svdf")), view)
        np.testing.assert_array_equal(sm.read_ppm(str(tmp_path / "v.ppm")).b, view)

    def test_write_rounds_and_clips(self, tmp_path):
        path = tmp_path / "clip.pgm"
        sm.write_pgm(np.array([[-5.0, 260.0], [99.5, 100.5]]), str(path))
        out = sm.read_pgm(str(path))
        np.testing.assert_array_equal(out, [[0.0, 255.0], [100.0, 100.0]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(CodecError):
            sm.read_pgm(str(path))

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "maxval.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormat):
            sm.read_pgm(str(path))

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "comments.pgm"
        path.write_bytes(b"P5\n# a comment\n 2 # width\n2\n255\n\x01\x02\x03\x04")
        out = sm.read_pgm(str(path))
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_ppm_magic_rejected(self, tmp_path):
        path = tmp_path / "wrong.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(UnsupportedFormat):
            sm.read_pgm(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(CodecError):
            sm.read_pgm(str(path))


class TestPpm:
    def test_roundtrip_integral(self, tmp_path):
        img = sm.RgbImage(r=np.rint(seeded_matrix(2, 4, 4)),
                          g=np.rint(seeded_matrix(3, 4, 4)),
                          b=np.rint(seeded_matrix(4, 4, 4)))
        path = tmp_path / "img.ppm"
        sm.write_ppm(img, str(path))
        back = sm.read_ppm(str(path))
        for before, after in zip(img.channels(), back.channels()):
            np.testing.assert_array_equal(before, after)

    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "red.ppm"
        img = sm.RgbImage(r=np.array([[255.0]]), g=np.array([[0.0]]),
                          b=np.array([[0.0]]))
        sm.write_ppm(img, str(path))
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00"

    def test_pgm_magic_rejected(self, tmp_path):
        path = tmp_path / "wrong.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(UnsupportedFormat):
            sm.read_ppm(str(path))


class TestFloatImage:
    def test_bit_exact_roundtrip(self, tmp_path):
        m = seeded_matrix(5, 6, 9, low=-1e6, high=1e6) * 1e-7
        m[0, 0] = 2.0 ** -1040  # subnormal survives too
        path = tmp_path / "img.svdf"
        sm.write_float_image(m, str(path))
        back = sm.read_float_image(str(path))
        assert back.tobytes() == m.tobytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.svdf"
        sm.write_float_image(np.zeros((2, 3)), str(path))
        data = path.read_bytes()
        assert data[:4] == b"SVDF"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == 2
        assert int.from_bytes(data[10:14], "little") == 3
        assert len(data) == 14 + 2 * 3 * 8

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.svdf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CodecError):
            sm.read_float_image(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.svdf"
        good = tmp_path / "good.svdf"
        sm.write_float_image(np.zeros((1, 1)), str(good))
        data = bytearray(good.read_bytes())
        data[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            sm.read_float_image(str(path))

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "good.svdf"
        sm.write_float_image(np.zeros((2, 2)), str(good))
        bad = tmp_path / "bad.svdf"
        bad.write_bytes(good.read_bytes()[:-3])
        with pytest.raises(CodecError):
            sm.read_float_image(str(bad))


class TestSideInfoFile:
    @pytest.fixture()
    def semiblind_info(self, cover64, watermark64):
        marked, info = sm.embed(cover64, watermark64, 0.1)
        return marked, info

    @pytest.fixture()
    def hash_info(self, cover64, watermark64, identity):
        marked, info = sm.embed_invisible(cover64, watermark64, identity, 0.05)
        return marked, info

    def test_semiblind_roundtrip_bitwise(self, tmp_path, semiblind_info):
        marked, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        back = sm.load_sideinfo(str(path))
        for name in ("u", "sigma", "v", "v_w"):
            assert getattr(back, name).tobytes() == getattr(info, name).tobytes()
        assert back.alpha == info.alpha
        assert back.scheme is info.scheme
        np.testing.assert_array_equal(sm.extract(marked, back),
                                      sm.extract(marked, info))

    def test_hash_roundtrip_extraction_identical(self, tmp_path, hash_info, identity):
        marked, info = hash_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        back = sm.load_sideinfo(str(path))
        assert (back.quant.lo, back.quant.hi, back.quant.degenerate) == (
            info.quant.lo, info.quant.hi, info.quant.degenerate)
        np.testing.assert_array_equal(
            sm.extract_invisible(marked, back, identity),
            sm.extract_invisible(marked, info, identity),
        )

    def test_missing_quant_rejected(self, tmp_path, hash_info):
        _, info = hash_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        rewrite_key_metadata(path, lambda d: d.pop("quant"))
        with pytest.raises(MalformedSideInfo):
            sm.load_sideinfo(str(path))

    def test_tampered_alpha_sign(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        rewrite_key_metadata(path, lambda d: d.__setitem__("alpha", -d["alpha"]))
        with pytest.raises(InvalidParameter):
            sm.load_sideinfo(str(path))

    def test_unknown_scheme_rejected(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        rewrite_key_metadata(path, lambda d: d.__setitem__("scheme_tag", "mystery"))
        with pytest.raises(MalformedSideInfo):
            sm.load_sideinfo(str(path))

    @pytest.mark.parametrize("cut", [-3, -8, 8])
    def test_payload_length_mismatch(self, tmp_path, semiblind_info, cut):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        write_key_parts(path, meta, payload[:cut] if cut < 0 else payload + bytes(cut))
        with pytest.raises(CodecError):
            sm.load_sideinfo(str(path))

    def test_version_mismatch(self, tmp_path, semiblind_info):
        # The header holds the only version; the metadata has none.
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        assert "version" not in meta
        write_key_parts(path, meta, payload, version=99)
        with pytest.raises(UnsupportedVersion,
                           match="^key container version 99 is not supported$"):
            sm.load_sideinfo(str(path))

    def test_container_version_mismatch(self, tmp_path, semiblind_info):
        # The header decides the layout: version-3 bytes under a version-2
        # header are refused, not read by their look.
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        write_key_parts(path, meta, payload, version=2)
        with pytest.raises(UnsupportedVersion):
            sm.load_sideinfo(str(path))

    @pytest.mark.parametrize("kind", ["single", "bundle"])
    @pytest.mark.parametrize("load", [sm.load_sideinfo, sm.load_bundle],
                             ids=["sideinfo", "bundle"])
    def test_version_2_keys_refused(self, tmp_path, semiblind_info, kind, load):
        # The version-2 layout, which repeated the shared fields per record,
        # is retired: either kind fails on its header, through either loader.
        _, info = semiblind_info
        path = tmp_path / "key.svdk"
        write_v2_key(path, info, strategy="blue" if kind == "bundle" else None)
        with pytest.raises(UnsupportedVersion,
                           match="^key container version 2 is not supported$"):
            load(str(path))

    def test_unaligned_payload_rejected(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        text = json.dumps(meta).encode("ascii")
        text += b" " * (-(HEADER.size + len(text)) % 8 + 1)
        path.write_bytes(HEADER.pack(b"SVDK", 3, len(text)) + text + payload)
        with pytest.raises(CodecError):
            sm.load_sideinfo(str(path))

    def test_truncated_key_names_the_array(self, tmp_path, semiblind_info):
        # Each array is named as the README's layout names it.
        _, info = semiblind_info
        path = tmp_path / "key.svdk"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        end = 0
        for name in ("u", "sigma", "v", "v_w"):
            end += getattr(info, name).nbytes
            write_key_parts(path, meta, payload[: end - 8])
            with pytest.raises(CodecError, match=f"^key file ends inside {name}$"):
                sm.load_sideinfo(str(path))

    def test_container_layout(self, tmp_path, hash_info):
        _, info = hash_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        data = path.read_bytes()
        magic, version, meta_len = HEADER.unpack_from(data)
        assert (magic, version) == (b"SVDK", 3)
        assert (HEADER.size + meta_len) % 8 == 0
        meta, payload = key_parts(path)
        assert meta == {"scheme_tag": "hash-code", "alpha": info.alpha,
                        "rows": 64, "cols": 64,
                        "quant": {"lo": info.quant.lo, "hi": info.quant.hi,
                                  "degenerate": info.quant.degenerate}}
        arrays = (info.u, info.sigma, info.v, info.v_w)
        assert payload == b"".join(a.astype("<f8").tobytes() for a in arrays)

    def test_loaded_arrays_are_aligned_views(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        back = sm.load_sideinfo(str(path))
        for name in ("u", "sigma", "v", "v_w"):
            assert getattr(back, name).flags.aligned
        for name in ("u", "v", "v_w"):
            assert not getattr(back, name).flags.owndata

    def test_hash_key_stores_diagonal(self, tmp_path, hash_info):
        # Only the min(M, N) singular values are stored, so no layout is named.
        _, info = hash_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta_len = HEADER.unpack_from(path.read_bytes())[2]
        m, n = info.rows, info.cols
        assert "s_layout" not in key_parts(path)[0]
        assert path.stat().st_size == 10 + meta_len + 8 * (m * m + min(m, n) + 2 * n * n)

    @pytest.mark.parametrize("rows, cols", [(24, 20), (20, 24)])
    @pytest.mark.parametrize("strategy, k", [("perchannel", 3), ("blue", 1)])
    def test_bundle_stores_shared_v_w_once(self, tmp_path, rows, cols, strategy, k):
        img = sm.synthetic_rgb(rows, cols, seed=9)
        _, bundle = sm.embed_color(img, seeded_matrix(1, rows, cols), strategy,
                                   sm.SchemeTag.SEMI_BLIND)
        path = tmp_path / "bundle.svdk"
        sm.save_bundle(bundle, str(path))
        meta_len = HEADER.unpack_from(path.read_bytes())[2]
        m, n = rows, cols
        assert path.stat().st_size == (
            10 + meta_len + 8 * (k * (m * m + min(m, n) + n * n) + n * n))
        meta, payload = key_parts(path)
        assert meta == {"scheme_tag": "semi-blind", "alpha": 0.1, "rows": m, "cols": n,
                        "strategy": strategy}
        assert payload == key_payload(bundle.infos)

    def test_not_json(self, tmp_path):
        path = tmp_path / "key.json"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(CodecError):
            sm.load_sideinfo(str(path))

    @pytest.mark.parametrize("kind", ["v1-single", "v1-bundle", "pgm"])
    @pytest.mark.parametrize("load", [sm.load_sideinfo, sm.load_bundle],
                             ids=["sideinfo", "bundle"])
    def test_only_svdk_keys_load(self, tmp_path, kind, load):
        path = tmp_path / "key"
        if kind == "pgm":
            sm.write_pgm(seeded_matrix(3, 4, 4), str(path))
        else:
            path.write_text(V1_KEYS[kind.removeprefix("v1-")])
        with pytest.raises(CodecError, match="^not an SVDK key file$"):
            load(str(path))


class TestBundleFile:
    def test_roundtrip(self, tmp_path):
        img = sm.synthetic_rgb(32, 32, seed=9)
        wm = sm.synthetic_image(32, 32, 10, roughness=1.2, contrast=70.0)
        marked, bundle = sm.embed_color(img, wm, sm.ChannelStrategy.PER_CHANNEL,
                                        sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        path = tmp_path / "bundle.json"
        sm.save_bundle(bundle, str(path))
        back = sm.load_bundle(str(path))
        assert back.strategy is bundle.strategy
        assert len(back.infos) == 3
        np.testing.assert_array_equal(
            sm.extract_color(marked, back, sm.ChannelStrategy.PER_CHANNEL),
            sm.extract_color(marked, bundle, sm.ChannelStrategy.PER_CHANNEL),
        )

    def test_single_key_rejected_as_bundle(self, tmp_path, cover64, watermark64):
        _, info = sm.embed(cover64, watermark64, 0.1)
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        with pytest.raises(MalformedSideInfo):
            sm.load_bundle(str(path))

    def test_bundle_arrays_are_aligned(self, tmp_path):
        img = sm.synthetic_rgb(24, 20, seed=9)
        _, bundle = sm.embed_color(img, seeded_matrix(1, 24, 20),
                                   sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.SEMI_BLIND)
        path = tmp_path / "bundle.json"
        sm.save_bundle(bundle, str(path))
        for info in sm.load_bundle(str(path)).infos:
            assert all(getattr(info, n).flags.aligned for n in ("u", "sigma", "v", "v_w"))

    def test_bundle_rejected_as_single_key(self, tmp_path):
        img = sm.synthetic_rgb(16, 16, seed=11)
        wm = sm.synthetic_image(16, 16, 12)
        _, bundle = sm.embed_color(img, wm, sm.ChannelStrategy.BLUE_CHANNEL,
                                   sm.SchemeTag.SEMI_BLIND, alpha=0.1)
        path = tmp_path / "bundle.json"
        sm.save_bundle(bundle, str(path))
        with pytest.raises(MalformedSideInfo):
            sm.load_sideinfo(str(path))


class TestDispatchAndAtomicity:
    def test_extension_dispatch(self, tmp_path):
        # Extensions match in either case.
        m = np.rint(seeded_matrix(6, 4, 4))
        for name in ("x.pgm", "x.svdf", "y.PGM", "y.SVDF"):
            sm.save_matrix(m, str(tmp_path / name))
            np.testing.assert_array_equal(sm.load_matrix(str(tmp_path / name)), m)
        assert sm.read_pgm(str(tmp_path / "y.PGM")).shape == (4, 4)
        assert sm.read_float_image(str(tmp_path / "y.SVDF")).shape == (4, 4)

    def test_unknown_extension(self, tmp_path):
        # A colour image is no matrix; the message names the extension in
        # lower case, or says the path has none.
        for name, ext in (("x.png", ".png"), ("x.ppm", ".ppm"), ("x.PPM", ".ppm"),
                          ("x.Svdk", ".svdk"), ("x", "extensionless"),
                          ("d.pgm/x", "extensionless")):
            path = str(tmp_path / name)
            with pytest.raises(UnsupportedFormat) as exc:
                sm.save_matrix(np.zeros((2, 2)), path)
            assert str(exc.value) == f"cannot write a matrix to {ext} files"
            with pytest.raises(UnsupportedFormat) as exc:
                sm.load_matrix(path)
            assert str(exc.value) == f"cannot read a matrix from {ext} files"
            assert not os.path.exists(path)

    def test_no_partial_file_on_invalid_input(self, tmp_path):
        path = tmp_path / "never.svdf"
        with pytest.raises(Exception):
            sm.write_float_image(np.array([[np.nan]]), str(path))
        assert not path.exists()

    def test_no_temp_leftovers(self, tmp_path):
        sm.write_pgm(np.zeros((2, 2)), str(tmp_path / "a.pgm"))
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".svdmark-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_written_files_take_the_umask(self, tmp_path, umask, mode):
        # Every write makes its file as open() does: mode 0o666 less the
        # umask, an overwrite included, whatever mode the old file had.
        cover, wm = seeded_matrix(1, 8, 8), seeded_matrix(2, 8, 8)
        sm.write_pgm(cover, str(tmp_path / "c.pgm"))
        sm.write_pgm(wm, str(tmp_path / "w.pgm"))
        marked, info = sm.embed(cover, wm, 0.1)
        (tmp_path / "again.pgm").write_bytes(b"")
        os.chmod(tmp_path / "again.pgm", 0o640)
        old = os.umask(umask)
        try:
            sm.write_pgm(marked, str(tmp_path / "m.pgm"))
            sm.write_pgm(marked, str(tmp_path / "again.pgm"))
            sm.save_sideinfo(info, str(tmp_path / "k.svdk"))
            assert cli_main(["sweep", "--cover", str(tmp_path / "c.pgm"),
                             "--watermark", str(tmp_path / "w.pgm"), "--alphas", "0.1",
                             "--attacks", "quantize-8bit", "--out",
                             str(tmp_path / "r.csv")]) == 0
        finally:
            os.umask(old)
        for name in ("m.pgm", "again.pgm", "k.svdk", "r.csv"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode, name
