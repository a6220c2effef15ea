import json
import os

import numpy as np
import pytest

import svdmark as sm
from svdmark.errors import (
    CodecError,
    InvalidInput,
    InvalidParameter,
    MalformedSideInfo,
    UnsupportedFormat,
    UnsupportedVersion,
)

from conftest import seeded_matrix
from keyfiles import HEADER, key_parts, rewrite_key_metadata, write_key_parts, write_v1_key


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
        for name in ("u", "s", "v", "v_w"):
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

    def test_corrupt_base64(self, tmp_path, semiblind_info):
        # Only version-1 JSON keys hold base64; their reader is still used.
        _, info = semiblind_info
        path = tmp_path / "key.json"
        write_v1_key(info, path)
        doc = json.loads(path.read_text())
        doc["u"] = "!!!not-base64!!!"
        path.write_text(json.dumps(doc))
        with pytest.raises(CodecError):
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
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        rewrite_key_metadata(path, lambda d: d.__setitem__("version", 99))
        with pytest.raises(UnsupportedVersion):
            sm.load_sideinfo(str(path))

    def test_container_version_mismatch(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        write_key_parts(path, meta, payload, version=3)
        with pytest.raises(UnsupportedVersion):
            sm.load_sideinfo(str(path))

    def test_unaligned_payload_rejected(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        meta, payload = key_parts(path)
        text = json.dumps(meta).encode("ascii")
        text += b" " * (-(HEADER.size + len(text)) % 8 + 1)
        path.write_bytes(HEADER.pack(b"SVDK", 2, len(text)) + text + payload)
        with pytest.raises(CodecError):
            sm.load_sideinfo(str(path))

    def test_container_layout(self, tmp_path, hash_info):
        _, info = hash_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        data = path.read_bytes()
        magic, version, meta_len = HEADER.unpack_from(data)
        assert (magic, version) == (b"SVDK", 2)
        assert (HEADER.size + meta_len) % 8 == 0
        meta, payload = key_parts(path)
        assert meta == {"version": 2, "scheme_tag": "hash-code", "alpha": info.alpha,
                        "rows": 64, "cols": 64, "s_layout": "diag",
                        "quant": {"lo": info.quant.lo, "hi": info.quant.hi,
                                  "degenerate": info.quant.degenerate}}
        arrays = (info.u, np.diagonal(info.s), info.v, info.v_w)
        assert payload == b"".join(a.astype("<f8").tobytes() for a in arrays)

    def test_loaded_arrays_are_aligned_views(self, tmp_path, semiblind_info):
        _, info = semiblind_info
        path = tmp_path / "key.json"
        sm.save_sideinfo(info, str(path))
        back = sm.load_sideinfo(str(path))
        for name in ("u", "s", "v", "v_w"):
            assert getattr(back, name).flags.aligned
        for name in ("u", "v", "v_w"):
            assert not getattr(back, name).flags.owndata

    def test_full_layout_hash_key_still_loads(self, tmp_path, hash_info, identity):
        marked, info = hash_info
        path = tmp_path / "key.json"
        write_v1_key(info, path, s_layout="full")
        back = sm.load_sideinfo(str(path))
        for name in ("u", "s", "v", "v_w"):
            assert getattr(back, name).tobytes() == getattr(info, name).tobytes()
        assert (sm.recover_masked_bytes(marked, back).tobytes()
                == sm.recover_masked_bytes(marked, info).tobytes())
        assert (sm.extract_invisible(marked, back, identity).tobytes()
                == sm.extract_invisible(marked, info, identity).tobytes())

    def test_full_layout_off_diagonal_rejected(self, tmp_path, hash_info):
        _, info = hash_info
        s = info.s.copy()
        s[0, 1] = 3.0
        path = tmp_path / "key.json"
        write_v1_key(info, path, s_layout="full", s=s)
        with pytest.raises(InvalidInput):
            sm.load_sideinfo(str(path))

    @pytest.mark.parametrize("scheme", ["semi-blind", "hash-code"])
    def test_v1_diag_key_still_loads(self, tmp_path, semiblind_info, hash_info,
                                     identity, scheme):
        marked, info = semiblind_info if scheme == "semi-blind" else hash_info
        path = tmp_path / "key.json"
        write_v1_key(info, path)
        back = sm.load_sideinfo(str(path))
        for name in ("u", "s", "v", "v_w"):
            assert getattr(back, name).tobytes() == getattr(info, name).tobytes()
        if scheme == "semi-blind":
            assert sm.extract(marked, back).tobytes() == sm.extract(marked, info).tobytes()
        else:
            assert (sm.extract_invisible(marked, back, identity).tobytes()
                    == sm.extract_invisible(marked, info, identity).tobytes())

    def test_hash_key_stores_diagonal(self, tmp_path, hash_info):
        _, info = hash_info
        v2, v1 = tmp_path / "key.json", tmp_path / "v1.json"
        sm.save_sideinfo(info, str(v2))
        write_v1_key(info, v1)
        meta_len = HEADER.unpack_from(v2.read_bytes())[2]
        m, n = info.rows, info.cols
        assert key_parts(v2)[0]["s_layout"] == "diag"
        assert v2.stat().st_size == HEADER.size + meta_len + 8 * (m * m + min(m, n) + 2 * n * n)
        assert v2.stat().st_size <= 0.76 * v1.stat().st_size

    def test_not_json(self, tmp_path):
        path = tmp_path / "key.json"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(CodecError):
            sm.load_sideinfo(str(path))


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

    @pytest.mark.parametrize("scheme", list(sm.SchemeTag))
    def test_v1_bundle_still_loads(self, tmp_path, identity, scheme):
        img = sm.synthetic_rgb(32, 32, seed=9)
        wm = sm.synthetic_image(32, 32, 10, roughness=1.2, contrast=70.0)
        ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
        marked, bundle = sm.embed_color(img, wm, sm.ChannelStrategy.PER_CHANNEL,
                                        scheme, alpha=0.1, identity=ident)
        path = tmp_path / "bundle.json"
        write_v1_key(bundle, path)
        back = sm.load_bundle(str(path))
        assert back.strategy is bundle.strategy
        for a, b in zip(back.infos, bundle.infos):
            for name in ("u", "s", "v", "v_w"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (sm.extract_color(marked, back, back.strategy, identity=ident).tobytes()
                == sm.extract_color(marked, bundle, bundle.strategy, identity=ident).tobytes())

    def test_bundle_arrays_are_aligned(self, tmp_path):
        img = sm.synthetic_rgb(24, 20, seed=9)
        _, bundle = sm.embed_color(img, seeded_matrix(1, 24, 20),
                                   sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.SEMI_BLIND)
        path = tmp_path / "bundle.json"
        sm.save_bundle(bundle, str(path))
        for info in sm.load_bundle(str(path)).infos:
            assert all(getattr(info, n).flags.aligned for n in ("u", "s", "v", "v_w"))

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
        m = np.rint(seeded_matrix(6, 4, 4))
        pgm = tmp_path / "x.pgm"
        svdf = tmp_path / "x.svdf"
        sm.save_matrix(m, str(pgm))
        sm.save_matrix(m, str(svdf))
        np.testing.assert_array_equal(sm.load_matrix(str(pgm)), m)
        np.testing.assert_array_equal(sm.load_matrix(str(svdf)), m)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            sm.save_matrix(np.zeros((2, 2)), str(tmp_path / "x.png"))
        with pytest.raises(UnsupportedFormat):
            sm.load_matrix(str(tmp_path / "x.png"))

    def test_no_partial_file_on_invalid_input(self, tmp_path):
        path = tmp_path / "never.svdf"
        with pytest.raises(Exception):
            sm.write_float_image(np.array([[np.nan]]), str(path))
        assert not path.exists()

    def test_no_temp_leftovers(self, tmp_path):
        sm.write_pgm(np.zeros((2, 2)), str(tmp_path / "a.pgm"))
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".svdmark-")]
        assert leftovers == []
