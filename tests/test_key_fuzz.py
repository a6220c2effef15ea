"""Fuzzing the key decoders with truncated and mutated bytes.

Whatever the bytes, only ``WatermarkError`` subclasses escape
``load_sideinfo`` and ``load_bundle``, and the CLI ``extract`` reports a
failure as one ``error:`` line with exit code 1, never a traceback.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svdmark as sm
from svdmark.cli import cli_main
from svdmark.errors import CodecError, WatermarkError

from conftest import seeded_matrix
from keyfiles import HEADER, write_v1_key

ROWS, COLS = 12, 10
KINDS = ("single", "bundle", "hash")
# The marked image the CLI extracts with each kind of key; none for the
# hash-code key, which plain ``extract`` refuses whatever its bytes.
MARKED = {"single": "single.svdf", "bundle": "bundle.ppm", "v1": "single.svdf"}


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    """Valid keys as bytes, the marked images they open, and a scratch dir."""
    d = tmp_path_factory.mktemp("fuzz")
    cover, wm = seeded_matrix(1, ROWS, COLS), seeded_matrix(2, ROWS, COLS)
    ident = sm.Identity.from_string("fuzz|0001")
    out = {"dir": d}
    marked, info = sm.embed(cover, wm, 0.1)
    sm.write_float_image(marked, str(d / "single.svdf"))
    sm.save_sideinfo(info, str(d / "single.key"))
    write_v1_key(info, d / "v1.key")
    marked, bundle = sm.embed_color(sm.synthetic_rgb(ROWS, COLS, seed=3), wm,
                                    sm.ChannelStrategy.PER_CHANNEL, sm.SchemeTag.SEMI_BLIND)
    sm.write_ppm(marked, str(d / "bundle.ppm"))
    sm.save_bundle(bundle, str(d / "bundle.key"))
    _, info = sm.embed_invisible(cover, wm, ident, 0.1)
    sm.save_sideinfo(info, str(d / "hash.key"))
    for kind in (*KINDS, "v1"):
        out[kind] = (d / f"{kind}.key").read_bytes()
    return out


def _boundaries(data, records):
    """Header fields, metadata end and every array edge of an SVDK key."""
    start = HEADER.size + HEADER.unpack_from(data)[2]
    edges = [0, 1, 4, 6, HEADER.size, start - 1, start]
    offset = start
    for _ in range(records):
        for count in (ROWS * ROWS, min(ROWS, COLS), COLS * COLS, COLS * COLS):
            offset += 8 * count
            edges += [offset - 1, offset]
    assert offset == len(data)
    return sorted(set(edges) - {len(data)})


def _check(keys, kind, data):
    """Feed ``data`` to both loaders and, for keys the CLI can open, to
    ``extract``; returns whether the intended loader accepted it."""
    path = keys["dir"] / "fuzzed.key"
    path.write_bytes(data)
    loaded = {}
    for name, load in (("single", sm.load_sideinfo), ("bundle", sm.load_bundle)):
        try:
            load(str(path))
            loaded[name] = True
        except WatermarkError:
            loaded[name] = False
    ok = loaded["bundle" if kind == "bundle" else "single"]
    if kind in MARKED:
        marked = keys["dir"] / MARKED[kind]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["extract", "--marked", str(marked), "--key", str(path),
                           "--out", str(keys["dir"] / "extracted.svdf")])
        assert rc in (0, 1) and (ok or rc == 1)
        if rc == 1:
            assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    return ok


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_at_every_boundary(keys, kind):
    data = keys[kind]
    for n in _boundaries(data, 3 if kind == "bundle" else 1):
        assert not _check(keys, kind, data[:n]), n


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_truncated_at_random_length(keys, kind, data):
    n = data.draw(st.integers(0, len(keys[kind]) - 1))
    assert not _check(keys, kind, keys[kind][:n])


# Flipped exponent bits can overflow the orthogonality residual to inf,
# which rejects the key as intended.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS),
       region=st.sampled_from(("header", "metadata", "payload")),
       data=st.data())
def test_byte_flips(keys, kind, region, data):
    raw = bytearray(keys[kind])
    start = HEADER.size + HEADER.unpack_from(raw)[2]
    lo, hi = {"header": (0, HEADER.size), "metadata": (HEADER.size, start),
              "payload": (start, len(raw))}[region]
    for _ in range(data.draw(st.integers(1, 3))):
        raw[data.draw(st.integers(lo, hi - 1))] ^= data.draw(st.integers(1, 255))
    _check(keys, kind, bytes(raw))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_metadata_length_past_end(keys, kind, data):
    raw = bytearray(keys[kind])
    meta_len = data.draw(st.integers(len(raw) - HEADER.size + 1, 2**32 - 1))
    raw[6:10] = meta_len.to_bytes(4, "little")
    path = keys["dir"] / "fuzzed.key"
    path.write_bytes(bytes(raw))
    with pytest.raises(CodecError):
        (sm.load_bundle if kind == "bundle" else sm.load_sideinfo)(str(path))
    assert not _check(keys, kind, bytes(raw))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncated_v1_json_key(keys, data):
    v1 = keys["v1"]
    assert v1.endswith(b"}\n")  # dropping only the newline leaves a valid key
    n = data.draw(st.integers(0, len(v1) - 2))
    assert not _check(keys, "v1", v1[:n])


@pytest.mark.parametrize("kind", ("single", "v1"))
def test_deeply_nested_json_rejected(keys, kind):
    nested = b"[" * 100_006  # 10 + 100_006 is a multiple of 8: metadata gets parsed
    if kind == "single":
        nested = HEADER.pack(b"SVDK", 2, len(nested)) + nested
    assert not _check(keys, kind, nested)


def test_fuzz_keys_load(keys):
    # The unmutated inputs are valid, so every rejection above is earned.
    for kind in (*KINDS, "v1"):
        assert _check(keys, kind, keys[kind])
