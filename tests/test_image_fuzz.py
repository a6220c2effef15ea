"""Fuzzing the image decoders with truncated, mutated and absurd headers.

Whatever the bytes, only ``WatermarkError`` subclasses escape
``read_pgm`` (P5), ``read_ppm`` (P6) and ``read_float_image`` (SVDF),
and the CLI commands that read an image, ``extract`` and ``metrics``,
report a failure as exactly one ``error:`` line with exit code 1.
"""

import contextlib
import io
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svdmark as sm
from svdmark.cli import cli_main
from svdmark.errors import WatermarkError

from conftest import seeded_matrix

ROWS, COLS = 12, 10
SVDF_HEADER = struct.Struct("<4sHII")  # magic, u16 version, u32 rows, u32 cols
READERS = {"pgm": sm.read_pgm, "ppm": sm.read_ppm, "svdf": sm.read_float_image}
MAGIC = {"pgm": "P5", "ppm": "P6"}
CHANNELS = {"pgm": 1, "ppm": 3}
# Header fields as digit strings, up to 10**5000: no PNM field needs more
# than a handful of digits, and Python refuses to convert more than 4300
# digits to or from an int.
FIELDS = st.one_of(st.integers(0, 2**64).map(str),
                   st.integers(0, 5000).map(lambda k: "1" + "0" * k))


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """Valid images as bytes, keys that open them, and a scratch dir."""
    d = tmp_path_factory.mktemp("imgfuzz")
    cover, wm = seeded_matrix(1, ROWS, COLS), seeded_matrix(2, ROWS, COLS)
    marked, info = sm.embed(cover, wm, 0.1)
    sm.write_pgm(marked, str(d / "marked.pgm"))
    sm.write_float_image(marked, str(d / "marked.svdf"))
    sm.save_sideinfo(info, str(d / "single.key"))
    img, bundle = sm.embed_color(sm.synthetic_rgb(ROWS, COLS, seed=3), wm,
                                 sm.ChannelStrategy.BLUE_CHANNEL, sm.SchemeTag.SEMI_BLIND)
    sm.write_ppm(img, str(d / "marked.ppm"))
    sm.save_bundle(bundle, str(d / "bundle.key"))
    out = {"dir": d}
    for kind in READERS:
        out[kind] = (d / f"marked.{kind}").read_bytes()
    return out


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1)
    assert lines == [] if rc == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
    return rc


def _check(images, kind, data):
    """Feed ``data`` to its decoder and to the CLI commands that read it;
    returns whether the decoder accepted it."""
    d = images["dir"]
    path = d / f"fuzzed.{kind}"
    path.write_bytes(data)
    try:
        READERS[kind](str(path))
        ok = True
    except WatermarkError:
        ok = False
    key = d / ("bundle.key" if kind == "ppm" else "single.key")
    rc = _cli(["extract", "--marked", str(path), "--key", str(key),
               "--out", str(d / "extracted.svdf")])
    assert rc == 1 or ok
    if kind != "ppm":  # metrics reads grayscale carriers only
        rc = _cli(["metrics", "--a", str(path), "--b", str(d / f"marked.{kind}")])
        assert rc == 1 or ok
    return ok


def _pnm(kind, cols, rows, maxval=255, raster=b""):
    return f"{MAGIC[kind]}\n{cols} {rows}\n{maxval}\n".encode("ascii") + raster


def _header_size(kind):
    if kind == "svdf":
        return SVDF_HEADER.size
    return len(_pnm(kind, COLS, ROWS))


@pytest.mark.parametrize("kind", list(READERS))
def test_truncated_at_every_header_edge(images, kind):
    data = images[kind]
    end = _header_size(kind)
    cuts = list(range(end + 1)) + [len(data) - 1]
    for n in cuts:
        assert not _check(images, kind, data[:n]), n


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(READERS)), data=st.data())
def test_truncated_at_random_length(images, kind, data):
    n = data.draw(st.integers(0, len(images[kind]) - 1))
    assert not _check(images, kind, images[kind][:n])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(READERS)), in_header=st.booleans(), data=st.data())
def test_byte_flips(images, kind, in_header, data):
    raw = bytearray(images[kind])
    end = _header_size(kind)
    lo, hi = (0, end) if in_header else (end, len(raw))
    for _ in range(data.draw(st.integers(1, 3))):
        raw[data.draw(st.integers(lo, hi - 1))] ^= data.draw(st.integers(1, 255))
    _check(images, kind, bytes(raw))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pgm", "ppm"]), cols=FIELDS, rows=FIELDS, maxval=FIELDS)
@example(kind="pgm", cols="10", rows="12", maxval="1" + "0" * 4300)
@example(kind="ppm", cols="1" + "0" * 4300, rows="12", maxval="255")
@example(kind="pgm", cols="1" + "0" * 3000, rows="1" + "0" * 3000, maxval="255")
def test_absurd_pnm_fields(images, kind, cols, rows, maxval):
    raster = images[kind][_header_size(kind):]
    ok = _check(images, kind, _pnm(kind, cols, rows, maxval, raster))
    size = math.inf if len(rows + cols) > 40 else int(rows) * int(cols) * CHANNELS[kind]
    assert ok == (maxval == "255" and 1 <= size <= len(raster))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 2**32 - 1), cols=st.integers(0, 2**32 - 1))
def test_absurd_svdf_dimensions(images, rows, cols):
    data = images["svdf"]
    header = SVDF_HEADER.pack(b"SVDF", 1, rows, cols)
    ok = _check(images, "svdf", header + data[SVDF_HEADER.size:])
    assert ok == (rows * cols == ROWS * COLS and rows >= 1)


def test_fuzz_images_load(images):
    # The unmutated inputs are valid, so every rejection above is earned.
    for kind in READERS:
        assert _check(images, kind, images[kind])
