"""The PNM header parser against a frozen copy of the byte-at-a-time
tokenizer it replaced.

``frozen_read_pnm`` is that earlier reader, kept verbatim apart from
taking the file's bytes instead of its path.  On generated headers
(whitespace, comments, over-long digit runs, wrong maxvals, missing
raster separators, truncated rasters) ``read_pgm`` and ``read_ppm`` must
accept exactly what it accepts, return the same raster, and reject the
rest with the same error class.  The header regex must also stay linear:
long comments and runs of separators cost one pass.  Unlike the old
reader it caps the comment lines before one field at 4096, which keeps
its memory bounded.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svdmark as sm
from svdmark.errors import CodecError, UnsupportedFormat, WatermarkError

_PNM_MAGICS = {b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"}


class _PnmReader:
    """Tokenizer for the PNM header: whitespace-separated fields with
    '#' comments running to end of line."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def magic(self):
        if len(self.data) < 2:
            raise CodecError("file too short for a PNM header")
        tok = self.data[:2]
        self.pos = 2
        return tok

    def int_field(self, name):
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise CodecError(f"malformed PNM header: missing {name}")
        if self.pos - start > 10:  # also keeps int() under its 4300-digit limit
            raise CodecError(f"malformed PNM header: {name} has over 10 digits")
        return int(self.data[start : self.pos])

    def raster(self, count):
        # Exactly one whitespace byte separates the header from the raster.
        if self.pos >= len(self.data) or self.data[self.pos] not in b" \t\r\n":
            raise CodecError("malformed PNM header: missing raster separator")
        self.pos += 1
        raster = self.data[self.pos : self.pos + count]
        if len(raster) < count:
            raise CodecError(f"truncated raster: expected {count} bytes, got {len(raster)}")
        return raster

    def _skip_separators(self):
        while self.pos < len(self.data):
            c = self.data[self.pos]
            if c in b" \t\r\n":
                self.pos += 1
            elif c in b"#":
                while self.pos < len(self.data) and self.data[self.pos] not in b"\n":
                    self.pos += 1
            else:
                return


def frozen_read_pnm(data, want_magic, channels):
    reader = _PnmReader(data)
    magic = reader.magic()
    if magic != want_magic:
        if magic in _PNM_MAGICS:
            raise UnsupportedFormat(
                f"expected {want_magic.decode()} data, got {magic.decode()}"
            )
        raise CodecError("not a PNM file")
    cols = reader.int_field("width")
    rows = reader.int_field("height")
    maxval = reader.int_field("maxval")
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    if rows < 1 or cols < 1:
        raise CodecError(f"bad image dimensions {rows}x{cols}")
    raster = reader.raster(rows * cols * channels)
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols * channels)


KINDS = {"pgm": (b"P5", 1), "ppm": (b"P6", 3)}


def _outcome(fn):
    """``("ok", raster)`` or ``("error", class name)``."""
    try:
        return "ok", fn()
    except WatermarkError as exc:
        return "error", type(exc).__name__


def _new_raster(kind, path):
    if kind == "pgm":
        return sm.read_pgm(path).astype(np.uint8)
    img = sm.read_ppm(path)
    return np.stack(img.channels(), axis=-1).astype(np.uint8)


def _compare(tmp, kind, data):
    path = tmp / f"header.{kind}"
    path.write_bytes(data)
    magic, channels = KINDS[kind]
    old = _outcome(lambda: frozen_read_pnm(data, magic, channels))
    new = _outcome(lambda: _new_raster(kind, str(path)))
    assert old[0] == new[0], (data[:80], old, new)
    if old[0] == "error":
        assert old[1] == new[1], (data[:80], old, new)
    else:
        assert old[1].shape == (new[1].shape[0], new[1].shape[1] * channels)
        assert old[1].tobytes() == new[1].tobytes()
    return old[0] == "ok"


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("pnmheader")


WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n"])
COMMENT = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")


def _separator(min_size):
    return st.lists(st.one_of(WHITESPACE, COMMENT), min_size=min_size,
                    max_size=3).map(b"".join)


# Replacements for one header part each: separators that are empty, hold
# bytes outside PNM whitespace or a comment with no newline; fields with
# no digits, leading zeros, 10 or more digits, zero or a wrong maxval.
BAD_SEPARATOR = st.one_of(
    st.sampled_from([b"", b"\x0b", b"\x0c", b"x", b"-", b"+", b"#", b"#c", b" #c\r"]),
    st.tuples(_separator(0), st.sampled_from([b"x", b"#", b"\x0c"]), _separator(0))
    .map(b"".join),
)
BAD_FIELD = st.sampled_from([b"", b"0", b"00", b"0255", b"0000000255", b"00000000255",
                             b"1" * 10, b"0" * 11 + b"2", b"9" * 30, b"256", b"65535"])
BAD = {
    "magic": st.sampled_from([b"P2", b"P5", b"P6", b"Q5", b"P", b""]),
    "sep0": BAD_SEPARATOR, "sep1": BAD_SEPARATOR, "sep2": BAD_SEPARATOR,
    "width": BAD_FIELD, "height": BAD_FIELD, "maxval": BAD_FIELD,
    "raster_sep": st.sampled_from([b"", b"#", b"x", b"\x0c", b"  ", b"\r\n"]),
    "raster": st.integers(-3, -1),
}


@st.composite
def pnm_files(draw):
    """A (kind, file bytes) pair: a valid header and raster with up to
    two of its parts replaced by a defective one."""
    kind = draw(st.sampled_from(list(KINDS)))
    want, channels = KINDS[kind]
    dims = st.integers(1, 4).map(lambda n: str(n).encode())
    parts = {"magic": want, "sep0": draw(_separator(0)), "width": draw(dims),
             "sep1": draw(_separator(1)), "height": draw(dims), "sep2": draw(_separator(1)),
             "maxval": b"255", "raster_sep": draw(WHITESPACE), "raster": 0}
    names = draw(st.permutations(list(BAD)))  # spreads defects over every part
    for name in names[: draw(st.integers(0, 2))]:
        parts[name] = draw(BAD[name])
    width, height = parts["width"], parts["height"]
    count = 0
    if 0 < len(width) <= 10 and 0 < len(height) <= 10:
        count = min(int(width) * int(height) * channels, 64)
    seed = draw(st.integers(0, 255))
    raster = bytes((seed + 37 * i) % 256 for i in range(max(0, count + parts["raster"])))
    head = b"".join(parts[k] for k in ("magic", "sep0", "width", "sep1", "height",
                                         "sep2", "maxval", "raster_sep"))
    return kind, head + raster


@settings(max_examples=500, deadline=None)
@given(case=pnm_files())
@example(case=("pgm", b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3])))
@example(case=("ppm", b"P6#c\n1#\n 1 255 " + bytes([7, 8, 9])))
@example(case=("pgm", b"P510 1#c 255\n" + bytes(10)))
@example(case=("pgm", b"P5 2 1 00000000255\n" + bytes(2)))
@example(case=("pgm", b"P5 2 1 255\x0c" + bytes(2)))
def test_matches_frozen_reader(tmp, case):
    _compare(tmp, *case)


@pytest.mark.parametrize("kind", list(KINDS))
def test_frozen_reader_agrees_on_written_files(tmp, kind):
    # Files the writers make are accepted by both readers, byte for byte.
    path = tmp / f"written.{kind}"
    if kind == "pgm":
        sm.write_pgm(np.arange(12.0).reshape(3, 4) * 20, str(path))
    else:
        sm.write_ppm(sm.synthetic_rgb(3, 4, seed=1), str(path))
    assert _compare(tmp, kind, path.read_bytes())


def test_four_megabyte_comment_reads_fast(tmp):
    path = tmp / "comment.pgm"
    path.write_bytes(b"P5\n#" + b"c" * (4 << 20) + b"\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    start = time.perf_counter()
    m = sm.read_pgm(str(path))
    elapsed = time.perf_counter() - start
    np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
    assert elapsed < 0.25, elapsed


# Headers a backtracking regex could take exponential or quadratic time
# to reject: the separators before a missing field are a long run of
# whitespace, of comments, or of '#' bytes with no newline.
@pytest.mark.parametrize("filler", [b" ", b"#\n", b"#", b" #\n", b"\n#"])
def test_long_malformed_header_is_rejected_fast(tmp, filler):
    path = tmp / "malformed.pgm"
    path.write_bytes(b"P5 2 2" + filler * ((128 << 10) // len(filler)) + b"x")
    start = time.perf_counter()
    with pytest.raises(CodecError):
        sm.read_pgm(str(path))
    assert time.perf_counter() - start < 0.25


def test_many_comment_lines_are_rejected_in_bounded_memory(tmp):
    # A 1 MB header of 512 K comment lines: the regex keeps state for each
    # repeat of its comment group, so the repeat is capped.
    path = tmp / "comments.pgm"
    path.write_bytes(b"P5\n" + b"#\n" * (512 << 10) + b"2 2\n255\n" + bytes(4))
    tracemalloc.start()
    try:
        with pytest.raises(CodecError):
            sm.read_pgm(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_comment_lines_are_capped_at_4096_per_field(tmp):
    path = tmp / "comments.pgm"
    comments = b"# c\n" * 4096
    path.write_bytes(b"P5\n" + comments + b"2\n" + comments + b"2\n" + comments + b"255\n"
                     + bytes([1, 2, 3, 4]))
    np.testing.assert_array_equal(sm.read_pgm(str(path)), [[1.0, 2.0], [3.0, 4.0]])
    path.write_bytes(b"P5\n#\n" + comments + b"2 2 255\n" + bytes(4))
    with pytest.raises(CodecError):
        sm.read_pgm(str(path))
