"""File codecs: binary PGM/PPM, the lossless SVDF float container, and
JSON key files for side info.

PGM/PPM are the interoperable 8-bit carriers; writing them rounds and
clips, which counts as distortion for the extraction algebra.  SVDF
stores raw float64 payloads so file round-trips are bit-exact.  Writers
never leave partial files behind: output goes to a temp file in the
target directory and is moved into place at the end.
"""

import base64
import binascii
import json
import math
import os
import struct
import tempfile

import numpy as np

from .color import ChannelStrategy, RgbImage, SideInfoBundle
from .errors import (
    CodecError,
    InvalidParameter,
    MalformedSideInfo,
    UnsupportedFormat,
    UnsupportedVersion,
)
from .hashstream import QuantParams
from .matrix import as_matrix
from .semiblind import SchemeTag, SideInfo

SVDF_MAGIC = b"SVDF"
SVDF_VERSION = 1
SVDF_HEADER = struct.Struct("<4sHII")

SIDEINFO_VERSION = 1

_PNM_MAGICS = {b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"}


def _atomic_write(path, data):
    # Complete file or no file; never a truncated one.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".svdmark-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_bytes_255(m):
    return np.clip(np.rint(m), 0.0, 255.0).astype(np.uint8)


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


def _read_pnm(path, want_magic, channels):
    with open(path, "rb") as f:
        data = f.read()
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


def read_pgm(path):
    """Read a binary (P5) grayscale image as a float64 matrix."""
    return _read_pnm(path, b"P5", 1).astype(np.float64)


def write_pgm(m, path):
    """Write a matrix as binary PGM, rounding and clipping to 0..255."""
    body = _to_bytes_255(as_matrix(m, "m"))
    header = f"P5\n{body.shape[1]} {body.shape[0]}\n255\n".encode("ascii")
    _atomic_write(path, header + body.tobytes())


def read_ppm(path):
    """Read a binary (P6) color image."""
    flat = _read_pnm(path, b"P6", 3).astype(np.float64)
    rows, triple = flat.shape
    pixels = flat.reshape(rows, triple // 3, 3)
    return RgbImage(r=pixels[:, :, 0], g=pixels[:, :, 1], b=pixels[:, :, 2])


def write_ppm(img, path):
    """Write an RgbImage as binary PPM, rounding and clipping each plane."""
    planes = [_to_bytes_255(p) for p in img.channels()]
    body = np.stack(planes, axis=-1)
    header = f"P6\n{img.cols} {img.rows}\n255\n".encode("ascii")
    _atomic_write(path, header + body.tobytes())


def read_float_image(path):
    """Read an SVDF container: lossless float64 image storage."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < SVDF_HEADER.size:
        raise CodecError("file too short for an SVDF header")
    magic, version, rows, cols = SVDF_HEADER.unpack_from(data)
    if magic != SVDF_MAGIC:
        raise CodecError("not an SVDF file")
    if version != SVDF_VERSION:
        raise UnsupportedVersion(f"SVDF version {version} is not supported")
    if rows < 1 or cols < 1:
        raise CodecError(f"bad image dimensions {rows}x{cols}")
    payload = data[SVDF_HEADER.size :]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise CodecError(f"payload is {len(payload)} bytes, expected {expected}")
    m = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(m)):
        raise CodecError("payload contains non-finite values")
    return m


def write_float_image(m, path):
    """Write a matrix to an SVDF container, preserving every bit."""
    m = as_matrix(m, "m")
    header = SVDF_HEADER.pack(SVDF_MAGIC, SVDF_VERSION, m.shape[0], m.shape[1])
    _atomic_write(path, header + np.ascontiguousarray(m, dtype="<f8").tobytes())


def _encode_array(arr):
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(text, count, what):
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, AttributeError) as exc:
        raise CodecError(f"corrupt base64 in {what}") from exc
    if len(raw) != count * 8:
        raise CodecError(f"{what} holds {len(raw)} bytes, expected {count * 8}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _sideinfo_doc(info):
    doc = {
        "version": SIDEINFO_VERSION,
        "scheme_tag": info.scheme.value,
        "alpha": info.alpha,
        "rows": info.rows,
        "cols": info.cols,
        "s_layout": "diag",
        "u": _encode_array(info.u),
        "s_diag_or_full": _encode_array(np.diagonal(info.s)),
        "v": _encode_array(info.v),
        "v_w": _encode_array(info.v_w),
    }
    if info.quant is not None:
        doc["quant"] = {
            "lo": info.quant.lo,
            "hi": info.quant.hi,
            "degenerate": info.quant.degenerate,
        }
    return doc


def _sideinfo_from_doc(doc):
    if not isinstance(doc, dict):
        raise MalformedSideInfo("key file root must be a JSON object")
    if doc.get("version") != SIDEINFO_VERSION:
        raise UnsupportedVersion(f"side info version {doc.get('version')} is not supported")
    try:
        scheme = SchemeTag(doc["scheme_tag"])
    except (KeyError, ValueError) as exc:
        raise MalformedSideInfo(f"unknown scheme_tag {doc.get('scheme_tag')!r}") from exc
    try:
        alpha = float(doc["alpha"])
        rows = int(doc["rows"])
        cols = int(doc["cols"])
        s_layout = doc["s_layout"]
        u_text, s_text = doc["u"], doc["s_diag_or_full"]
        v_text, v_w_text = doc["v"], doc["v_w"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSideInfo(f"missing or malformed field: {exc}") from exc
    if not math.isfinite(alpha) or alpha <= 0:
        raise InvalidParameter(f"stored alpha must be positive, got {alpha}")
    if rows < 1 or cols < 1:
        raise MalformedSideInfo(f"bad dimensions {rows}x{cols}")
    u = _decode_array(u_text, rows * rows, "u").reshape(rows, rows)
    v = _decode_array(v_text, cols * cols, "v").reshape(cols, cols)
    v_w = _decode_array(v_w_text, cols * cols, "v_w").reshape(cols, cols)
    if s_layout == "diag":
        diag = _decode_array(s_text, min(rows, cols), "s_diag_or_full")
        s = np.zeros((rows, cols))
        np.fill_diagonal(s, diag)
    elif s_layout == "full":
        # Written by earlier releases for hash-code keys; SideInfo still
        # rejects any non-zero off-diagonal entry.
        s = _decode_array(s_text, rows * cols, "s_diag_or_full").reshape(rows, cols)
    else:
        raise MalformedSideInfo(f"unknown s_layout {s_layout!r}")
    quant = None
    if scheme is SchemeTag.HASH_CODE:
        q = doc.get("quant")
        if not isinstance(q, dict):
            raise MalformedSideInfo("hash-code side info requires a quant block")
        try:
            quant = QuantParams(
                lo=float(q["lo"]), hi=float(q["hi"]), degenerate=bool(q["degenerate"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedSideInfo(f"malformed quant block: {exc}") from exc
    elif "quant" in doc:
        raise MalformedSideInfo("semi-blind side info must not carry a quant block")
    return SideInfo(
        u=u, s=s, v=v, v_w=v_w, alpha=alpha, rows=rows, cols=cols,
        scheme=scheme, quant=quant,
    )


def save_sideinfo(info, path):
    """Serialize side info to a JSON key file (arrays bit-exact via base64)."""
    text = json.dumps(_sideinfo_doc(info), indent=2, sort_keys=True)
    _atomic_write(path, text.encode("ascii") + b"\n")


def load_sideinfo(path):
    """Load and validate a JSON key file written by :func:`save_sideinfo`."""
    doc = _load_json(path)
    if "infos" in doc:
        raise MalformedSideInfo("this is a color key bundle; load it as a bundle")
    return _sideinfo_from_doc(doc)


def save_bundle(bundle, path):
    """Serialize a color key bundle (strategy plus per-plane side info)."""
    doc = {
        "version": SIDEINFO_VERSION,
        "strategy": bundle.strategy.value,
        "infos": [_sideinfo_doc(info) for info in bundle.infos],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    _atomic_write(path, text.encode("ascii") + b"\n")


def load_bundle(path):
    """Load a color key bundle written by :func:`save_bundle`."""
    doc = _load_json(path)
    if doc.get("version") != SIDEINFO_VERSION:
        raise UnsupportedVersion(f"bundle version {doc.get('version')} is not supported")
    if not isinstance(doc.get("infos"), list):
        raise MalformedSideInfo("not a color key bundle (no infos list)")
    try:
        strategy = ChannelStrategy(doc["strategy"])
    except (KeyError, ValueError) as exc:
        raise MalformedSideInfo(f"unknown strategy {doc.get('strategy')!r}") from exc
    infos = tuple(_sideinfo_from_doc(d) for d in doc["infos"])
    return SideInfoBundle(strategy=strategy, infos=infos)


def _load_json(path):
    with open(path, "rb") as f:
        raw = f.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CodecError(f"key file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedSideInfo("key file root must be a JSON object")
    return doc


def load_matrix(path):
    """Dispatch on extension: .pgm or .svdf grayscale carriers."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        return read_pgm(path)
    if ext == ".svdf":
        return read_float_image(path)
    raise UnsupportedFormat(f"cannot read a matrix from {ext or 'extensionless'} files")


def save_matrix(m, path):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        write_pgm(m, path)
    elif ext == ".svdf":
        write_float_image(m, path)
    else:
        raise UnsupportedFormat(f"cannot write a matrix to {ext or 'extensionless'} files")
