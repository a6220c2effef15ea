"""File codecs: binary PGM/PPM, the lossless SVDF float container, and
SVDK key files for side info (JSON keys of earlier releases still load).

PGM/PPM are the interoperable 8-bit carriers; writing them rounds and
clips, which counts as distortion for the extraction algebra.  SVDF and
SVDK store raw float64 payloads so file round-trips are bit-exact.
Writers never leave partial files behind: output goes to a temp file in
the target directory and is moved into place at the end.
"""

import base64
import binascii
import json
import os
import re
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

KEY_MAGIC = b"SVDK"
KEY_VERSION = 2
KEY_HEADER = struct.Struct("<4sHI")
JSON_KEY_VERSION = 1  # base64 arrays in JSON, written by earlier releases

_PNM_MAGICS = {b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"}


def _atomic_write(path, *chunks):
    # Complete file or no file; never a truncated one.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".svdmark-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _to_bytes_255(m):
    return np.clip(np.rint(m), 0.0, 255.0).astype(np.uint8)


# Magic, then width, height and maxval after whitespace and '#' comments.
# Every token has one parse, so a failed match costs linear time.  The
# engine keeps state for each repeat of the comment group, so at most
# 4096 comment lines may precede a field.
_PNM_FIELD = rb"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*){0,4096}(\d{1,10})(?!\d)"
_PNM_HEADER = re.compile(rb"P[1-6]" + _PNM_FIELD * 3)


def _read_pnm(path, want_magic, channels):
    with open(path, "rb") as f:
        data = f.read()
    magic = data[:2]
    if magic != want_magic:
        if magic in _PNM_MAGICS:
            raise UnsupportedFormat(
                f"expected {want_magic.decode()} data, got {magic.decode()}"
            )
        raise CodecError("not a PNM file")
    header = _PNM_HEADER.match(data)
    if header is None:  # 10 digits also keep int() under its 4300-digit limit
        raise CodecError("malformed PNM header: need width, height, maxval of 1-10 digits")
    cols, rows, maxval = map(int, header.groups())
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    if rows < 1 or cols < 1:
        raise CodecError(f"bad image dimensions {rows}x{cols}")
    # Exactly one whitespace byte separates the header from the raster.
    sep = header.end()
    if sep >= len(data) or data[sep] not in b" \t\r\n":
        raise CodecError("malformed PNM header: missing raster separator")
    count = rows * cols * channels
    raster = data[sep + 1 : sep + 1 + count]
    if len(raster) < count:
        raise CodecError(f"truncated raster: expected {count} bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(rows, cols, channels)


def read_pgm(path):
    """Read a binary (P5) grayscale image as a float64 matrix."""
    return _read_pnm(path, b"P5", 1)[:, :, 0].astype(np.float64)


def write_pgm(m, path):
    """Write a matrix as binary PGM, rounding and clipping to 0..255."""
    body = _to_bytes_255(as_matrix(m, "m"))
    header = f"P5\n{body.shape[1]} {body.shape[0]}\n255\n".encode("ascii")
    _atomic_write(path, header + body.tobytes())


def read_ppm(path):
    """Read a binary (P6) color image."""
    pixels = _read_pnm(path, b"P6", 3).astype(np.float64)
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


class _KeyArrays:
    """A key's arrays, taken record by record in file order: views of an
    SVDK key's raw little-endian float64 payload from ``offset`` on, or
    (``data`` None) the base64 fields of a JSON key."""

    def __init__(self, version, data=None, offset=0):
        self.version, self.data, self.offset = version, data, offset

    def take(self, doc, field, count):
        if self.data is None:
            if field not in doc:
                raise MalformedSideInfo(f"missing field {field!r}")
            try:
                raw = base64.b64decode(doc[field].encode("ascii"), validate=True)
            except (binascii.Error, UnicodeEncodeError, AttributeError) as exc:
                raise CodecError(f"corrupt base64 in {field}") from exc
            if len(raw) != count * 8:
                raise CodecError(f"{field} holds {len(raw)} bytes, expected {count * 8}")
            return np.frombuffer(raw, dtype="<f8").astype(np.float64)
        end = self.offset + 8 * count
        if end > len(self.data):
            raise CodecError(f"key file ends inside {field}")
        # An aligned offset into a bytes object gives aligned views, so
        # numpy hands matmuls on them to BLAS as on the arrays saved.
        arr = np.frombuffer(self.data, dtype="<f8", count=count, offset=self.offset)
        self.offset = end
        return arr

    def finish(self):
        if self.data is not None and self.offset != len(self.data):
            raise CodecError(f"key file is {len(self.data)} bytes, not {self.offset}")


def _sideinfo_meta(info):
    meta = {
        "version": KEY_VERSION,
        "scheme_tag": info.scheme.value,
        "alpha": info.alpha,
        "rows": info.rows,
        "cols": info.cols,
        "s_layout": "diag",
    }
    if info.quant is not None:
        meta["quant"] = vars(info.quant)
    return meta


def _sideinfo_from_doc(doc, arrays):
    """Check one key record and take its arrays: the ``SideInfo``
    arguments, for keys of either version."""
    if not isinstance(doc, dict):
        raise MalformedSideInfo("key record must be a JSON object")
    if doc.get("version") != arrays.version:
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedSideInfo(f"missing or malformed field: {exc}") from exc
    # SideInfo checks the rest, but allows alpha = 0 (an unmarked cover)
    # and cannot tell "quant": null from no quant block.
    if alpha == 0:
        raise InvalidParameter("stored alpha must be positive, got 0")
    if rows < 1 or cols < 1:
        raise MalformedSideInfo(f"bad dimensions {rows}x{cols}")
    if s_layout not in ("diag", "full"):
        raise MalformedSideInfo(f"unknown s_layout {s_layout!r}")
    quant = None
    if scheme is SchemeTag.HASH_CODE:
        q = doc.get("quant")
        try:
            quant = QuantParams(
                lo=float(q["lo"]), hi=float(q["hi"]), degenerate=bool(q["degenerate"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedSideInfo(f"missing or malformed quant block: {exc}") from exc
    elif "quant" in doc:
        raise MalformedSideInfo("semi-blind side info must not carry a quant block")
    u = arrays.take(doc, "u", rows * rows).reshape(rows, rows)
    if s_layout == "diag":
        s = arrays.take(doc, "s_diag_or_full", min(rows, cols))
    else:
        # The dense S that earlier releases wrote for hash-code keys;
        # SideInfo rejects any non-zero off-diagonal entry.
        s = arrays.take(doc, "s_diag_or_full", rows * cols).reshape(rows, cols)
    v = arrays.take(doc, "v", cols * cols).reshape(cols, cols)
    v_w = arrays.take(doc, "v_w", cols * cols).reshape(cols, cols)
    return dict(u=u, s=s, v=v, v_w=v_w, alpha=alpha, rows=rows, cols=cols,
                scheme=scheme, quant=quant)


def _write_key(path, meta, infos):
    text = json.dumps(meta, sort_keys=True).encode("ascii")
    text += b" " * (-(KEY_HEADER.size + len(text)) % 8)  # align the payload
    arrays = [np.ascontiguousarray(a, dtype="<f8")
              for i in infos for a in (i.u, i.sigma, i.v, i.v_w)]
    _atomic_write(path, KEY_HEADER.pack(KEY_MAGIC, KEY_VERSION, len(text)), text, *arrays)


def _read_key(path):
    """Read a key file once: its metadata and the source of its arrays."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != KEY_MAGIC:
        return _parse_json(data, "key file"), _KeyArrays(JSON_KEY_VERSION)
    if len(data) < KEY_HEADER.size:
        raise CodecError("file too short for a key header")
    _, version, meta_len = KEY_HEADER.unpack_from(data)
    if version != KEY_VERSION:
        raise UnsupportedVersion(f"key container version {version} is not supported")
    start = KEY_HEADER.size + meta_len
    if start > len(data) or start % 8:
        raise CodecError(f"key payload offset {start} is unaligned or past the end")
    meta = _parse_json(data[KEY_HEADER.size : start], "key metadata")
    return meta, _KeyArrays(KEY_VERSION, data, start)


def _parse_json(raw, what):
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise CodecError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedSideInfo(f"{what} root must be a JSON object")
    return doc


def save_sideinfo(info, path):
    """Write side info to an SVDK key file (arrays bit-exact)."""
    _write_key(path, _sideinfo_meta(info), [info])


def load_sideinfo(path):
    """Load and validate a key file written by :func:`save_sideinfo`."""
    doc, arrays = _read_key(path)
    if "infos" in doc:
        raise MalformedSideInfo("this is a color key bundle; load it as a bundle")
    fields = _sideinfo_from_doc(doc, arrays)
    arrays.finish()
    return SideInfo(**fields)


def save_bundle(bundle, path):
    """Write a color key bundle (strategy plus per-plane side info)."""
    meta = {
        "version": KEY_VERSION,
        "strategy": bundle.strategy.value,
        "infos": [_sideinfo_meta(info) for info in bundle.infos],
    }
    _write_key(path, meta, bundle.infos)


def load_bundle(path):
    """Load a color key bundle written by :func:`save_bundle`."""
    doc, arrays = _read_key(path)
    if doc.get("version") != arrays.version:
        raise UnsupportedVersion(f"bundle version {doc.get('version')} is not supported")
    if not isinstance(doc.get("infos"), list):
        raise MalformedSideInfo("not a color key bundle (no infos list)")
    try:
        strategy = ChannelStrategy(doc["strategy"])
    except (KeyError, ValueError) as exc:
        raise MalformedSideInfo(f"unknown strategy {doc.get('strategy')!r}") from exc
    fields = [_sideinfo_from_doc(d, arrays) for d in doc["infos"]]
    arrays.finish()
    return SideInfoBundle(strategy=strategy, infos=tuple(SideInfo(**f) for f in fields))


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
