"""File codecs: binary PGM/PPM, the lossless SVDF float container, and
SVDK key files for side info.

PGM/PPM are the interoperable 8-bit carriers; writing them rounds and
clips, which counts as distortion for the extraction algebra.  SVDF and
SVDK store raw float64 payloads so file round-trips are bit-exact.
Writers never leave partial files behind: output goes to a temp file in
the target directory and is moved into place at the end.

Single keys and colour bundles share one SVDK layout, with one reader
and one writer: the header (magic, version 3, metadata length), one flat
JSON object (``scheme_tag``, ``alpha``, ``rows``, ``cols``, ``quant`` for
the keyed scheme, ``strategy`` for a bundle), then each record's ``u``,
``sigma`` and ``v`` and, once, the ``v_w`` every record shares.  A
``perchannel`` bundle has 3 records, any other key 1.
"""

import json
import os
import re
import struct

import numpy as np

from .color import ChannelStrategy, RgbImage, SideInfoBundle
from .errors import (
    CodecError,
    MalformedSideInfo,
    UnsupportedFormat,
    UnsupportedVersion,
)
from .hashstream import QuantParams
from .matrix import SvdFactors, _to_bytes_255, _trusted, as_matrix
from .semiblind import SchemeTag, SideInfo

SVDF_MAGIC = b"SVDF"
SVDF_VERSION = 1
SVDF_HEADER = struct.Struct("<4sHII")

KEY_MAGIC = b"SVDK"
KEY_VERSION = 3
KEY_HEADER = struct.Struct("<4sHI")

_PNM_MAGICS = {b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"}


def _atomic_write(path, *chunks):
    # Complete file or no file; never a truncated one.  An OSError names
    # ``path``, not the temp file, whose name changes on every run.
    tmp = None
    try:  # a new file, of mode 0o666 less the umask, as open() makes one
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f".svdmark-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # ours to remove, once made
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
    _atomic_write(path, header, body)


def read_ppm(path):
    """Read a binary (P6) color image."""
    pixels = _read_pnm(path, b"P6", 3).astype(np.float64)
    return RgbImage(r=pixels[:, :, 0], g=pixels[:, :, 1], b=pixels[:, :, 2])


def write_ppm(img, path):
    """Write an RgbImage as binary PPM, rounding and clipping each plane."""
    planes = [_to_bytes_255(p) for p in img.channels()]
    body = np.stack(planes, axis=-1)
    header = f"P6\n{img.cols} {img.rows}\n255\n".encode("ascii")
    _atomic_write(path, header, body)


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
    _atomic_write(path, header, np.ascontiguousarray(m, dtype="<f8"))


def _write_key(path, infos, strategy=None):
    """Write side info records to an SVDK key: what they share once, from
    the first record, then each record's ``u``, ``sigma`` and ``v``, then
    the shared ``v_w``."""
    first = infos[0]
    meta = {"scheme_tag": first.scheme.value, "alpha": first.alpha,
            "rows": first.rows, "cols": first.cols}
    if first.quant is not None:
        meta["quant"] = vars(first.quant)
    if strategy is not None:
        meta["strategy"] = strategy.value
    text = json.dumps(meta, sort_keys=True).encode("ascii")
    text += b" " * (-(KEY_HEADER.size + len(text)) % 8)  # align the payload
    arrays = [a for i in infos for a in (i.u, i.sigma, i.v)] + [first.v_w]
    _atomic_write(path, KEY_HEADER.pack(KEY_MAGIC, KEY_VERSION, len(text)), text,
                  *(np.ascontiguousarray(a, dtype="<f8") for a in arrays))


# Each metadata field's JSON type, as the exact Python types ``json``
# gives it, so that a bool is no number and a float no integer.
_FIELD_TYPES = {"alpha": (int, float), "lo": (int, float), "hi": (int, float),
                "rows": (int,), "cols": (int,), "degenerate": (bool,)}


def _field(doc, name):
    """``doc[name]`` if its type is the field's, else ``MalformedSideInfo``."""
    value, types = doc[name], _FIELD_TYPES[name]
    if type(value) not in types:
        raise MalformedSideInfo(f"key field {name!r} must be "
                                f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _read_key(path, bundle):
    """Read and check a key file once: a bundle's strategy (``None`` for a
    single key) and the ``SideInfo`` records it holds."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != KEY_MAGIC:
        raise CodecError("not an SVDK key file")
    if len(data) < KEY_HEADER.size:
        raise CodecError("file too short for a key header")
    _, version, meta_len = KEY_HEADER.unpack_from(data)
    if version != KEY_VERSION:
        raise UnsupportedVersion(f"key container version {version} is not supported")
    start = KEY_HEADER.size + meta_len
    if start > len(data) or start % 8:
        raise CodecError(f"key payload offset {start} is unaligned or past the end")
    try:
        meta = json.loads(data[KEY_HEADER.size : start])
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise CodecError(f"key metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise MalformedSideInfo("key metadata root must be a JSON object")
    if ("strategy" in meta) != bundle:  # the wrong kind, refused before any record is built
        raise MalformedSideInfo("not a color key bundle (no strategy)" if bundle
                                else "this is a color key bundle; load it as a bundle")
    strategy = None
    if bundle:
        try:
            strategy = ChannelStrategy(meta["strategy"])
        except ValueError as exc:
            raise MalformedSideInfo(f"unknown strategy {meta['strategy']!r}") from exc
    try:
        scheme = SchemeTag(meta["scheme_tag"])
    except (KeyError, ValueError) as exc:
        raise MalformedSideInfo(f"unknown scheme_tag {meta.get('scheme_tag')!r}") from exc
    try:
        alpha = float(_field(meta, "alpha"))
        rows, cols = _field(meta, "rows"), _field(meta, "cols")
    except (KeyError, OverflowError) as exc:
        raise MalformedSideInfo(f"missing or malformed field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MalformedSideInfo(f"bad dimensions {rows}x{cols}")
    # A block is refused on a semi-blind key, "quant": null included, and
    # parsed on any other; SideInfo refuses a hash-code key without one.
    quant = None
    if "quant" in meta:
        if scheme is SchemeTag.SEMI_BLIND:
            raise MalformedSideInfo("semi-blind side info must not carry a quant block")
        try:
            q = meta["quant"]
            quant = QuantParams(float(_field(q, "lo")), float(_field(q, "hi")),
                                _field(q, "degenerate"))
        except (KeyError, TypeError, OverflowError) as exc:
            raise MalformedSideInfo(f"missing or malformed quant block: {exc}") from exc
    records = 3 if strategy is ChannelStrategy.PER_CHANNEL else 1
    sizes = [("u", rows * rows), ("sigma", min(rows, cols)), ("v", cols * cols)] * records
    arrays, offset = [], start
    for field, count in (*sizes, ("v_w", cols * cols)):
        if offset + 8 * count > len(data):
            raise CodecError(f"key file ends inside {field}")
        # An aligned offset into a bytes object gives aligned views, so
        # numpy hands matmuls on them to BLAS as on the arrays saved.
        arrays.append(np.frombuffer(data, dtype="<f8", count=count, offset=offset))
        offset += 8 * count
    if offset != len(data):
        raise CodecError(f"key file is {len(data)} bytes, not {offset}")
    v_w = arrays.pop().reshape(cols, cols)
    (u, s, v), *rest = [(u.reshape(rows, rows), s, v.reshape(cols, cols))
                        for u, s, v in zip(*[iter(arrays)] * 3)]
    # The first record checks what all share; the others, only their own factors.
    first = SideInfo(u, s, v, v_w, alpha, rows, cols, scheme, quant)
    return strategy, (first, *(_trusted(SideInfo, **{**vars(first), **vars(SvdFactors(*f))})
                               for f in rest))


def save_sideinfo(info, path):
    """Write side info to an SVDK key file (arrays bit-exact)."""
    _write_key(path, [info])


def load_sideinfo(path):
    """Load and validate a key file written by :func:`save_sideinfo`."""
    _, (info,) = _read_key(path, bundle=False)
    return info


def save_bundle(bundle, path):
    """Write a color key bundle (strategy plus per-plane side info)."""
    _write_key(path, bundle.infos, bundle.strategy)


def load_bundle(path):
    """Load a color key bundle written by :func:`save_bundle`."""
    strategy, infos = _read_key(path, bundle=True)
    return _trusted(SideInfoBundle, strategy=strategy, infos=infos)


# Each file extension's carrier, with that carrier's reader and writer.
_CARRIERS = {".pgm": ("matrix", read_pgm, write_pgm),
             ".svdf": ("matrix", read_float_image, write_float_image),
             ".ppm": ("colour image", read_ppm, write_ppm)}


def _carrier(path):
    """``path``'s extension ("extensionless" if none) and its ``_CARRIERS`` entry, or ``None``s."""
    ext = os.path.splitext(path)[1].lower()
    return (ext or "extensionless", *_CARRIERS.get(ext, (None, None, None)))


def load_matrix(path):
    """Dispatch on extension: .pgm or .svdf grayscale carriers."""
    ext, carrier, read, _ = _carrier(path)
    if carrier != "matrix":
        raise UnsupportedFormat(f"cannot read a matrix from {ext} files")
    return read(path)


def _image_writer(path, carrier="matrix"):
    """The ``carrier`` writer for ``path``'s extension, or ``UnsupportedFormat``."""
    ext, kind, _, write = _carrier(path)
    if kind != carrier:
        raise UnsupportedFormat(f"cannot write a {carrier} to {ext} files")
    return write


def save_matrix(m, path):
    _image_writer(path)(m, path)
