"""Key-file helpers for tests.

``key_parts``/``write_key_parts`` take an SVDK key apart and put it back
together, spelling out the container layout independently of
``svdmark.formats``.  ``write_v1_key`` is a frozen copy of the JSON+base64
writer of earlier releases, kept so tests can check that the keys users
already hold still load.
"""

import base64
import json
import struct
from pathlib import Path

import numpy as np

import svdmark as sm

HEADER = struct.Struct("<4sHI")  # magic, u16 version, u32 metadata length


def key_parts(path):
    """Split an SVDK key into its metadata (a dict) and its payload bytes."""
    data = Path(path).read_bytes()
    magic, version, meta_len = HEADER.unpack_from(data)
    assert (magic, version) == (b"SVDK", 2)
    start = HEADER.size + meta_len
    return json.loads(data[HEADER.size : start]), data[start:]


def write_key_parts(path, meta, payload, version=2):
    """Write an SVDK key, padding the metadata to an 8-byte-aligned payload."""
    text = json.dumps(meta).encode("ascii")
    text += b" " * (-(HEADER.size + len(text)) % 8)
    Path(path).write_bytes(HEADER.pack(b"SVDK", version, len(text)) + text + payload)


def rewrite_key_metadata(path, mutate):
    """Apply ``mutate`` to an SVDK key's metadata in place."""
    meta, payload = key_parts(path)
    mutate(meta)
    write_key_parts(path, meta, payload)


def _v1_array(arr):
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _v1_doc(info, s_layout, s):
    if s is None:
        s = np.diagonal(info.s) if s_layout == "diag" else info.s
    doc = {
        "version": 1,
        "scheme_tag": info.scheme.value,
        "alpha": info.alpha,
        "rows": info.rows,
        "cols": info.cols,
        "s_layout": s_layout,
        "u": _v1_array(info.u),
        "s_diag_or_full": _v1_array(s),
        "v": _v1_array(info.v),
        "v_w": _v1_array(info.v_w),
    }
    if info.quant is not None:
        doc["quant"] = {
            "lo": info.quant.lo,
            "hi": info.quant.hi,
            "degenerate": info.quant.degenerate,
        }
    return doc


def write_v1_key(key, path, s_layout="diag", s=None):
    """Write a ``SideInfo`` or ``SideInfoBundle`` as a version-1 JSON key.

    ``s_layout="full"`` stores the dense M x N ``S`` (or ``s`` when given),
    the layout earlier releases wrote for hash-code keys.
    """
    if isinstance(key, sm.SideInfoBundle):
        doc = {
            "version": 1,
            "strategy": key.strategy.value,
            "infos": [_v1_doc(info, s_layout, s) for info in key.infos],
        }
    else:
        doc = _v1_doc(key, s_layout, s)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
