"""Key-file helpers for tests.

``key_parts``/``write_key_parts`` take an SVDK key apart and put it back
together, spelling out the container layout independently of
``svdmark.formats``.  A version-3 key, single or colour bundle, is:

1. a 10-byte header: magic ``SVDK``, u16 version 3, u32 metadata length;
2. one flat JSON object: ``scheme_tag``, ``alpha``, ``rows``, ``cols``,
   ``quant`` on a keyed key only and ``strategy`` on a bundle only,
   padded with spaces so that the payload starts 8-byte aligned;
3. the payload: each record's ``u``, ``sigma`` and ``v`` as raw
   little-endian float64, in order, then the shared ``v_w`` once.  A
   ``perchannel`` bundle holds 3 records, any other key 1.

``write_v2_key`` writes the retired version-2 layout, which the loaders
refuse.
"""

import json
import struct
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<4sHI")  # magic, u16 version, u32 metadata length
VERSION = 3


def key_parts(path):
    """Split an SVDK key into its metadata (a dict) and its payload bytes."""
    data = Path(path).read_bytes()
    magic, version, meta_len = HEADER.unpack_from(data)
    assert (magic, version) == (b"SVDK", VERSION)
    start = HEADER.size + meta_len
    return json.loads(data[HEADER.size : start]), data[start:]


def write_key_parts(path, meta, payload, version=VERSION):
    """Write an SVDK key, padding the metadata to an 8-byte-aligned payload."""
    text = json.dumps(meta).encode("ascii")
    text += b" " * (-(HEADER.size + len(text)) % 8)
    Path(path).write_bytes(HEADER.pack(b"SVDK", version, len(text)) + text + payload)


def rewrite_key_metadata(path, mutate):
    """Apply ``mutate`` to an SVDK key's metadata in place."""
    meta, payload = key_parts(path)
    mutate(meta)
    write_key_parts(path, meta, payload)


def key_payload(infos):
    """The version-3 payload of side info records that share one ``v_w``."""
    arrays = [a for i in infos for a in (i.u, i.sigma, i.v)] + [infos[0].v_w]
    return b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


def write_v2_key(path, info, strategy=None):
    """Write ``info`` in the version-2 layout: a single key, or with
    ``strategy`` a one-record bundle.  Each record held its own
    ``version``, ``s_layout`` and arrays, ``v_w`` included."""
    record = {"version": 2, "scheme_tag": info.scheme.value, "alpha": info.alpha,
              "rows": info.rows, "cols": info.cols, "s_layout": "diag"}
    if info.quant is not None:
        record["quant"] = vars(info.quant)
    meta = record if strategy is None else {"version": 2, "strategy": strategy,
                                            "infos": [record]}
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes()
                       for a in (info.u, info.sigma, info.v, info.v_w))
    write_key_parts(path, meta, payload, version=2)


# A 1 x 1 semi-blind record in the JSON layout of version-1 keys (base64
# float64 arrays), which the loaders refuse: alone, and in a bundle.
_V1_RECORD = {
    "version": 1, "scheme_tag": "semi-blind", "alpha": 0.1, "rows": 1, "cols": 1,
    "s_layout": "diag", "u": "AAAAAAAA8D8=", "s_diag_or_full": "AAAAAAAAAEA=",
    "v": "AAAAAAAA8D8=", "v_w": "AAAAAAAA8D8=",
}
V1_KEYS = {
    "single": json.dumps(_V1_RECORD),
    "bundle": json.dumps({"version": 1, "strategy": "blue", "infos": [_V1_RECORD]}),
}
