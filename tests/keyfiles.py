"""Key-file helpers for tests.

``key_parts``/``write_key_parts`` take an SVDK key apart and put it back
together, spelling out the container layout independently of
``svdmark.formats``.
"""

import json
import struct
from pathlib import Path

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
