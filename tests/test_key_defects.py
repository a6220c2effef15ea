"""One defect per key record, each pinned to the error class it raises.

The key loaders check what only the file can tell (the dimensions,
``s_layout``, a quant block on a semi-blind record, ``"quant": null``
included) and leave every other invariant, the alpha rule among them,
to ``SideInfo`` and ``QuantParams``.  Each defect below must raise the
same class through ``load_sideinfo``, and through ``load_bundle`` when
it sits in one of a bundle's records.
An embed refuses an alpha of 0 with the loaders' error, so no key is
written that no loader takes back.
A colour bundle's records must agree on everything one embed gives them
all (scheme, alpha, quant, shape and ``v_w``), or the bundle is refused
when it is built, so at load time and not first at extraction.
"""

import math

import numpy as np
import pytest

import svdmark as sm
from svdmark.cli import cli_main
from svdmark.errors import InvalidParameter, MalformedSideInfo

from conftest import seeded_matrix
from keyfiles import key_parts, rewrite_key_metadata, write_key_parts

ROWS, COLS = 10, 8
QUANT = {"lo": -1.0, "hi": 2.0, "degenerate": False}


def _set(field, value):
    return lambda record: record.__setitem__(field, value)


def _drop(field):
    return lambda record: record.pop(field)


ALPHA_DEFECTS = {
    "alpha-zero": _set("alpha", 0.0),
    "alpha-negative": _set("alpha", -0.1),
    "alpha-nan": _set("alpha", math.nan),
    "alpha-inf": _set("alpha", math.inf),
}
HASH_QUANT_DEFECTS = {
    "quant-missing": _drop("quant"),
    "quant-null": _set("quant", None),
    "quant-list": _set("quant", [-1.0, 2.0, False]),
    "quant-string": _set("quant", "lo=-1,hi=2"),
    "quant-no-hi": lambda r: r["quant"].pop("hi"),
}
# Only the diagonal layout, which stores the min(M, N) singular values.
LAYOUT_DEFECTS = {
    "s_layout-full": _set("s_layout", "full"),
    "s_layout-missing": _drop("s_layout"),
}
SEMIBLIND_QUANT_DEFECTS = {
    "quant-null": _set("quant", None),
    "quant-empty": _set("quant", {}),
    "quant-valid": _set("quant", QUANT),
    "quant-inverted": _set("quant", {"lo": 2.0, "hi": -1.0, "degenerate": False}),
    "quant-list": _set("quant", [-1.0, 2.0, False]),
}


@pytest.fixture(scope="module")
def infos():
    cover, wm = seeded_matrix(1, ROWS, COLS), seeded_matrix(2, ROWS, COLS)
    identity = sm.Identity.from_string("alice|key-defects")
    return {
        sm.SchemeTag.SEMI_BLIND: sm.embed(cover, wm, 0.1)[1],
        sm.SchemeTag.HASH_CODE: sm.embed_invisible(cover, wm, identity, 0.1)[1],
    }


def _write_single(path, info, mutate):
    sm.save_sideinfo(info, str(path))
    rewrite_key_metadata(path, mutate)


def _write_bundle(path, info, mutate):
    # A blue-channel bundle holds one record; put the defect in it.
    sm.save_bundle(sm.SideInfoBundle(sm.ChannelStrategy.BLUE_CHANNEL, (info,)), str(path))
    rewrite_key_metadata(path, lambda meta: mutate(meta["infos"][0]))


def _check(tmp_path, info, mutate, error):
    path = tmp_path / "single.svdk"
    _write_single(path, info, mutate)
    with pytest.raises(error):
        sm.load_sideinfo(str(path))
    path = tmp_path / "bundle.svdk"
    _write_bundle(path, info, mutate)
    with pytest.raises(error):
        sm.load_bundle(str(path))


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("defect", list(ALPHA_DEFECTS))
def test_bad_stored_alpha(tmp_path, infos, scheme, defect):
    _check(tmp_path, infos[scheme], ALPHA_DEFECTS[defect], InvalidParameter)


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("defect", list(LAYOUT_DEFECTS))
def test_key_without_the_diagonal_s_layout(tmp_path, infos, scheme, defect):
    _check(tmp_path, infos[scheme], LAYOUT_DEFECTS[defect], MalformedSideInfo)


@pytest.mark.parametrize("defect", list(HASH_QUANT_DEFECTS))
def test_hash_key_without_a_usable_quant_block(tmp_path, infos, defect):
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE], HASH_QUANT_DEFECTS[defect],
           MalformedSideInfo)


def test_hash_key_with_inverted_quant_range(tmp_path, infos):
    # A well-formed block whose values QuantParams rejects.
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE],
           _set("quant", {"lo": 2.0, "hi": -1.0, "degenerate": False}), InvalidParameter)


@pytest.mark.parametrize("defect", list(SEMIBLIND_QUANT_DEFECTS))
def test_semiblind_key_with_any_quant(tmp_path, infos, defect):
    _check(tmp_path, infos[sm.SchemeTag.SEMI_BLIND], SEMIBLIND_QUANT_DEFECTS[defect],
           MalformedSideInfo)


def test_unmutated_keys_load(tmp_path, infos):
    # Every rejection above is earned: the same writers without a defect load.
    for info in infos.values():
        path = tmp_path / "single.svdk"
        _write_single(path, info, lambda record: None)
        assert sm.load_sideinfo(str(path)).scheme is info.scheme
        path = tmp_path / "bundle.svdk"
        _write_bundle(path, info, lambda record: None)
        assert sm.load_bundle(str(path)).infos[0].scheme is info.scheme


@pytest.mark.parametrize("alpha", [0.0, -0.0])
def test_alpha_zero_is_not_written(tmp_path, infos, alpha):
    # No side info holds alpha 0, so no writer is ever handed one: an embed
    # at 0 fails with the very error a loader gives a key edited to hold 0.
    cover, wm = seeded_matrix(1, ROWS, COLS), seeded_matrix(2, ROWS, COLS)
    with pytest.raises(InvalidParameter) as embedding:
        sm.embed(cover, wm, alpha)
    path = tmp_path / "key.svdk"
    _write_single(path, infos[sm.SchemeTag.SEMI_BLIND], _set("alpha", alpha))
    with pytest.raises(InvalidParameter) as loading:
        sm.load_sideinfo(str(path))
    assert str(embedding.value) == str(loading.value)


# Bytes of one key record's arrays (u, sigma, v, v_w) and of its v_w.
RECORD_BYTES = 8 * (ROWS * ROWS + min(ROWS, COLS) + 2 * COLS * COLS)
V_W_BYTES = 8 * COLS * COLS


def _negate_second_v_w(payload):
    # -v_w is as orthogonal as v_w, so only the bundle check can refuse it.
    end = 2 * RECORD_BYTES
    v_w = np.frombuffer(payload[end - V_W_BYTES : end], dtype="<f8")
    return payload[: end - V_W_BYTES] + (-v_w).astype("<f8").tobytes() + payload[end:]


# Per-channel bundles whose second record differs from the other two:
# (the bundle's scheme, a change to that record's metadata, a change to
# the payload).
MIXED_RECORDS = {
    "scheme": (sm.SchemeTag.SEMI_BLIND,
               lambda r: r.update(scheme_tag="hash-code", alpha=0.5, quant=QUANT), None),
    "alpha": (sm.SchemeTag.SEMI_BLIND, _set("alpha", 0.5), None),
    "quant": (sm.SchemeTag.HASH_CODE, _set("quant", QUANT), None),
    "v_w": (sm.SchemeTag.SEMI_BLIND, lambda r: None, _negate_second_v_w),
}


@pytest.fixture(scope="module")
def colour():
    img = sm.synthetic_rgb(ROWS, COLS, seed=3)
    wm = seeded_matrix(2, ROWS, COLS)
    identity = sm.Identity.from_string("alice|key-defects")
    bundles = {}
    for scheme in sm.SchemeTag:
        ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
        bundles[scheme] = sm.embed_color(img, wm, sm.ChannelStrategy.PER_CHANNEL, scheme,
                                         alpha=0.1, identity=ident)[1]
    return img, bundles


@pytest.mark.parametrize("defect", list(MIXED_RECORDS))
def test_bundle_with_disagreeing_records(tmp_path, capsys, colour, defect):
    img, bundles = colour
    scheme, mutate, edit_payload = MIXED_RECORDS[defect]
    path = tmp_path / "bundle.svdk"
    sm.save_bundle(bundles[scheme], str(path))
    assert sm.load_bundle(str(path)).infos[1].scheme is scheme
    meta, payload = key_parts(path)
    mutate(meta["infos"][1])
    write_key_parts(path, meta, edit_payload(payload) if edit_payload else payload)
    with pytest.raises(MalformedSideInfo, match="must share"):
        sm.load_bundle(str(path))
    marked = str(tmp_path / "marked.ppm")
    sm.write_ppm(img, marked)
    assert cli_main(["extract", "--marked", marked, "--key", str(path),
                     "--out", str(tmp_path / "w.pgm")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: MalformedSideInfo:") and err.count("\n") == 1
    assert not (tmp_path / "w.pgm").exists()


def test_bundle_records_of_two_shapes(infos):
    info = infos[sm.SchemeTag.SEMI_BLIND]
    other = sm.embed(seeded_matrix(1, COLS, ROWS), seeded_matrix(2, COLS, ROWS), 0.1)[1]
    with pytest.raises(MalformedSideInfo, match="must share"):
        sm.SideInfoBundle(sm.ChannelStrategy.PER_CHANNEL, (info, other, info))
