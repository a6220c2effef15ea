"""One defect per key file, each pinned to the error class it raises.

A key, single or colour bundle, holds one flat metadata object, so every
defect below sits in the same place in both kinds of key.  The key
reader checks what only the file can tell (each field's JSON type, the
dimensions, a quant block on a semi-blind key, ``"quant": null``
included) and leaves every other invariant, the alpha rule among them,
to ``SideInfo`` and ``QuantParams``.  Each defect must raise the same class through
``load_sideinfo``, and through ``load_bundle`` when it sits in a
bundle's metadata.
An embed refuses an alpha of 0 with the loaders' error, so no key is
written that no loader takes back.
A colour bundle's records must agree on everything one embed gives them
all (scheme, alpha, quant, shape and ``v_w``).  A key file stores those
once, so it cannot express records that disagree; a bundle built in
memory from such records is refused when it is built.
"""

import math

import pytest

import svdmark as sm
from svdmark.errors import InvalidParameter, MalformedSideInfo

from conftest import seeded_matrix
from keyfiles import rewrite_key_metadata

ROWS, COLS = 10, 8
QUANT = {"lo": -1.0, "hi": 2.0, "degenerate": False}


def _set(field, value):
    return lambda meta: meta.__setitem__(field, value)


def _drop(field):
    return lambda meta: meta.pop(field)


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
    "quant-no-hi": lambda meta: meta["quant"].pop("hi"),
    "quant-lo-past-float": lambda meta: meta["quant"].__setitem__("lo", -10**400),
}
SEMIBLIND_QUANT_DEFECTS = {
    "quant-null": _set("quant", None),
    "quant-empty": _set("quant", {}),
    "quant-valid": _set("quant", QUANT),
    "quant-inverted": _set("quant", {"lo": 2.0, "hi": -1.0, "degenerate": False}),
    "quant-list": _set("quant", [-1.0, 2.0, False]),
}


# Fields of the wrong JSON type: a bool is no number, a float or a string
# no integer, and only a bool is a bool.
TYPE_DEFECTS = {
    "alpha-true": _set("alpha", True),
    "alpha-false": _set("alpha", False),
    "alpha-string": _set("alpha", "0.1"),
    "rows-fraction": _set("rows", ROWS + 0.7),
    "rows-integral-float": _set("rows", float(ROWS)),
    "rows-string": _set("rows", str(ROWS)),
    "rows-true": _set("rows", True),
    "cols-fraction": _set("cols", COLS + 0.7),
    "cols-string": _set("cols", str(COLS)),
    "cols-null": _set("cols", None),
}
QUANT_TYPE_DEFECTS = {
    "lo-true": lambda meta: meta["quant"].__setitem__("lo", True),
    "lo-string": lambda meta: meta["quant"].__setitem__("lo", "-1.0"),
    "hi-string": lambda meta: meta["quant"].__setitem__("hi", "2.0"),
    "hi-list": lambda meta: meta["quant"].__setitem__("hi", [2.0]),
    "degenerate-string": lambda meta: meta["quant"].__setitem__("degenerate", "false"),
    "degenerate-zero": lambda meta: meta["quant"].__setitem__("degenerate", 0),
    "degenerate-null": lambda meta: meta["quant"].__setitem__("degenerate", None),
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
    # A blue-channel bundle: one record, under the same flat metadata as a
    # single key.
    sm.save_bundle(sm.SideInfoBundle(sm.ChannelStrategy.BLUE_CHANNEL, (info,)), str(path))
    rewrite_key_metadata(path, mutate)


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


@pytest.mark.parametrize("defect", list(HASH_QUANT_DEFECTS))
def test_hash_key_without_a_usable_quant_block(tmp_path, infos, defect):
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE], HASH_QUANT_DEFECTS[defect],
           MalformedSideInfo)


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("defect", list(TYPE_DEFECTS))
def test_field_of_the_wrong_type(tmp_path, infos, scheme, defect):
    _check(tmp_path, infos[scheme], TYPE_DEFECTS[defect], MalformedSideInfo)


@pytest.mark.parametrize("defect", list(QUANT_TYPE_DEFECTS))
def test_quant_field_of_the_wrong_type(tmp_path, infos, defect):
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE], QUANT_TYPE_DEFECTS[defect],
           MalformedSideInfo)


def test_integral_numbers_load(tmp_path, infos):
    # A JSON integer is a number: an alpha and a quant range written
    # without a fraction load as floats.
    def integral(meta):
        meta["alpha"] = 1
        meta["quant"] = {"lo": -1, "hi": 2, "degenerate": False}

    path = tmp_path / "single.svdk"
    _write_single(path, infos[sm.SchemeTag.HASH_CODE], integral)
    info = sm.load_sideinfo(str(path))
    assert (info.alpha, info.quant) == (1.0, sm.QuantParams(-1.0, 2.0, False))
    assert type(info.alpha) is float and type(info.quant.lo) is float


def test_hash_key_with_inverted_quant_range(tmp_path, infos):
    # A well-formed block whose values QuantParams rejects.
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE],
           _set("quant", {"lo": 2.0, "hi": -1.0, "degenerate": False}), InvalidParameter)


def test_hash_key_with_a_quant_range_too_wide_to_scale(tmp_path, infos):
    # Both ends are finite, but 255 * (hi - lo) is not.
    _check(tmp_path, infos[sm.SchemeTag.HASH_CODE],
           _set("quant", {"lo": -1e308, "hi": 1e308, "degenerate": False}), InvalidParameter)


@pytest.mark.parametrize("defect", list(SEMIBLIND_QUANT_DEFECTS))
def test_semiblind_key_with_any_quant(tmp_path, infos, defect):
    _check(tmp_path, infos[sm.SchemeTag.SEMI_BLIND], SEMIBLIND_QUANT_DEFECTS[defect],
           MalformedSideInfo)


def test_unmutated_keys_load(tmp_path, infos):
    # Every rejection above is earned: the same writers without a defect load.
    for info in infos.values():
        path = tmp_path / "single.svdk"
        _write_single(path, info, lambda meta: None)
        assert sm.load_sideinfo(str(path)).scheme is info.scheme
        path = tmp_path / "bundle.svdk"
        _write_bundle(path, info, lambda meta: None)
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


def _rebuilt(info, **changes):
    """``info`` built again, with every check, and ``changes`` to its fields."""
    fields = dict(u=info.u, s=info.sigma, v=info.v, v_w=info.v_w, alpha=info.alpha,
                  rows=info.rows, cols=info.cols, scheme=info.scheme, quant=info.quant)
    return sm.SideInfo(**{**fields, **changes})


# Per-channel bundles whose second record differs from the other two:
# (the bundle's scheme, the changes to that record's fields).
MIXED_RECORDS = {
    "scheme": (sm.SchemeTag.SEMI_BLIND,
               lambda i: dict(scheme="hash-code", alpha=0.5, quant=sm.QuantParams(**QUANT))),
    "alpha": (sm.SchemeTag.SEMI_BLIND, lambda i: dict(alpha=0.5)),
    "quant": (sm.SchemeTag.HASH_CODE, lambda i: dict(quant=sm.QuantParams(**QUANT))),
    # -v_w is as orthogonal as v_w, so only the bundle check can refuse it.
    "v_w": (sm.SchemeTag.SEMI_BLIND, lambda i: dict(v_w=-i.v_w)),
}


@pytest.fixture(scope="module")
def bundles():
    img = sm.synthetic_rgb(ROWS, COLS, seed=3)
    wm = seeded_matrix(2, ROWS, COLS)
    identity = sm.Identity.from_string("alice|key-defects")
    return {scheme: sm.embed_color(img, wm, sm.ChannelStrategy.PER_CHANNEL, scheme, alpha=0.1,
                                   identity=identity if scheme is sm.SchemeTag.HASH_CODE
                                   else None)[1]
            for scheme in sm.SchemeTag}


@pytest.mark.parametrize("defect", list(MIXED_RECORDS))
def test_bundle_with_disagreeing_records(bundles, defect):
    scheme, changes = MIXED_RECORDS[defect]
    r, g, b = bundles[scheme].infos
    # Rebuilt unchanged, the record still fits, so each refusal is earned.
    sm.SideInfoBundle(sm.ChannelStrategy.PER_CHANNEL, (r, _rebuilt(g), b))
    with pytest.raises(MalformedSideInfo, match="must share"):
        sm.SideInfoBundle(sm.ChannelStrategy.PER_CHANNEL, (r, _rebuilt(g, **changes(g)), b))


def test_bundle_records_of_two_shapes(infos):
    info = infos[sm.SchemeTag.SEMI_BLIND]
    other = sm.embed(seeded_matrix(1, COLS, ROWS), seeded_matrix(2, COLS, ROWS), 0.1)[1]
    with pytest.raises(MalformedSideInfo, match="must share"):
        sm.SideInfoBundle(sm.ChannelStrategy.PER_CHANNEL, (info, other, info))
