import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svdmark as sm
from svdmark.errors import DimensionError, InvalidInput, InvalidKey, InvalidParameter

import thresholds as th
from conftest import seeded_matrix

byte_matrices = arrays(np.uint8, (8, 8), elements=st.integers(0, 255))


class TestIdentity:
    def test_from_string(self):
        assert sm.Identity.from_string("alice|1").id_bytes == b"alice|1"

    def test_empty_rejected(self):
        with pytest.raises(InvalidKey):
            sm.Identity(b"")
        with pytest.raises(InvalidKey):
            sm.Identity.from_string("")

    def test_non_bytes_rejected(self):
        with pytest.raises(InvalidKey):
            sm.Identity("not-bytes")


class TestDeriveMask:
    def test_deterministic(self):
        ident = sm.Identity.from_string("alice|1")
        m1 = sm.derive_mask(ident, 16, 16)
        m2 = sm.derive_mask(ident, 16, 16)
        assert m1.tobytes() == m2.tobytes()

    def test_frozen_vector(self):
        mask = sm.derive_mask(sm.Identity(b"alice|1"), 2, 4)
        np.testing.assert_array_equal(mask, th.MASK_ALICE1_2X4)

    def test_shape_and_dtype(self):
        mask = sm.derive_mask(sm.Identity(b"x"), 5, 7)
        assert mask.shape == (5, 7)
        assert mask.dtype == np.uint8

    def test_different_ids_differ_almost_everywhere(self):
        m1 = sm.derive_mask(sm.Identity(b"alice|1"), 64, 64)
        m2 = sm.derive_mask(sm.Identity(b"alice|2"), 64, 64)
        assert np.mean(m1 != m2) >= th.MASK_DIFF_FRACTION_MIN

    @pytest.mark.parametrize("probe", ["alice|1", "bob|9", "probe|0000"])
    def test_mean_near_uniform(self, probe):
        mask = sm.derive_mask(sm.Identity.from_string(probe), 16, 16)
        assert abs(mask.mean() - th.MASK_MEAN_CENTER) <= th.MASK_MEAN_TOL

    def test_avalanche_sample(self):
        base = b"avalanche-base|00"
        base_bits = np.unpackbits(sm.derive_mask(sm.Identity(base), 64, 64).ravel())
        for pos in range(0, 64, 3):
            flipped = bytearray(base)
            flipped[pos // 8] ^= 1 << (pos % 8)
            bits = np.unpackbits(sm.derive_mask(sm.Identity(bytes(flipped)), 64, 64).ravel())
            frac = float(np.mean(bits != base_bits))
            assert abs(frac - 0.5) <= th.AVALANCHE_TRIAL_TOL

    @pytest.mark.parametrize("rows, cols", [(1, 32), (1, 33), (37, 29)])
    def test_matches_counter_mode_reference(self, rows, cols):
        # The documented stream: sha256(id || counter) for counters 0, 1, ...,
        # concatenated and cut to rows * cols bytes (34 blocks at 37 x 29).
        ident = b"alice|8f3a"
        blocks = (hashlib.sha256(ident + c.to_bytes(8, "big")).digest() for c in range(34))
        expected = np.frombuffer(b"".join(blocks)[: rows * cols], np.uint8).reshape(rows, cols)
        np.testing.assert_array_equal(sm.derive_mask(sm.Identity(ident), rows, cols), expected)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidParameter):
            sm.derive_mask(sm.Identity(b"x"), 0, 4)

    def test_requires_identity_value(self):
        with pytest.raises(InvalidKey):
            sm.derive_mask(b"raw-bytes", 4, 4)


class TestQuantize:
    def test_constant_matrix_degenerate(self):
        q, p = sm.quantize(np.full((3, 3), 7.5))
        assert np.all(q == 0)
        assert p.degenerate and p.lo == p.hi == 7.5

    def test_endpoints(self):
        q, p = sm.quantize(np.array([[0.0, 255.0]]))
        np.testing.assert_array_equal(q, [[0, 255]])
        assert (p.lo, p.hi) == (0.0, 255.0)

    def test_roundtrip_half_step_bound(self):
        x = seeded_matrix(11, 12, 12, low=-500.0, high=3000.0)
        q, p = sm.quantize(x)
        err = np.abs(sm.dequantize(q, p) - x).max()
        assert err <= (p.hi - p.lo) / 510

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            sm.quantize([[np.inf, 0.0]])

    def test_rejects_a_range_too_wide_to_scale(self):
        # 255 * (hi - lo) must be finite; the params are refused before any
        # arithmetic, so no overflow warning comes first.
        for lo, hi in ((-1e308, 1e308), (0.0, 1e307)):
            with pytest.raises(InvalidParameter, match="too wide"):
                sm.QuantParams(lo, hi)
        sm.QuantParams(0.0, 7e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="too wide"):
                sm.quantize([[0.0, 1e307]])


class TestDequantize:
    def test_zero_bytes_map_to_lo(self):
        out = sm.dequantize(np.zeros((2, 2), dtype=np.uint8), sm.QuantParams(-1.0, 1.0))
        np.testing.assert_array_equal(out, np.full((2, 2), -1.0))

    def test_byte_255_maps_to_hi(self):
        out = sm.dequantize(np.array([[255]], dtype=np.uint8), sm.QuantParams(-1.0, 1.0))
        assert out[0, 0] == 1.0

    def test_degenerate_constant(self):
        p = sm.QuantParams(3.0, 3.0, degenerate=True)
        out = sm.dequantize(np.zeros((2, 2), dtype=np.uint8), p)
        np.testing.assert_array_equal(out, np.full((2, 2), 3.0))

    def test_quant_params_validation(self):
        with pytest.raises(InvalidParameter):
            sm.QuantParams(2.0, 1.0)
        with pytest.raises(InvalidParameter):
            sm.QuantParams(1.0, 1.0, degenerate=False)
        with pytest.raises(InvalidParameter):
            sm.QuantParams(np.nan, 1.0)


class TestXorMask:
    def test_closed_form(self):
        a = np.full((2, 2), 0xA5, dtype=np.uint8)
        b = np.full((2, 2), 0x5A, dtype=np.uint8)
        assert np.all(sm.xor_mask(a, b) == 0xFF)

    def test_identity_element(self):
        x = np.arange(16, dtype=np.uint8).reshape(4, 4)
        np.testing.assert_array_equal(sm.xor_mask(x, np.zeros((4, 4), dtype=np.uint8)), x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            sm.xor_mask(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            sm.xor_mask(np.array([[300]]), np.array([[1]], dtype=np.uint8))

    @pytest.mark.parametrize("operand, message", [
        (np.zeros(4, dtype=np.uint8), "must be a non-empty 2-D array"),
        (np.zeros((0, 4), dtype=np.uint8), "must be a non-empty 2-D array"),
        (np.zeros((2, 2)), "must hold integers, got dtype float64"),
    ])
    def test_rejects_non_byte_matrices(self, operand, message):
        with pytest.raises(InvalidInput, match=message):
            sm.xor_mask(operand, np.zeros((2, 2), dtype=np.uint8))

    def test_integers_in_range_act_as_bytes(self):
        x = np.arange(16, dtype=np.int64).reshape(4, 4) * 17
        m = np.full((4, 4), 0x0F, dtype=np.uint8)
        out = sm.xor_mask(x, m)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, sm.xor_mask(x.astype(np.uint8), m))

    @settings(max_examples=200, deadline=None)
    @given(byte_matrices, byte_matrices)
    def test_involution_hypothesis(self, x, m):
        assert np.array_equal(sm.xor_mask(sm.xor_mask(x, m), m), x)


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, (6, 6),
              elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_quantize_roundtrip_hypothesis(x):
    q, p = sm.quantize(x)
    # half-step bound plus float slack for adversarial lo/hi scales
    bound = (p.hi - p.lo) / 510 + 1e-12 * max(1.0, abs(p.lo), abs(p.hi))
    assert np.abs(sm.dequantize(q, p) - x).max() <= bound
