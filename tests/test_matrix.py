import numpy as np
import pytest
import scipy.linalg

import svdmark as sm
from svdmark.errors import DimensionError, InvalidInput
from svdmark.matrix import _canonical_signs

import thresholds as th
from conftest import dense_s, seeded_matrix


def oracle_svd(a):
    """Independent decomposition route: LAPACK gesvd via scipy, with the
    same sign convention applied."""
    u, sv, vt = scipy.linalg.svd(a, lapack_driver="gesvd")
    v = np.ascontiguousarray(vt.T)
    _canonical_signs(u, v)
    return u, sv, v


class TestSvd:
    def test_diagonal_matrix(self):
        f = sm.svd([[3.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(f.sigma, [3.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(f.u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(f.v, np.eye(2), atol=1e-14)

    def test_permuted_diagonal(self):
        f = sm.svd([[0.0, 2.0], [1.0, 0.0]])
        np.testing.assert_allclose(f.sigma, [2.0, 1.0], atol=1e-14)

    def test_seed42_against_oracle(self):
        a = seeded_matrix(42, 8, 8)
        f = sm.svd(a)
        u_o, sv_o, v_o = oracle_svd(a)
        np.testing.assert_allclose(f.sigma, sv_o, atol=1e-9)
        np.testing.assert_allclose(f.sigma, th.SEED42_8X8_SINGULAR_VALUES,
                                   atol=1e-9)
        np.testing.assert_allclose(f.u, u_o, atol=1e-8)
        np.testing.assert_allclose(f.v, v_o, atol=1e-8)
        rel = np.linalg.norm(f.u @ dense_s(f) @ f.v.T - a) / np.linalg.norm(a)
        assert rel <= 1e-10

    def test_rectangular_shapes(self):
        for shape in [(4, 2), (2, 4), (5, 3)]:
            a = seeded_matrix(7, *shape)
            f = sm.svd(a)
            assert f.u.shape == (shape[0], shape[0])
            assert f.sigma.shape == (min(shape),)
            assert f.v.shape == (shape[1], shape[1])
            np.testing.assert_allclose(f.u @ dense_s(f) @ f.v.T, a, atol=1e-10)

    def test_determinism_bitwise(self):
        a = seeded_matrix(3, 16, 16)
        f1, f2 = sm.svd(a), sm.svd(a)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.sigma.tobytes() == f2.sigma.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_sign_convention(self):
        # The largest-magnitude entry, the first one on ties, is non-negative
        # in every U column and in every V column beyond min(M, N), which
        # no U column pairs with.
        for shape in [(6, 6), (2, 7), (7, 2), (1, 5), (5, 1), (32, 200)]:
            for seed in range(5):
                f = sm.svd(seeded_matrix(seed, *shape))
                for m in (f.u, f.v[:, min(shape):]):
                    idx = np.argmax(np.abs(m), axis=0)
                    assert np.all(m[idx, np.arange(m.shape[1])] >= 0), (shape, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_singular_values_match_oracle(self, seed):
        a = seeded_matrix(seed, 16, 16)
        sv_oracle = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
        assert np.abs(sm.svd(a).sigma - sv_oracle).max() <= th.SV_ORACLE_ABS_TOL

    def test_roundtrip_relative_error(self):
        for seed in range(5):
            a = seeded_matrix(seed, 24, 24)
            f = sm.svd(a)
            assert np.linalg.norm(f.u @ dense_s(f) @ f.v.T - a) / np.linalg.norm(a) <= 1e-10
            assert sm.orthogonality_residual(f.u) <= 1e-8
            assert sm.orthogonality_residual(f.v) <= 1e-8

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            sm.svd([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            sm.svd([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInput):
            sm.svd([1.0, 2.0, 3.0])
        with pytest.raises(InvalidInput):
            sm.svd(np.zeros((0, 3)))


class TestSvdFactorsInvariants:
    def test_rejects_non_orthogonal_u(self):
        with pytest.raises(InvalidInput):
            sm.SvdFactors(u=np.array([[1.0, 1.0], [0.0, 1.0]]),
                          s=[2.0, 1.0], v=np.eye(2))

    def test_rejects_negative_singular_value(self):
        with pytest.raises(InvalidInput):
            sm.SvdFactors(u=np.eye(2), s=[2.0, -1.0], v=np.eye(2))

    def test_rejects_increasing_order(self):
        with pytest.raises(InvalidInput):
            sm.SvdFactors(u=np.eye(2), s=[1.0, 2.0], v=np.eye(2))

    def test_rejects_dense_s(self):
        for s in (np.array([[2.0, 0.5], [0.0, 1.0]]), np.diag([2.0, 1.0])):
            with pytest.raises(DimensionError, match="do not form a full SVD"):
                sm.SvdFactors(u=np.eye(2), s=s, v=np.eye(2))

    def test_rejects_non_square_u(self):
        with pytest.raises(DimensionError):
            sm.SvdFactors(u=np.ones((2, 3)), s=[1.0, 1.0], v=np.eye(2))


class TestOrthogonalityResidual:
    def test_identity(self):
        assert sm.orthogonality_residual(np.eye(3)) == 0.0

    def test_permutation(self):
        assert sm.orthogonality_residual([[0.0, 1.0], [1.0, 0.0]]) == 0.0

    def test_shear_closed_form(self):
        # M^T M = [[1,1],[1,2]]; residual is ||[[0,1],[1,1]]||_F = sqrt(3)
        res = sm.orthogonality_residual([[1.0, 1.0], [0.0, 1.0]])
        assert res == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sm.orthogonality_residual(np.ones((2, 3)))
