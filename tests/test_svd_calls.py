"""How many SVDs and orthogonality checks each composite operation runs.

The cover and watermark factors are computed once per operation: a sweep
shares them across its alphas and a per-channel color embed shares the
watermark split across its planes.  Factors are checked once, where they
become ``SideInfo`` or ``SvdFactors``: an embed's fresh LAPACK factors
when its side info is built, a key file's when it is loaded, and caller
data when it is wrapped.  The sweep builds no side info and checks none.
"""

import sys

import pytest

import svdmark as sm
from svdmark import matrix

from conftest import seeded_matrix


def _count_calls(monkeypatch, func):
    """Count calls of ``matrix.<func>`` through every svdmark module that binds it."""
    calls = []
    original = getattr(matrix, func)

    def counting(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "svdmark" and getattr(module, func, None) is original:
            monkeypatch.setattr(module, func, counting)
    return calls


@pytest.fixture()
def svd_calls(monkeypatch):
    return _count_calls(monkeypatch, "svd")


@pytest.fixture()
def orthogonality_checks(monkeypatch):
    return _count_calls(monkeypatch, "orthogonality_residual")


@pytest.mark.parametrize("n_alphas", [1, 3, 10])
def test_sweep_runs_two_svds(svd_calls, n_alphas):
    cover, wm = seeded_matrix(1, 24, 24), seeded_matrix(2, 24, 24)
    alphas = [0.05 * (k + 1) for k in range(n_alphas)]
    attacks = [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT),
               sm.AttackSpec(kind=sm.AttackKind.GAUSSIAN_NOISE, sigma=1.0, seed=3)]
    sm.robustness_sweep(cover, wm, alphas, attacks)
    assert len(svd_calls) == 2


@pytest.mark.parametrize("scheme", list(sm.SchemeTag))
@pytest.mark.parametrize("strategy,expected", [
    (sm.ChannelStrategy.PER_CHANNEL, 4),
    (sm.ChannelStrategy.LUMINANCE, 2),
    (sm.ChannelStrategy.BLUE_CHANNEL, 2),
])
def test_color_embed_svd_count(svd_calls, identity, scheme, strategy, expected):
    img = sm.synthetic_rgb(24, 24, seed=5)
    ident = identity if scheme is sm.SchemeTag.HASH_CODE else None
    sm.embed_color(img, seeded_matrix(3, 24, 24), strategy, scheme, alpha=0.1,
                   identity=ident)
    assert len(svd_calls) == expected


def test_embed_checks_side_info_factors_once(orthogonality_checks, identity):
    cover, wm = seeded_matrix(1, 24, 20), seeded_matrix(2, 24, 20)
    sm.embed(cover, wm, 0.1)
    assert len(orthogonality_checks) == 3  # u, v and v_w, in SideInfo
    sm.embed_invisible(cover, wm, identity, 0.1)
    assert len(orthogonality_checks) == 6


def test_sweep_checks_no_factors(orthogonality_checks):
    cover, wm = seeded_matrix(1, 24, 24), seeded_matrix(2, 24, 24)
    sm.robustness_sweep(cover, wm, [0.05, 0.1],
                        [sm.AttackSpec(kind=sm.AttackKind.QUANTIZE_8BIT)])
    assert orthogonality_checks == []


def test_trust_boundaries_keep_their_checks(orthogonality_checks, tmp_path):
    _, info = sm.embed(seeded_matrix(1, 24, 20), seeded_matrix(2, 24, 20), 0.1)
    path = str(tmp_path / "key.json")
    sm.save_sideinfo(info, path)
    del orthogonality_checks[:]
    sm.load_sideinfo(path)
    assert len(orthogonality_checks) == 3
    sm.SvdFactors(u=info.u, s=info.s, v=info.v)
    assert len(orthogonality_checks) == 5
    sm.detect_reference(info.u[:, :20], info.v_w)
    assert len(orthogonality_checks) == 6
