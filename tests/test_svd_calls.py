"""How many SVDs each composite operation runs.

The cover and watermark factors are computed once per operation: a sweep
shares them across its alphas and a per-channel color embed shares the
watermark split across its planes.
"""

import sys

import pytest

import svdmark as sm
from svdmark import matrix

from conftest import seeded_matrix


@pytest.fixture()
def svd_calls(monkeypatch):
    """Count ``svd`` calls through every svdmark module that binds it."""
    calls = []
    original = matrix.svd

    def counting(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "svdmark" and getattr(module, "svd", None) is original:
            monkeypatch.setattr(module, "svd", counting)
    return calls


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
