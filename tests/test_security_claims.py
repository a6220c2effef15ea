"""What each scheme guarantees against a forged key (README, "What each
scheme guarantees").

A key's ``V_w`` is the watermark's right singular vectors, and the key
checks only that it is orthogonal.  A forger can therefore swap in the
``V_w`` of the forger's own image: every check still passes, and the
owner's marked image, run through the forged key, yields something that
correlates with the forger's image.  The semi-blind scheme has nothing
against this, so its key proves ownership only to someone who trusts
the key file.  The keyed scheme recovers its payload under the identity's
mask, so with a forged ``V_w`` and the forger's own identity the result
stays uncorrelated with the forger's image, while the owner's key and
identity still verify.  Over ``FORGER_SEEDS`` at 128x128 and alpha 0.1,
with the bounds in ``thresholds.py`` (``scripts/calibrate_thresholds.py``
measures them).
"""

import numpy as np
import pytest

import svdmark as sm
import thresholds as th
from conftest import make_cover, make_reference, make_watermark
from svdmark.cli import cli_main

N = 128


def _forged(info, v_w):
    """``info`` with ``V_w`` replaced, built through every key check."""
    return sm.SideInfo(u=info.u, s=info.sigma, v=info.v, v_w=v_w, alpha=info.alpha,
                       rows=info.rows, cols=info.cols, scheme=info.scheme, quant=info.quant)


@pytest.fixture(scope="module")
def owner():
    cover, wm = make_cover(N), make_watermark(N)
    ident = sm.Identity.from_string(th.EMBED_ID)
    return cover, wm, ident, sm.embed(cover, wm, 0.1), sm.embed_invisible(cover, wm, ident, 0.1)


@pytest.fixture(scope="module")
def forgeries(owner):
    """Each forger's NC against the forger's own image: ``(semi-blind, keyed)``."""
    _, _, _, (marked, info), (marked_h, info_h) = owner
    semi, keyed = [], []
    for seed in th.FORGER_SEEDS:
        image = make_reference(seed, N)
        v_w = sm.split_watermark(image)[1]
        semi.append(sm.normalized_correlation(sm.extract(marked, _forged(info, v_w)), image))
        forger = sm.Identity.from_string(f"forger-{seed}|nonce")
        w_star = sm.extract_invisible(marked_h, _forged(info_h, v_w), forger)
        keyed.append(sm.normalized_correlation(w_star, image))
    return np.array(semi), np.array(keyed)


def test_keyed_scheme_resists_a_forged_vw(forgeries):
    assert len(th.FORGER_SEEDS) >= 30
    assert np.abs(forgeries[1]).max() <= th.FORGED_VW_KEYED_NC_MAX


def test_semiblind_scheme_admits_a_forged_vw(forgeries):
    # The README's claim that the key file must be trusted, pinned: some
    # forger's image correlates well above the keyed bound.
    assert forgeries[0].max() >= th.FORGED_VW_SEMIBLIND_NC_BEST_MIN


def test_owner_verifies_and_a_forged_key_file_does_not(owner, tmp_path, capsys):
    cover, wm, ident, _, _ = owner
    p = {n: str(tmp_path / n) for n in ("c.pgm", "w.pgm", "f.pgm", "m.svdf", "k.svdk",
                                        "forged.svdk")}
    sm.write_pgm(cover, p["c.pgm"])
    sm.write_pgm(wm, p["w.pgm"])
    assert cli_main(["embed-hash", "--cover", p["c.pgm"], "--watermark", p["w.pgm"],
                     "--id", th.EMBED_ID, "--out", p["m.svdf"], "--key", p["k.svdk"]]) == 0
    verify = ["verify-hash", "--marked", p["m.svdf"]]
    assert cli_main([*verify, "--key", p["k.svdk"], "--id", th.EMBED_ID,
                     "--claimed", p["w.pgm"]]) == 0
    # The forged key passes every load check, yet does not verify the
    # forger's image under the forger's identity.
    image = make_reference(th.FORGER_SEEDS[0], N)
    sm.write_pgm(image, p["f.pgm"])
    sm.save_sideinfo(_forged(sm.load_sideinfo(p["k.svdk"]), sm.split_watermark(image)[1]),
                     p["forged.svdk"])
    assert cli_main([*verify, "--key", p["forged.svdk"], "--id",
                     f"forger-{th.FORGER_SEEDS[0]}|nonce", "--claimed", p["f.pgm"]]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[-2:]] == ["decision=verified",
                                                         "decision=rejected"]
