"""``matrix.svd``'s two routes to LAPACK: the bundled OpenBLAS's
``dgesdd``, called directly, and ``np.linalg.svd``, taken where that
symbol is absent.  Both run with BLAS pinned to one thread and give the
same bits under 1 and 2 BLAS threads (checked in subprocesses, since the
thread count is fixed when numpy loads), and a decomposition LAPACK
gives up on is ``InvalidInput`` on either route: one error line and
exit 1 from the CLI.
"""

import numpy as np
import pytest

import svdmark as sm
from conftest import run_with_blas_threads, seeded_matrix
from svdmark import matrix
from svdmark.cli import cli_main

PATHS = """
import hashlib, json
import numpy as np
from svdmark import matrix

def factors(a):
    f = matrix.svd(a)
    return ([hashlib.sha256(x.tobytes()).hexdigest() for x in (f.u, f.sigma, f.v)]
            + [f.u.flags.c_contiguous, f.v.flags.c_contiguous])

rng = np.random.Generator(np.random.PCG64(11))
shapes = [(256, 256), (512, 512), (48, 64), (64, 48), (32, 200), (1, 37), (37, 1)]
inputs = [rng.uniform(0.0, 255.0, shape) for shape in shapes]
report = {"direct": bool(matrix._bundled_openblas()[3])}
report["dgesdd"] = [factors(a) for a in inputs]
# Only dgesdd is hidden: the thread functions stay, so both routes run pinned.
get, set_, stop, _ = matrix._bundled_openblas()
matrix._bundled_openblas = lambda: [get, set_, stop, None]
report["np.linalg.svd"] = [factors(a) for a in inputs]
print(json.dumps(report))
"""

needs_dgesdd = pytest.mark.skipif(not matrix._bundled_openblas()[3],
                                  reason="numpy's BLAS is not its bundled OpenBLAS")


@needs_dgesdd
@pytest.mark.parametrize("threads", [1, 2])
def test_dgesdd_and_fallback_give_the_same_bits(threads):
    r = run_with_blas_threads(PATHS, threads=threads)
    assert r["direct"]
    assert r["dgesdd"] == r["np.linalg.svd"]
    # U and V come out row-major, as keys and their loaded copies hold them.
    assert all(f[3:] == [True, True] for f in r["dgesdd"])


@pytest.mark.parametrize("order", ["C", "F"])
def test_input_is_left_alone(order):
    # dgesdd overwrites its input, so svd hands it a copy whatever the layout.
    a = np.array(seeded_matrix(4, 24, 16), order=order)
    before = a.copy()
    matrix.svd(a)
    assert np.array_equal(a, before)


def _no_convergence(*args):
    args[13].value = 1  # info > 0: dgesdd's divide and conquer did not converge


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.fixture(params=["dgesdd", "np.linalg.svd"])
def failing_lapack(request, monkeypatch):
    """LAPACK made to give up, on the direct route or on the fallback."""
    get, set_, stop, _ = matrix._bundled_openblas()
    if request.param == "dgesdd":
        monkeypatch.setattr(matrix, "_bundled_openblas",
                            lambda: [get, set_, stop, _no_convergence])
    else:
        monkeypatch.setattr(matrix, "_bundled_openblas", lambda: [get, set_, stop, None])
        monkeypatch.setattr(np.linalg, "svd", _raise_linalg_error)


def test_non_convergence_is_invalid_input(failing_lapack):
    with pytest.raises(sm.InvalidInput, match="^the SVD of a 8x6 matrix did not converge$"):
        matrix.svd(seeded_matrix(1, 8, 6))


@pytest.mark.parametrize("command", ["embed", "embed-hash"])
def test_cli_reports_non_convergence(failing_lapack, tmp_path, capsys, command):
    sm.write_pgm(seeded_matrix(2, 16, 16).round(), str(tmp_path / "c.pgm"))
    sm.write_pgm(seeded_matrix(3, 16, 16).round(), str(tmp_path / "w.pgm"))
    ident = ["--id", "alice|8f3a9c"] if command == "embed-hash" else []
    code = cli_main([command, "--cover", str(tmp_path / "c.pgm"),
                     "--watermark", str(tmp_path / "w.pgm"), *ident,
                     "--out", str(tmp_path / "m.pgm"), "--key", str(tmp_path / "k.svdk")])
    assert code == 1
    assert capsys.readouterr() == ("", "error: InvalidInput: the SVD of a 16x16 matrix "
                                       "did not converge\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.pgm", "w.pgm"]
