"""The four benchmark workloads: seeded inputs, op cycles and output checks.

Every op is one or two in-process ``cli_main`` calls, exactly what a CLI
user runs.  Inputs come from a pool of distinct seeded covers so that a
memo kept across calls cannot pass for a gain a user starting one
process per command would never see.  Checks read the program's output
files with the benchmark's own SVDF reader and correlation, never with
svdmark's, and run with the clock stopped.
"""

import contextlib
import io
import os
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import svdmark
import svdmark.cli

# Default pool origin and identities: COVER_SEED, WM_SEED and EMBED_ID in
# tests/thresholds.py, so seed 0 starts at the canonical test scene.
COVER_SEED = 1001
WM_SEED = 2002
EMBED_ID = "alice|8f3a9c"
WRONG_ID = "mallory|8f3a9c"

# Acceptance floors from tests/thresholds.py: SEMIBLIND_CLEAN_NC_MIN,
# HASH_NC_MIN and COLOR_LUMINANCE_NC_8BIT_MIN.
SEMIBLIND_NC_FLOOR = 0.999
KEYED_NC_FLOOR = 0.99
COLOR_NC_FLOOR = 0.98
# Colour covers are always written as 8-bit PPM, and that rounding exceeds
# the keyed scheme's byte-recovery noise budget (see README, File formats),
# so keyed colour extraction only correlates weakly with the watermark:
# 0.14-0.34 measured over 30 covers, against |nc| <= 0.03 for a wrong id.
# This floor separates the two; byte-identical repeats are checked as well.
COLOR_KEYED_NC_FLOOR = 0.08

SWEEP_ALPHAS = ",".join(f"{0.05 * k:.2f}" for k in range(1, 11))
SWEEP_ROWS = 40
SWEEP_HEADER = b"alpha,attack,params,seed,psnr_db,nc"

_SVDF_HEADER = struct.Struct("<4sHII")


@dataclass
class Op:
    """One timed op: CLI calls with their expected exit codes, then a check.

    ``check`` runs after the clock stops; it returns a failure reason or
    None, and may append extracted-watermark correlations to ``ncs``.
    """

    kind: str
    calls: list
    check: Callable[[list, list], str | None]
    key_path: str | None = None


@dataclass
class Workload:
    name: str
    size: int
    pool: int
    cycle: int                          # op kinds per cycle; phases end on whole cycles
    make_op: Callable[[int], Op]
    setup_calls: list = field(default_factory=list)
    setup_key_paths: list = field(default_factory=list)


def run_cli(argv):
    """Call ``cli_main`` in-process, returning ``(exit code, stdout text)``.

    The function is looked up on its module at each call, so a traced run
    sees the wrapped ``cli_main``.  An exception escaping ``cli_main`` is a
    failed op, reported as exit code None, not a crash of the run.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = svdmark.cli.cli_main(argv)
        except Exception as exc:  # the run must survive a broken op
            return None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def read_svdf(path):
    with open(path, "rb") as f:
        data = f.read()
    magic, _, rows, cols = _SVDF_HEADER.unpack_from(data)
    if magic != b"SVDF" or len(data) != _SVDF_HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path} is not a complete SVDF file")
    return np.frombuffer(data, dtype="<f8", offset=_SVDF_HEADER.size).reshape(rows, cols)


def nc(a, b):
    """Pearson correlation of two equally shaped images."""
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def _write_pnm(path, pixels, magic):
    rows, cols = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{cols} {rows}\n255\n".encode("ascii"))
        f.write(pixels.astype(np.uint8).tobytes())


class _Inputs:
    """Seeded cover/watermark pool written to ``work`` before timing."""

    def __init__(self, work, seed, size, pool, color=False):
        self.work = work
        self.paths = []
        self.watermarks = []
        for j in range(pool):
            cover_seed = COVER_SEED + seed * pool + j
            wm = svdmark.synthetic_image(size, size, WM_SEED + seed * pool + j,
                                         roughness=1.2, contrast=70.0)
            if color:
                img = svdmark.synthetic_rgb(size, size, cover_seed)
                cover = self.path(f"cover{j}.ppm")
                _write_pnm(cover, np.stack(img.channels(), axis=-1), "P6")
            else:
                cover = self.path(f"cover{j}.pgm")
                _write_pnm(cover, svdmark.synthetic_image(
                    size, size, cover_seed, roughness=2.0, contrast=52.0), "P5")
            wm_path = self.path(f"wm{j}.pgm")
            _write_pnm(wm_path, wm, "P5")
            self.paths.append((cover, wm_path))
            self.watermarks.append(wm)

    def path(self, name):
        return os.path.join(self.work, name)


def _fresh(*paths):
    # Outputs are removed before each op, so a command that exits 0 without
    # writing cannot pass its check on a file left by an earlier op.
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _nc_check(path, wm, floor, ncs):
    try:
        score = nc(read_svdf(path), wm)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    ncs.append(score)
    return None if score >= floor else f"nc {score:.6f} below floor {floor}"


def embed_512(work, seed, size=512, pool=8):
    """Write path: alternating embed and embed-hash, SVDF output plus key.

    Each output is checked by extracting it again through the CLI with
    the clock stopped, so the check does not depend on the key format.
    """
    inputs = _Inputs(work, seed, size, pool)

    def make_op(i):
        j = (i // 2) % pool
        cover, wm = inputs.paths[j]
        hashed = i % 2 == 1
        kind = "embed-hash" if hashed else "embed"
        marked = inputs.path(f"marked{j}-{kind}.svdf")
        key = inputs.path(f"key{j}-{kind}.json")
        ident = ["--id", EMBED_ID] if hashed else []
        argv = [kind, "--cover", cover, "--watermark", wm, "--out", marked, "--key", key]
        _fresh(marked, key)

        def check(outputs, ncs):
            extracted = inputs.path("check.svdf")
            _fresh(extracted)
            rc, _ = run_cli(["extract-hash" if hashed else "extract", "--marked", marked,
                             "--key", key, "--out", extracted] + ident)
            if rc != 0:
                return f"re-extraction of the embed output exited {rc}"
            floor = KEYED_NC_FLOOR if hashed else SEMIBLIND_NC_FLOOR
            return _nc_check(extracted, inputs.watermarks[j], floor, ncs)

        return Op(kind, [(argv + ident, 0)], check, key_path=key)

    return Workload("embed-512", size, pool, 2, make_op)


def verify_512(work, seed, size=512, pool=4):
    """Read path: extract, extract-hash and verify-hash with a right and a
    wrong id, in equal shares, against keys embedded during set-up."""
    inputs = _Inputs(work, seed, size, pool)
    setup_calls, setup_keys = [], []
    for j, (cover, wm) in enumerate(inputs.paths):
        for kind, ident in (("embed", []), ("embed-hash", ["--id", EMBED_ID])):
            key = inputs.path(f"key{j}-{kind}.json")
            setup_calls.append([kind, "--cover", cover, "--watermark", wm,
                                "--out", inputs.path(f"marked{j}-{kind}.svdf"),
                                "--key", key] + ident)
            setup_keys.append(key)

    kinds = ("extract", "extract-hash", "verify-hash", "verify-hash-wrong-id")

    def make_op(i):
        j = (i // len(kinds)) % pool
        kind = kinds[i % len(kinds)]
        wm = inputs.watermarks[j]
        if kind.startswith("extract"):
            scheme = "embed-hash" if kind == "extract-hash" else "embed"
            out = inputs.path("extracted.svdf")
            _fresh(out)
            argv = [kind, "--marked", inputs.path(f"marked{j}-{scheme}.svdf"),
                    "--key", inputs.path(f"key{j}-{scheme}.json"), "--out", out]
            if kind == "extract-hash":
                argv += ["--id", EMBED_ID]
            floor = KEYED_NC_FLOOR if kind == "extract-hash" else SEMIBLIND_NC_FLOOR
            return Op(kind, [(argv, 0)],
                      lambda outputs, ncs: _nc_check(out, wm, floor, ncs))
        right = kind == "verify-hash"
        argv = ["verify-hash", "--marked", inputs.path(f"marked{j}-embed-hash.svdf"),
                "--key", inputs.path(f"key{j}-embed-hash.json"),
                "--id", EMBED_ID if right else WRONG_ID, "--claimed", inputs.paths[j][1]]
        decision = "decision=verified" if right else "decision=rejected"

        def check(outputs, ncs):
            return None if decision in outputs[0] else f"stdout lacks {decision}"

        return Op(kind, [(argv, 0 if right else 2)], check)

    return Workload("verify-512", size, pool, len(kinds), make_op,
                    setup_calls=setup_calls, setup_key_paths=setup_keys)


def sweep_256(work, seed, size=256, pool=4):
    """CLI sweep: 10 alphas x 4 attacks per op.  Each CSV must have its 40
    rows and be byte-identical to the first CSV made for that cover."""
    inputs = _Inputs(work, seed, size, pool)
    q = size // 8
    attacks = (f"gaussian-noise:sigma=2:seed={7 + seed},quantize-8bit,"
               f"crop:rect={q};{q};{2 * q};{2 * q},rescale:scale=0.5")
    first_csv = {}

    def make_op(i):
        j = i % pool
        cover, wm = inputs.paths[j]
        out = inputs.path(f"report{j}.csv")
        _fresh(out)
        argv = ["sweep", "--cover", cover, "--watermark", wm, "--alphas", SWEEP_ALPHAS,
                "--attacks", attacks, "--out", out]

        def check(outputs, ncs):
            with open(out, "rb") as f:
                data = f.read()
            lines = data.splitlines()
            if len(lines) != SWEEP_ROWS + 1 or lines[0] != SWEEP_HEADER:
                return f"CSV has {len(lines) - 1} rows or a wrong header"
            if first_csv.setdefault(j, data) != data:
                return "CSV differs from the first one made for this cover"
            ncs.extend(float(line.rsplit(b",", 1)[1]) for line in lines[1:])
            return None

        return Op("sweep", [(argv, 0)], check)

    return Workload("sweep-256", size, pool, 1, make_op)


def color_256(work, seed, size=256, pool=4):
    """Colour round trip: embed then extract on a PPM cover, cycling through
    the three channel strategies x both schemes on each cover."""
    inputs = _Inputs(work, seed, size, pool, color=True)
    combos = [(strategy, hashed) for strategy in ("luminance", "blue", "perchannel")
              for hashed in (False, True)]
    first_output = {}

    def make_op(i):
        j = (i // len(combos)) % pool
        strategy, hashed = combos[i % len(combos)]
        cover, wm = inputs.paths[j]
        marked = inputs.path("marked.ppm")
        key = inputs.path("key.json")
        out = inputs.path("extracted.svdf")
        _fresh(marked, key, out)
        ident = ["--id", EMBED_ID] if hashed else []
        common = ["--strategy", strategy] + ident
        embed = ["embed-hash" if hashed else "embed", "--cover", cover, "--watermark", wm,
                 "--out", marked, "--key", key] + common
        extract = ["extract-hash" if hashed else "extract", "--marked", marked,
                   "--key", key, "--out", out] + common
        floor = COLOR_KEYED_NC_FLOOR if hashed else COLOR_NC_FLOOR

        def check(outputs, ncs):
            reason = _nc_check(out, inputs.watermarks[j], floor, ncs)
            if reason:
                return reason
            with open(out, "rb") as f:
                data = f.read()
            if first_output.setdefault((j, strategy, hashed), data) != data:
                return "extraction differs from the first one for this cover"
            return None

        kind = f"{strategy}/{'hash' if hashed else 'semi'}"
        return Op(kind, [(embed, 0), (extract, 0)], check, key_path=key)

    return Workload("color-256", size, pool, len(combos), make_op)


WORKLOADS = {
    "embed-512": embed_512,
    "verify-512": verify_512,
    "sweep-256": sweep_256,
    "color-256": color_256,
}
