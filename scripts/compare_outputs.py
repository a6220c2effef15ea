#!/usr/bin/env python3
"""Compare what the CLI of two source trees does, command by command.

    python scripts/compare_outputs.py PARENT CHILD [--expect-diff GLOB ...] [--quick]

PARENT and CHILD are checkouts of this repository.  Each runs one fixed
matrix of CLI commands in a subprocess of its own, which imports
``svdmark`` from ``TREE/src`` and calls ``cli_main`` in-process from a
fresh work directory.  The matrix covers PGM and SVDF covers of square
and rectangular shapes, both schemes, good and bad alphas (a subnormal
one followed through every command that would read its key, and a keyed
one too small to round its recovery back), extraction to every writer,
verify-hash with the right and a wrong id, detect-reference with the
watermark, an unrelated image, a wrong-shape and an overflowing
reference, every reader on a marked image whose recovery overflows,
metrics (among them of an image whose sum overflows and of a constant
one whose mean is off by an ulp), attacks (among them a quantize of
entries that round to zero from below), sweeps (among them a 10-alpha
grid, a constant watermark, an alpha that fails first or last, and an
overflowing cover or watermark over several alphas), the three colour
strategies through every reader, a colour embed and extract through
upper-case extensions, keys of the wrong kind for each reader
and a verify-hash threshold outside (0, 1).
Its inputs are seeded images written by this script, so both trees read
the same bytes.

For every command the exit code, stdout, stderr and the bytes of every
file it writes or removes are compared; warnings are recorded by their
category and message.  A difference in a command whose label matches an
``--expect-diff`` glob is reported and accepted; any other makes the exit
code 1.  ``--quick`` runs a reduced matrix at 16x16 and 12x16 in about a
second per tree.
"""

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ID, WRONG_ID = "alice|8f3a9c", "mallory|000000"
STRATEGIES = ("luminance", "blue", "perchannel")


def _write_pnm(path, pixels):
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    rows, cols = pixels.shape[:2]
    Path(path).write_bytes(magic + f"\n{cols} {rows}\n255\n".encode() +
                           pixels.astype(np.uint8).tobytes())


def _write_svdf(path, m):
    Path(path).write_bytes(struct.pack("<4sHII", b"SVDF", 1, *m.shape) +
                           m.astype("<f8").tobytes())


def _write_inputs(shapes):
    """The seeded images every command reads, in the work directory."""
    rng = np.random.default_rng(20240613)
    for rows, cols in shapes:
        t = f"{rows}x{cols}"
        _write_pnm(f"c{t}.pgm", rng.integers(0, 256, (rows, cols)))
        _write_svdf(f"c{t}.svdf", rng.uniform(0.0, 255.0, (rows, cols)))
        _write_pnm(f"w{t}.pgm", rng.integers(0, 256, (rows, cols)))
        _write_pnm(f"r{t}.pgm", rng.integers(0, 256, (rows, cols)))
        _write_svdf(f"h{t}.svdf", np.full((rows, cols), 1e308))
        _write_pnm(f"k{t}.pgm", np.full((rows, cols), 128))
        _write_svdf(f"z{t}.svdf", np.full((rows, cols), 0.1))
        # Entries below 0 (a row of them round to zero from below) and above 255.
        q = np.linspace(-1.0, 256.0, rows * cols).reshape(rows, cols)
        q[0] = np.linspace(-0.5, 0.0, cols, endpoint=False)
        _write_svdf(f"q{t}.svdf", q)
        _write_pnm(f"col{t}.ppm", rng.integers(0, 256, (rows, cols, 3)))
        Path(f"col{t}.PPM").write_bytes(Path(f"col{t}.ppm").read_bytes())
    _write_pnm("wsmall.pgm", rng.integers(0, 256, (8, 8)))
    _write_pnm("q32.pgm", rng.integers(0, 256, (32, 32)))


def _name(label):
    return re.sub(r"[^A-Za-z0-9.=-]+", "_", label)


def _matrix(quick):
    """``(shapes, commands)``: each command is ``(label, argv, env)``,
    with ``env`` the value of SVDMARK_SEED for it, or ``None``."""
    shapes = [(16, 16), (12, 16)] if quick else [(64, 64), (48, 64), (64, 48)]
    alphas = ["0.1", "0", "nan"] if quick else ["0.1", "0", "-0.0", "nan", "1e155", "1e308", "2",
                                                 "5e-324"]
    cmds = []

    def add(label, *argv, env=None):
        cmds.append((label, list(argv), env))

    for rows, cols in shapes:
        t = f"{rows}x{cols}"
        cw, wm, ref = f"c{t}.pgm", f"w{t}.pgm", f"r{t}.pgm"
        for ext in ("pgm", "svdf"):
            cover = f"c{t}.{ext}"
            for embed in ("embed", "embed-hash"):
                keyed = embed == "embed-hash"
                ident = ["--id", ID] if keyed else []
                for alpha in alphas:
                    base = f"{t}/{ext}/{embed}/a={alpha}"
                    n = _name(base)
                    marked, key = f"m-{n}.svdf", f"k-{n}.svdk"
                    add(f"{base}/embed", embed, "--cover", cover, "--watermark", wm,
                        *ident, "--alpha", alpha, "--out", marked, "--key", key)
                    # The others are refused, so there is no key to read back;
                    # a subnormal one is too, and its readers show it wrote none.
                    if alpha not in ("0.1", "2", "5e-324"):
                        continue
                    run = ["--marked", marked, "--key", key]
                    add(f"{base}/metrics", "metrics", "--a", cover, "--b", marked)
                    if keyed:
                        for out in ("svdf", "pgm"):
                            add(f"{base}/extract-hash.{out}", "extract-hash", *run,
                                "--id", ID, "--out", f"x-{n}.{out}")
                        for who, i in (("right", ID), ("wrong", WRONG_ID)):
                            add(f"{base}/verify-hash/{who}-id", "verify-hash", *run,
                                "--id", i, "--claimed", wm)
                        add(f"{base}/detect-reference/keyed", "detect-reference", *run,
                            "--reference", wm)
                        add(f"{base}/extract/keyed", "extract", *run, "--out", f"e-{n}.svdf")
                    else:
                        for out in ("svdf", "pgm", "txt"):
                            add(f"{base}/extract.{out}", "extract", *run,
                                "--out", f"x-{n}.{out}")
                        add(f"{base}/detect-reference/watermark", "detect-reference", *run,
                            "--reference", wm, "--out", f"p-{n}.svdf")
                        for what, r in (("unrelated", ref), ("wrong-shape", "q32.pgm"),
                                        ("overflow", f"h{t}.svdf")):
                            add(f"{base}/detect-reference/{what}", "detect-reference", *run,
                                "--reference", r)
                        add(f"{base}/extract-hash/semi", "extract-hash", *run,
                            "--id", ID, "--out", f"e-{n}.svdf")
            pgm_out = f"{t}/{ext}/embed/pgm-out"
            add(f"{pgm_out}/embed", "embed", "--cover", cover, "--watermark", wm,
                "--out", f"{_name(pgm_out)}.pgm", "--key", f"{_name(pgm_out)}.svdk")
            add(f"{pgm_out}/extract", "extract", "--marked", f"{_name(pgm_out)}.pgm",
                "--key", f"{_name(pgm_out)}.svdk", "--out", f"x-{_name(pgm_out)}.svdf")
        # A keyed embed at an alpha whose float recovery cannot round back.
        tiny = f"{t}/svdf/embed-hash/a=1e-13"
        marked, key = (f"{x}-{_name(tiny)}.{e}" for x, e in (("m", "svdf"), ("k", "svdk")))
        add(f"{tiny}/embed", "embed-hash", "--cover", f"c{t}.svdf", "--watermark", wm,
            "--id", ID, "--alpha", "1e-13", "--out", marked, "--key", key)
        add(f"{tiny}/verify-hash", "verify-hash", "--marked", marked, "--key", key,
            "--id", ID, "--claimed", wm)
        add(f"{t}/metrics/overflow", "metrics", "--a", f"h{t}.svdf", "--b", cw)
        add(f"{t}/metrics/constant-0.1", "metrics", "--a", f"z{t}.svdf", "--b", cw)
        # Every reader of the all-1e308 image overflows its recovery.
        semi, keyed = (f"k-{_name(f'{t}/pgm/{e}/a=0.1')}.svdk" for e in ("embed", "embed-hash"))
        ovf, n = ["--marked", f"h{t}.svdf"], _name(f"{t}/overflow-marked")
        for what, argv in (
                ("extract", ["extract", "--key", semi, "--out", f"x-{n}.svdf"]),
                ("extract-hash", ["extract-hash", "--key", keyed, "--id", ID,
                                  "--out", f"e-{n}.svdf"]),
                ("verify-hash", ["verify-hash", "--key", keyed, "--id", ID, "--claimed", wm]),
                ("detect-reference", ["detect-reference", "--key", semi, "--reference", wm,
                                      "--out", f"p-{n}.svdf"])):
            add(f"{t}/overflow-marked/{what}", *argv, *ovf)
        for resize in ([], ["--resize-watermark"]):
            label = f"{t}/embed/small-watermark{''.join(resize)}"
            add(label, "embed", "--cover", cw, "--watermark", "wsmall.pgm", *resize,
                "--out", f"{_name(label)}.svdf", "--key", f"{_name(label)}.svdk")

        sweep = ["sweep", "--cover", cw, "--watermark", wm]
        four = "gaussian-noise:sigma=1:seed=7,quantize-8bit,crop:rect=0;0;8;8,rescale:scale=0.5"
        for what, alphas_arg, attacks, extra, env in (
                ("attacks", "0.05,0.1", four, [], None),
                ("grid", ",".join(f"{0.05 * k:.2f}" for k in range(1, 11)), four, [], None),
                ("tiny-alpha-first", "5e-324,0.1,0.2,0.3", "quantize-8bit", [], None),
                ("tiny-alpha-last", "0.1,0.2,0.3,5e-324", "quantize-8bit", [], None),
                ("rescale-1.7", "0.1", "rescale:scale=1.7", [], None),
                ("bad-alphas", "0.1,0", "quantize-8bit", [], None),
                ("overflow-alpha", "0.1,1e155", "quantize-8bit", [], None),
                ("default-seed", "0.1", "gaussian-noise:sigma=1", ["--seed", "3"], None),
                ("env-seed", "0.1", "gaussian-noise:sigma=1", ["--seed", "3"], "5"),
                ("negative-seed", "0.1", "gaussian-noise:sigma=1:seed=-3", [], None)):
            label = f"{t}/sweep/{what}"
            add(label, *sweep, "--alphas", alphas_arg, "--attacks", attacks, *extra,
                "--out", f"{_name(label)}.csv", env=env)
        add(f"{t}/sweep/overflow-cover", "sweep", "--cover", f"h{t}.svdf", "--watermark", wm,
            "--alphas", "0.1", "--attacks", "quantize-8bit", "--out", f"{_name(t)}-ovf.csv")
        # Over several alphas the two SVDs may run on two threads.
        for what, pair in (("cover", [f"h{t}.svdf", wm]), ("watermark", [cw, f"h{t}.svdf"])):
            label = f"{t}/sweep/overflow-{what}-grid"
            add(label, "sweep", "--cover", pair[0], "--watermark", pair[1], "--alphas",
                "0.1,0.2,0.3", "--attacks", "quantize-8bit", "--out", f"{_name(label)}.csv")
        add(f"{t}/sweep/constant-watermark", "sweep", "--cover", cw, "--watermark", f"k{t}.pgm",
            "--alphas", "0.1,0.2,0.3", "--attacks", four, "--out", f"{_name(t)}-const.csv")

        attack = ["attack", "--input", f"c{t}.svdf"]
        for what, args, env in (
                ("rescale", ["--kind", "rescale", "--scale", "0.5"], None),
                ("noise", ["--kind", "gaussian-noise", "--sigma", "1", "--seed", "4"], None),
                ("crop", ["--kind", "crop", "--rect", "0", "0", "4", "4"], None),
                ("quantize", ["--kind", "quantize-8bit"], None),
                ("negative-seed", ["--kind", "gaussian-noise", "--sigma", "1",
                                   "--seed", "-1"], None),
                ("negative-seed-env", ["--kind", "gaussian-noise", "--sigma", "1"], "-1")):
            label = f"{t}/attack/{what}"
            add(label, *attack, "--output", f"{_name(label)}.svdf", *args, env=env)
        label = f"{t}/attack/quantize-below-zero"
        add(label, "attack", "--input", f"q{t}.svdf", "--output", f"{_name(label)}.svdf",
            "--kind", "quantize-8bit")

        for strategy in STRATEGIES:
            for embed in ("embed", "embed-hash"):
                ident = ["--id", ID] if embed == "embed-hash" else []
                extract = "extract-hash" if ident else "extract"
                base = f"{t}/colour/{strategy}/{embed}"
                n = _name(base)
                add(f"{base}/embed", embed, "--cover", f"col{t}.ppm", "--watermark", wm,
                    *ident, "--strategy", strategy, "--out", f"m-{n}.ppm",
                    "--key", f"k-{n}.svdk")
                run = ["--marked", f"m-{n}.ppm", "--key", f"k-{n}.svdk", *ident]
                add(f"{base}/{extract}", extract, *run, "--out", f"x-{n}.svdf")
                add(f"{base}/{extract}/strategy", extract, *run, "--strategy", strategy,
                    "--out", f"s-{n}.svdf")
                other = STRATEGIES[(STRATEGIES.index(strategy) + 1) % 3]
                add(f"{base}/{extract}/wrong-strategy", extract, *run, "--strategy", other,
                    "--out", f"o-{n}.svdf")
                add(f"{base}/{extract}/bundle-as-single", extract, "--marked", cw,
                    "--key", f"k-{n}.svdk", *ident, "--out", f"b-{n}.svdf")
                if ident:
                    for who, i in (("right", ID), ("wrong", WRONG_ID)):
                        add(f"{base}/verify-hash/{who}-id", "verify-hash", *run[:4],
                            "--id", i, "--claimed", wm)
                else:
                    for what, r in (("watermark", wm), ("unrelated", ref)):
                        add(f"{base}/detect-reference/{what}", "detect-reference", *run,
                            "--reference", r, "--out", f"p-{what}-{n}.svdf")
        upper = _name(f"{t}/colour/upper-case")
        add(f"{t}/colour/upper-case/embed", "embed", "--cover", f"col{t}.PPM", "--watermark", wm,
            "--out", f"m-{upper}.PPM", "--key", f"k-{upper}.svdk")
        add(f"{t}/colour/upper-case/extract", "extract", "--marked", f"m-{upper}.PPM",
            "--key", f"k-{upper}.svdk", "--out", f"x-{upper}.SVDF")
        single, keyed = (_name(f"{t}/pgm/{e}/a=0.1") for e in ("embed", "embed-hash"))
        add(f"{t}/colour/single-as-bundle", "extract", "--marked", f"col{t}.ppm",
            "--key", f"k-{single}.svdk", "--out", f"{_name(t)}-sab.svdf")
        # The other readers refuse a key of the wrong kind as extract does.
        blue = {e: _name(f"{t}/colour/blue/{e}") for e in ("embed", "embed-hash")}
        for command, e, n, extra in (
                ("verify-hash", "embed-hash", keyed, ["--id", ID, "--claimed", wm]),
                ("detect-reference", "embed", single, ["--reference", wm])):
            add(f"{t}/colour/{command}/bundle-as-single", command, "--marked", cw,
                "--key", f"k-{blue[e]}.svdk", *extra)
            add(f"{t}/colour/{command}/single-as-bundle", command, "--marked", f"col{t}.ppm",
                "--key", f"k-{n}.svdk", *extra)
        add(f"{t}/verify-hash/threshold-1.5", "verify-hash", "--marked", f"m-{keyed}.svdf",
            "--key", f"k-{keyed}.svdk", "--id", ID, "--claimed", wm, "--threshold", "1.5")

        add(f"{t}/embed/out-nodir", "embed", "--cover", cw, "--watermark", wm,
            "--out", "nodir/m.svdf", "--key", f"{_name(t)}-nodir.svdk")
        add(f"{t}/embed/key-nodir", "embed", "--cover", cw, "--watermark", wm,
            "--out", f"{_name(t)}-nodir.svdf", "--key", "nodir/k.svdk")
        add(f"{t}/sweep/out-nodir", *sweep, "--alphas", "0.1", "--attacks", "quantize-8bit",
            "--out", "nodir/r.csv")
    return shapes, cmds


def _changes(state, argv):
    """The files written or removed since the last call, by name, with
    the digest of each written one; ``state`` holds what was seen then.
    A file is hashed when its stat changed or ``argv`` names it, since a
    rewrite can keep its size and timestamp."""
    changes = {}
    seen = {e.name: e.stat() for e in os.scandir(".") if e.is_file()}
    for name in state.keys() - seen.keys():
        changes[name] = None
        del state[name]
    for name, st in seen.items():
        key = (st.st_mtime_ns, st.st_size, st.st_ino)
        if name in state and state[name][0] == key and name not in argv:
            continue
        digest = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        if state.get(name, (None, None))[1] != digest:
            changes[name] = digest
        state[name] = (key, digest)
    return changes


def _worker(tree, workdir, quick):
    """Run the matrix with ``tree``'s CLI in ``workdir``; print the transcript."""
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    import svdmark
    from svdmark.cli import cli_main
    if not Path(svdmark.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"svdmark was imported from {svdmark.__file__}, not {src}")
    os.chdir(workdir)
    shapes, cmds = _matrix(quick)
    _write_inputs(shapes)
    warnings.simplefilter("always")  # each command prints its own warnings
    # By category and message: a warning's location names the tree's own
    # path and source line, which differ between any two checkouts.
    warnings.showwarning = lambda message, category, *_: print(
        f"{category.__name__}: {message}", file=sys.stderr)
    state, records = {}, []
    _changes(state, ())
    for label, argv, env in cmds:
        if env is None:
            os.environ.pop("SVDMARK_SEED", None)
        else:
            os.environ["SVDMARK_SEED"] = env
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except Exception as exc:  # an escaped exception is a result too
                code = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        records.append({"label": label, "argv": argv, "env": env, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "files": _changes(state, argv)})
    json.dump(records, sys.stdout)


def _run_tree(tree, workdir, quick):
    env = {k: v for k, v in os.environ.items() if k not in ("SVDMARK_SEED", "PYTHONPATH")}
    os.makedirs(workdir)
    proc = subprocess.run([sys.executable, __file__, "--worker", tree, workdir,
                           *(["--quick"] if quick else [])],
                          capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"{tree}: the command matrix did not run\n{proc.stderr}")
    return json.loads(proc.stdout)


def _differences(a, b):
    """Lines describing how record ``b`` differs from record ``a``."""
    lines = []
    for field in ("code", "stdout", "stderr"):
        if a[field] != b[field]:
            lines.append(f"  {field}: {a[field]!r}")
            lines.append(f"  {' ' * len(field)}  {b[field]!r}")
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name, "absent") != b["files"].get(name, "absent"):
            lines.append(f"  file {name}: {a['files'].get(name, 'absent')} "
                         f"-> {b['files'].get(name, 'absent')}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("child")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                        help="accept differences in commands whose label matches GLOB")
    parser.add_argument("--quick", action="store_true", help="run the reduced matrix")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker(args.parent, args.child, args.quick)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        parent, child = (_run_tree(tree, os.path.join(tmp, side), args.quick)
                         for tree, side in ((args.parent, "parent"), (args.child, "child")))
    expected = unexpected = 0
    for a, b in zip(parent, child):
        lines = _differences(a, b)
        if not lines:
            continue
        accepted = any(fnmatch.fnmatchcase(a["label"], g) for g in args.expect_diff)
        expected += accepted
        unexpected += not accepted
        print(f"{'expected' if accepted else 'UNEXPECTED'} difference: {a['label']}")
        print(f"  $ {' '.join(a['argv'])}" + (f"  [SVDMARK_SEED={a['env']}]" if a["env"] else ""))
        print("\n".join(lines))
    print(f"{len(parent)} commands: {expected + unexpected} differ "
          f"({expected} expected, {unexpected} unexpected)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
