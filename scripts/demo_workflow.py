#!/usr/bin/env python3
"""End-to-end demo driven through the CLI.

Generates a smooth synthetic cover, a textured watermark, and an
unrelated reference image, then runs the full workflow: embed the
watermark, measure marked-image fidelity, extract the watermark back,
and attempt reference detection with both the true watermark and the
unrelated image.  Finishes with the keyed scheme: embed with an id,
extract, verify with the right and a wrong id, embed and extract on each
channel of a colour (PPM) cover, and a short robustness sweep.  Any
command that fails, or succeeds but writes to stderr, stops the demo, as
does a deliberately bad command that is not refused with exactly its one
expected error line: an option its subcommand does not take, an image
passed as the key, an embed whose key cannot be written and one whose
marked image has no writer, both of which must leave no file behind, and
a reference of the wrong shape for reference detection.

    python scripts/demo_workflow.py [output-dir]
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import svdmark as sm


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "svdmark.cli", *argv],
                          capture_output=True, text=True)
    print(f"$ svdmark {' '.join(argv)}")
    if proc.stdout:
        print(proc.stdout, end="")
    if proc.returncode not in (0, 2) or proc.stderr:
        # Exit codes 0 and 2 (rejected) are results and leave stderr empty.
        print(proc.stderr, end="", file=sys.stderr)
        raise SystemExit(f"command exited with code {proc.returncode}")
    return proc


def cli_error(expected, *argv):
    """Run a command that must fail: exit 1 and one stderr line that
    starts with ``expected``."""
    proc = subprocess.run([sys.executable, "-m", "svdmark.cli", *argv],
                          capture_output=True, text=True)
    print(f"$ svdmark {' '.join(argv)}")
    print(proc.stderr, end="")
    lines = proc.stderr.splitlines()
    if proc.returncode != 1 or len(lines) != 1 or not lines[0].startswith(expected):
        raise SystemExit(f"expected one {expected!r} line, got code {proc.returncode}")


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)
    p = {name: str(out_dir / name) for name in (
        "cover.pgm", "watermark.pgm", "reference.pgm", "reference_128.pgm",
        "marked.svdf", "marked.pgm", "key.svdk", "extracted.pgm",
        "marked0.svdf", "key0.svdk", "marked.txt", "key_txt.svdk",
        "marked_keyed.svdf", "key_keyed.svdk", "extracted_keyed.svdf",
        "cover.ppm", "marked_keyed.ppm", "key_keyed_ppm.svdk", "extracted_ppm.svdf",
        "sweep.csv")}

    print(f"writing demo images to {out_dir}\n")
    sm.write_pgm(sm.synthetic_image(256, 256, 1001, roughness=2.0, contrast=52.0),
                 p["cover.pgm"])
    sm.write_pgm(sm.synthetic_image(256, 256, 2002, roughness=1.2, contrast=70.0),
                 p["watermark.pgm"])
    sm.write_pgm(sm.synthetic_image(256, 256, 3000, roughness=1.9, contrast=55.0),
                 p["reference.pgm"])
    sm.write_pgm(sm.synthetic_image(128, 128, 3000, roughness=1.9, contrast=55.0),
                 p["reference_128.pgm"])
    sm.write_ppm(sm.synthetic_rgb(256, 256, 4004), p["cover.ppm"])

    print("-- semi-blind scheme --")
    cli("embed", "--cover", p["cover.pgm"], "--watermark", p["watermark.pgm"],
        "--alpha", "0.1", "--out", p["marked.svdf"], "--key", p["key.svdk"])
    # also store an 8-bit rendition for viewing
    sm.write_pgm(sm.read_float_image(p["marked.svdf"]), p["marked.pgm"])
    cli("metrics", "--a", p["cover.pgm"], "--b", p["marked.svdf"])
    print("metrics takes no embedding strength, so --alpha is refused:")
    cli_error("error: usage:",
              "metrics", "--a", p["cover.pgm"], "--b", p["marked.svdf"], "--alpha", "0.1")
    cli("extract", "--marked", p["marked.svdf"], "--key", p["key.svdk"],
        "--out", p["extracted.pgm"])
    cli("metrics", "--a", p["watermark.pgm"], "--b", p["extracted.pgm"])
    print("only SVDK files are keys, so an image passed as --key is refused:")
    cli_error("error: CodecError: not an SVDK key file",
              "extract", "--marked", p["marked.svdf"], "--key", p["cover.pgm"],
              "--out", p["extracted.pgm"])
    print("recovery divides by alpha, so alpha 0 is refused and no file is written:")
    cli_error("error: InvalidParameter",
              "embed", "--cover", p["cover.pgm"], "--watermark", p["watermark.pgm"],
              "--alpha", "0", "--out", p["marked0.svdf"], "--key", p["key0.svdk"])
    print("a grayscale image is written only as .pgm or .svdf, checked before any input is read:")
    cli_error("error: UnsupportedFormat",
              "embed", "--cover", p["cover.pgm"], "--watermark", p["watermark.pgm"],
              "--out", p["marked.txt"], "--key", p["key_txt.svdk"])
    for name in ("marked0.svdf", "key0.svdk", "marked.txt", "key_txt.svdk"):
        if Path(p[name]).exists():
            raise SystemExit(f"a failed embed left {name} behind")
    print("reference detection with the true watermark basis vs an unrelated image:")
    cli("detect-reference", "--marked", p["marked.svdf"], "--key", p["key.svdk"],
        "--reference", p["watermark.pgm"])
    cli("detect-reference", "--marked", p["marked.svdf"], "--key", p["key.svdk"],
        "--reference", p["reference.pgm"])
    print("a reference must have the key's shape, checked before its SVD:")
    cli_error("error: DimensionError",
              "detect-reference", "--marked", p["marked.svdf"], "--key", p["key.svdk"],
              "--reference", p["reference_128.pgm"])

    print("\n-- keyed invisible scheme --")
    cli("embed-hash", "--cover", p["cover.pgm"], "--watermark", p["watermark.pgm"],
        "--id", "alice|8f3a9c", "--alpha", "0.05",
        "--out", p["marked_keyed.svdf"], "--key", p["key_keyed.svdk"])
    cli("extract-hash", "--marked", p["marked_keyed.svdf"], "--key", p["key_keyed.svdk"],
        "--id", "alice|8f3a9c", "--out", p["extracted_keyed.svdf"])
    cli("metrics", "--a", p["watermark.pgm"], "--b", p["extracted_keyed.svdf"])
    right = cli("verify-hash", "--marked", p["marked_keyed.svdf"],
                "--key", p["key_keyed.svdk"], "--id", "alice|8f3a9c",
                "--claimed", p["watermark.pgm"])
    wrong = cli("verify-hash", "--marked", p["marked_keyed.svdf"],
                "--key", p["key_keyed.svdk"], "--id", "mallory|0000",
                "--claimed", p["watermark.pgm"])
    print(f"\nright id exit code: {right.returncode} (0 = verified)")
    print(f"wrong id exit code: {wrong.returncode} (2 = rejected)")

    print("\n-- keyed scheme on each channel of a colour cover --")
    cli("embed-hash", "--cover", p["cover.ppm"], "--watermark", p["watermark.pgm"],
        "--strategy", "perchannel", "--id", "alice|8f3a9c", "--alpha", "0.05",
        "--out", p["marked_keyed.ppm"], "--key", p["key_keyed_ppm.svdk"])
    # The PPM carrier rounds to 8 bits, which the keyed bytes do not survive
    # at this alpha; this part shows the colour commands, not a recovery.
    cli("extract-hash", "--marked", p["marked_keyed.ppm"], "--key", p["key_keyed_ppm.svdk"],
        "--strategy", "perchannel", "--id", "alice|8f3a9c", "--out", p["extracted_ppm.svdf"])

    print("\n-- robustness sweep --")
    cli("sweep", "--cover", p["cover.pgm"], "--watermark", p["watermark.pgm"],
        "--alphas", "0.05,0.1,0.2",
        "--attacks", "gaussian-noise:sigma=2:seed=7,quantize-8bit,crop:rect=32;32;64;64,"
                     "rescale:scale=0.5",
        "--out", p["sweep.csv"])


if __name__ == "__main__":
    main()
