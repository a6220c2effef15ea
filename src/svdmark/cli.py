"""Command-line interface.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when verification
rejects.  Library errors are reported on stderr as one line with a
stable code: ``error: <ErrorClass>: <detail>``.  The environment
variable SVDMARK_SEED overrides --seed when set.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, color, formats, invisible, semiblind
from .analysis import AttackKind, AttackSpec, _fixed6
from .errors import WatermarkError
from .hashstream import Identity
from .matrix import svd
from .semiblind import DEFAULT_ALPHA, SchemeTag

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="embedding strength (default %(default)s)")
    common.add_argument("--strategy", choices=[s.value for s in color.ChannelStrategy],
                        default=color.ChannelStrategy.BLUE_CHANNEL.value,
                        help="channel strategy for color images (default %(default)s)")
    common.add_argument("--seed", type=int, default=None,
                        help="default seed for stochastic attacks "
                             "(SVDMARK_SEED overrides)")

    parser = _Parser(prog="svdmark", description="SVD-based image watermarking toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    for scheme, suffix, kind in ((SchemeTag.SEMI_BLIND, "", "semi-blind"),
                                 (SchemeTag.HASH_CODE, "-hash", "keyed invisible")):
        embed = sub.add_parser("embed" + suffix, parents=[common], help=f"{kind} embed")
        embed.add_argument("--cover", required=True)
        embed.add_argument("--watermark", required=True)
        extract = sub.add_parser("extract" + suffix, parents=[common], help=f"{kind} extract")
        extract.add_argument("--marked", required=True)
        extract.add_argument("--key", required=True)
        for p, run in ((embed, _cmd_embed), (extract, _cmd_extract)):
            if scheme is SchemeTag.HASH_CODE:
                p.add_argument("--id", required=True, dest="identity")
            p.add_argument("--out", required=True)
            p.set_defaults(run=run, identity=None)
        embed.set_defaults(scheme=scheme)
        embed.add_argument("--key", required=True, help="side-info key file to write")
        embed.add_argument("--resize-watermark", action="store_true",
                           help="nearest-neighbor resize the watermark to the cover size")

    p = sub.add_parser("verify-hash", parents=[common],
                       help="extract with an id and compare to a claimed watermark")
    p.add_argument("--marked", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--id", required=True, dest="identity")
    p.add_argument("--claimed", required=True)
    p.add_argument("--threshold", type=float, default=invisible.DEFAULT_THRESHOLD)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("detect-reference", parents=[common],
                       help="project recovered components onto a reference basis")
    p.add_argument("--marked", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_detect_reference)

    p = sub.add_parser("metrics", parents=[common], help="PSNR and correlation")
    p.add_argument("--a", required=True, dest="first")
    p.add_argument("--b", required=True, dest="second")
    p.set_defaults(run=_cmd_metrics)

    p = sub.add_parser("attack", parents=[common], help="apply one attack to an image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in AttackKind])
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rect", type=int, nargs=4, default=None,
                   metavar=("ROW0", "COL0", "HEIGHT", "WIDTH"))
    p.add_argument("--scale", type=float, default=None)
    p.set_defaults(run=_cmd_attack)

    p = sub.add_parser("sweep", parents=[common], help="robustness sweep to CSV")
    p.add_argument("--cover", required=True)
    p.add_argument("--watermark", required=True)
    p.add_argument("--alphas", required=True,
                   help="comma-separated embedding strengths, e.g. 0.05,0.1")
    p.add_argument("--attacks", required=True,
                   help="comma-separated attack specs, e.g. "
                        "'gaussian-noise:sigma=2:seed=7,quantize-8bit'")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_sweep)

    return parser


def _resolve_seed(args_seed):
    env = os.environ.get("SVDMARK_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"SVDMARK_SEED must be an integer, got {env!r}")
    return args_seed


def _parse_attack(text, default_seed):
    parts = text.split(":")
    try:
        kind = AttackKind(parts[0])
    except ValueError:
        raise _UsageError(f"unknown attack kind {parts[0]!r}")
    fields = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if not value:
            raise _UsageError(f"malformed attack parameter {part!r}")
        fields[key] = value
    try:
        if kind is AttackKind.CROP and "rect" in fields:
            rect = tuple(int(x) for x in fields.pop("rect").split(";"))
            fields["rect"] = rect
        for name in ("sigma", "scale"):
            if name in fields:
                fields[name] = float(fields[name])
        if "seed" in fields:
            fields["seed"] = int(fields["seed"])
        elif default_seed is not None:
            fields["seed"] = default_seed
    except ValueError as exc:
        raise _UsageError(f"malformed attack spec {text!r}: {exc}")
    return AttackSpec(kind=kind, **fields)


def _is_color(path):
    return os.path.splitext(path)[1].lower() == ".ppm"


def _load_watermark(path, rows, cols, resize):
    w = formats.load_matrix(path)
    if resize and w.shape != (rows, cols):
        w = analysis.resize_nearest(w, rows, cols)
    return w


def _cmd_embed(args):
    identity = None if args.identity is None else Identity.from_string(args.identity)
    if _is_color(args.cover):
        img = formats.read_ppm(args.cover)
        w = _load_watermark(args.watermark, img.rows, img.cols, args.resize_watermark)
        marked, bundle = color.embed_color(
            img, w, args.strategy, args.scheme, alpha=args.alpha, identity=identity
        )
        formats.write_ppm(marked, args.out)
        formats.save_bundle(bundle, args.key)
    else:
        cover = formats.load_matrix(args.cover)
        w = _load_watermark(args.watermark, *cover.shape, args.resize_watermark)
        (marked,), (info,) = invisible._embed_planes([cover], w, args.scheme, args.alpha,
                                                     identity)
        formats.save_matrix(marked, args.out)
        formats.save_sideinfo(info, args.key)
    print(f"marked={args.out} key={args.key}")
    return EXIT_OK


def _cmd_extract(args):
    identity = None if args.identity is None else Identity.from_string(args.identity)
    if _is_color(args.marked):
        bundle = formats.load_bundle(args.key)
        img = formats.read_ppm(args.marked)
        w_star = color.extract_color(img, bundle, bundle.strategy, identity=identity)
    else:
        info = formats.load_sideinfo(args.key)
        w_star = invisible._extract_plane(formats.load_matrix(args.marked), info, identity)
    formats.save_matrix(w_star, args.out)
    print(f"extracted={args.out}")
    return EXIT_OK


def _cmd_verify(args):
    info = formats.load_sideinfo(args.key)
    marked = formats.load_matrix(args.marked)
    claimed = formats.load_matrix(args.claimed)
    report = invisible.verify_invisible(
        marked, info, Identity.from_string(args.identity), claimed, args.threshold
    )
    print(f"nc={_fixed6(report.nc_score)} threshold={report.threshold:.6f} "
          f"decision={report.decision.value}")
    return EXIT_OK if report.decision is invisible.Verdict.VERIFIED else EXIT_REJECTED


def _cmd_detect_reference(args):
    info = formats.load_sideinfo(args.key)
    marked = formats.load_matrix(args.marked)
    reference = formats.load_matrix(args.reference)
    semiblind._require_scheme(info, SchemeTag.SEMI_BLIND)
    a_wa_star = semiblind.recover_principal_components(marked, info)
    p_star = semiblind.detect_reference(a_wa_star, svd(reference).v)
    if args.out:
        formats.save_matrix(p_star, args.out)
    nc = analysis.normalized_correlation(p_star, reference)
    print(f"nc={_fixed6(nc)}")
    return EXIT_OK


def _cmd_metrics(args):
    a = formats.load_matrix(args.first)
    b = formats.load_matrix(args.second)
    print(f"psnr_db={_fixed6(analysis.psnr(a, b))}")
    print(f"nc={_fixed6(analysis.normalized_correlation(a, b))}")
    return EXIT_OK


def _cmd_attack(args):
    spec = AttackSpec(
        kind=AttackKind(args.kind),
        sigma=args.sigma,
        rect=tuple(args.rect) if args.rect else None,
        scale=args.scale,
        seed=_resolve_seed(args.seed),
    )
    formats.save_matrix(analysis.apply_attack(formats.load_matrix(args.input), spec),
                        args.output)
    print(f"attacked={args.output}")
    return EXIT_OK


def _cmd_sweep(args):
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"malformed --alphas: {exc}")
    seed = _resolve_seed(args.seed)
    attacks = [_parse_attack(text, seed) for text in args.attacks.split(",") if text]
    report = analysis.robustness_sweep(
        formats.load_matrix(args.cover), formats.load_matrix(args.watermark),
        alphas, attacks,
    )
    formats._atomic_write(args.out, report.to_csv().encode("ascii"))
    print(f"report={args.out} rows={len(report.rows)}")
    return EXIT_OK


def cli_main(argv=None):
    # Untrusted keys and images can overflow intermediate products.  A check
    # downstream rejects the result with one error line, which numpy's
    # RuntimeWarnings would otherwise precede on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        return _run(argv)


def _run(argv):
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_ERROR
        return args.run(args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except WatermarkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
