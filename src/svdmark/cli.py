"""Command-line interface.

Exit codes: 0 on success, 1 on usage, I/O or memory errors, 2 when
verification rejects.  Errors are reported on stderr as one line with a
stable code: ``error: <ErrorClass>: <detail>``.  The environment
variable SVDMARK_SEED overrides --seed when set.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import analysis, color, formats, invisible, matrix, semiblind
from .analysis import _ATTACK_PARAMS, AttackKind, AttackSpec, _fixed6
from .errors import WatermarkError
from .hashstream import Identity
from .semiblind import DEFAULT_ALPHA, SchemeTag

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Options are spelled in full, so an option a subcommand lacks cannot
    # pass as a longer one (sweep --alpha for --alphas).
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on bad usage; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="svdmark", description="SVD-based image watermarking toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    for scheme, suffix, kind in ((SchemeTag.SEMI_BLIND, "", "semi-blind"),
                                 (SchemeTag.HASH_CODE, "-hash", "keyed invisible")):
        embed = sub.add_parser("embed" + suffix, help=f"{kind} embed")
        embed.add_argument("--cover", required=True)
        embed.add_argument("--watermark", required=True)
        embed.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                           help="embedding strength (default %(default)s)")
        extract = sub.add_parser("extract" + suffix, help=f"{kind} extract")
        extract.add_argument("--marked", required=True)
        extract.add_argument("--key", required=True)
        for p, run, use in ((embed, _cmd_embed, "to embed with (default blue)"),
                            (extract, _cmd_extract, "the key must have (default: the key's)")):
            if scheme is SchemeTag.HASH_CODE:
                p.add_argument("--id", required=True, dest="identity",
                               type=Identity.from_string)
            p.add_argument("--strategy", choices=[s.value for s in color.ChannelStrategy],
                           help=f"colour images only: the channel strategy {use}")
            p.add_argument("--out", required=True)
            p.set_defaults(run=run, identity=None)
        embed.set_defaults(scheme=scheme)
        embed.add_argument("--key", required=True, help="side-info key file to write")
        embed.add_argument("--resize-watermark", action="store_true",
                           help="nearest-neighbor resize the watermark to the cover size")

    p = sub.add_parser("verify-hash", help="extract with an id and compare to a claimed watermark")
    p.add_argument("--marked", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--id", required=True, dest="identity", type=Identity.from_string)
    p.add_argument("--claimed", required=True)
    p.add_argument("--threshold", type=float, default=invisible.DEFAULT_THRESHOLD)
    p.set_defaults(run=_cmd_verify, strategy=None)

    p = sub.add_parser("detect-reference",
                       help="project recovered components onto a reference basis")
    p.add_argument("--marked", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_detect_reference, strategy=None)

    p = sub.add_parser("metrics", help="PSNR and correlation")
    p.add_argument("--a", required=True, dest="first")
    p.add_argument("--b", required=True, dest="second")
    p.set_defaults(run=_cmd_metrics)

    seed_help = "default seed for stochastic attacks (SVDMARK_SEED overrides)"
    p = sub.add_parser("attack", help="apply one attack to an image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in AttackKind])
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rect", type=int, nargs=4, default=None,
                   metavar=("ROW0", "COL0", "HEIGHT", "WIDTH"))
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.set_defaults(run=_cmd_attack)

    p = sub.add_parser("sweep", help="robustness sweep to CSV")
    p.add_argument("--cover", required=True)
    p.add_argument("--watermark", required=True)
    p.add_argument("--alphas", required=True,
                   help="comma-separated embedding strengths, e.g. 0.05,0.1")
    p.add_argument("--attacks", required=True,
                   help="comma-separated attack specs, e.g. "
                        "'gaussian-noise:sigma=2:seed=7,quantize-8bit'")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help=seed_help)
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
        if key not in ("sigma", "rect", "scale", "seed"):
            raise _UsageError(f"unknown attack parameter {key!r} in {text!r}")
        fields[key] = value
    try:
        if kind is AttackKind.CROP and "rect" in fields:
            fields["rect"] = tuple(int(x) for x in fields["rect"].split(";"))
        for name, parse in (("sigma", float), ("scale", float), ("seed", int)):
            if name in fields:
                fields[name] = parse(fields[name])
    except ValueError as exc:
        raise _UsageError(f"malformed attack spec {text!r}: {exc}")
    return _attack_spec(kind, fields, default_seed)


def _attack_spec(kind, fields, default_seed):
    """``AttackSpec(kind, **fields)``; a stochastic kind given no seed takes ``default_seed``."""
    if "seed" in _ATTACK_PARAMS[kind]:
        fields.setdefault("seed", default_seed)
    return AttackSpec(kind=kind, **fields)


def _image(path, strategy, default=None):
    """Image ``path``'s carrier and reader, by its extension, and its strategy:
    ``strategy`` or ``default`` on a colour image; any other is a matrix, with none."""
    _, carrier, read, _ = formats._carrier(path)
    if carrier == "colour image":
        strategy = strategy or default
        return carrier, read, strategy and color.ChannelStrategy(strategy)
    if strategy is not None:
        ext = "/".join(e for e, (c, *_) in formats._CARRIERS.items() if c == "colour image")
        raise _UsageError(f"--strategy applies only to colour ({ext}) images")
    return "matrix", formats.load_matrix, None


def _cmd_embed(args):
    if os.path.realpath(args.out) == os.path.realpath(args.key):
        raise _UsageError("--out and --key name the same file")
    carrier, read, strategy = _image(args.cover, args.strategy, "blue")
    write_marked = formats._image_writer(args.out, carrier)
    img = read(args.cover)
    planes = color._planes(img, strategy)
    w = formats.load_matrix(args.watermark)
    if args.resize_watermark and w.shape != planes[0].shape:
        w = analysis.resize_nearest(w, *planes[0].shape)
    marked, infos = semiblind._embed_planes(planes, w, args.scheme, args.alpha, args.identity)
    write_marked(color._with_planes(img, strategy, marked), args.out)
    try:
        formats._write_key(args.key, infos, strategy)
    except BaseException:
        os.unlink(args.out)  # a marked image without its key cannot be read back
        raise
    print(f"marked={args.out} key={args.key}")
    return EXIT_OK


def _recover(args, recover):
    """``color._recover`` of ``--marked`` and ``--key``, each read once, by kind."""
    carrier, read, strategy = _image(args.marked, args.strategy)
    made_with, infos = formats._read_key(args.key, carrier == "colour image")
    return color._recover(read(args.marked), infos, made_with, strategy or made_with, recover)


def _cmd_extract(args):
    write_out = formats._image_writer(args.out)
    masks = invisible._masks(args.identity)  # one mask for every plane
    w_star = _recover(args, lambda m, info: invisible._extract_plane(m, info, masks))
    write_out(w_star, args.out)
    print(f"extracted={args.out}")
    return EXIT_OK


def _cmd_verify(args):
    masks = invisible._masks(args.identity)
    w_star = _recover(args, lambda m, info: invisible._extract_keyed(m, info, masks))
    report = invisible._judge(w_star, formats.load_matrix(args.claimed), args.threshold)
    print(f"nc={_fixed6(report.nc_score)} threshold={report.threshold:.6f} "
          f"decision={report.decision.value}")
    return EXIT_OK if report.decision is invisible.Verdict.VERIFIED else EXIT_REJECTED


def _cmd_detect_reference(args):
    write_out = formats._image_writer(args.out) if args.out else None
    reference = formats.load_matrix(args.reference)
    basis = functools.cache(lambda: matrix.svd(reference).v)
    p_star = _recover(args, lambda m, info: semiblind._detect_reference(m, info, reference, basis))
    if write_out:
        write_out(p_star, args.out)
    print(f"nc={_fixed6(analysis.normalized_correlation(p_star, reference))}")
    return EXIT_OK


def _cmd_metrics(args):
    a = formats.load_matrix(args.first)
    b = formats.load_matrix(args.second)
    print(f"psnr_db={_fixed6(analysis.psnr(a, b))}")
    print(f"nc={_fixed6(analysis.normalized_correlation(a, b))}")
    return EXIT_OK


def _cmd_attack(args):
    fields = {"sigma": args.sigma, "rect": args.rect, "scale": args.scale}
    spec = _attack_spec(AttackKind(args.kind), fields, _resolve_seed(args.seed))
    write_out = formats._image_writer(args.output)
    write_out(analysis.apply_attack(formats.load_matrix(args.input), spec), args.output)
    print(f"attacked={args.output}")
    return EXIT_OK


def _cmd_sweep(args):
    try:
        alphas = [float(x) for x in args.alphas.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"malformed --alphas: {exc}")
    seed = _resolve_seed(args.seed)
    attacks = [_parse_attack(text, seed) for text in args.attacks.split(",") if text]
    cover = formats.load_matrix(args.cover)
    watermark = formats.load_matrix(args.watermark)
    report = analysis.robustness_sweep(cover, watermark, alphas, attacks)
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
    except (OSError, MemoryError) as exc:  # numpy's MemoryError is _ArrayMemoryError
        kind = "IOError" if isinstance(exc, OSError) else "MemoryError"
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
