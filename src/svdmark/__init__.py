"""svdmark: SVD-based semi-blind and keyed invisible image watermarking.

The semi-blind scheme embeds the watermark's principal components into
the cover's singular values; detection needs only the side info captured
at embed time.  The keyed scheme additionally XORs the quantized payload
with a hash-derived byte mask so that extraction requires the secret
identity.  Color images are handled through luminance, blue-channel, or
per-channel strategies.
"""

from .analysis import (
    AttackKind,
    AttackSpec,
    RobustnessReport,
    SweepRow,
    apply_attack,
    normalized_correlation,
    psnr,
    resize_bilinear,
    resize_nearest,
    robustness_sweep,
)
from .color import (
    ChannelStrategy,
    RgbImage,
    SideInfoBundle,
    embed_color,
    extract_color,
    luminance_merge,
    luminance_split,
)
from .errors import (
    CodecError,
    DimensionError,
    InvalidInput,
    InvalidKey,
    InvalidParameter,
    MalformedSideInfo,
    UnsupportedFormat,
    UnsupportedVersion,
    WatermarkError,
)
from .formats import (
    load_bundle,
    load_matrix,
    load_sideinfo,
    read_float_image,
    read_pgm,
    read_ppm,
    save_bundle,
    save_matrix,
    save_sideinfo,
    write_float_image,
    write_pgm,
    write_ppm,
)
from .hashstream import (
    Identity,
    QuantParams,
    dequantize,
    derive_mask,
    quantize,
    xor_mask,
)
from .images import synthetic_image, synthetic_rgb
from .invisible import (
    DEFAULT_THRESHOLD,
    VerificationReport,
    Verdict,
    embed_invisible,
    extract_invisible,
    recover_masked_bytes,
    verify_invisible,
)
from .matrix import SvdFactors, orthogonality_residual, svd
from .semiblind import (
    DEFAULT_ALPHA,
    SchemeTag,
    SideInfo,
    detect_reference,
    embed,
    extract,
    recover_principal_components,
    split_watermark,
)

__version__ = "0.1.0"

__all__ = [
    "AttackKind", "AttackSpec", "ChannelStrategy", "CodecError", "DEFAULT_ALPHA",
    "DEFAULT_THRESHOLD", "DimensionError", "Identity",
    "InvalidInput", "InvalidKey", "InvalidParameter", "MalformedSideInfo",
    "QuantParams", "RgbImage", "RobustnessReport", "SchemeTag", "SideInfo",
    "SideInfoBundle", "SvdFactors", "SweepRow", "UnsupportedFormat",
    "UnsupportedVersion", "VerificationReport", "Verdict", "WatermarkError",
    "apply_attack", "dequantize", "derive_mask", "detect_reference", "embed",
    "embed_color", "embed_invisible", "extract", "extract_color",
    "extract_invisible", "load_bundle", "load_matrix", "load_sideinfo",
    "luminance_merge", "luminance_split", "normalized_correlation",
    "orthogonality_residual", "psnr", "quantize", "read_float_image", "read_pgm",
    "read_ppm", "recover_masked_bytes",
    "recover_principal_components", "resize_bilinear", "resize_nearest",
    "robustness_sweep", "save_bundle", "save_matrix", "save_sideinfo",
    "split_watermark", "svd", "synthetic_image", "synthetic_rgb",
    "verify_invisible", "write_float_image", "write_pgm", "write_ppm",
    "xor_mask",
]
