"""Exception types shared across the toolkit.

The CLI reports these by class name, so the names are part of the
stable surface.
"""


class WatermarkError(Exception):
    """Base class for all svdmark errors."""


class InvalidInput(WatermarkError):
    """Input matrix is malformed (wrong rank, empty, NaN/Inf entries)."""


class DimensionError(WatermarkError):
    """Shapes of the operands do not conform."""


class InvalidParameter(WatermarkError):
    """A scalar parameter is out of its documented range."""


class InvalidKey(WatermarkError):
    """Identity key material is missing or empty."""


class MalformedSideInfo(WatermarkError):
    """Side info is inconsistent with the requested operation."""


class CodecError(WatermarkError):
    """File payload is corrupt or truncated."""


class UnsupportedFormat(WatermarkError):
    """File is recognizable but not a format this codec accepts."""


class UnsupportedVersion(WatermarkError):
    """File was written by an incompatible format version."""
