"""Channel strategies for watermarking three-channel images.

Either mono-channel scheme can be applied to a color image three ways:
on the luminance plane ``L = max(R,G,B) + min(R,G,B)``, on the blue
channel alone, or on each channel individually.  Luminance write-back
shifts all three channels uniformly by ``(L' - L) / 2``, which inverts
the forward formula exactly; only ``write_ppm`` clips, as it writes bytes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import invisible, semiblind
from .errors import DimensionError, MalformedSideInfo
from .matrix import _trusted, as_matrix
from .semiblind import DEFAULT_ALPHA, SideInfo


class ChannelStrategy(str, Enum):
    LUMINANCE = "luminance"
    BLUE_CHANNEL = "blue"
    PER_CHANNEL = "perchannel"


@dataclass
class RgbImage:
    """Three same-shaped float planes; 0..255 is enforced only at file
    boundaries, working values may exceed it."""

    r: np.ndarray
    g: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.r = as_matrix(self.r, "r")
        self.g = as_matrix(self.g, "g")
        self.b = as_matrix(self.b, "b")
        if self.r.shape != self.g.shape or self.g.shape != self.b.shape:
            raise DimensionError("channel planes must share one shape")

    @property
    def rows(self):
        return self.r.shape[0]

    @property
    def cols(self):
        return self.r.shape[1]

    def channels(self):
        return self.r, self.g, self.b


@dataclass
class SideInfoBundle:
    """Per-plane side info: one record for single-plane strategies,
    three (r, g, b order) for per-channel embedding.  The records share
    one scheme, alpha, quant, shape and ``v_w``: checked when a caller builds
    one, given by construction when an embed or a key load does."""

    strategy: ChannelStrategy
    infos: tuple[SideInfo, ...]

    def __post_init__(self):
        self.strategy = ChannelStrategy(self.strategy)
        self.infos = tuple(self.infos)
        expected = 3 if self.strategy is ChannelStrategy.PER_CHANNEL else 1
        if len(self.infos) != expected:
            raise MalformedSideInfo(
                f"{self.strategy.value} bundle needs {expected} side info "
                f"record(s), got {len(self.infos)}"
            )
        first, *rest = self.infos
        shared = ("scheme", "alpha", "quant", "rows", "cols")
        if any(any(getattr(i, k) != getattr(first, k) for k in shared)
               or not np.array_equal(i.v_w, first.v_w) for i in rest):
            raise MalformedSideInfo("bundle records must share scheme, alpha, quant, shape and v_w")


def luminance_split(img):
    """Per-pixel luminance plane ``L = max(R,G,B) + min(R,G,B)``, in [0, 510]."""
    stack = np.stack(img.channels())
    return stack.max(axis=0) + stack.min(axis=0)


def luminance_merge(img, l_new):
    """Write a new luminance plane back into ``img``.

    Every channel is shifted by ``(L' - L) / 2``, so the new pixel
    satisfies ``max' + min' = L'`` exactly.  The result is not clipped
    and may leave 0..255; ``write_ppm`` clips when it writes bytes.
    """
    l_new = as_matrix(l_new, "l_new")
    if l_new.shape != img.r.shape:
        raise DimensionError(f"luminance plane {l_new.shape} does not match image")
    delta = (l_new - luminance_split(img)) / 2.0
    return RgbImage(r=img.r + delta, g=img.g + delta, b=img.b + delta)


def embed_color(img, w, strategy, scheme, alpha=DEFAULT_ALPHA, identity=None):
    """Embed a mono-channel watermark into a color image.

    Returns ``(marked_image, bundle)``.  ``identity`` is required for the
    hash-code scheme and must be omitted for semi-blind.  The watermark is
    split once and shared by every marked plane.
    """
    strategy = ChannelStrategy(strategy)
    marked, infos = semiblind._embed_planes(_planes(img, strategy), w, scheme, alpha, identity)
    return (_with_planes(img, strategy, marked),
            _trusted(SideInfoBundle, strategy=strategy, infos=tuple(infos)))


def extract_color(img, bundle, strategy, identity=None):
    """Extract the watermark from a marked color image.

    Per-channel bundles yield the average of the three per-plane
    estimates; single-plane strategies extract from their plane directly.
    """
    masks = invisible._masks(identity)
    return _recover(img, bundle.infos, bundle.strategy, strategy,
                    lambda plane, info: invisible._extract_plane(plane, info, masks))


def _recover(img, infos, made_with, strategy, recover):
    """``recover(plane, info)`` on each plane the key marks, the three of
    ``perchannel`` averaged."""
    if made_with is not None and made_with is not ChannelStrategy(strategy):
        raise MalformedSideInfo(f"bundle was created with {made_with.value}, "
                                f"not {ChannelStrategy(strategy).value}")
    estimates = [recover(plane, info) for plane, info in zip(_planes(img, made_with), infos)]
    return estimates[0] if len(estimates) == 1 else sum(estimates) / 3.0


def _planes(img, strategy):
    """The planes ``strategy`` marks, in key order; a matrix, with none, is its one plane."""
    if strategy is None:
        return (img,)
    if strategy is ChannelStrategy.LUMINANCE:
        return (luminance_split(img),)
    if strategy is ChannelStrategy.BLUE_CHANNEL:
        return (img.b,)
    return img.channels()


def _with_planes(img, strategy, marked):
    """``img`` with the planes ``_planes(img, strategy)`` replaced by ``marked``."""
    if strategy is ChannelStrategy.LUMINANCE:
        return luminance_merge(img, marked[0])
    if strategy is ChannelStrategy.BLUE_CHANNEL:
        return RgbImage(r=img.r, g=img.g, b=marked[0])
    return marked[0] if strategy is None else RgbImage(*marked)
