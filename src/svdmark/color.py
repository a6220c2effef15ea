"""Channel strategies for watermarking three-channel images.

Either mono-channel scheme can be applied to a color image three ways:
on the luminance plane ``L = max(R,G,B) + min(R,G,B)``, on the blue
channel alone, or on each channel individually.  Luminance write-back
shifts all three channels uniformly by ``(L' - L) / 2``, which inverts
the forward formula exactly before clipping.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import invisible
from .errors import DimensionError, MalformedSideInfo
from .matrix import as_matrix
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
    three (r, g, b order) for per-channel embedding."""

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


def luminance_split(img):
    """Per-pixel luminance plane ``L = max(R,G,B) + min(R,G,B)``, in [0, 510]."""
    stack = np.stack(img.channels())
    return stack.max(axis=0) + stack.min(axis=0)


def luminance_merge(img, l_new):
    """Write a new luminance plane back into ``img``.

    Every channel is shifted by ``(L' - L) / 2``, so prior to clipping
    the new pixel satisfies ``max' + min' = L'`` exactly; the result is
    then clipped to [0, 255].
    """
    l_new = as_matrix(l_new, "l_new")
    if l_new.shape != img.r.shape:
        raise DimensionError(f"luminance plane {l_new.shape} does not match image")
    delta = (l_new - luminance_split(img)) / 2.0
    return RgbImage(
        r=np.clip(img.r + delta, 0.0, 255.0),
        g=np.clip(img.g + delta, 0.0, 255.0),
        b=np.clip(img.b + delta, 0.0, 255.0),
    )


def embed_color(img, w, strategy, scheme, alpha=DEFAULT_ALPHA, identity=None):
    """Embed a mono-channel watermark into a color image.

    Returns ``(marked_image, bundle)``.  ``identity`` is required for the
    hash-code scheme and must be omitted for semi-blind.  The watermark is
    split once and shared by every marked plane.
    """
    strategy = ChannelStrategy(strategy)
    marked, infos = invisible._embed_planes(_planes(img, strategy), w, scheme, alpha, identity)
    bundle = SideInfoBundle(strategy, infos)
    if strategy is ChannelStrategy.LUMINANCE:
        return luminance_merge(img, marked[0]), bundle
    if strategy is ChannelStrategy.BLUE_CHANNEL:
        return RgbImage(r=img.r, g=img.g, b=marked[0]), bundle
    return RgbImage(*marked), bundle


def extract_color(img, bundle, strategy, identity=None):
    """Extract the watermark from a marked color image.

    Per-channel bundles yield the average of the three per-plane
    estimates; single-plane strategies extract from their plane directly.
    """
    strategy = ChannelStrategy(strategy)
    if bundle.strategy is not strategy:
        raise MalformedSideInfo(
            f"bundle was created with {bundle.strategy.value}, not {strategy.value}"
        )
    estimates = [invisible._extract_plane(plane, info, identity)
                 for plane, info in zip(_planes(img, strategy), bundle.infos)]
    return estimates[0] if len(estimates) == 1 else sum(estimates) / 3.0


def _planes(img, strategy):
    """The planes ``strategy`` marks, in bundle order."""
    if strategy is ChannelStrategy.LUMINANCE:
        return (luminance_split(img),)
    if strategy is ChannelStrategy.BLUE_CHANNEL:
        return (img.b,)
    return img.channels()
