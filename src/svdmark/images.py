"""Seeded synthetic test images with natural-image statistics.

Spectral synthesis: white Gaussian noise shaped by a 1/f^roughness
amplitude falloff, scaled to a target mean and contrast and rounded to
the 8-bit grid.  Smooth settings (roughness ~2) give portrait-like
scenes, rough settings (~1.2) give busy fur-like texture.  Everything is
driven by numpy's PCG64 generator, so a seed pins the image exactly.
"""

import numpy as np

from .color import RgbImage


def synthetic_image(rows, cols, seed, roughness=2.0, contrast=55.0, mean=128.0):
    """Deterministic grayscale test image with integral values in [0, 255]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spectrum = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    fr = np.fft.fftfreq(rows)[:, None]
    fc = np.fft.fftfreq(cols)[None, :]
    freq = np.hypot(fr, fc)
    freq[0, 0] = 1.0  # avoid division by zero; DC is zeroed below anyway
    amplitude = freq ** (-roughness)
    amplitude[0, 0] = 0.0
    field = np.fft.ifft2(spectrum * amplitude).real
    sd = field.std()
    if sd > 0:
        field *= contrast / sd
    return np.clip(np.rint(field - field.mean() + mean), 0.0, 255.0)


def synthetic_rgb(rows, cols, seed):
    """Deterministic color test image with all channels inside [64, 192].

    The clamp leaves 64 levels of headroom at each end of 0..255 for a
    marked plane, before the 8-bit PPM write clips what still leaves it.
    """
    planes = []
    for offset, mean in enumerate((120.0, 128.0, 136.0)):
        plane = synthetic_image(
            rows, cols, seed * 10 + offset, roughness=1.8, contrast=24.0, mean=mean
        )
        planes.append(np.clip(plane, 64.0, 192.0))
    return RgbImage(*planes)
