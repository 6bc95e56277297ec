"""Synthetic registration pairs: a multi-ellipsoid phantom warped by a smooth
random displacement field, with a monotone intensity remap on the moving
volume as a cross-modality surrogate.

The displacement amplitude is capped: if the requested amplitude folds the
field (nonpositive or non-finite Jacobians), it is halved with a warning until
fold-free, at most 40 times, and then replaced by the zero field with a warning.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy import ndimage

from .errors import ConfigError, UndefinedMetricError
from .metrics import sdlogj
from .tensor import DTYPES, Tensor
from .warp import DeformationField, Volume, warp_trilinear

log = logging.getLogger(__name__)

# Monotone remap applied to the moving volume (cross-modality surrogate).
# Mild enough that the 10%-of-max mask threshold selects the same structures
# in both volumes: mask differences then measure geometry, not intensity.
_REMAP_GAMMA = 0.85


def _dot(w, coords) -> np.ndarray:
    """sum_i w[i] coords[i] over broadcasting axes, rounded as by np.einsum."""
    return w[0] * coords[0] + w[1] * coords[1] + w[2] * coords[2]


def _phantom(rng: np.random.Generator, shape) -> np.ndarray:
    """Ellipsoids with linear intensity gradients, painter-composited.

    Most ellipsoids carry a dimmer nested core, so the phantom has internal
    step edges as well as outer boundaries — misalignment then costs local
    correlation everywhere, not just at silhouettes. A faint background ramp
    keeps every NCC window non-degenerate while staying far below the 10%
    mask threshold.
    """
    axes = [np.linspace(-1.0, 1.0, ext) for ext in shape]
    step = 2.0 / (np.asarray(shape) - 1)
    bdir = rng.normal(size=3)
    bdir /= np.linalg.norm(bdir)
    vol = 0.03 + 0.015 * _dot(bdir, np.ix_(*axes))
    n_ellipsoids = int(6 + rng.integers(0, 4))
    for _ in range(n_ellipsoids):
        center = rng.uniform(-0.55, 0.55, size=3)
        semi = rng.uniform(0.10, 0.38, size=3)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        base = rng.uniform(0.5, 0.95)
        gdir = rng.normal(size=3)
        gdir /= np.linalg.norm(gdir)
        slope = rng.uniform(0.2, 0.5)
        # Only the axis-aligned bounding box, with a one-voxel margin: along
        # grid axis a the ellipsoid reaches sqrt(sum_i (rot[i, a] semi[i])^2).
        reach = np.sqrt(((rot * semi[:, None]) ** 2).sum(axis=0))
        lo = np.maximum(np.floor((center - reach + 1.0) / step).astype(int) - 1, 0)
        hi = np.minimum(np.ceil((center + reach + 1.0) / step).astype(int) + 2, shape)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        rel = np.ix_(*(ax[b] - c for ax, b, c in zip(axes, box, center)))
        r2 = sum((_dot(rot[i], rel) / semi[i]) ** 2 for i in range(3))
        shade = base * (1.0 + slope * _dot(gdir, rel))
        np.copyto(vol[box], shade, where=r2 <= 1.0)
        if rng.random() < 0.7:
            core = r2 <= rng.uniform(0.3, 0.65) ** 2
            np.copyto(vol[box], shade * rng.uniform(0.35, 0.6), where=core)
    np.clip(vol, 0.0, None, out=vol)
    peak = vol.max()
    if peak > 0:
        vol /= peak
    return vol


def _smooth_field(rng, shape, amplitude: float, sigma: float) -> np.ndarray:
    """Gaussian-smoothed random displacement, capped at ``amplitude``.

    Two smoothing scales are mixed: a global drift (the infinite-σ limit)
    that displaces every structure, plus σ-scale variation. A pure
    max-normalized noise field moves almost nothing but its peak, which
    makes surface-distance statistics insensitive to the deformation.
    """
    noise = ndimage.gaussian_filter(
        rng.normal(size=(3,) + tuple(shape)), sigma=(0.0, sigma, sigma, sigma)
    )
    peak = np.abs(noise).max()
    if peak > 0:
        noise *= 0.45 / peak
    drift = rng.normal(size=3)
    drift /= np.linalg.norm(drift)
    u = 0.55 * drift[:, None, None, None] + noise
    peak = np.abs(u).max()
    if peak > 0 and amplitude > 0:
        u *= amplitude / peak
    else:
        u = np.zeros_like(u)
    return u


def _folds(u) -> bool:
    """Whether det(I + grad u) is nonpositive or not finite at some voxel:
    an overflowing field counts as folded, so that it too is halved."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            stats = sdlogj(u)
        except UndefinedMetricError:
            return True
    return stats.folding_fraction > 0.0 or not math.isfinite(stats.sdlogj)


def synth_pair(
    shape,
    seed: int,
    amplitude: float = 3.0,
    field_sigma: float = 4.0,
    bits: int = 32,
):
    """Return (moving, fixed, truth_field) with moving = remap(warp(fixed, field)).

    ``amplitude`` is the max displacement in voxels and ``field_sigma`` the
    field's smoothing scale; both must be finite and >= 0. ``truth_field`` is
    the field used for synthesis (what the warp applied to ``fixed``).
    """
    if isinstance(shape, int):
        shape = (shape, shape, shape)
    shape = tuple(int(e) for e in shape)
    if len(shape) != 3 or any(e < 3 for e in shape):
        raise ConfigError(f"synth_pair needs a 3-D shape with extents >= 3, got {shape}")
    for name, value in (("amplitude", amplitude), ("field_sigma", field_sigma)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5AB1E]))

    fixed = _phantom(rng, shape)
    u = _smooth_field(rng, shape, amplitude, field_sigma)

    if amplitude > 0:
        for _ in range(40):
            if not _folds(u):
                break
            amplitude *= 0.5
            u *= 0.5
            log.warning(
                "synth_pair: displacement folds; halving amplitude to %.4g", amplitude
            )
        else:
            u[:] = 0.0
            log.warning("synth_pair: displacement still folds after 40 halvings; using the zero field")

    fixed_vol = Volume(values=Tensor(fixed[None].copy()))
    field = DeformationField(u=Tensor(u))
    warped = warp_trilinear(fixed_vol, field)
    moving = np.clip(warped.values.data[0], 0.0, 1.0) ** _REMAP_GAMMA

    dtype = DTYPES[bits]
    return (
        Volume(values=Tensor(moving[None].astype(dtype))),
        Volume(values=Tensor(fixed.astype(dtype)[None])),
        DeformationField(u=Tensor(u.astype(dtype))),
    )
