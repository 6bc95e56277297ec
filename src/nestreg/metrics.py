"""Evaluation metrics: windowed SSIM, 95th-percentile Hausdorff distance on
6-neighbor surfaces, and the log-Jacobian spread of a displacement field.

These are evaluation-only (plain numpy/scipy, no gradients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ShapeError, UndefinedMetricError
from .tensor import Tensor
from .warp import DeformationField, Volume


def _as_array(v) -> np.ndarray:
    if isinstance(v, Volume):
        v = v.values
    if isinstance(v, Tensor):
        v = v.data
    arr = np.asarray(v)
    if arr.ndim == 4 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 3:
        raise ShapeError(f"expected a single-channel 3-D volume, got shape {arr.shape}")
    return arr.astype(np.float64, copy=False)


def _gaussian_window(extent: int, sigma: float) -> np.ndarray:
    half = (extent - 1) / 2.0
    x = np.arange(extent, dtype=np.float64) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _windowed_mean(a: np.ndarray, kern1d: np.ndarray) -> np.ndarray:
    """Separable Gaussian-weighted mean over valid window positions only.

    Each axis's pass is cropped to its valid range ``[r:-r]`` before the next
    pass runs, so later passes filter fewer lines. A 1-D pass reads only its
    own line, so the kept values equal those of filtering the whole volume
    along every axis and cropping once at the end.
    """
    r = (kern1d.size - 1) // 2
    out = a
    for axis in range(3):
        out = ndimage.correlate1d(out, kern1d, axis=axis, mode="constant")
        if r:
            out = out[(slice(None),) * axis + (slice(r, -r),)]
    return out


def ssim(a, b, window: int = 7, sigma: float = 1.5) -> float:
    """Mean local SSIM with a 3-D Gaussian window.

    The stabilizers are C1=(0.01 L)^2, C2=(0.03 L)^2 with L the dynamic range
    of the pooled pair; two identical constant volumes (L = 0) score 1.
    """
    x = _as_array(a)
    y = _as_array(b)
    if x.shape != y.shape:
        raise ShapeError(f"ssim: shapes differ, {x.shape} vs {y.shape}")
    if window < 3 or window % 2 == 0:
        raise ShapeError(f"ssim: window must be odd and >= 3, got {window}")
    if any(e < window for e in x.shape):
        raise ShapeError(f"ssim: extents {x.shape} smaller than window {window}")
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    span = hi - lo
    if span == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    k = _gaussian_window(window, sigma)
    mu_x = _windowed_mean(x, k)
    mu_y = _windowed_mean(y, k)
    var_x = _windowed_mean(x * x, k) - mu_x * mu_x
    var_y = _windowed_mean(y * y, k) - mu_y * mu_y
    cov = _windowed_mean(x * y, k) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def mask_from_volume(v, rel_threshold: float = 0.1) -> np.ndarray:
    """Foreground mask: intensities above rel_threshold * max. Empty if max <= 0."""
    arr = _as_array(v)
    peak = arr.max()
    if peak <= 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return arr > rel_threshold * peak


_SIX_NEIGHBOR = ndimage.generate_binary_structure(3, 1)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Mask voxels with at least one non-mask 6-neighbor (volume border counts)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"surface_voxels expects a 3-D mask, got {mask.shape}")
    eroded = ndimage.binary_erosion(mask, structure=_SIX_NEIGHBOR, border_value=0)
    return mask & ~eroded


def hd95(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """95th percentile (linear interpolation) of pooled directed surface
    distances between the 6-neighbor surfaces of the two masks.

    The distance transforms run on the bounding box of the two surfaces, not
    on the whole volume. This is exact: every surface voxel of either mask
    lies in the box, so each one's nearest voxel on the other surface does
    too, and every distance is the square root of the same integer sum of
    squares. The saving grows as the box's share of the volume shrinks; when
    the surfaces touch all six faces the box is the whole volume.
    """
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeError(f"hd95: mask shapes differ, {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise UndefinedMetricError("hd95 is undefined for an empty mask")
    surf_a = surface_voxels(a)
    surf_b = surface_voxels(b)
    hit = np.argwhere(surf_a | surf_b)
    box = tuple(slice(lo, hi + 1) for lo, hi in zip(hit.min(axis=0), hit.max(axis=0)))
    surf_a = surf_a[box]
    surf_b = surf_b[box]
    # Exact Euclidean distance to the nearest surface voxel of the other mask.
    dist_to_b = ndimage.distance_transform_edt(~surf_b)
    dist_to_a = ndimage.distance_transform_edt(~surf_a)
    pooled = np.concatenate([dist_to_b[surf_a], dist_to_a[surf_b]])
    return float(np.percentile(pooled, 95))


@dataclass
class JacobianStats:
    sdlogj: float
    nonpositive_fraction: float


def sdlogj(field) -> JacobianStats:
    """Std of log det(I + grad u) over interior voxels with positive determinant,
    plus the fraction of nonpositive determinants (folding)."""
    u = field.u.data if isinstance(field, DeformationField) else np.asarray(field)
    if u.ndim != 4 or u.shape[0] != 3:
        raise ShapeError(f"sdlogj expects a [3,D,H,W] field, got {u.shape}")
    if any(e < 3 for e in u.shape[1:]):
        raise UndefinedMetricError(
            f"sdlogj needs interior voxels; extents {u.shape[1:]} are too small"
        )
    u = u.astype(np.float64, copy=False)
    core = (slice(1, -1),) * 3
    jac = np.empty((3, 3) + tuple(e - 2 for e in u.shape[1:]), dtype=np.float64)
    for j in range(3):  # derivative axis
        fwd = [slice(1, -1)] * 3
        bwd = [slice(1, -1)] * 3
        fwd[j] = slice(2, None)
        bwd[j] = slice(None, -2)
        for i in range(3):  # component
            jac[i, j] = 0.5 * (u[i][tuple(fwd)] - u[i][tuple(bwd)])
        jac[j, j] += 1.0
    a, b, c = jac[0]
    d, e, f = jac[1]
    g, h, i = jac[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    positive = det > 0
    frac_bad = float(1.0 - positive.mean())
    if not positive.any():
        raise UndefinedMetricError("sdlogj undefined: no voxel has positive Jacobian")
    return JacobianStats(
        sdlogj=float(np.std(np.log(det[positive]))),
        nonpositive_fraction=frac_bad,
    )


@dataclass
class RegistrationReport:
    """Metrics and loss terms for one registered pair (warped vs fixed)."""

    ssim_initial: float
    ssim: float
    hd95_initial: float
    hd95: float
    sdlogj: float
    folding_fraction: float
    ncc: float
    loss_total: float
    loss_similarity: float
    loss_smoothness: float

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if not np.isfinite(value):
                raise UndefinedMetricError(f"report field {name} is not finite: {value!r}")

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}
