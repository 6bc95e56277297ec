"""Evaluation metrics: windowed SSIM, 95th-percentile Hausdorff distance on
6-neighbor surfaces, and the log-Jacobian spread of a displacement field.

These are evaluation-only (plain numpy/scipy, no gradients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ShapeError, UndefinedMetricError
from .tensor import Tensor, _band, _banded_passes
from .warp import DeformationField, Volume


def _unwrap(v) -> np.ndarray:
    if isinstance(v, Volume):
        v = v.values
    if isinstance(v, Tensor):
        v = v.data
    return np.asarray(v)


def _as_array(v) -> np.ndarray:
    arr = _unwrap(v)
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
    """Separable Gaussian-weighted mean of a float64 volume over valid window
    positions only: a product with a band of the taps along each axis
    (``tensor._banded_passes``), the box sums' kernel.

    BLAS sums each window in its own order, so the result differs from
    scipy's ``correlate1d`` passes by a few float64 roundings of the
    window's weighted sum of absolute values, not bit for bit.
    """
    return _banded_passes(a, tuple(_band(e, kern1d) for e in a.shape))


def ssim(a, b, window: int = 7, sigma: float = 1.5):
    """Mean local SSIM with a 3-D Gaussian window.

    The stabilizers are C1=(0.01 L)^2, C2=(0.03 L)^2 with L the dynamic range
    of the pooled pair; two identical constant volumes (L = 0) score 1.

    A batch ``a`` [B,1,D,H,W] against one ``b`` returns a list of one score
    per member, each equal to its single call; ``b``'s windowed mean and
    variance are computed once for the whole batch.
    """
    arr = _unwrap(a)
    xs = [_as_array(m) for m in arr] if arr.ndim == 5 else [_as_array(arr)]
    y = _as_array(b)
    for x in xs:
        if x.shape != y.shape:
            raise ShapeError(f"ssim: shapes differ, {x.shape} vs {y.shape}")
    if window < 3 or window % 2 == 0:
        raise ShapeError(f"ssim: window must be odd and >= 3, got {window}")
    if any(e < window for e in y.shape):
        raise ShapeError(f"ssim: extents {y.shape} smaller than window {window}")
    k = _gaussian_window(window, sigma)
    mu_y = _windowed_mean(y, k)
    mu_yy = mu_y * mu_y
    var_y = _windowed_mean(y * y, k) - mu_yy
    lo_y, hi_y = y.min(), y.max()
    scores = []
    for x in xs:
        span = max(x.max(), hi_y) - min(x.min(), lo_y)
        if span == 0.0:
            scores.append(1.0 if np.array_equal(x, y) else 0.0)
            continue
        c1 = (0.01 * span) ** 2
        c2 = (0.03 * span) ** 2
        mu_x = _windowed_mean(x, k)
        var_x = _windowed_mean(x * x, k) - mu_x * mu_x
        cov = _windowed_mean(x * y, k) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_yy + c1) * (var_x + var_y + c2)
        scores.append(float(np.mean(num / den)))
    return scores if arr.ndim == 5 else scores[0]


def mask_from_volume(v, rel_threshold: float = 0.1) -> np.ndarray:
    """Foreground mask: intensities above rel_threshold * max. Empty if max <= 0."""
    arr = _as_array(v)
    peak = arr.max()
    if peak <= 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return arr > rel_threshold * peak


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Mask voxels with at least one non-mask 6-neighbor (volume border counts)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"surface_voxels expects a 3-D mask, got {mask.shape}")
    pad = np.zeros(tuple(e + 2 for e in mask.shape), dtype=bool)
    pad[1:-1, 1:-1, 1:-1] = mask
    core = mask.copy()  # mask voxels whose six neighbours (slices of pad) are all set
    for axis in range(3):
        for lo in (0, 2):
            core &= pad[tuple(slice(lo, lo + e) if ax == axis else slice(1, -1)
                              for ax, e in enumerate(mask.shape))]
    return mask & ~core


def hd95(mask_a: np.ndarray, mask_b: np.ndarray):
    """95th percentile (linear interpolation) of pooled directed surface
    distances between the 6-neighbor surfaces of the two masks.

    A batch ``mask_a`` [B,D,H,W] against one ``mask_b`` returns a list of one
    distance per member, each equal to its single call; ``mask_b``'s surface
    and distance transform are computed once for the whole batch.

    The distance transforms run on the bounding box of all the surfaces, not
    on the whole volume. This is exact: every surface voxel of every mask
    lies in the box, so each one's nearest voxel on another surface does
    too, and every distance is the square root of the same integer sum of
    squares. The saving grows as the box's share of the volume shrinks; when
    the surfaces touch all six faces the box is the whole volume.
    """
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    batched = a.ndim == b.ndim + 1
    members = list(a) if batched else [a]
    for m in members:
        if m.shape != b.shape:
            raise ShapeError(f"hd95: mask shapes differ, {m.shape} vs {b.shape}")
    if not b.any() or not all(m.any() for m in members):
        raise UndefinedMetricError("hd95 is undefined for an empty mask")
    surf_b = surface_voxels(b)
    surfs = [surface_voxels(m) for m in members]
    hit = np.argwhere(np.logical_or.reduce([surf_b] + surfs))
    box = tuple(slice(lo, hi + 1) for lo, hi in zip(hit.min(axis=0), hit.max(axis=0)))
    surf_b = surf_b[box]
    # Exact Euclidean distance to the nearest surface voxel of the other mask.
    dist_to_b = ndimage.distance_transform_edt(~surf_b)
    scores = []
    for surf_a in surfs:
        surf_a = surf_a[box]
        dist_to_a = ndimage.distance_transform_edt(~surf_a)
        pooled = np.concatenate([dist_to_b[surf_a], dist_to_a[surf_b]])
        scores.append(float(np.percentile(pooled, 95)))
    return scores if batched else scores[0]


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
