"""Evaluation metrics: windowed SSIM, 95th-percentile Hausdorff distance on
6-neighbor surfaces, and the log-Jacobian spread of a displacement field;
``score`` pairs them for one volume against a ``FixedReference``.

These are evaluation-only (plain numpy/scipy, no gradients).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .errors import ShapeError, UndefinedMetricError
from .tensor import _BLOCK_BYTES, Tensor, _band, _banded_passes
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


_SSIM_KERN = _gaussian_window(7, 1.5)  # SSIM's window: 7 voxels per axis, sigma 1.5


class _SsimSide:
    """The terms of SSIM that depend on one volume ``y`` (float64, 3-D) of
    the pair: its range, and its Gaussian means of y and y², with the terms
    made from them."""

    def __init__(self, y: np.ndarray):
        if any(e < _SSIM_KERN.size for e in y.shape):
            raise ShapeError(f"ssim: extents {y.shape} smaller than window {_SSIM_KERN.size}")
        self.array = y
        self.lo, self.hi = y.min(), y.max()
        self.mu = _windowed_mean(y, _SSIM_KERN)
        self.mu_sq = self.mu * self.mu
        self.var = _windowed_mean(y * y, _SSIM_KERN) - self.mu_sq


def ssim(a, b) -> float:
    """Mean local SSIM with a 3-D Gaussian window (7 voxels, sigma 1.5).

    The stabilizers are C1=(0.01 L)^2, C2=(0.03 L)^2 with L the dynamic range
    of the pooled pair; L = 0 (one finite value throughout both) scores 1.

    ``b`` may be a ``FixedReference``: its terms are used, and the score is
    the same as of its volume.
    """
    x = _as_array(a)
    side = b.ssim_side if isinstance(b, FixedReference) else None
    y = side.array if side else _as_array(b)
    if x.shape != y.shape:
        raise ShapeError(f"ssim: shapes differ, {x.shape} vs {y.shape}")
    if side is None:
        side = _SsimSide(y)
    span = np.maximum(x.max(), side.hi) - np.minimum(x.min(), side.lo)  # NaN in, NaN out
    if span == 0.0:
        return 1.0
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    mu_x = _windowed_mean(x, _SSIM_KERN)
    mu_y = side.mu
    var_x = _windowed_mean(x * x, _SSIM_KERN) - mu_x * mu_x
    cov = _windowed_mean(x * y, _SSIM_KERN) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + side.mu_sq + c1) * (var_x + side.var + c2)
    return float(np.mean(num / den))


def mask_from_volume(v) -> np.ndarray:
    """Foreground mask: intensities above 0.1 * max. Empty if max <= 0."""
    arr = _as_array(v)
    peak = arr.max()
    if peak <= 0.0:
        return np.zeros(arr.shape, dtype=bool)
    return arr > 0.1 * peak


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """Mask voxels with at least one non-mask 6-neighbor (volume border counts)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ShapeError(f"surface_voxels expects a 3-D mask, got {mask.shape}")
    return _framed_surface(mask, 1)[1:-1, 1:-1, 1:-1]


def _framed_surface(mask: np.ndarray, margin: int) -> np.ndarray:
    """The 6-neighbour surface of a 3-D bool mask inside a frame of ``margin``
    >= 1 background voxels on every side (the volume border counts as
    background)."""
    frame = np.pad(mask, margin)
    inner = tuple(slice(margin, margin + e) for e in mask.shape)
    core = mask.copy()  # mask voxels whose six neighbours (shifted slices of frame) are all set
    for axis in range(3):
        for step in (-1, 1):
            core &= frame[tuple(slice(s.start + step, s.stop + step) if ax == axis else s
                                for ax, s in enumerate(inner))]
    frame[inner] &= ~core
    return frame


_REACH = 6  # voxels: hd95 walks lattice shells out to this length before its fallback


def _lattice_shells(reach: int) -> list:
    """Integer offsets of squared length at most reach**2, in shells of equal
    squared length s by increasing s: [(sqrt(s), offsets [k, 3])]."""
    r = np.arange(-reach, reach + 1)
    offsets = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    sq = (offsets * offsets).sum(axis=1)
    return [(np.sqrt(float(s)), offsets[sq == s]) for s in np.unique(sq[sq <= reach * reach])]


_SHELLS = _lattice_shells(_REACH)


class _Surface:
    """One mask's 6-neighbour surface, set up for nearest-surface queries.

    ``frame`` holds the surface padded by the reach, so every shell offset of
    a surface voxel stays inside it. ``flat`` and ``coords`` are the surface
    voxels' flat indices in the frame and their coordinates in the volume;
    ``lo`` and ``hi`` are the corners of their bounding box.
    """

    def __init__(self, mask: np.ndarray):
        self.frame = _framed_surface(mask, _REACH)
        self.flat = np.flatnonzero(self.frame)
        self.coords = np.stack(np.unravel_index(self.flat, self.frame.shape), axis=1) - _REACH
        self.lo, self.hi = self.coords.min(axis=0), self.coords.max(axis=0)


def _surface_distances(src: _Surface, dst: _Surface, steps: list) -> np.ndarray:
    """Euclidean distance from each surface voxel of ``src`` to the nearest
    surface voxel of ``dst``, exactly.

    Open voxels test one shell of offsets at a time (one gather from
    ``dst``'s frame) and close at the first shell that reaches ``dst``'s
    surface; every shorter offset was tested before, so the distance is that
    shell's sqrt(s). A voxel farther than the reach from ``dst``'s bounding
    box has nothing within the reach and skips the walk. The voxels left
    open take ``_far_distances``.
    """
    out = np.empty(len(src.flat))
    gap = np.maximum(dst.lo - src.coords, 0) + np.maximum(src.coords - dst.hi, 0)
    walk = (gap * gap).sum(axis=1) <= _REACH * _REACH
    idx = np.flatnonzero(walk)
    at = src.flat[idx]
    lookup = dst.frame.ravel()
    for dist, step in steps:
        if not idx.size:
            break
        hit = lookup[at[:, None] + step].any(axis=1)
        out[idx[hit]] = dist
        idx, at = idx[~hit], at[~hit]
    rest = np.concatenate([np.flatnonzero(~walk), idx])
    if rest.size:
        out[rest] = _far_distances(src.coords[rest], dst)
    return out


def _far_distances(pts: np.ndarray, dst: _Surface) -> np.ndarray:
    """Exact distances from the voxels ``pts`` [n, 3] to ``dst``'s surface:
    the feature transform of the surface on the box that holds ``pts`` and
    the whole surface, so it holds each voxel's nearest surface voxel too."""
    lo, hi = np.minimum(pts.min(axis=0), dst.lo), np.maximum(pts.max(axis=0), dst.hi)
    box = tuple(slice(l + _REACH, h + _REACH + 1) for l, h in zip(lo, hi))
    nearest = ndimage.distance_transform_edt(~dst.frame[box], return_distances=False,
                                             return_indices=True)
    local = (pts - lo).T
    d = (nearest[(slice(None),) + tuple(local)] - local).astype(np.float64)
    return np.sqrt((d * d).sum(axis=0))


def hd95(mask_a: np.ndarray, mask_b) -> float:
    """95th percentile (linear interpolation) of pooled directed surface
    distances between the 6-neighbor surfaces of the two masks.

    Each surface voxel's distance to the other surface comes from a search
    over lattice shells of equal squared length s (0, 1, 2, 3, 4, 5, 6, 8,
    9, ...) out to a reach of ``_REACH`` voxels (``_surface_distances``); a
    voxel with nothing within the reach takes an exact fallback
    (``_far_distances``). Every distance is the square root of an integer
    sum of squares, the value ``distance_transform_edt`` gives, so the
    result equals the distance-transform formulation bit for bit.

    ``mask_b`` may be a ``FixedReference``: its mask and surface are used.
    """
    ref = mask_b if isinstance(mask_b, FixedReference) else None
    a = np.asarray(mask_a, dtype=bool)
    b = ref.mask if ref else np.asarray(mask_b, dtype=bool)
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError(f"hd95 expects 3-D masks, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"hd95: mask shapes differ, {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise UndefinedMetricError("hd95 is undefined for an empty mask")
    surf_a, surf_b = _Surface(a), ref.surface if ref else _Surface(b)
    strides = np.array(surf_b.frame.strides)  # bool: one byte per voxel
    steps = [(dist, offsets @ strides) for dist, offsets in _SHELLS]
    pooled = np.concatenate([_surface_distances(surf_a, surf_b, steps),
                             _surface_distances(surf_b, surf_a, steps)])
    return float(np.percentile(pooled, 95))


class FixedReference:
    """The terms of ``ssim`` and ``hd95`` that depend on the fixed volume
    alone, built once to score several volumes against it: the float64
    volume with its range and Gaussian means, and its mask with the mask's
    surface (None for an empty mask).

    ``ssim(a, ref)`` equals ``ssim(a, fixed)``, and ``hd95(m, ref)`` equals
    ``hd95(m, mask_from_volume(fixed))``, bit for bit.
    """

    def __init__(self, fixed):
        self.ssim_side = _SsimSide(_as_array(fixed))
        self.mask = mask_from_volume(self.ssim_side.array)
        self.surface = _Surface(self.mask) if self.mask.any() else None


@dataclass
class JacobianStats:
    sdlogj: float
    folding_fraction: float


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
    # Interior z-planes a slab at a time, _BLOCK_BYTES / 64 voxels at most
    # (the warp's slab size), in C order, so the logs concatenate to the
    # whole volume's.
    d, h, w = (e - 2 for e in u.shape[1:])
    planes = max(1, _BLOCK_BYTES // (64 * h * w))
    logs, npos = [], 0
    for z0 in range(0, d, planes):
        det = _jacobian_det(u[:, z0:z0 + planes + 2])
        positive = det > 0
        npos += int(np.count_nonzero(positive))
        logs.append(np.log(det[positive]))
    if not npos:
        raise UndefinedMetricError("sdlogj undefined: no voxel has positive Jacobian")
    logs = np.concatenate(logs)  # the slabs' logs go before np.std's temporary
    return JacobianStats(
        sdlogj=float(np.std(logs)),
        folding_fraction=1.0 - npos / (d * h * w),
    )


def _jacobian_det(u: np.ndarray) -> np.ndarray:
    """det(I + grad u) in float64 at the interior voxels of ``u`` [3, D, H, W],
    by central differences, one derivative axis at a time and without a
    float64 copy of the field."""
    jac = np.empty((3, 3) + tuple(e - 2 for e in u.shape[1:]), dtype=np.float64)
    for j in range(3):  # derivative axis
        fwd = [slice(None)] + [slice(1, -1)] * 3
        bwd = [slice(None)] + [slice(1, -1)] * 3
        fwd[j + 1] = slice(2, None)
        bwd[j + 1] = slice(None, -2)
        np.subtract(u[tuple(fwd)], u[tuple(bwd)], out=jac[:, j], dtype=np.float64)
    jac *= 0.5
    for j in range(3):
        jac[j, j] += 1.0
    a, b, c = jac[0]
    d, e, f = jac[1]
    g, h, i = jac[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def score(moved, ref: FixedReference, field=None) -> dict:
    """``ssim`` and ``hd95`` of ``moved`` against the fixed volume of ``ref``
    (the mask first, then SSIM, then HD95), plus ``sdlogj`` and
    ``folding_fraction`` of ``field`` when one is given. An empty mask raises
    ``UndefinedMetricError``."""
    mask = mask_from_volume(moved)
    out = {"ssim": ssim(moved, ref), "hd95": hd95(mask, ref)}
    if field is not None:
        out.update(asdict(sdlogj(field)))
    return out


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
