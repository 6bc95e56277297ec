"""Volumes, dense displacement fields, and the trilinear warp.

Displacements are in voxel units with channel order (z, y, x) matching the
array axes.  The warp samples ``moving`` at v + u(v) with 8-neighbor
trilinear interpolation and border clamping, and is differentiable with
respect to both the image and the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import DTYPES, Tensor, make_op, reshape


@dataclass
class Volume:
    """A [C, D, H, W] intensity block, or a batch [B, C, D, H, W] of them,
    plus isotropic voxel spacing (informational)."""

    values: Tensor
    spacing: float = 1.0

    def __post_init__(self):
        if not isinstance(self.values, Tensor):
            self.values = Tensor(self.values)
        if self.values.ndim == 3:
            self.values = reshape(self.values, (1,) + self.values.shape)
        if self.values.ndim not in (4, 5):
            raise ShapeError(
                f"Volume expects [C,D,H,W], [B,C,D,H,W] or [D,H,W], got {self.values.shape}"
            )

    def astype(self, bits: int) -> "Volume":
        return Volume(values=self.values.astype(bits), spacing=self.spacing)


@dataclass
class DeformationField:
    """Dense displacement u: [3, D, H, W], or a batch [B, 3, D, H, W], voxel
    units, (z, y, x) components."""

    u: Tensor

    def __post_init__(self):
        if not isinstance(self.u, Tensor):
            self.u = Tensor(self.u)
        if self.u.ndim not in (4, 5) or self.u.shape[-4] != 3:
            raise ShapeError(f"DeformationField expects [3,D,H,W] or [B,3,D,H,W], got {self.u.shape}")


def identity_field(shape, bits: int = 64) -> DeformationField:
    """The zero displacement (fixed point of the warp)."""
    d, h, w = shape
    return DeformationField(Tensor(np.zeros((3, d, h, w), dtype=DTYPES[bits])))


def warp_trilinear(volume: Volume, field: DeformationField) -> Volume:
    """Resample ``volume`` at v + u(v); out-of-range samples clamp to the border.

    A batch of volumes [B, C, ...] takes a batch of fields [B, 3, ...].
    """
    m = volume.values
    u = field.u
    if m.shape[-3:] != u.shape[-3:] or m.shape[:-4] != u.shape[:-4]:
        raise ShapeError(
            f"warp: volume shape {m.shape} does not match field shape {u.shape} "
            "(spatial and batch extents must agree)"
        )
    if m.dtype != u.dtype:
        raise ShapeError(f"warp: dtype mismatch {m.dtype.name} vs {u.dtype.name}")
    if not np.isfinite(u.data).all():
        raise NumericError("warp: displacement field contains non-finite values")

    data = m.data
    exts = data.shape[-3:]
    dtype = data.dtype
    grid = np.indices(exts, dtype=dtype)
    # Component-first view [3, ..., D, H, W], so pos[ax] is one axis's positions.
    pos = np.moveaxis(grid + u.data, -4, 0)

    posc = np.empty_like(pos)
    frac = np.empty_like(pos)
    # base: the lower corner's flat offset (lo_z*H + lo_y)*W + lo_x. lo is
    # clamped to extent - 2, so the upper corner is lo + 1 on every axis of
    # extent > 1 (a constant shift of that axis's stride) and lo on the others.
    base = np.zeros(pos.shape[1:], dtype=np.intp)
    steps = (exts[1] * exts[2], exts[2], 1)
    for ax in range(3):
        posc[ax] = np.clip(pos[ax], 0.0, exts[ax] - 1)
        lo = np.floor(posc[ax]).astype(np.intp)
        if exts[ax] > 1:
            np.minimum(lo, exts[ax] - 2, out=lo)
        frac[ax] = posc[ax] - lo
        base += lo * steps[ax]
    up = [s if e > 1 else 0 for s, e in zip(steps, exts)]
    shift = {(bz, by, bx): bz * up[0] + by * up[1] + bx * up[2] for bz, by, bx in product((0, 1), repeat=3)}

    # Weights broadcast over the channel axis of data.
    wz1, wy1, wx1 = np.expand_dims(frac, -4)
    wz0, wy0, wx0 = 1.0 - wz1, 1.0 - wy1, 1.0 - wx1
    wsel = ((wz0, wz1), (wy0, wy1), (wx0, wx1))

    # The lower corner's index in data.ravel(): the (sample, channel) row's
    # offset plus base; each corner sits its constant shift further on.
    nvox = exts[0] * steps[0]
    rows = (np.arange(data.size // nvox) * nvox).reshape(data.shape[:-3] + (1, 1, 1))
    idx = np.expand_dims(base, -4) + rows
    flat = data.ravel()
    corners = {key: np.take(flat[k:], idx) for key, k in shift.items()}

    out = np.zeros_like(data)
    for (bz, by, bx), val in corners.items():
        out += val * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])
    need_gm = m.requires_grad

    def vjp(g):
        gm = None
        if need_gm:
            # Scatter g * weight onto the eight corners of every voxel: one
            # float64 bincount over the flat source indices of all channels.
            parts = [g * (wsel[0][bz] * wsel[1][by] * wsel[2][bx]) for bz, by, bx in shift]
            gm = np.bincount(
                np.ravel([idx + k for k in shift.values()]), weights=np.ravel(parts), minlength=data.size
            ).astype(dtype).reshape(data.shape)

        gu = np.zeros_like(pos)
        # d(out)/d(pos_z) = sum over (y,x) corners of (m[z1] - m[z0]) * wy * wx, etc.
        for by, bx in product((0, 1), repeat=2):
            diff = corners[(1, by, bx)] - corners[(0, by, bx)]
            gu[0] += (g * diff * (wsel[1][by] * wsel[2][bx])).sum(axis=-4)
        for bz, bx in product((0, 1), repeat=2):
            diff = corners[(bz, 1, bx)] - corners[(bz, 0, bx)]
            gu[1] += (g * diff * (wsel[0][bz] * wsel[2][bx])).sum(axis=-4)
        for bz, by in product((0, 1), repeat=2):
            diff = corners[(bz, by, 1)] - corners[(bz, by, 0)]
            gu[2] += (g * diff * (wsel[0][bz] * wsel[1][by])).sum(axis=-4)
        # Derivative of the border clamp: zero outside the open interval.
        for ax in range(3):
            gu[ax] *= (pos[ax] > 0.0) & (pos[ax] < exts[ax] - 1)
        return gm, np.ascontiguousarray(np.moveaxis(gu, 0, -4))

    out_t = make_op(out, (m, u), vjp)
    return Volume(values=out_t, spacing=volume.spacing)
