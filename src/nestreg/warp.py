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
    """A [C, D, H, W] intensity block plus isotropic voxel spacing (informational)."""

    values: Tensor
    spacing: float = 1.0

    def __post_init__(self):
        if not isinstance(self.values, Tensor):
            self.values = Tensor(self.values)
        if self.values.ndim == 3:
            self.values = reshape(self.values, (1,) + self.values.shape)
        if self.values.ndim != 4:
            raise ShapeError(f"Volume expects [C,D,H,W] or [D,H,W], got {self.values.shape}")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return self.values.shape[1:]

    def astype(self, bits: int) -> "Volume":
        return Volume(values=self.values.astype(bits), spacing=self.spacing)


@dataclass
class DeformationField:
    """Dense displacement u: [3, D, H, W], voxel units, (z, y, x) components."""

    u: Tensor

    def __post_init__(self):
        if not isinstance(self.u, Tensor):
            self.u = Tensor(self.u)
        if self.u.ndim != 4 or self.u.shape[0] != 3:
            raise ShapeError(f"DeformationField expects [3,D,H,W], got {self.u.shape}")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return self.u.shape[1:]

    def astype(self, bits: int) -> "DeformationField":
        return DeformationField(u=self.u.astype(bits))


def identity_field(shape, bits: int = 64) -> DeformationField:
    """The zero displacement (fixed point of the warp)."""
    d, h, w = shape
    return DeformationField(Tensor(np.zeros((3, d, h, w), dtype=DTYPES[bits])))


def warp_trilinear(volume: Volume, field: DeformationField) -> Volume:
    """Resample ``volume`` at v + u(v); out-of-range samples clamp to the border."""
    m = volume.values
    u = field.u
    if m.shape[1:] != u.shape[1:]:
        raise ShapeError(
            f"warp: volume spatial shape {m.shape[1:]} != field spatial shape {u.shape[1:]}"
        )
    if m.dtype != u.dtype:
        raise ShapeError(f"warp: dtype mismatch {m.dtype.name} vs {u.dtype.name}")
    if not np.isfinite(u.data).all():
        raise NumericError("warp: displacement field contains non-finite values")

    data = m.data
    c = data.shape[0]
    exts = data.shape[1:]
    dtype = data.dtype
    grid = np.indices(exts, dtype=dtype)
    pos = grid + u.data

    # Derivative of the border clamp: zero outside the open interval.
    live = np.empty((3,) + tuple(exts), dtype=bool)
    posc = np.empty_like(pos)
    i0 = np.empty((3,) + tuple(exts), dtype=np.intp)
    i1 = np.empty_like(i0)
    frac = np.empty_like(pos)
    for ax in range(3):
        hi = exts[ax] - 1
        live[ax] = (pos[ax] > 0.0) & (pos[ax] < hi)
        posc[ax] = np.clip(pos[ax], 0.0, hi)
        lo = np.floor(posc[ax]).astype(np.intp)
        if exts[ax] > 1:
            np.minimum(lo, exts[ax] - 2, out=lo)
        i0[ax] = lo
        i1[ax] = np.minimum(lo + 1, hi)
        frac[ax] = posc[ax] - lo

    wz1, wy1, wx1 = frac
    wz0, wy0, wx0 = 1.0 - wz1, 1.0 - wy1, 1.0 - wx1
    wsel = ((wz0, wz1), (wy0, wy1), (wx0, wx1))

    def corner(bz, by, bx):
        return (i1[0] if bz else i0[0], i1[1] if by else i0[1], i1[2] if bx else i0[2])

    corners = {}
    for key in product((0, 1), repeat=3):
        iz, iy, ix = corner(*key)
        corners[key] = data[:, iz, iy, ix]

    out = np.zeros_like(data)
    for (bz, by, bx), val in corners.items():
        out += val * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])
    need_gm = m.requires_grad

    def vjp(g):
        gm = None
        if need_gm:
            # Scatter g * weight onto the eight corners of every voxel: one
            # float64 bincount over the flat source indices of all channels.
            n = data[0].size
            chan = (np.arange(c) * n)[:, None, None, None]
            idx, parts = [], []
            for bz, by, bx in corners:
                iz, iy, ix = corner(bz, by, bx)
                idx.append((iz * exts[1] + iy) * exts[2] + ix + chan)
                parts.append(g * (wsel[0][bz] * wsel[1][by] * wsel[2][bx]))
            gm = np.bincount(
                np.ravel(idx), weights=np.ravel(parts), minlength=c * n
            ).astype(dtype).reshape(data.shape)

        gu = np.zeros_like(u.data)
        # d(out)/d(pos_z) = sum over (y,x) corners of (m[z1] - m[z0]) * wy * wx, etc.
        for by, bx in product((0, 1), repeat=2):
            diff = corners[(1, by, bx)] - corners[(0, by, bx)]
            gu[0] += (g * diff * (wsel[1][by] * wsel[2][bx])).sum(axis=0)
        for bz, bx in product((0, 1), repeat=2):
            diff = corners[(bz, 1, bx)] - corners[(bz, 0, bx)]
            gu[1] += (g * diff * (wsel[0][bz] * wsel[2][bx])).sum(axis=0)
        for bz, by in product((0, 1), repeat=2):
            diff = corners[(bz, by, 1)] - corners[(bz, by, 0)]
            gu[2] += (g * diff * (wsel[0][bz] * wsel[1][by])).sum(axis=0)
        gu *= live
        return gm, gu

    out_t = make_op(out, (m, u), vjp)
    return Volume(values=out_t, spacing=volume.spacing)
