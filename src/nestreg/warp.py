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
from .tensor import _BLOCK_BYTES, DTYPES, Tensor, _active_tape, make_op, reshape


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

    data, disp = m.data, u.data
    need_gm = m.requires_grad
    taped = _active_tape() is not None and (need_gm or u.requires_grad)
    out = np.zeros_like(data)
    # A taped call keeps every slab's terms for its vjp, so slabs would save
    # it no memory; it runs as one slab, with the fewest numpy calls, and
    # keeps what the vjp reads of it.
    for zs, pos, idx, wsel, corners in _slabs(data, disp, whole=taped):
        o = out[..., zs, :, :]
        for (bz, by, bx), val in corners.items():
            o += val * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])
        if taped:
            kept = (pos, idx if need_gm else None, wsel, corners)
        del pos, idx, wsel, corners  # free this slab before the next one is built

    def vjp(g):
        pos, idx, wsel, corners = kept
        exts = data.shape[-3:]
        gm = None
        if need_gm:
            # Scatter g * weight onto the eight corners of every voxel: one
            # float64 bincount over the flat source indices of all channels.
            shift = _corner_shifts(exts)
            parts = [g * (wsel[0][bz] * wsel[1][by] * wsel[2][bx]) for bz, by, bx in shift]
            gm = np.bincount(
                np.ravel([idx + k for k in shift.values()]), weights=np.ravel(parts), minlength=data.size
            ).astype(data.dtype).reshape(data.shape)

        gu = np.zeros_like(disp)
        guz, guy, gux = (gu[..., ax, :, :, :] for ax in range(3))
        # d(out)/d(pos_z) = sum over (y,x) corners of (m[z1] - m[z0]) * wy * wx, etc.
        for by, bx in product((0, 1), repeat=2):
            diff = corners[(1, by, bx)] - corners[(0, by, bx)]
            guz += (g * diff * (wsel[1][by] * wsel[2][bx])).sum(axis=-4)
        for bz, bx in product((0, 1), repeat=2):
            diff = corners[(bz, 1, bx)] - corners[(bz, 0, bx)]
            guy += (g * diff * (wsel[0][bz] * wsel[2][bx])).sum(axis=-4)
        for bz, by in product((0, 1), repeat=2):
            diff = corners[(bz, by, 1)] - corners[(bz, by, 0)]
            gux += (g * diff * (wsel[0][bz] * wsel[1][by])).sum(axis=-4)
        # Derivative of the border clamp: zero outside the open interval.
        for ax, gax in enumerate((guz, guy, gux)):
            gax *= (pos[ax] > 0.0) & (pos[ax] < exts[ax] - 1)
        return gm, gu

    out_t = make_op(out, (m, u), vjp)
    return Volume(values=out_t, spacing=volume.spacing)


def _corner_shifts(exts) -> dict:
    """Each corner's (bz, by, bx) flat offset from the lower corner. lo is
    clamped to extent - 2, so the upper corner is lo + 1 on every axis of
    extent > 1 (a constant shift of that axis's stride) and lo on the others."""
    steps = (exts[1] * exts[2], exts[2], 1)
    up = [s if e > 1 else 0 for s, e in zip(steps, exts)]
    return {(bz, by, bx): bz * up[0] + by * up[1] + bx * up[2] for bz, by, bx in product((0, 1), repeat=3)}


def _slabs(data, disp, whole=False):
    """Walk the warp of ``data`` [..., C, D, H, W] by ``disp`` [..., 3, D, H, W]
    in slabs of whole z-planes of at most _BLOCK_BYTES / 64 voxels and
    channels, or, if ``whole``, in one slab. A slab's temporaries, some 100
    bytes per voxel and channel, fit a core's L2 cache; smaller slabs would
    save ``register`` little memory and pass the interpreter lock between
    its two threads (the warp runs beside SDlogJ) more often. Per slab,
    yield its z-slice, the unclamped positions per axis, the lower corner's
    index into ``data.ravel()`` per channel, the weights ((w0, w1) per axis,
    broadcast over channels) and the corners' values keyed by (bz, by, bx)."""
    exts = data.shape[-3:]
    steps = (exts[1] * exts[2], exts[2], 1)
    shift = _corner_shifts(exts)
    # The lower corner's index in data.ravel(): the (sample, channel) row's
    # offset plus base, its flat offset (lo_z*H + lo_y)*W + lo_x; each corner
    # sits its constant shift further on.
    nvox = exts[0] * steps[0]
    rows = (np.arange(data.size // nvox) * nvox).reshape(data.shape[:-3] + (1, 1, 1))
    flat = data.ravel()
    cz, cy, cx = (np.arange(e, dtype=data.dtype).reshape((-1,) + (1,) * (2 - ax)) for ax, e in enumerate(exts))
    planes = exts[0] if whole else max(1, _BLOCK_BYTES // (64 * rows.size * steps[0]))
    for z0 in range(0, exts[0], planes):
        zs = slice(z0, z0 + planes)
        pos = [disp[..., ax, zs, :, :] + c for ax, c in enumerate((cz[zs], cy, cx))]
        base = np.zeros(pos[0].shape, dtype=np.intp)
        w1 = []
        for ax, p in enumerate(pos):
            posc = np.clip(p, 0.0, exts[ax] - 1)
            lo = np.floor(posc)
            if exts[ax] > 1:
                np.minimum(lo, exts[ax] - 2, out=lo)
            # Exact in the field's dtype: lo is 0, or lo <= posc <= lo + 1 <= 2 lo
            # (Sterbenz's lemma).
            w1.append(np.expand_dims(posc - lo, -4))
            base += lo.astype(np.intp) * steps[ax]
        idx = np.expand_dims(base, -4) + rows
        wsel = tuple((1.0 - w, w) for w in w1)
        yield zs, pos, idx, wsel, {key: np.take(flat[k:], idx) for key, k in shift.items()}
