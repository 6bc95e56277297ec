"""Training objective: local NCC similarity + displacement smoothness.

The NCC term is computed over fully-interior (valid) cubic windows with
window-mean-centered operands and a squared correlation,

    cc = (sum f*w)^2 / (sum f^2 * sum w^2 + eps),

so it is insensitive to per-window affine intensity maps — the reason it
serves as the cross-modality surrogate.  ``eps`` is a variance floor: a
constant window contributes zero correlation, and identical non-constant
volumes reach loss 0 only up to the floor.

Each loss is one taped op with a closed-form vjp. A window sum is three
float64 BLAS matrix products, one per axis, with a band of ones
(``tensor._banded_passes``). ``ncc_loss`` is an op of (warped, fixed) whose
window sums are plain arrays, the fixed side's from ``ncc_fixed_sums``. The
loss is symmetric in the two volumes, so its vjp forms either gradient by one
closed form with the roles swapped, from adjoint sums (the bands transposed).
``composite_loss`` reads the window, the floor and the smoothness weight from
the ``ModelConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ShapeError
from .tensor import Tensor, _band, _banded_passes, make_op
from .warp import DeformationField, Volume, warp_trilinear


# The axes a per-pair mean reduces: channel and space, not the batch axis.
_PER_PAIR = (-4, -3, -2, -1)


@dataclass
class CompositeLoss:
    total: Tensor
    similarity: Tensor
    smoothness: Tensor
    warped: Volume


@dataclass
class NccFixedSums:
    """The fixed volume's share of ``ncc_loss`` for one window: the window
    sums of f and the centred window sums of f², built once by
    ``ncc_fixed_sums`` to score several volumes against the fixed one."""

    fixed: Volume
    window: int
    sf: np.ndarray
    var_f: np.ndarray


def _window_sums(x: np.ndarray, window: int) -> tuple:
    """Σx and Σx² - (Σx)²/n over every valid window of side ``window`` (n
    voxels), in x's dtype, and the window's ones bands."""
    bands = tuple(_band(e, np.ones(window)) for e in x.shape[-3:])
    s = _banded_passes(x, bands).astype(x.dtype, copy=False)
    var = _banded_passes(x * x, bands).astype(x.dtype, copy=False)
    var -= s * s * np.asarray(1.0 / float(window ** 3), dtype=x.dtype)
    return s, var, bands


def ncc_fixed_sums(fixed: Volume, window: int) -> NccFixedSums:
    """Σf and var_f = Σf² - (Σf)²/n over every valid window of side
    ``window`` (n voxels), as plain arrays, after ``ncc_loss``'s checks of
    the fixed volume."""
    f = fixed.values.data
    if f.shape[-4] != 1:
        raise ShapeError(f"ncc_loss expects single-channel volumes, got {f.shape}")
    if any(e < window for e in f.shape[-3:]):
        raise ShapeError(
            f"ncc_loss: extents {f.shape[-3:]} smaller than window {window}"
        )
    sf, var_f, _ = _window_sums(f, window)
    return NccFixedSums(fixed=fixed, window=window, sf=sf, var_f=var_f)


def ncc_loss(fixed, warped: Volume, *, window: int = 5, eps: float = 1e-5) -> Tensor:
    """1 - mean local squared NCC over valid cubic windows of side ``window``,
    with variance floor ``eps``. Range [0, 1].

    ``fixed`` is a Volume, or its ``NccFixedSums`` (rebuilt if they are for
    another window). Batched volumes [B, 1, ...] give one loss per pair, of
    shape [B]. One taped op of (warped, fixed): each volume that needs a
    gradient gets it in closed form, through prebuilt sums as through the
    volume.
    """
    sums = fixed if isinstance(fixed, NccFixedSums) else None
    fixed = sums.fixed if sums else fixed
    f = fixed.values
    w = warped.values
    if f.shape != w.shape:
        raise ShapeError(f"ncc_loss: volume shapes differ, {f.shape} vs {w.shape}")
    if sums is None or sums.window != window:
        sums = ncc_fixed_sums(fixed, window)
    if w.dtype != f.dtype:
        raise ShapeError(f"ncc_loss: dtype mismatch {f.dtype.name} vs {w.dtype.name}")
    wd, fd, sf, var_f = w.data, f.data, sums.sf, sums.var_f
    dtype = wd.dtype
    inv_n = np.asarray(1.0 / float(window ** 3), dtype=dtype)
    eps = np.asarray(eps, dtype=dtype)
    sw, var_w, bands = _window_sums(wd, window)
    adjoint = tuple(b.T for b in bands)

    def box(x, b=bands):
        return _banded_passes(x, b).astype(dtype, copy=False)

    # cross = Σfw - Σf·Σw/n, in place.
    cross = box(fd * wd)
    cross -= sf * sw * inv_n
    cc = (cross * cross) / (var_f * var_w + eps)
    out = np.asarray(1.0, dtype=dtype) - cc.mean(axis=_PER_PAIR)

    def vjp(g):
        gcc = np.reshape(-g / (cross.size // np.size(g)), np.shape(g) + (1,) * 4)
        q = cross / (var_f * var_w + eps)
        g_cross = q * (2 * gcc)
        g_den = q
        g_den *= q
        g_den *= -gcc
        bt_cross = box(g_cross, adjoint)

        def grad(x, sx, sy, var_y, y_bt_cross):
            # x's gradient against y, the loss being symmetric; y_bt_cross = y·Bᵀg_cross.
            g_var = g_den * var_y
            g_s = g_cross * sy
            g_s += 2 * g_var * sx
            g_s *= -inv_n
            gx = box(g_s, adjoint)
            del g_s
            t = box(g_var, adjoint)
            t *= x
            t *= 2
            gx += t
            gx += y_bt_cross
            return gx

        gf = grad(fd, sf, sw, var_w, bt_cross * wd) if f.requires_grad else None
        if not w.requires_grad:
            return None, gf
        bt_cross *= fd
        return grad(wd, sw, sf, var_f, bt_cross), gf

    return make_op(out, (w, f), vjp)


def smoothness_loss(field: DeformationField) -> Tensor:
    """Mean squared forward differences of the displacement.

    For each axis the one-sided border plane is excluded; per-axis means are
    taken over (component, interior position) and summed over axes, i.e. the
    voxel-mean squared gradient magnitude averaged over the 3 components. A
    batched field [B, 3, ...] gives one value per pair, of shape [B]. Every
    spatial extent must be at least 2. One taped op.
    """
    u = field.u
    ud = u.data
    slices = []
    total = None
    for axis, name in zip((-3, -2, -1), "zyx"):
        if ud.shape[axis] < 2:
            raise ShapeError(
                f"smoothness_loss: the field has extent {ud.shape[axis]} along axis "
                f"{name} ({u.ndim + axis} of shape {ud.shape}); forward differences need >= 2"
            )
        lead = [slice(None)] * ud.ndim
        lag = [slice(None)] * ud.ndim
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        slices.append((tuple(lead), tuple(lag)))
        d = ud[tuple(lead)] - ud[tuple(lag)]
        term = (d * d).mean(axis=_PER_PAIR)
        total = term if total is None else total + term

    # The vjp recomputes the differences: as fast per step as keeping them,
    # and the tape holds three field-sized arrays less.
    def vjp(g):
        gu = np.zeros_like(ud)
        for lead, lag in slices:
            d = ud[lead] - ud[lag]
            d *= np.reshape(2 * g / (d.size // np.size(g)), np.shape(g) + (1,) * 4)
            gu[lead] += d
            gu[lag] -= d
        return (gu,)

    return make_op(total, (u,), vjp)


def composite_loss(
    fixed,
    moving: Volume,
    field: DeformationField,
    cfg: ModelConfig | None = None,
) -> CompositeLoss:
    """ncc_loss(fixed, warp(moving, field)) + smooth_weight * smoothness(field),
    settings from ``cfg`` (the defaults if None); each term has shape [B] for
    batched inputs [B, ...]. ``fixed`` is a Volume or its ``NccFixedSums``."""
    cfg = cfg or ModelConfig()
    warped = warp_trilinear(moving, field)
    sim = ncc_loss(fixed, warped, window=cfg.ncc_window, eps=cfg.ncc_eps)
    smooth = smoothness_loss(field)
    total = sim + smooth * cfg.smooth_weight
    return CompositeLoss(total=total, similarity=sim, smoothness=smooth, warped=warped)
