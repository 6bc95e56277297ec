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
(``tensor._banded_passes``). ``ncc_loss`` takes Σw, Σw² and Σfw this way, and
the fixed volume's Σf and var_f come from ``ncc_fixed_sums`` as taped
``box_sum``s. Its vjp keeps only window-sized arrays from the forward and
runs three adjoint sums, the same products with the bands transposed.
``composite_loss`` reads the window, the floor and the smoothness weight from
the ``ModelConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ContractError, ShapeError
from .tensor import Tensor, _active_tape, _band, _banded_passes, box_sum, make_op
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
    sf: Tensor
    var_f: Tensor


def ncc_fixed_sums(fixed: Volume, window: int) -> NccFixedSums:
    """Σf and var_f = Σf² - (Σf)²/n over every valid window of side
    ``window`` (n voxels), after ``ncc_loss``'s checks of the fixed volume."""
    f = fixed.values
    if f.shape[-4] != 1:
        raise ShapeError(f"ncc_loss expects single-channel volumes, got {f.shape}")
    if any(e < window for e in f.shape[-3:]):
        raise ShapeError(
            f"ncc_loss: extents {f.shape[-3:]} smaller than window {window}"
        )
    sf = box_sum(f, window)
    var_f = box_sum(f * f, window) - sf * sf * (1.0 / float(window ** 3))
    return NccFixedSums(fixed=fixed, window=window, sf=sf, var_f=var_f)


def ncc_loss(fixed, warped: Volume, *, window: int = 5, eps: float = 1e-5) -> Tensor:
    """1 - mean local squared NCC over valid cubic windows of side ``window``,
    with variance floor ``eps``. Range [0, 1].

    ``fixed`` is a Volume, or its ``NccFixedSums`` (rebuilt if they are for
    another window). Batched volumes [B, 1, ...] give one loss per pair, of
    shape [B]. One taped op with inputs (warped, fixed, Σf, var_f); the fixed
    volume's gradient flows back through the taped ``ncc_fixed_sums``.
    """
    sums = fixed if isinstance(fixed, NccFixedSums) else None
    fixed = sums.fixed if sums else fixed
    f = fixed.values
    w = warped.values
    if f.shape != w.shape:
        raise ShapeError(f"ncc_loss: volume shapes differ, {f.shape} vs {w.shape}")
    if sums is None or sums.window != window:
        sums = ncc_fixed_sums(fixed, window)
    elif f.requires_grad and _active_tape() is not None and not sums.sf.requires_grad:
        raise ContractError("ncc_loss: the fixed volume needs gradients, but its sums "
                            "were built without a tape")
    if w.dtype != f.dtype:
        raise ShapeError(f"ncc_loss: dtype mismatch {f.dtype.name} vs {w.dtype.name}")
    inputs = (w, f, sums.sf, sums.var_f)
    wd, fd, sf, var_f = (t.data for t in inputs)
    dtype = wd.dtype
    inv_n = np.asarray(1.0 / float(window ** 3), dtype=dtype)
    eps = np.asarray(eps, dtype=dtype)
    bands = tuple(_band(e, np.ones(window)) for e in wd.shape[-3:])
    adjoint = tuple(b.T for b in bands)

    def box(x, b=bands):
        return _banded_passes(x, b).astype(dtype, copy=False)

    # cross = Σfw - Σf·Σw/n and var_w = Σw² - (Σw)²/n, in place.
    sw = box(wd)
    var_w = box(wd * wd)
    var_w -= sw * sw * inv_n
    cross = box(fd * wd)
    cross -= sf * sw * inv_n
    cc = (cross * cross) / (var_f * var_w + eps)
    out = np.asarray(1.0, dtype=dtype) - cc.mean(axis=_PER_PAIR)

    def vjp(g):
        need_w, need_f, need_sf, need_varf = (t.requires_grad for t in inputs)
        gcc = np.reshape(-g / (cross.size // np.size(g)), np.shape(g) + (1,) * 4)
        q = cross / (var_f * var_w + eps)
        g_cross = q * (2 * gcc)
        g_den = q
        g_den *= q
        g_den *= -gcc
        g_varw = g_den * var_f
        g_sf = g_cross * sw * -inv_n if need_sf else None
        g_varf = g_den * var_w if need_varf else None
        del g_den
        gw = gf = None
        if need_w or need_f:
            bt_cross = box(g_cross, adjoint)
            if need_f:
                gf = wd * bt_cross
            if need_w:
                g_sw = g_cross * sf
                g_sw += 2 * g_varw * sw
                g_sw *= -inv_n
                gw = box(g_sw, adjoint)
                del g_sw
                t = box(g_varw, adjoint)
                t *= wd
                t *= 2
                gw += t
                bt_cross *= fd
                gw += bt_cross
        return gw, gf, g_sf, g_varf

    return make_op(out, inputs, vjp)


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
