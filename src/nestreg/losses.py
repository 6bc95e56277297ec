"""Training objective: local NCC similarity + displacement smoothness.

The NCC term is computed over fully-interior (valid) cubic windows with
window-mean-centered operands and a squared correlation,

    cc = (sum f*w)^2 / (sum f^2 * sum w^2 + eps),

so it is insensitive to per-window affine intensity maps — the reason it
serves as the cross-modality surrogate.  ``eps`` is a variance floor: a
constant window contributes zero correlation, and identical non-constant
volumes reach loss 0 only up to the floor.

The five window sums are ``tensor.box_sum``s: three float64 BLAS matrix
products per volume, one per axis, with a band of ones; their adjoint is the
same products with the bands transposed.
``composite_loss`` reads the window, the floor and the smoothness weight from
the ``ModelConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ModelConfig
from .errors import ShapeError
from .tensor import Tensor, box_sum, tmean
from .warp import DeformationField, Volume, warp_trilinear


# The axes a per-pair mean reduces: channel and space, not the batch axis.
_PER_PAIR = (-4, -3, -2, -1)


@dataclass
class CompositeLoss:
    total: Tensor
    similarity: Tensor
    smoothness: Tensor
    warped: Volume


def ncc_loss(fixed: Volume, warped: Volume, *, window: int = 5, eps: float = 1e-5) -> Tensor:
    """1 - mean local squared NCC over valid cubic windows of side ``window``,
    with variance floor ``eps``. Range [0, 1].

    Batched volumes [B, 1, ...] give one loss per pair, of shape [B].
    """
    f = fixed.values
    w = warped.values
    if f.shape != w.shape:
        raise ShapeError(f"ncc_loss: volume shapes differ, {f.shape} vs {w.shape}")
    if f.shape[-4] != 1:
        raise ShapeError(f"ncc_loss expects single-channel volumes, got {f.shape}")
    if any(e < window for e in f.shape[-3:]):
        raise ShapeError(
            f"ncc_loss: extents {f.shape[-3:]} smaller than window {window}"
        )
    if w.dtype != f.dtype:
        raise ShapeError(f"ncc_loss: dtype mismatch {f.dtype.name} vs {w.dtype.name}")
    n = float(window ** 3)

    sf = box_sum(f, window)
    sw = box_sum(w, window)
    sff = box_sum(f * f, window)
    sww = box_sum(w * w, window)
    sfw = box_sum(f * w, window)

    cross = sfw - sf * sw * (1.0 / n)
    var_f = sff - sf * sf * (1.0 / n)
    var_w = sww - sw * sw * (1.0 / n)
    cc = (cross * cross) / (var_f * var_w + eps)
    return 1.0 - tmean(cc, axis=_PER_PAIR)


def smoothness_loss(field: DeformationField) -> Tensor:
    """Mean squared forward differences of the displacement.

    For each axis the one-sided border plane is excluded; per-axis means are
    taken over (component, interior position) and summed over axes, i.e. the
    voxel-mean squared gradient magnitude averaged over the 3 components. A
    batched field [B, 3, ...] gives one value per pair, of shape [B].
    """
    u = field.u
    total = None
    for axis in (-3, -2, -1):
        lead = [slice(None)] * u.ndim
        lag = [slice(None)] * u.ndim
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        d = u[tuple(lead)] - u[tuple(lag)]
        term = tmean(d * d, axis=_PER_PAIR)
        total = term if total is None else total + term
    return total


def composite_loss(
    fixed: Volume,
    moving: Volume,
    field: DeformationField,
    cfg: ModelConfig | None = None,
) -> CompositeLoss:
    """ncc_loss(fixed, warp(moving, field)) + smooth_weight * smoothness(field),
    settings from ``cfg`` (the defaults if None); each term has shape [B] for
    batched inputs [B, ...]."""
    cfg = cfg or ModelConfig()
    warped = warp_trilinear(moving, field)
    sim = ncc_loss(fixed, warped, window=cfg.ncc_window, eps=cfg.ncc_eps)
    smooth = smoothness_loss(field)
    total = sim + smooth * cfg.smooth_weight
    return CompositeLoss(total=total, similarity=sim, smoothness=smooth, warped=warped)
