"""Training objective: local NCC similarity + displacement smoothness.

The NCC term is computed over fully-interior (valid) cubic windows with
window-mean-centered operands and a squared correlation,

    cc = (sum f*w)^2 / (sum f^2 * sum w^2 + eps),

so it is insensitive to per-window affine intensity maps — the reason it
serves as the cross-modality surrogate.  ``eps`` is a variance floor: a
constant window contributes zero correlation, and identical non-constant
volumes reach loss 0 only up to the floor.

The five window sums are separable cumulative-sum box sums
(``tensor.box_sum``), O(N) in the window size and accumulated in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .tensor import Tensor, box_sum, tmean
from .warp import DeformationField, Volume, warp_trilinear


# The axes a per-pair mean reduces: channel and space, not the batch axis.
_PER_PAIR = (-4, -3, -2, -1)


@dataclass
class LossConfig:
    ncc_window: int = 5      # 9 at full scale
    ncc_eps: float = 1e-5
    smooth_weight: float = 1.0

    def validate(self) -> list[str]:
        problems = []
        if self.ncc_window < 3 or self.ncc_window % 2 == 0:
            problems.append(f"ncc_window must be odd and >= 3, got {self.ncc_window}")
        if self.ncc_eps <= 0:
            problems.append(f"ncc_eps must be positive, got {self.ncc_eps}")
        if self.smooth_weight < 0:
            problems.append(f"smooth_weight must be >= 0, got {self.smooth_weight}")
        return problems


@dataclass
class CompositeLoss:
    total: Tensor
    similarity: Tensor
    smoothness: Tensor
    warped: Volume


def ncc_loss(fixed: Volume, warped: Volume, cfg: LossConfig | None = None) -> Tensor:
    """1 - mean local squared NCC over valid windows. Range [0, 1].

    Batched volumes [B, 1, ...] give one loss per pair, of shape [B].
    """
    cfg = cfg or LossConfig()
    f = fixed.values
    w = warped.values
    if f.shape != w.shape:
        raise ShapeError(f"ncc_loss: volume shapes differ, {f.shape} vs {w.shape}")
    if f.shape[-4] != 1:
        raise ShapeError(f"ncc_loss expects single-channel volumes, got {f.shape}")
    k = cfg.ncc_window
    if any(e < k for e in f.shape[-3:]):
        raise ShapeError(
            f"ncc_loss: extents {f.shape[-3:]} smaller than window {k}"
        )
    if w.dtype != f.dtype:
        raise ShapeError(f"ncc_loss: dtype mismatch {f.dtype.name} vs {w.dtype.name}")
    n = float(k ** 3)

    sf = box_sum(f, k)
    sw = box_sum(w, k)
    sff = box_sum(f * f, k)
    sww = box_sum(w * w, k)
    sfw = box_sum(f * w, k)

    cross = sfw - sf * sw * (1.0 / n)
    var_f = sff - sf * sf * (1.0 / n)
    var_w = sww - sw * sw * (1.0 / n)
    cc = (cross * cross) / (var_f * var_w + cfg.ncc_eps)
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
    cfg: LossConfig | None = None,
) -> CompositeLoss:
    """ncc_loss(fixed, warp(moving, field)) + smooth_weight * smoothness(field);
    each term has shape [B] for batched inputs [B, ...]."""
    cfg = cfg or LossConfig()
    warped = warp_trilinear(moving, field)
    sim = ncc_loss(fixed, warped, cfg)
    smooth = smoothness_loss(field)
    total = sim + smooth * cfg.smooth_weight
    return CompositeLoss(total=total, similarity=sim, smoothness=smooth, warped=warped)
