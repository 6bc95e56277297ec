"""Hierarchical dual-attention encoder.

Each stage embeds the incoming volume with an overlapping strided conv
(kernel > stride, padding kernel//2), layer-normalizes it over channels,
runs the stage's dual-attention blocks, and re-normalizes.  The stage
outputs, channel-first volumes in a list shallow to deep, form the feature
pyramid consumed by the decoder.  Input channels and strides come from the
``ModelConfig``; widths, patch kernels, heads and attention branches from the
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import dual_attention_block
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .tensor import Tensor, conv3d, layernorm


@dataclass
class PatchEmbedParams:
    w: Tensor
    b: Tensor
    gamma: Tensor
    beta: Tensor


@dataclass
class EncoderStageParams:
    embed: PatchEmbedParams
    blocks: list
    out_gamma: Tensor
    out_beta: Tensor


def overlap_patch_embed(x: Tensor, p: PatchEmbedParams, stride: int) -> Tensor:
    """Strided conv (padding kernel//2, the kernel read from the weight) +
    layernorm over the channel axis; returns the embedded volume
    [..., C_out, d, h, w]."""
    for ax, ext in enumerate(x.shape[-3:]):
        if ext % stride:
            raise ShapeError(
                f"overlap_patch_embed: axis {ax} extent {ext} not divisible by stride {stride}"
            )
    v = conv3d(x, p.w, p.b, stride=stride, padding=p.w.shape[-1] // 2)
    return layernorm(v, p.gamma, p.beta, axis=-4)


def encoder_forward(x: Tensor, cfg: ModelConfig, params: list) -> list:
    """Run all stages on the [in_channels, D, H, W] input volume, or on a
    batch [B, in_channels, D, H, W] of them.

    Returns the stage outputs, shallow to deep; each is [C_i, d_i, h_i, w_i]
    (with the input's batch axis in front, if it has one) with extents shrunk
    by the cumulative stride product."""
    if x.ndim not in (4, 5) or x.shape[-4] != cfg.in_channels:
        raise ShapeError(
            f"encoder expects [{cfg.in_channels},D,H,W] or [B,{cfg.in_channels},D,H,W], got {x.shape}"
        )
    if len(params) != len(cfg.channels):
        raise ConfigError(
            f"encoder has {len(cfg.channels)} stages but {len(params)} parameter sets"
        )
    pyramid = []
    cur = x
    for sp, stride in zip(params, cfg.strides):
        cur = overlap_patch_embed(cur, sp.embed, stride)
        for bp in sp.blocks:
            cur = dual_attention_block(cur, bp)
        cur = layernorm(cur, sp.out_gamma, sp.out_beta, axis=-4)
        pyramid.append(cur)
    return pyramid
