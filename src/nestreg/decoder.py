"""Decoder: attention blocks deep-to-shallow, trilinear upsampling with 1x1x1
channel projection, nested attention fusion against each encoder skip, and a
zero-initialized 1x1x1 head that emits the 3-channel displacement field.

The head runs before the last upsample, which then carries 3 channels rather
than the shallowest stage's width: both are linear and the upsample's weights
sum to 1, so the order changes the field only by rounding, and a zero head
still emits exact zeros.

There is one decoder stage per encoder stage. The deepest ``dae_blocks``
stages of the ``ModelConfig`` reuse the dual-attention block; the rest use
large-kernel attention (gated depthwise / dilated-depthwise / pointwise
convolution).  A stage runs the kind of block its parameters hold, and
convolution kernels take their extent from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import DualBlockParams, dual_attention_block
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    conv3d,
    global_pool,
    layernorm,
    reshape,
    same_padding,
    sigmoid,
    softmax,
    upsample_trilinear,
)


@dataclass
class LkaParams:
    dw_w: Tensor
    dw_b: Tensor
    dwd_w: Tensor
    dwd_b: Tensor
    pw_w: Tensor
    pw_b: Tensor


@dataclass
class FusionParams:
    # global extraction (on the skip): shared 1x1x1 projection of avg/max descriptors
    g_w: Tensor
    g_b: Tensor
    # feature extraction (on the decoder stream)
    fe_dw_w: Tensor
    fe_dw_b: Tensor
    fe_pw_w: Tensor
    fe_pw_b: Tensor
    fe_dwd_w: Tensor
    fe_dwd_b: Tensor
    fe_red_w: Tensor
    fe_red_b: Tensor
    # channel layernorm of the merged descriptor
    norm_gamma: Tensor
    norm_beta: Tensor
    # selection softmax conv and the two output projection convs
    sel_w: Tensor
    sel_b: Tensor
    inner_w: Tensor
    inner_b: Tensor
    outer_w: Tensor
    outer_b: Tensor


@dataclass
class DecoderStageParams:
    block: DualBlockParams | LkaParams
    proj_w: Tensor | None = None   # 1x1x1 channel projection after upsampling
    proj_b: Tensor | None = None
    fusion: FusionParams | None = None


def lka_block(x: Tensor, p: LkaParams) -> Tensor:
    """x + A(x) * x with A = pointwise(dilated-depthwise(depthwise(x)))."""
    c = x.shape[-4]
    a = conv3d(x, p.dw_w, p.dw_b, padding=(same_padding(3),) * 3, groups=c)
    a = conv3d(a, p.dwd_w, p.dwd_b, padding=(same_padding(3, 2),) * 3, dilation=2, groups=c)
    a = conv3d(a, p.pw_w, p.pw_b)
    return x + a * x


def global_extract(x: Tensor, p: FusionParams) -> Tensor:
    """Per-channel avg and max descriptors through one shared 1x1x1 projection,
    summed.

    Returns [..., C, 1, 1, 1], ready to broadcast over space.
    """
    one_voxel = x.shape[:-3] + (1, 1, 1)
    avg = reshape(global_pool(x, "avg"), one_voxel)
    mx = reshape(global_pool(x, "max"), one_voxel)
    return conv3d(avg, p.g_w, p.g_b) + conv3d(mx, p.g_w, p.g_b)


def feature_extract(x: Tensor, p: FusionParams) -> Tensor:
    """Depthwise -> pointwise -> dilated depthwise -> 1x1x1 reduction, extent-preserving."""
    c = x.shape[-4]
    k = p.fe_dw_w.shape[-1]
    out = conv3d(x, p.fe_dw_w, p.fe_dw_b, padding=(same_padding(k),) * 3, groups=c)
    out = conv3d(out, p.fe_pw_w, p.fe_pw_b)
    out = conv3d(out, p.fe_dwd_w, p.fe_dwd_b, padding=(same_padding(k, 2),) * 3, dilation=2, groups=c)
    out = conv3d(out, p.fe_red_w, p.fe_red_b)
    return out


def nested_attention_fusion(x1: Tensor, x2: Tensor, p: FusionParams) -> Tensor:
    """Fuse decoder features x1 with the encoder skip x2 (equal shapes).

    A channel-softmax selection map modulates both streams residually, the
    streams gate each other through sigmoids, and the result is projected and
    re-gated against x1 — so a zero x1 yields zero output (zero biases).
    """
    if x1.shape != x2.shape:
        raise ShapeError(f"fusion inputs must match, got {x1.shape} vs {x2.shape}")
    u = feature_extract(x1, p) + global_extract(x2, p)
    u = layernorm(u, p.norm_gamma, p.norm_beta, axis=-4)
    sm = softmax(conv3d(u, p.sel_w, p.sel_b), axis=-4)
    x1s = sm * x1 + x1
    x2s = sm * x2 + x2
    mutual = (x1s * sigmoid(x2s)) * (x2s * sigmoid(x1s))
    gate = sigmoid(conv3d(mutual, p.inner_w, p.inner_b))
    return conv3d(gate * x1, p.outer_w, p.outer_b)


@dataclass
class DecoderHeadParams:
    w: Tensor
    b: Tensor


def decoder_forward(
    pyramid: list, cfg: ModelConfig, stages: list, head: DecoderHeadParams
) -> Tensor:
    """Consume the encoder's stage outputs deep-to-shallow and emit the
    [3, D, H, W] field ([B, 3, D, H, W] for a batched pyramid)."""
    n = len(pyramid)
    if len(cfg.channels) != n:
        raise ConfigError(f"decoder has {len(cfg.channels)} stages but the pyramid has {n}")
    if len(stages) != n:
        raise ConfigError(f"decoder got {len(stages)} parameter sets for {n} stages")
    x = pyramid[n - 1]
    for i, sp in enumerate(stages):
        if isinstance(sp.block, DualBlockParams):
            x = dual_attention_block(x, sp.block)
        elif isinstance(sp.block, LkaParams):
            x = lka_block(x, sp.block)
        else:
            raise ConfigError(f"unknown decoder block {type(sp.block).__name__}")
        stage_idx = n - 1 - i  # encoder stage this decoder stage sits on
        if stage_idx > 0:
            x = upsample_trilinear(x, cfg.strides[stage_idx])
            x = conv3d(x, sp.proj_w, sp.proj_b)
            x = nested_attention_fusion(x, pyramid[stage_idx - 1], sp.fusion)
    # A non-finite head output meets the upsample's zero weights (inf * 0 is
    # NaN) without a warning; the warp refuses such a field with its own error.
    with np.errstate(invalid="ignore"):
        return upsample_trilinear(conv3d(x, head.w, head.b), cfg.strides[0])
