"""Hierarchical dual-attention encoder.

Each stage embeds the incoming volume with an overlapping strided conv
(kernel > stride, padding kernel//2), layer-normalizes the flattened tokens,
runs the stage's dual-attention blocks, and re-normalizes.  The re-shaped
stage outputs form the feature pyramid consumed by the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attention import dual_attention_block, tokens_to_volume, volume_to_tokens
from .errors import ConfigError, ShapeError
from .tensor import Tensor, conv3d, layernorm


@dataclass
class EncoderConfig:
    in_channels: int = 2          # moving and fixed, concatenated on channels
    channels: tuple = (8, 16, 32, 64)
    strides: tuple = (4, 2, 2, 2)
    kernels: tuple = (7, 3, 3, 3)
    blocks_per_stage: int = 1
    heads: int = 2
    ffn_kernel: int = 3
    use_efficient: bool = True
    use_channel: bool = True

    @property
    def stages(self) -> int:
        return len(self.channels)

    def validate(self) -> list[str]:
        problems = []
        if self.in_channels < 1:
            problems.append(f"in_channels must be >= 1, got {self.in_channels}")
        if not self.channels:
            problems.append("channels must name at least one stage")
        if not (len(self.channels) == len(self.strides) == len(self.kernels)):
            problems.append(
                f"channels/strides/kernels lengths differ: "
                f"{len(self.channels)}/{len(self.strides)}/{len(self.kernels)}"
            )
            return problems
        for i, (c, s, k) in enumerate(zip(self.channels, self.strides, self.kernels)):
            if c < 1:
                problems.append(f"stage {i + 1}: channels must be >= 1, got {c}")
            if s < 1:
                problems.append(f"stage {i + 1}: stride must be >= 1, got {s}")
            if k <= s:
                problems.append(
                    f"stage {i + 1}: patch kernel {k} must exceed stride {s} "
                    "(patches must overlap)"
                )
            if self.heads < 1 or c % self.heads:
                problems.append(
                    f"stage {i + 1}: channels {c} not divisible by heads {self.heads}"
                )
        if self.blocks_per_stage < 1:
            problems.append(f"blocks_per_stage must be >= 1, got {self.blocks_per_stage}")
        if self.ffn_kernel < 1:
            problems.append(f"ffn_kernel must be >= 1, got {self.ffn_kernel}")
        if not (self.use_efficient or self.use_channel):
            problems.append("at least one of use_efficient/use_channel must be on")
        return problems


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


@dataclass
class FeaturePyramid:
    """Stage outputs, shallow to deep; each is [C_i, d_i, h_i, w_i] (with the
    input's batch axis in front, if it has one) with extents shrunk by the
    cumulative stride product."""

    stages: list = field(default_factory=list)

    def __len__(self):
        return len(self.stages)

    def __getitem__(self, i):
        return self.stages[i]


def overlap_patch_embed(x: Tensor, p: PatchEmbedParams, stride: int, kernel: int):
    """Strided conv (padding kernel//2) + channel layernorm over tokens.

    Returns (tokens [..., N, C_out], spatial shape of the embedded volume).
    """
    for ax, ext in enumerate(x.shape[-3:]):
        if ext % stride:
            raise ShapeError(
                f"overlap_patch_embed: axis {ax} extent {ext} not divisible by stride {stride}"
            )
    pad = kernel // 2
    v = conv3d(x, p.w, p.b, stride=stride, padding=pad)
    spatial = v.shape[-3:]
    tokens = volume_to_tokens(v)
    tokens = layernorm(tokens, p.gamma, p.beta, axis=-1)
    return tokens, spatial


def encoder_forward(x: Tensor, cfg: EncoderConfig, params: list) -> FeaturePyramid:
    """Run all stages on the [in_channels, D, H, W] input volume, or on a
    batch [B, in_channels, D, H, W] of them."""
    if x.ndim not in (4, 5) or x.shape[-4] != cfg.in_channels:
        raise ShapeError(
            f"encoder expects [{cfg.in_channels},D,H,W] or [B,{cfg.in_channels},D,H,W], got {x.shape}"
        )
    if len(params) != cfg.stages:
        raise ConfigError(
            f"encoder has {cfg.stages} stages but {len(params)} parameter sets"
        )
    pyramid = FeaturePyramid()
    cur = x
    for sp, stride, kernel in zip(params, cfg.strides, cfg.kernels):
        tokens, spatial = overlap_patch_embed(cur, sp.embed, stride, kernel)
        for bp in sp.blocks:
            tokens = dual_attention_block(tokens, spatial, bp)
        tokens = layernorm(tokens, sp.out_gamma, sp.out_beta, axis=-1)
        cur = tokens_to_volume(tokens, spatial)
        pyramid.stages.append(cur)
    return pyramid
