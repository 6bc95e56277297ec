"""Dual attention over the voxels of a volume.

Features are channel-first volumes [..., C, D, H, W] here as everywhere in
the network. Attention flattens one to [..., C, N] and splits the heads as
[..., H, dh, N], both plain reshapes. Every projection is [out, in] and
multiplies from the left.

Efficient attention normalizes queries per position and keys per channel and
multiplies in the order (V rho_k(K)^T) rho_q(Q), so cost is linear in voxel
count.  Channel attention mixes channels through softmax(Q K^T / tau) with a
learnable per-head temperature (stored as log tau).  The dual block chains
them with Mix-FFN sublayers; every sublayer is residual, so a zero-initialized
block is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .tensor import (
    Tensor,
    conv3d,
    exp,
    gelu,
    layernorm,
    matmul,
    reshape,
    same_padding,
    softmax,
    transpose,
)


@dataclass
class AttentionParams:
    """Projections are [d_model, d_model], [out, in] (heads split after
    projection); log_tau ([heads]) is present only for channel attention."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int
    log_tau: Tensor | None = None


@dataclass
class MixFfnParams:
    """w1 [hidden, C, 1, 1, 1] and w2 [C, hidden, 1, 1, 1] are pointwise conv
    kernels; dw_w [hidden, 1, k, k, k] is the depthwise one."""

    w1: Tensor
    b1: Tensor
    dw_w: Tensor
    dw_b: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class DualBlockParams:
    efficient: AttentionParams | None
    channel: AttentionParams | None
    ln1: LayerNormParams
    ffn1: MixFfnParams
    ln2: LayerNormParams
    ffn2: MixFfnParams


def _project_heads(x: Tensor, p: AttentionParams, what: str):
    """Check the projections, then return Q, K and V of the volume x, each
    [..., H, dh, N]."""
    if x.ndim not in (4, 5):
        raise ShapeError(f"{what} expects [C,D,H,W] or [B,C,D,H,W], got {x.shape}")
    dm = x.shape[-4]
    if dm % p.heads:
        raise ShapeError(f"{what}: d_model {dm} not divisible by heads {p.heads}")
    for name, w in (("wq", p.wq), ("wk", p.wk), ("wv", p.wv), ("wo", p.wo)):
        if w.shape != (dm, dm):
            raise ShapeError(
                f"{what}: {name} shape {w.shape} != ({dm}, {dm}) for input {x.shape}"
            )
    flat = reshape(x, x.shape[:-3] + (-1,))
    heads = x.shape[:-4] + (p.heads, dm // p.heads, -1)
    return tuple(reshape(matmul(w, flat), heads) for w in (p.wq, p.wk, p.wv))


def _swap_last(t: Tensor) -> Tensor:
    """Transpose of each matrix in a stack: swap the last two axes."""
    k = t.ndim - 2
    return transpose(t, tuple(range(k)) + (k + 1, k))


def _merge_project(t: Tensor, p: AttentionParams, like: Tensor) -> Tensor:
    """Per-head outputs [..., H, dh, N] merged, output-projected, and shaped as ``like``."""
    merged = reshape(t, like.shape[:-3] + (-1,))
    return reshape(matmul(p.wo, merged), like.shape)


def efficient_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """(V @ rho_k(K)^T) @ rho_q(Q) per head, heads merged, output-projected.

    rho_q: softmax over the head-channel axis (each position); rho_k: softmax
    over the voxel axis (each channel).  The heads run as one batch axis.

    At one voxel rho_k(K) is exactly 1 and each column of rho_q(Q) sums to 1,
    so the block returns wo @ V whatever Q and K are, and wq and wk get zero
    gradient: the deepest stage of a 32^3 input at strides (4, 2, 2, 2).
    """
    q, k, v = _project_heads(x, p, "efficient_attention")
    rq = softmax(q, axis=-2)
    rk = softmax(k, axis=-1)
    context = matmul(v, _swap_last(rk))  # [..., H, dh, dh]
    return _merge_project(matmul(context, rq), p, x)


def channel_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """softmax_rows(Q K^T / tau) @ V per head; tau = exp(log_tau) > 0.

    The softmax normalizes each row of the [dh, dh] channel-mixing matrix,
    so every output channel is a convex mix of value channels (pre-projection).
    The heads run as one batch axis, each divided by its own tau.
    """
    if p.log_tau is None or p.log_tau.shape != (p.heads,):
        raise ShapeError(
            f"channel_attention needs log_tau of shape ({p.heads},), got "
            f"{None if p.log_tau is None else p.log_tau.shape}"
        )
    q, k, v = _project_heads(x, p, "channel_attention")
    tau = reshape(exp(p.log_tau), (p.heads, 1, 1))
    mix = softmax(matmul(q, _swap_last(k)) / tau, axis=-1)
    return _merge_project(matmul(mix, v), p, x)


def mix_ffn(x: Tensor, p: MixFfnParams) -> Tensor:
    """Pointwise conv -> depthwise conv -> GELU -> pointwise conv."""
    h = conv3d(x, p.w1, p.b1)
    pad = same_padding(p.dw_w.shape[-1])
    h = conv3d(h, p.dw_w, p.dw_b, padding=(pad, pad, pad), groups=h.shape[-4])
    return conv3d(gelu(h), p.w2, p.b2)


def dual_attention_block(x: Tensor, p: DualBlockParams) -> Tensor:
    """Efficient attention -> Mix-FFN -> channel attention -> Mix-FFN, each as a
    residual sublayer (channel layernorm before each FFN only).  Disabled
    attention branches contribute zero, which keeps the residual passthrough
    intact."""
    ea_b = (efficient_attention(x, p.efficient) + x) if p.efficient is not None else x
    y = ea_b + mix_ffn(layernorm(ea_b, p.ln1.gamma, p.ln1.beta, axis=-4), p.ffn1)
    ca_b = (channel_attention(y, p.channel) + y) if p.channel is not None else y
    return ca_b + mix_ffn(layernorm(ca_b, p.ln2.gamma, p.ln2.beta, axis=-4), p.ffn2)
