"""Dual attention over flattened voxel tokens.

Efficient attention normalizes queries per position and keys per channel and
multiplies in the order rho_q(Q) (rho_k(K)^T V), so cost is linear in token
count.  Channel attention mixes channels through softmax(K^T Q / tau) with a
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
    """Projections are [d_model, d_model] (heads split after projection);
    log_tau ([heads]) is present only for channel attention."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int
    log_tau: Tensor | None = None


@dataclass
class MixFfnParams:
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


def volume_to_tokens(v: Tensor) -> Tensor:
    """[..., C, d, h, w] -> [..., N, C] with row-major (z, y, x) token order."""
    k = v.ndim - 4
    lead = tuple(range(k))
    return reshape(transpose(v, lead + (k + 1, k + 2, k + 3, k)), v.shape[:k] + (-1, v.shape[k]))


def tokens_to_volume(t: Tensor, spatial) -> Tensor:
    """[..., N, C] -> [..., C, d, h, w]; N must equal d*h*w."""
    d, h, w = spatial
    n, c = t.shape[-2:]
    if n != d * h * w:
        raise ShapeError(f"token count {n} != spatial volume {d}*{h}*{w}")
    k = t.ndim - 2
    lead = tuple(range(k))
    return transpose(reshape(t, t.shape[:k] + (d, h, w, c)), lead + (k + 3, k, k + 1, k + 2))


def _swap_last(t: Tensor) -> Tensor:
    """Transpose of each matrix in a stack: swap the last two axes."""
    k = t.ndim - 2
    return transpose(t, tuple(range(k)) + (k + 1, k))


def _split_heads(t: Tensor, heads: int) -> Tensor:
    """[..., N, H*dh] -> [..., H, N, dh]."""
    k = t.ndim - 2
    n, dm = t.shape[-2:]
    t = reshape(t, t.shape[:k] + (n, heads, dm // heads))
    return transpose(t, tuple(range(k)) + (k + 1, k, k + 2))


def _merge_heads(t: Tensor) -> Tensor:
    """[..., H, N, dh] -> [..., N, H*dh]; inverse of _split_heads."""
    k = t.ndim - 3
    heads, n, dh = t.shape[-3:]
    t = transpose(t, tuple(range(k)) + (k + 1, k, k + 2))
    return reshape(t, t.shape[:k] + (n, heads * dh))


def _project_heads(x: Tensor, p: AttentionParams, what: str):
    """Check the projections, then return Q, K and V, each [..., H, N, dh]."""
    dm = x.shape[-1]
    if dm % p.heads:
        raise ShapeError(f"{what}: d_model {dm} not divisible by heads {p.heads}")
    for name, w in (("wq", p.wq), ("wk", p.wk), ("wv", p.wv), ("wo", p.wo)):
        if w.shape != (dm, dm):
            raise ShapeError(
                f"{what}: {name} shape {w.shape} != ({dm}, {dm}) for input {x.shape}"
            )
    return tuple(_split_heads(matmul(x, w), p.heads) for w in (p.wq, p.wk, p.wv))


def efficient_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """rho_q(Q) @ (rho_k(K)^T @ V) per head, heads merged, output-projected.

    rho_q: softmax over the head-channel axis (each position); rho_k: softmax
    over the token axis (each channel).  The heads run as one batch axis.
    """
    q, k, v = _project_heads(x, p, "efficient_attention")
    rq = softmax(q, axis=-1)
    rk = softmax(k, axis=-2)
    context = matmul(_swap_last(rk), v)  # [..., H, dh, dh]
    return matmul(_merge_heads(matmul(rq, context)), p.wo)


def channel_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """V @ softmax_cols(K^T Q / tau) per head; tau = exp(log_tau) > 0.

    The softmax normalizes each column of the [dh, dh] channel-mixing matrix,
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
    mix = softmax(matmul(_swap_last(k), q) / tau, axis=-2)
    return matmul(_merge_heads(matmul(v, mix)), p.wo)


def mix_ffn(x: Tensor, spatial, p: MixFfnParams) -> Tensor:
    """FC -> depthwise conv on the token volume -> GELU -> FC."""
    h = matmul(x, p.w1) + p.b1
    hidden = h.shape[-1]
    vol = tokens_to_volume(h, spatial)
    pad = same_padding(p.dw_w.shape[-1])
    vol = conv3d(vol, p.dw_w, p.dw_b, padding=(pad, pad, pad), groups=hidden)
    vol = gelu(vol)
    t = volume_to_tokens(vol)
    return matmul(t, p.w2) + p.b2


def dual_attention_block(x: Tensor, spatial, p: DualBlockParams) -> Tensor:
    """Efficient attention -> Mix-FFN -> channel attention -> Mix-FFN, each as a
    residual sublayer (layernorm before each FFN only).  Disabled attention
    branches contribute zero, which keeps the residual passthrough intact."""
    ea_b = (efficient_attention(x, p.efficient) + x) if p.efficient is not None else x
    m1 = mix_ffn(layernorm(ea_b, p.ln1.gamma, p.ln1.beta, axis=-1), spatial, p.ffn1)
    y = ea_b + m1
    ca_b = (channel_attention(y, p.channel) + y) if p.channel is not None else y
    m2 = mix_ffn(layernorm(ca_b, p.ln2.gamma, p.ln2.beta, axis=-1), spatial, p.ffn2)
    return ca_b + m2
