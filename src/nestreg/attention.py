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
    concat,
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


def _head_slices(x: Tensor, heads: int):
    dh = x.shape[-1] // heads
    return [x[..., i * dh:(i + 1) * dh] for i in range(heads)]


def _check_proj(x: Tensor, p: AttentionParams, what: str) -> None:
    dm = x.shape[-1]
    if dm % p.heads:
        raise ShapeError(f"{what}: d_model {dm} not divisible by heads {p.heads}")
    for name, w in (("wq", p.wq), ("wk", p.wk), ("wv", p.wv), ("wo", p.wo)):
        if w.shape != (dm, dm):
            raise ShapeError(
                f"{what}: {name} shape {w.shape} != ({dm}, {dm}) for input {x.shape}"
            )


def efficient_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """rho_q(Q) @ (rho_k(K)^T @ V) per head, concatenated, output-projected.

    rho_q: softmax over the head-channel axis (each position); rho_k: softmax
    over the token axis (each channel).
    """
    _check_proj(x, p, "efficient_attention")
    q = matmul(x, p.wq)
    k = matmul(x, p.wk)
    v = matmul(x, p.wv)
    outs = []
    for qh, kh, vh in zip(
        _head_slices(q, p.heads), _head_slices(k, p.heads), _head_slices(v, p.heads)
    ):
        rq = softmax(qh, axis=-1)
        rk = softmax(kh, axis=-2)
        context = matmul(_swap_last(rk), vh)  # [..., dh, dh]
        outs.append(matmul(rq, context))
    merged = outs[0] if len(outs) == 1 else concat(outs, axis=-1)
    return matmul(merged, p.wo)


def channel_attention(x: Tensor, p: AttentionParams) -> Tensor:
    """V @ softmax_cols(K^T Q / tau) per head; tau = exp(log_tau) > 0.

    The softmax normalizes each column of the [dh, dh] channel-mixing matrix,
    so every output channel is a convex mix of value channels (pre-projection).
    """
    _check_proj(x, p, "channel_attention")
    if p.log_tau is None or p.log_tau.shape != (p.heads,):
        raise ShapeError(
            f"channel_attention needs log_tau of shape ({p.heads},), got "
            f"{None if p.log_tau is None else p.log_tau.shape}"
        )
    q = matmul(x, p.wq)
    k = matmul(x, p.wk)
    v = matmul(x, p.wv)
    tau = exp(p.log_tau)
    outs = []
    for h, (qh, kh, vh) in enumerate(
        zip(_head_slices(q, p.heads), _head_slices(k, p.heads), _head_slices(v, p.heads))
    ):
        scores = matmul(_swap_last(kh), qh) / tau[h:h + 1]
        mix = softmax(scores, axis=-2)
        outs.append(matmul(vh, mix))
    merged = outs[0] if len(outs) == 1 else concat(outs, axis=-1)
    return matmul(merged, p.wo)


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
