"""Dual attention against quadratic-expansion oracles and against the token
layout it replaced, plus the structural properties (voxel-permutation
equivariance, residual passthrough) the decoder and encoder depend on."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import GradTape, ShapeError, Tensor
from nestreg.decoder import decoder_forward
from nestreg.diagnostics import _tiny_model, random_block
from nestreg.tensor import DTYPES
from nestreg.train import Checkpoint, model_from_checkpoint
from conftest import block
from oracles import (
    channel_attention_ref,
    channel_attention_tokens,
    conv3d_ref,
    decoder_forward_tokens,
    dual_attention_block_tokens,
    efficient_attention_quadratic_ref,
    efficient_attention_ref,
    efficient_attention_tokens,
    encoder_forward_tokens,
    gelu_ref,
    layernorm_ref,
    mix_ffn_tokens,
    token_params,
    tokens_to_volume,
    volume_to_tokens,
)


def _ref(fn, x, p, *extra):
    """A [d_model, N] oracle on the volume x, reshaped back to x's shape."""
    dm = x.shape[0]
    flat = fn(x.reshape(dm, -1), p.wq.data, p.wk.data, p.wv.data, p.wo.data, p.heads, *extra)
    return flat.reshape(x.shape)


@pytest.mark.parametrize(
    "spatial,dm,heads", [((2, 2, 2), 4, 1), ((2, 3, 2), 6, 2), ((3, 3, 3), 8, 4), ((5, 1, 1), 6, 3)]
)
def test_efficient_attention_matches_quadratic_oracle(rng, spatial, dm, heads):
    x = rng.normal(size=(dm,) + spatial)
    p = block(rng, "attention", dm, heads=heads, with_tau=False)
    got = nr.efficient_attention(Tensor(x), p).data
    npt.assert_allclose(got, _ref(efficient_attention_ref, x, p), atol=1e-10)


@pytest.mark.parametrize("spatial,dm,heads", [((2, 2, 2), 4, 1), ((2, 3, 2), 6, 2), ((3, 3, 3), 8, 4)])
def test_channel_attention_matches_loop_oracle(rng, spatial, dm, heads):
    x = rng.normal(size=(dm,) + spatial)
    p = block(rng, "attention", dm, heads=heads, with_tau=True)
    got = nr.channel_attention(Tensor(x), p).data
    npt.assert_allclose(got, _ref(channel_attention_ref, x, p, p.log_tau.data), atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_efficient_attention_parenthesizations_agree(seed):
    """(V rho_k(K)^T) rho_q(Q) == V (rho_k(K)^T rho_q(Q)) — the linear-cost
    form must not change the result."""
    g = np.random.default_rng(seed)
    dm, heads = 6, 2
    x = g.normal(size=(dm, 2, 5, 1)) * 2.0
    p = block(g, "attention", dm, heads=heads, with_tau=False)
    fast = nr.efficient_attention(Tensor(x), p).data
    npt.assert_allclose(fast, _ref(efficient_attention_quadratic_ref, x, p), atol=1e-6)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_efficient_attention_on_one_voxel_is_the_value_path(rng, batch):
    """At one voxel rho_k(K) is a softmax over one value, exactly 1, and each
    column of rho_q(Q) sums to 1, so the block returns wo @ wv @ x whatever Q
    and K are (the default model's deepest stage at 32^3). Other keys change
    no bit of it and wk gets an exact zero gradient; the queries change only
    its rounding, and wq's gradient is rounding too."""
    dm = 8
    x = rng.normal(size=batch + (dm, 1, 1, 1))
    p = block(rng, "attention", dm, heads=2, with_tau=False)
    got = nr.efficient_attention(Tensor(x), p).data
    value = (p.wo.data @ (p.wv.data @ x.reshape(batch + (dm, 1)))).reshape(got.shape)
    assert np.abs(got - value).max() <= 1e-14 * np.abs(value).max()
    other_keys = replace(p, wk=Tensor(rng.normal(size=(dm, dm))))
    assert nr.efficient_attention(Tensor(x), other_keys).data.tobytes() == got.tobytes()

    leaves = {name: Tensor(getattr(p, name).data, requires_grad=True) for name in ("wq", "wk", "wv")}
    with GradTape() as tape:
        out = nr.efficient_attention(Tensor(x), replace(p, **leaves))
        grads = tape.backward(nr.tsum(out * Tensor(rng.normal(size=out.shape))))
    assert not grads[leaves["wk"]].any()
    assert np.abs(grads[leaves["wq"]]).max() <= 1e-14 * np.abs(grads[leaves["wv"]]).max()


@pytest.mark.parametrize("kind", ["efficient", "channel"])
def test_attention_is_voxel_permutation_equivariant(rng, kind):
    dm, heads, spatial = 6, 2, (2, 7, 1)
    x = rng.normal(size=(dm,) + spatial)
    p = block(rng, "attention", dm, heads=heads, with_tau=(kind == "channel"))
    fn = nr.efficient_attention if kind == "efficient" else nr.channel_attention
    perm = rng.permutation(14)
    base = fn(Tensor(x), p).data.reshape(dm, -1)
    shuffled = fn(Tensor(x.reshape(dm, -1)[:, perm].reshape(x.shape)), p).data.reshape(dm, -1)
    npt.assert_allclose(shuffled, base[:, perm], atol=1e-12)


def test_channel_attention_high_temperature_mixes_uniformly(rng):
    """tau -> inf flattens the channel softmax, so every output channel is the
    plain mean of the value channels (identity wv/wo make that visible)."""
    dm = 4
    p = block(rng, "attention", dm, with_tau=True)
    p.wv.data = np.eye(dm)
    p.wo.data = np.eye(dm)
    p.log_tau.data = np.array([30.0])
    x = rng.normal(size=(dm, 3, 3, 1))
    out = nr.channel_attention(Tensor(x), p).data
    npt.assert_allclose(out, np.broadcast_to(x.mean(axis=0), x.shape), atol=1e-9)


def test_attention_shape_errors(rng):
    x = Tensor(rng.normal(size=(6, 2, 2, 2)))
    bad_heads = block(rng, "attention", 6, heads=4, with_tau=False)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        nr.efficient_attention(x, bad_heads)
    wrong_proj = block(rng, "attention", 4, heads=2, with_tau=False)
    with pytest.raises(ShapeError):
        nr.efficient_attention(x, wrong_proj)
    no_tau = block(rng, "attention", 6, heads=2, with_tau=False)
    with pytest.raises(ShapeError):
        nr.channel_attention(x, no_tau)
    fine = block(rng, "attention", 6, heads=2, with_tau=False)
    with pytest.raises(ShapeError):  # tokens [N, C] are no volume
        nr.efficient_attention(Tensor(rng.normal(size=(8, 6))), fine)


def _ffn_ref(x, fp):
    """Mix-FFN of the volume x as oracle convs: pointwise, depthwise, GELU, pointwise."""
    h = conv3d_ref(x, fp.w1.data, fp.b1.data)
    h = conv3d_ref(h, fp.dw_w.data, fp.dw_b.data, padding=1, groups=h.shape[0])
    return conv3d_ref(gelu_ref(h), fp.w2.data, fp.b2.data)


def test_mix_ffn_matches_manual_composition(rng):
    x = rng.normal(size=(4, 2, 3, 2))
    p = block(rng, "mix_ffn", 4)
    npt.assert_allclose(nr.mix_ffn(Tensor(x), p).data, _ffn_ref(x, p), atol=1e-12)


def test_zero_weight_dual_block_is_exact_identity(rng):
    """Every sublayer is residual, so an all-zero block must pass the volume
    through bit-for-bit — the property zero-init of new stages relies on."""
    x = rng.normal(size=(4, 2, 2, 3))
    p, params = random_block(rng, "dual_block", 4, heads=2)
    for leaf in params.values():
        leaf.data[...] = 0.0
    out = nr.dual_attention_block(Tensor(x), p).data
    npt.assert_array_equal(out, x)


def test_dual_block_matches_manual_sublayer_chain(rng):
    x = rng.normal(size=(6, 2, 3, 2))
    p = block(rng, "dual_block", 6, heads=2)
    got = nr.dual_attention_block(Tensor(x), p).data

    y = _ref(efficient_attention_ref, x, p.efficient) + x
    y = y + _ffn_ref(layernorm_ref(y, p.ln1.gamma.data, p.ln1.beta.data, axis=0), p.ffn1)
    z = _ref(channel_attention_ref, y, p.channel, p.channel.log_tau.data) + y
    want = z + _ffn_ref(layernorm_ref(z, p.ln2.gamma.data, p.ln2.beta.data, axis=0), p.ffn2)
    npt.assert_allclose(got, want, atol=1e-9)


def test_disabled_attention_branches_fall_back_to_residual_stream(rng):
    x = rng.normal(size=(4, 2, 2, 2))
    p = block(rng, "dual_block", 4, heads=2)
    ea_only = replace(p, channel=None)
    ca_only = replace(p, efficient=None)
    full = nr.dual_attention_block(Tensor(x), p).data
    ea_out = nr.dual_attention_block(Tensor(x), ea_only).data
    ca_out = nr.dual_attention_block(Tensor(x), ca_only).data
    assert not np.allclose(ea_out, full)
    assert not np.allclose(ca_out, full)
    assert not np.allclose(ea_out, ca_out)
    assert np.isfinite(ea_out).all() and np.isfinite(ca_out).all()


# --- the channel-first layout against the token layout ------------------------
#
# Each block, and the encoder and decoder, against the token-layout oracles
# with the weights mapped through the transpose (``token_params``): outputs
# and the gradients of the input and of every parameter. Float64 agrees
# within 1e-12. Float32 sums the same terms in another order (the
# projections contract the other operand axis, the layernorm reduces a
# strided axis); its bounds are set from the worst measured at seeds 0-7:
# outputs 2.5e-7 against a bound of 1e-6, gradients 5.5e-6 against 2e-5.

# (output bound, gradient bound) by precision
LAYOUT_BOUND = {64: (1e-12, 1e-12), 32: (1e-6, 2e-5)}

# (builder kind, attention branch left out and its parameter prefix,
# channel-first call, token call)
_BLOCKS = {
    "efficient": ("attention", None, nr.efficient_attention,
                  lambda t, s, p: efficient_attention_tokens(t, p)),
    "channel": ("attention", None, nr.channel_attention,
                lambda t, s, p: channel_attention_tokens(t, p)),
    "mix_ffn": ("mix_ffn", None, nr.mix_ffn, mix_ffn_tokens),
    "dual": ("dual_block", None, nr.dual_attention_block, dual_attention_block_tokens),
    "dual_efficient_only": ("dual_block", ("channel", "ca"), nr.dual_attention_block, dual_attention_block_tokens),
    "dual_channel_only": ("dual_block", ("efficient", "ea"), nr.dual_attention_block, dual_attention_block_tokens),
}
_BLOCK_CASES = [(kind, heads) for kind in _BLOCKS for heads in ((1,) if kind == "mix_ffn" else (1, 2))]


def _as_precision(leaves, bits):
    for leaf in leaves:
        leaf.data = leaf.data.astype(DTYPES[bits])


def _outputs_and_grads(fn, leaves, proj):
    """fn()'s outputs and the gradients of sum(output * projection) by leaf."""
    with GradTape() as tape:
        outs = fn()
        loss = sum(nr.tsum(o * Tensor(r.astype(o.dtype))) for o, r in zip(outs, proj))
        grads = tape.backward(loss)
    return [o.data for o in outs], [grads[leaf] for leaf in leaves]


def _worst_relative(got, want):
    return max(float(np.abs(g - w).max() / np.abs(w).max()) for g, w in zip(got, want))


def _worst_gradient(got, want):
    """The worst gradient error, per leaf relative to its largest entry but
    at least 1e-3 of the largest entry of any leaf: a leaf whose gradient is
    exactly zero in exact arithmetic gets rounding alone."""
    floor = 1e-3 * max(np.abs(w).max() for w in want)
    return max(float(np.abs(g - w).max() / max(np.abs(w).max(), floor)) for g, w in zip(got, want))


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("kind,heads", _BLOCK_CASES)
def test_block_matches_token_layout_oracle(rng, kind, heads, batch, bits):
    builder_kind, dropped, new, old = _BLOCKS[kind]
    kw = {"with_tau": kind == "channel"} if builder_kind == "attention" else {}
    p, registry = random_block(rng, builder_kind, 4, heads=heads, **kw)
    if dropped:
        field, prefix = dropped
        p = replace(p, **{field: None})
        registry = {k: v for k, v in registry.items() if not k.startswith(f"dual_block.{prefix}.")}
    spatial = (2, 3, 2)
    x = Tensor(rng.normal(size=(batch, 4) + spatial) * 0.7, requires_grad=True)
    leaves = [x, *registry.values()]
    _as_precision(leaves, bits)
    proj = [rng.normal(size=x.shape)]

    got = _outputs_and_grads(lambda: [new(x, p)], leaves, proj)
    want = _outputs_and_grads(
        lambda: [tokens_to_volume(old(volume_to_tokens(x), spatial, token_params(p)), spatial)], leaves, proj
    )
    out_bound, grad_bound = LAYOUT_BOUND[bits]
    assert _worst_relative(got[0], want[0]) <= out_bound
    assert _worst_gradient(got[1], want[1]) <= grad_bound


@pytest.mark.parametrize("bits", [64, 32])
@pytest.mark.parametrize("batch", [1, 2])
def test_encoder_and_decoder_match_token_layout_oracle(rng, batch, bits):
    """The tiny model's pyramid and field. A one-voxel stage's efficient
    attention has softmax(K) = 1 over its one voxel, so its wq (and wk) get
    an exact-zero gradient plus rounding."""
    model = _tiny_model(0)
    if bits == 32:
        model = model_from_checkpoint(
            Checkpoint(config=replace(model.config, precision=32), params=model.state(), epoch=0, rng_state={})
        )
    cfg = model.config
    x = Tensor(rng.uniform(size=(batch, 2, 8, 8, 8)).astype(model.dtype), requires_grad=True)
    leaves = [x, *model.parameters().values()]

    def new():
        pyramid = nr.encoder_forward(x, cfg, model.enc_stages)
        return pyramid + [decoder_forward(pyramid, cfg, model.dec_stages, model.head)]

    def old():
        pyramid = encoder_forward_tokens(x, cfg, model.enc_stages)
        return pyramid + [decoder_forward_tokens(pyramid, cfg, model.dec_stages, model.head)]

    proj = [rng.normal(size=o.shape) for o in new()]
    got, want = _outputs_and_grads(new, leaves, proj), _outputs_and_grads(old, leaves, proj)
    out_bound, grad_bound = LAYOUT_BOUND[bits]
    assert _worst_relative(got[0], want[0]) <= out_bound
    assert _worst_gradient(got[1], want[1]) <= grad_bound
