"""Dual attention against quadratic-expansion oracles, plus the structural
properties (token-permutation equivariance, residual passthrough) the decoder
and encoder depend on."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import ShapeError, Tensor
from nestreg.diagnostics import random_block
from conftest import block
from oracles import (
    channel_attention_ref,
    conv3d_ref,
    efficient_attention_ref,
    gelu_ref,
    layernorm_ref,
)


@pytest.mark.parametrize("n,dm,heads", [(8, 4, 1), (12, 6, 2), (27, 8, 4), (5, 6, 3)])
def test_efficient_attention_matches_quadratic_oracle(rng, n, dm, heads):
    x = rng.normal(size=(n, dm))
    p = block(rng, "attention", dm, heads=heads, with_tau=False)
    got = nr.efficient_attention(Tensor(x), p).data
    want = efficient_attention_ref(x, p.wq.data, p.wk.data, p.wv.data, p.wo.data, heads)
    npt.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("n,dm,heads", [(8, 4, 1), (12, 6, 2), (27, 8, 4)])
def test_channel_attention_matches_loop_oracle(rng, n, dm, heads):
    x = rng.normal(size=(n, dm))
    p = block(rng, "attention", dm, heads=heads, with_tau=True)
    got = nr.channel_attention(Tensor(x), p).data
    want = channel_attention_ref(
        x, p.wq.data, p.wk.data, p.wv.data, p.wo.data, heads, p.log_tau.data
    )
    npt.assert_allclose(got, want, atol=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
def test_efficient_attention_parenthesizations_agree(seed):
    """rho_q(Q) @ (rho_k(K)^T V) == (rho_q(Q) rho_k(K)^T) V — the linear-cost
    form must not change the result."""
    g = np.random.default_rng(seed)
    n, dm, heads = 10, 6, 2
    x = g.normal(size=(n, dm)) * 2.0
    p = block(g, "attention", dm, heads=heads, with_tau=False)
    fast = nr.efficient_attention(Tensor(x), p).data

    dh = dm // heads
    q, k, v = x @ p.wq.data, x @ p.wk.data, x @ p.wv.data
    cols = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        e = np.exp(qh - qh.max(axis=1, keepdims=True))
        rq = e / e.sum(axis=1, keepdims=True)
        e = np.exp(kh - kh.max(axis=0, keepdims=True))
        rk = e / e.sum(axis=0, keepdims=True)
        cols.append((rq @ rk.T) @ vh)  # quadratic association
    slow = np.concatenate(cols, axis=1) @ p.wo.data
    npt.assert_allclose(fast, slow, atol=1e-6)


@pytest.mark.parametrize("kind", ["efficient", "channel"])
def test_attention_is_token_permutation_equivariant(rng, kind):
    n, dm, heads = 14, 6, 2
    x = rng.normal(size=(n, dm))
    p = block(rng, "attention", dm, heads=heads, with_tau=(kind == "channel"))
    fn = nr.efficient_attention if kind == "efficient" else nr.channel_attention
    perm = rng.permutation(n)
    base = fn(Tensor(x), p).data
    shuffled = fn(Tensor(x[perm]), p).data
    npt.assert_allclose(shuffled, base[perm], atol=1e-12)


def test_channel_attention_high_temperature_mixes_uniformly(rng):
    """tau -> inf flattens the channel softmax, so every output channel is the
    plain mean of the value channels (identity wv/wo make that visible)."""
    n, dm = 9, 4
    p = block(rng, "attention", dm, with_tau=True)
    p.wv.data = np.eye(dm)
    p.wo.data = np.eye(dm)
    p.log_tau.data = np.array([30.0])
    x = rng.normal(size=(n, dm))
    out = nr.channel_attention(Tensor(x), p).data
    npt.assert_allclose(out, np.tile(x.mean(axis=1, keepdims=True), (1, dm)), atol=1e-9)


def test_attention_shape_errors(rng):
    x = Tensor(rng.normal(size=(8, 6)))
    bad_heads = block(rng, "attention", 6, heads=4, with_tau=False)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        nr.efficient_attention(x, bad_heads)
    wrong_proj = block(rng, "attention", 4, heads=2, with_tau=False)
    with pytest.raises(ShapeError):
        nr.efficient_attention(x, wrong_proj)
    no_tau = block(rng, "attention", 6, heads=2, with_tau=False)
    with pytest.raises(ShapeError):
        nr.channel_attention(x, no_tau)


def test_mix_ffn_matches_manual_composition(rng):
    dm, spatial = 4, (2, 3, 2)
    n = int(np.prod(spatial))
    x = rng.normal(size=(n, dm))
    p = block(rng, "mix_ffn", dm)
    hidden = p.w1.shape[1]
    got = nr.mix_ffn(Tensor(x), spatial, p).data

    h = x @ p.w1.data + p.b1.data
    vol = h.reshape(spatial + (hidden,)).transpose(3, 0, 1, 2)
    vol = conv3d_ref(vol, p.dw_w.data, p.dw_b.data, padding=1, groups=hidden)
    vol = gelu_ref(vol)
    tok = vol.transpose(1, 2, 3, 0).reshape(n, hidden)
    want = tok @ p.w2.data + p.b2.data
    npt.assert_allclose(got, want, atol=1e-12)


def test_zero_weight_dual_block_is_exact_identity(rng):
    """Every sublayer is residual, so an all-zero block must pass tokens
    through bit-for-bit — the property zero-init of new stages relies on."""
    spatial = (2, 2, 3)
    x = rng.normal(size=(int(np.prod(spatial)), 4))
    p, params = random_block(rng, "dual_block", 4, heads=2)
    for leaf in params.values():
        leaf.data[...] = 0.0
    out = nr.dual_attention_block(Tensor(x), spatial, p).data
    npt.assert_array_equal(out, x)


def test_dual_block_matches_manual_sublayer_chain(rng):
    spatial = (2, 3, 2)
    dm, heads = 6, 2
    n = int(np.prod(spatial))
    x = rng.normal(size=(n, dm))
    p = block(rng, "dual_block", dm, heads=heads)
    got = nr.dual_attention_block(Tensor(x), spatial, p).data

    def ffn_ref(tok, fp):
        h = tok @ fp.w1.data + fp.b1.data
        hidden = h.shape[1]
        vol = h.reshape(spatial + (hidden,)).transpose(3, 0, 1, 2)
        vol = conv3d_ref(vol, fp.dw_w.data, fp.dw_b.data, padding=1, groups=hidden)
        return gelu_ref(vol).transpose(1, 2, 3, 0).reshape(n, hidden) @ fp.w2.data + fp.b2.data

    ea = efficient_attention_ref(
        x, p.efficient.wq.data, p.efficient.wk.data, p.efficient.wv.data,
        p.efficient.wo.data, heads,
    )
    y = ea + x
    y = y + ffn_ref(layernorm_ref(y, p.ln1.gamma.data, p.ln1.beta.data, axis=1), p.ffn1)
    ca = channel_attention_ref(
        y, p.channel.wq.data, p.channel.wk.data, p.channel.wv.data,
        p.channel.wo.data, heads, p.channel.log_tau.data,
    )
    z = ca + y
    want = z + ffn_ref(layernorm_ref(z, p.ln2.gamma.data, p.ln2.beta.data, axis=1), p.ffn2)
    npt.assert_allclose(got, want, atol=1e-9)


def test_disabled_attention_branches_fall_back_to_residual_stream(rng):
    spatial = (2, 2, 2)
    dm = 4
    x = rng.normal(size=(8, dm))
    p = block(rng, "dual_block", dm, heads=2)
    ea_only = dataclasses.replace(p, channel=None)
    ca_only = dataclasses.replace(p, efficient=None)
    full = nr.dual_attention_block(Tensor(x), spatial, p).data
    ea_out = nr.dual_attention_block(Tensor(x), spatial, ea_only).data
    ca_out = nr.dual_attention_block(Tensor(x), spatial, ca_only).data
    assert not np.allclose(ea_out, full)
    assert not np.allclose(ca_out, full)
    assert not np.allclose(ea_out, ca_out)
    assert np.isfinite(ea_out).all() and np.isfinite(ca_out).all()
