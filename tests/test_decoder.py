"""Decoder pieces: large-kernel attention, nested attention fusion (against a
literal transcription oracle), and the zero-initialized field head."""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import ConfigError, ShapeError, Tensor
from nestreg.decoder import DecoderHeadParams, decoder_forward
from conftest import block
from oracles import conv3d_ref, decoder_head_last_ref, fusion_ref


def test_lka_block_matches_manual_composition(rng):
    c = 3
    x = rng.normal(size=(c, 4, 4, 4))
    p = block(rng, "lka", c)
    got = nr.lka_block(Tensor(x), p).data
    a = conv3d_ref(x, p.dw_w.data, p.dw_b.data, padding=1, groups=c)
    a = conv3d_ref(a, p.dwd_w.data, p.dwd_b.data, padding=2, dilation=2, groups=c)
    a = conv3d_ref(a, p.pw_w.data, p.pw_b.data)
    npt.assert_allclose(got, x + a * x, atol=1e-12)


def test_lka_block_with_zero_pointwise_is_exact_identity(rng):
    c = 3
    x = rng.normal(size=(c, 4, 4, 4))
    p = block(rng, "lka", c)
    p = dataclasses.replace(
        p, pw_w=Tensor(np.zeros((c, c, 1, 1, 1))), pw_b=Tensor(np.zeros(c))
    )
    npt.assert_array_equal(nr.lka_block(Tensor(x), p).data, x)


def test_feature_extract_delta_kernels_give_identity(rng):
    """Center-delta depthwise kernels and identity pointwise projections make
    the whole extraction chain a no-op."""
    c = 4
    p = block(rng, "fusion", c)
    delta = np.zeros((c, 1, 3, 3, 3))
    delta[:, 0, 1, 1, 1] = 1.0
    eye = np.eye(c).reshape(c, c, 1, 1, 1)
    zeros = np.zeros(c)
    p = dataclasses.replace(
        p,
        fe_dw_w=Tensor(delta.copy()), fe_dw_b=Tensor(zeros.copy()),
        fe_pw_w=Tensor(eye.copy()), fe_pw_b=Tensor(zeros.copy()),
        fe_dwd_w=Tensor(delta.copy()), fe_dwd_b=Tensor(zeros.copy()),
        fe_red_w=Tensor(eye.copy()), fe_red_b=Tensor(zeros.copy()),
    )
    x = rng.normal(size=(c, 3, 4, 3))
    npt.assert_allclose(nr.feature_extract(Tensor(x), p).data, x, atol=1e-12)


def test_global_extract_of_constant_volume_doubles_the_projection(rng):
    """avg and max coincide on a constant input, so the shared projection is
    applied twice: identity weights turn channel value c into 2c."""
    c = 3
    p = block(rng, "fusion", c)
    p = dataclasses.replace(
        p, g_w=Tensor(np.eye(c).reshape(c, c, 1, 1, 1)), g_b=Tensor(np.zeros(c))
    )
    x = np.full((c, 2, 2, 2), 0.0)
    for ch in range(c):
        x[ch] = 0.3 * (ch + 1)
    out = nr.global_extract(Tensor(x), p).data
    assert out.shape == (c, 1, 1, 1)
    npt.assert_allclose(out[:, 0, 0, 0], 2.0 * np.array([0.3, 0.6, 0.9]), atol=1e-14)


def test_nested_attention_fusion_matches_transcription_oracle(rng):
    for _ in range(3):
        c = int(rng.integers(2, 5))
        shape = tuple(rng.integers(2, 4, size=3))
        x1 = rng.normal(size=(c,) + shape)
        x2 = rng.normal(size=(c,) + shape)
        p = block(rng, "fusion", c)
        got = nr.nested_attention_fusion(Tensor(x1), Tensor(x2), p).data
        npt.assert_allclose(got, fusion_ref(x1, x2, p), atol=1e-9)


def test_fusion_with_zero_decoder_stream_outputs_zero(rng):
    """The final projection re-gates against x1, so a silent decoder stream
    stays silent (given the zero output bias the builder uses)."""
    c = 3
    p = block(rng, "fusion", c)
    p = dataclasses.replace(p, outer_b=Tensor(np.zeros(c)))
    x2 = rng.normal(size=(c, 3, 3, 3))
    out = nr.nested_attention_fusion(Tensor(np.zeros((c, 3, 3, 3))), Tensor(x2), p).data
    npt.assert_array_equal(out, np.zeros((c, 3, 3, 3)))


def test_fusion_rejects_mismatched_inputs(rng):
    p = block(rng, "fusion", 3)
    with pytest.raises(ShapeError):
        nr.nested_attention_fusion(
            Tensor(rng.normal(size=(3, 2, 2, 2))), Tensor(rng.normal(size=(3, 2, 2, 3))), p
        )


def tiny_model(seed=0, precision=64):
    cfg = nr.ModelConfig(
        channels=(2, 4, 6, 8), strides=(2, 2, 2, 1), kernels=(3, 3, 3, 3),
        heads=2, precision=precision, seed=seed,
    )
    return nr.build_model(cfg)


def test_decoder_forward_emits_full_resolution_field(rng):
    model = tiny_model()
    x = Tensor(rng.normal(size=(2, 8, 8, 8)))
    pyramid = nr.encoder_forward(x, model.config, model.enc_stages)
    field = decoder_forward(pyramid, model.config, model.dec_stages, model.head)
    assert field.shape == (3, 8, 8, 8)


def test_freshly_built_model_predicts_the_zero_field(rng):
    """The head starts at zero, so an untrained model must emit the identity
    transform no matter what the encoder produces."""
    model = tiny_model(seed=3)
    moving = rng.uniform(size=(1, 8, 8, 8))
    fixed = rng.uniform(size=(1, 8, 8, 8))
    field = model.forward(nr.Volume(values=Tensor(moving)), nr.Volume(values=Tensor(fixed)))
    npt.assert_array_equal(field.u.data, np.zeros((3, 8, 8, 8)))


@pytest.mark.parametrize("bits", [32, 64])
def test_zero_head_emits_exact_zeros_for_a_batch(rng, bits):
    model = tiny_model(seed=5, precision=bits)
    dtype = np.float32 if bits == 32 else np.float64
    moving, fixed = (nr.Volume(values=Tensor(rng.uniform(size=(2, 1, 8, 8, 8)).astype(dtype))) for _ in range(2))
    field = model.forward(moving, fixed)
    assert field.u.dtype == dtype
    npt.assert_array_equal(field.u.data, np.zeros((2, 3, 8, 8, 8)))


# Bound on max |field - oracle| / max |oracle| between the head applied before
# the last upsample and after it. Measured worst over seeds 0-19, with and
# without a batch: 4.1e-16 at float64 and 2.1e-7 at float32 (eps 1.2e-7).
HEAD_ORDER_BOUNDS = {64: 1e-12, 32: 1e-6}


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_head_before_the_last_upsample_equals_the_head_after_it(rng, bits, batch):
    """The head and the trilinear upsample are linear and the upsample's
    weights sum to 1, so applying the head first changes the field only by
    rounding."""
    model = tiny_model(seed=4, precision=bits)
    dtype = np.float32 if bits == 32 else np.float64
    model.head.w.data = rng.normal(0, 0.3, size=model.head.w.shape).astype(dtype)
    model.head.b.data = rng.normal(0, 0.3, size=model.head.b.shape).astype(dtype)
    x = Tensor(rng.normal(size=batch + (2, 8, 8, 8)).astype(dtype))
    pyramid = nr.encoder_forward(x, model.config, model.enc_stages)
    field = decoder_forward(pyramid, model.config, model.dec_stages, model.head)
    want = decoder_head_last_ref(pyramid, model.config, model.dec_stages, model.head)
    assert field.dtype == want.dtype == dtype
    assert field.shape == want.shape == batch + (3, 8, 8, 8)
    diff = np.abs(field.data - want.data).max()
    assert diff <= HEAD_ORDER_BOUNDS[bits] * np.abs(want.data).max()


def test_randomized_head_produces_nonzero_smooth_field(rng):
    model = tiny_model(seed=3)
    model.head.w.data = rng.normal(0, 0.05, size=model.head.w.shape)
    moving = nr.Volume(values=Tensor(rng.uniform(size=(1, 8, 8, 8))))
    fixed = nr.Volume(values=Tensor(rng.uniform(size=(1, 8, 8, 8))))
    field = model.forward(moving, fixed)
    assert np.abs(field.u.data).max() > 0.0
    assert np.isfinite(field.u.data).all()


def test_decoder_stage_count_must_match_pyramid(rng):
    model = tiny_model()
    x = Tensor(rng.normal(size=(2, 8, 8, 8)))
    pyramid = nr.encoder_forward(x, model.config, model.enc_stages)
    two_stages = nr.ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3))
    with pytest.raises(ConfigError):  # a 2-stage config against 4 stages
        decoder_forward(pyramid, two_stages, model.dec_stages[:2], model.head)
    with pytest.raises(ConfigError):
        decoder_forward(pyramid, model.config, model.dec_stages[:2], model.head)


def test_dae_lka_split_controls_stage_kinds():
    """One decoder stage per encoder stage: the deepest ``dae_blocks`` are
    dual-attention, the rest large-kernel attention."""
    for dae in range(5):
        cfg = nr.ModelConfig(
            channels=(2, 4, 6, 8), strides=(2, 2, 2, 1), kernels=(3, 3, 3, 3),
            heads=2, dae_blocks=dae, precision=64,
        )
        model = nr.build_model(cfg)
        kinds = [type(sp.block) for sp in model.dec_stages]
        assert kinds == [nr.DualBlockParams] * dae + [nr.LkaParams] * (4 - dae)

