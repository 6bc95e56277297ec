"""Hierarchical encoder: patch-embedding geometry, pyramid shapes, and the
attention-branch switches."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import ConfigError, ModelConfig, ShapeError, Tensor
from oracles import conv3d_ref, layernorm_ref


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(
        channels=(2, 4), strides=(2, 2), kernels=(3, 3),
        dae_blocks=1, heads=1, precision=64,
    )
    base.update(kw)
    return nr.ModelConfig(**base)


def test_overlap_patch_embed_halves_extents_and_normalizes(rng):
    model = nr.build_model(tiny_cfg(seed=1))
    x = rng.normal(size=(2, 6, 8, 4))
    v = nr.overlap_patch_embed(Tensor(x), model.enc_stages[0].embed, stride=2)
    assert v.shape == (2, 3, 4, 2)
    # per-voxel layernorm leaves zero mean across channels (gamma=1, beta=0 at init)
    npt.assert_allclose(v.data.mean(axis=0), 0.0, atol=1e-12)


def test_overlap_patch_embed_matches_conv_oracle(rng):
    model = nr.build_model(tiny_cfg(seed=2))
    p = model.enc_stages[0].embed
    x = rng.normal(size=(2, 4, 4, 4))
    v = nr.overlap_patch_embed(Tensor(x), p, stride=2)
    want = layernorm_ref(conv3d_ref(x, p.w.data, p.b.data, stride=2, padding=1), p.gamma.data, p.beta.data, axis=0)
    npt.assert_allclose(v.data, want, atol=1e-12)
    assert v.shape == (2, 2, 2, 2)


def test_overlap_patch_embed_rejects_indivisible_extent(rng):
    model = nr.build_model(tiny_cfg(seed=1))
    with pytest.raises(ShapeError):
        nr.overlap_patch_embed(
            Tensor(rng.normal(size=(2, 5, 4, 4))), model.enc_stages[0].embed, 2
        )


def test_encoder_pyramid_shapes_follow_cumulative_strides(rng):
    cfg = nr.ModelConfig(
        channels=(2, 4, 6, 8), strides=(2, 2, 2, 1), kernels=(3, 3, 3, 3),
        heads=2, precision=64,
    )
    model = nr.build_model(cfg)
    x = Tensor(rng.normal(size=(2, 8, 8, 8)))
    pyramid = nr.encoder_forward(x, cfg, model.enc_stages)
    assert len(pyramid) == 4
    shapes = [s.shape for s in pyramid]
    assert shapes == [(2, 4, 4, 4), (4, 2, 2, 2), (6, 1, 1, 1), (8, 1, 1, 1)]


def test_encoder_rejects_wrong_input_channels(rng):
    cfg = tiny_cfg()
    model = nr.build_model(cfg)
    with pytest.raises(ShapeError):
        nr.encoder_forward(
            Tensor(rng.normal(size=(3, 4, 4, 4))), cfg, model.enc_stages
        )


def test_encoder_stage_count_must_match_params(rng):
    cfg = tiny_cfg()
    model = nr.build_model(cfg)
    with pytest.raises(ConfigError):
        nr.encoder_forward(
            Tensor(rng.normal(size=(2, 4, 4, 4))), cfg, model.enc_stages[:1]
        )


def test_attention_variant_flags_change_the_features(rng):
    x = rng.normal(size=(2, 8, 8, 8))
    outs = {}
    for name, flags in {
        "both": (True, True),
        "ea": (True, False),
        "ca": (False, True),
    }.items():
        cfg = tiny_cfg(use_efficient=flags[0], use_channel=flags[1], seed=7)
        model = nr.build_model(cfg)
        pyr = nr.encoder_forward(Tensor(x), cfg, model.enc_stages)
        outs[name] = pyr[-1].data
    assert not np.allclose(outs["both"], outs["ea"])
    assert not np.allclose(outs["both"], outs["ca"])
    assert not np.allclose(outs["ea"], outs["ca"])
