"""End-to-end plumbing: deterministic builds, parameter accounting against
hand-derived closed forms, the SGD rule, synthetic data, training, resume,
and checkpoint persistence."""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import re
import threading
import warnings
import weakref
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import ConfigError, ContractError, ModelConfig, Parameter, Tensor
from nestreg.train import CURVE_COLUMNS, _generator_at
from oracles import register_ref


def small_cfg(**kw) -> ModelConfig:
    base = dict(
        channels=(2, 4), strides=(2, 2), kernels=(3, 3),
        heads=1, dae_blocks=1, lka_blocks=1,
        epochs=2, batch_size=2, precision=64,
    )
    base.update(kw)
    return ModelConfig(**base)


def small_pairs(n=3, shape=12, seed=0):
    pairs = []
    for i in range(n):
        mv, fx, _ = nr.synth_pair(shape, seed=seed + i, amplitude=1.5, bits=64)
        pairs.append((mv, fx))
    return pairs


# ---------------------------------------------------------------------------
# Builds
# ---------------------------------------------------------------------------


def test_build_is_bit_deterministic_for_a_seed():
    a = nr.build_model(small_cfg(), seed=11)
    b = nr.build_model(small_cfg(), seed=11)
    assert a.state().keys() == b.state().keys()
    for name, arr in a.state().items():
        npt.assert_array_equal(arr, b.state()[name], err_msg=name)


def test_build_seed_changes_weights_and_falls_back_to_config_seed():
    a = nr.build_model(small_cfg(), seed=1)
    b = nr.build_model(small_cfg(), seed=2)
    assert any(
        not np.array_equal(a.state()[k], b.state()[k]) for k in a.state()
    )
    c = nr.build_model(small_cfg(seed=1))  # no explicit seed: cfg.seed applies
    for name, arr in a.state().items():
        npt.assert_array_equal(arr, c.state()[name], err_msg=name)


def test_invalid_configs_are_rejected_with_all_problems():
    with pytest.raises(ConfigError):
        nr.build_model(small_cfg(channels=(2, 4), strides=(2,)), seed=0)
    with pytest.raises(ConfigError):
        nr.build_model(small_cfg(kernels=(2, 2)), seed=0)  # kernel must exceed stride
    with pytest.raises(ConfigError):
        nr.build_model(small_cfg(precision=16), seed=0)
    with pytest.raises(ConfigError):
        nr.build_model(small_cfg(dae_blocks=3), seed=0)  # 3+1 != 2 stages


# One problem each: the stage-count fields follow the stage lists, so only
# the named value is wrong.
ONE_STAGE = dict(dae_blocks=1, lka_blocks=0)
TWO_STAGES = dict(dae_blocks=1, lka_blocks=1)


@pytest.mark.parametrize("overrides, problem", [
    pytest.param(dict(channels=(8,), strides=(2,), kernels=(2,), **ONE_STAGE),
                 "patch kernel 2 must exceed stride 2", id="kernel-not-above-stride"),
    pytest.param(dict(channels=(7, 14), strides=(2, 2), kernels=(3, 3), heads=2, **TWO_STAGES),
                 "channels 7 not divisible by heads 2", id="channels-not-divisible-by-heads"),
    pytest.param(dict(channels=(8, 16), strides=(2,), kernels=(3, 3), **TWO_STAGES),
                 "lengths differ: 2/1/2", id="stage-lists-differ"),
    pytest.param(dict(use_efficient=False, use_channel=False),
                 "at least one of use_efficient/use_channel", id="no-attention-branch"),
    pytest.param(dict(blocks_per_stage=0), "blocks_per_stage must be >= 1", id="no-blocks"),
    pytest.param(dict(ncc_window=4), "ncc_window must be odd", id="even-ncc-window"),
    pytest.param(dict(ncc_eps=0.0), "ncc_eps must be positive", id="zero-ncc-eps"),
    pytest.param(dict(smooth_weight=-1.0), "smooth_weight must be >= 0",
                 id="negative-smooth-weight"),
    pytest.param(dict(heads=2.5), "heads must be an int, got 2.5", id="float-heads"),
    pytest.param(dict(epochs=True), "epochs must be an int", id="bool-epochs"),
    pytest.param(dict(lr=None), "lr must be a real number", id="null-lr"),
    pytest.param(dict(use_channel=1), "use_channel must be a bool", id="int-flag"),
    pytest.param(dict(channels=8), "channels must be a sequence of ints", id="scalar-channels"),
    pytest.param(dict(strides=(4, 2, 2, 2.0)), "strides must be a sequence of ints",
                 id="float-stride"),
])
def test_model_config_validation_reports_each_problem(overrides, problem):
    problems = ModelConfig(**overrides).validate()
    assert len(problems) == 1 and problem in problems[0], problems


def test_defaults_and_values_of_the_right_kind_pass_validation():
    assert ModelConfig().validate() == []
    cfg = ModelConfig(channels=[8, 16, 32, 64], lr=1, seed=np.int64(3), init_std=np.float32(0.1))
    assert cfg.validate() == []


def test_config_dict_roundtrip_and_unknown_keys():
    cfg = small_cfg(lr=0.07, smooth_weight=0.5)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"learning_rate": 0.1})


@pytest.mark.parametrize("field", ["channels", "strides", "kernels"])
def test_config_to_dict_keeps_a_non_sequence_stage_field_for_validate_to_name(field):
    cfg = ModelConfig(**{field: 8})
    assert cfg.to_dict()[field] == 8
    assert f"{field} must be a sequence of ints, got 8" in cfg.validate()


def test_export_list_resolves_without_repeats_or_removed_names():
    assert [name for name in nr.__all__ if not hasattr(nr, name)] == []
    assert len(set(nr.__all__)) == len(nr.__all__)
    for gone in ("EncoderConfig", "DecoderConfig", "LossConfig", "FeaturePyramid"):
        assert gone not in nr.__all__ and not hasattr(nr, gone)


def test_config_hash_tracks_content_not_identity():
    cfg = small_cfg()
    assert nr.config_hash(cfg) == nr.config_hash(ModelConfig.from_dict(cfg.to_dict()))
    assert nr.config_hash(cfg) != nr.config_hash(small_cfg(lr=0.051))
    assert len(nr.config_hash(cfg)) == 64  # sha256 hex


# ---------------------------------------------------------------------------
# Parameter accounting (hand-derived closed forms)
# ---------------------------------------------------------------------------


def ffn_count(c, k=3):
    # w1: c x 4c (+4c), depthwise: 4c*k^3 (+4c), w2: 4c x c (+c)
    return 8 * c * c + 4 * c * k**3 + 9 * c


def dual_count(c, heads, ea=True, ca=True, k=3):
    # two attentions (4 c^2 projections each; +heads log-tau for channel),
    # two layernorm pairs, two Mix-FFNs
    n = 0
    if ea:
        n += 4 * c * c
    if ca:
        n += 4 * c * c + heads
    return n + 4 * c + 2 * ffn_count(c, k)


def lka_count(c):
    # two depthwise 3^3 convs and one pointwise, each with bias
    return c * c + 57 * c


def fusion_count(c, k=3):
    # global proj, 2 depthwise k^3 convs, 4 pointwise convs + selection norm
    return 6 * c * c + 2 * c * k**3 + 10 * c


def embed_count(c, prev, kernel):
    return c * prev * kernel**3 + 3 * c


def expected_table(channels, kernels, heads, blocks, dae, lka, ea=True, ca=True, in_ch=2):
    rows = {}
    enc = 0
    prev = in_ch
    for c, kk in zip(channels, kernels):
        enc += embed_count(c, prev, kk) + blocks * dual_count(c, heads, ea, ca) + 2 * c
        prev = c
    rows["Encoder"] = enc
    other = 3 * channels[0] + 3  # zero-initialized head
    n = len(channels)
    for i in range(dae + lka):
        s = n - 1 - i
        width = channels[s]
        if i < dae:
            rows[f"DAE-Former {i + 1}"] = dual_count(width, heads, ea, ca)
        else:
            rows[f"LKA-Former {i - dae + 1}"] = lka_count(width)
        if s > 0:
            other += channels[s - 1] * width + channels[s - 1]  # 1x1x1 projection
            other += fusion_count(channels[s - 1])
    rows["Other"] = other
    return rows


COUNT_CASES = [
    # (config, hand-computed rows)
    (
        small_cfg(),
        {"Encoder": 2264, "DAE-Former 1": 1337, "LKA-Former 1": 118, "Other": 171},
    ),
    (
        ModelConfig(channels=(4, 8, 12, 16), strides=(2, 2, 2, 2), kernels=(3, 3, 3, 3), heads=2),
        {
            "Encoder": 30104,
            "DAE-Former 1": 9954, "DAE-Former 2": 6314,
            "LKA-Former 1": 520, "LKA-Former 2": 244,
            "Other": 3239,
        },
    ),
    (
        ModelConfig(
            channels=(3, 6), strides=(2, 2), kernels=(3, 3), heads=3,
            blocks_per_stage=2, use_channel=False, dae_blocks=0, lka_blocks=2,
        ),
        {"Encoder": 6777, "LKA-Former 1": 378, "LKA-Former 2": 180, "Other": 279},
    ),
]


@pytest.mark.parametrize("cfg,frozen", COUNT_CASES)
def test_count_params_matches_hand_computed_rows(cfg, frozen):
    table = nr.count_params(cfg)
    assert dict(table.rows) == frozen
    assert table.total == sum(frozen.values())
    derived = expected_table(
        cfg.channels, cfg.kernels, cfg.heads, cfg.blocks_per_stage,
        cfg.dae_blocks, cfg.lka_blocks, cfg.use_efficient, cfg.use_channel,
    )
    assert dict(table.rows) == derived  # closed form and frozen literals agree


@pytest.mark.parametrize("cfg,frozen", COUNT_CASES)
def test_count_params_matches_the_built_model(cfg, frozen):
    model = nr.build_model(cfg, seed=0)
    assert model.num_params == nr.count_params(cfg).total


def test_param_table_render_and_dict():
    table = nr.count_params(small_cfg())
    text = table.render()
    assert "Encoder" in text and "Total" in text and "3,890" in text
    d = table.to_dict()
    assert d["total"] == 3890
    assert d["rows"][0] == ["Encoder", 2264]
    assert table.group("Other") == 171
    with pytest.raises(KeyError):
        table.group("Missing")


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------


def test_sgd_step_frozen_examples():
    p = Parameter(np.array([1.0]), name="p")
    nr.sgd_step({"p": p}, {p: np.array([1.0])}, lr=0.1, weight_decay=0.0)
    npt.assert_allclose(p.data, [0.9])

    q = Parameter(np.array([2.0]), name="q")
    nr.sgd_step({"q": q}, {q: np.array([0.0])}, lr=0.1, weight_decay=0.5)
    npt.assert_allclose(q.data, [1.9])  # pure decay: 2 - 0.1 * (0.5 * 2)


def test_sgd_weight_decay_shrinks_geometrically():
    p = Parameter(np.array([1.0]), name="p")
    for _ in range(3):
        nr.sgd_step({"p": p}, {p: np.array([0.0])}, lr=1.0, weight_decay=0.1)
    npt.assert_allclose(p.data, [0.9**3], rtol=1e-12)


def test_sgd_requires_gradients():
    p = Parameter(np.array([1.0]), name="p")
    with pytest.raises(ContractError, match="'p'"):
        nr.sgd_step({"p": p}, {}, lr=0.1, weight_decay=0.0)
    # A second tape that does not reach p: its gradients must not step p
    # with the first tape's.
    p = Parameter(np.array([1.0, 2.0]), name="p")
    q = Parameter(np.array([3.0]), name="q")
    with nr.GradTape() as tape:
        first = tape.backward(nr.tsum(p * p) + nr.tsum(q * q))
    npt.assert_array_equal(first[p], [2.0, 4.0])
    with nr.GradTape() as tape:
        second = tape.backward(nr.tsum(q * q))
    with pytest.raises(ContractError, match="'p'") as err:
        nr.sgd_step({"p": p, "q": q}, second, lr=0.1, weight_decay=0.0)
    assert "'q'" not in str(err.value)
    npt.assert_array_equal(p.data, [1.0, 2.0])
    npt.assert_array_equal(q.data, [3.0])  # nothing is stepped on an error


# ---------------------------------------------------------------------------
# Synthetic pairs
# ---------------------------------------------------------------------------


def test_synth_pair_shapes_dtypes_and_determinism():
    mv, fx, truth = nr.synth_pair(10, seed=4, amplitude=2.0, bits=32)
    assert mv.values.shape == (1, 10, 10, 10)
    assert fx.values.shape == (1, 10, 10, 10)
    assert truth.u.shape == (3, 10, 10, 10)
    assert mv.values.dtype == np.float32
    mv2, fx2, truth2 = nr.synth_pair(10, seed=4, amplitude=2.0, bits=32)
    npt.assert_array_equal(mv.values.data, mv2.values.data)
    npt.assert_array_equal(fx.values.data, fx2.values.data)
    npt.assert_array_equal(truth.u.data, truth2.u.data)
    mv3, _, _ = nr.synth_pair(10, seed=5, amplitude=2.0, bits=32)
    assert not np.array_equal(mv.values.data, mv3.values.data)


def test_synth_pair_respects_amplitude_and_stays_fold_free():
    for seed in range(5):
        _, _, truth = nr.synth_pair(12, seed=seed, amplitude=2.5, bits=64)
        assert np.abs(truth.u.data).max() <= 2.5 + 1e-9
        assert np.abs(truth.u.data).max() > 0.0
        assert nr.sdlogj(truth.u.data).nonpositive_fraction == 0.0


def test_synth_pair_amplitude_zero_reduces_to_intensity_remap():
    mv, fx, truth = nr.synth_pair(8, seed=1, amplitude=0.0, bits=64)
    npt.assert_array_equal(truth.u.data, 0.0)
    npt.assert_allclose(mv.values.data, np.clip(fx.values.data, 0, 1) ** 0.85, rtol=1e-12)


def test_synth_pair_intensities_are_normalized():
    mv, fx, _ = nr.synth_pair(12, seed=9, amplitude=1.0, bits=64)
    for v in (mv.values.data, fx.values.data):
        assert v.min() >= 0.0
        assert v.max() <= 1.0 + 1e-12
    assert fx.values.data.max() == 1.0  # phantom peak normalized


def test_synth_pair_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        nr.synth_pair((4, 4), seed=0)
    with pytest.raises(ConfigError):
        nr.synth_pair(8, seed=0, amplitude=-1.0)


def test_split_pairs_conventions():
    pairs = [(i, i) for i in range(5)]
    tr, va = nr.split_pairs(pairs)
    assert (len(tr), len(va)) == (4, 1)
    assert tr + va == pairs  # order preserved
    single = [(0, 0)]
    tr, va = nr.split_pairs(single)
    assert tr == va == single
    with pytest.raises(ContractError):
        nr.split_pairs([])


# ---------------------------------------------------------------------------
# Training, resume, checkpoints
# ---------------------------------------------------------------------------


def test_train_produces_contiguous_finite_curve(tmp_path):
    model = nr.build_model(small_cfg(epochs=3), seed=0)
    pairs = small_pairs(3)
    tr, va = nr.split_pairs(pairs)
    result = nr.train(model, tr, va, out_dir=tmp_path)
    assert [r.epoch for r in result.curve.rows] == [1, 2, 3]
    for r in result.curve.rows:
        assert all(map(np.isfinite, (r.train_loss, r.val_loss, r.train_ssim, r.val_ssim)))
    assert result.last.epoch == 3
    assert result.best.epoch <= 3
    assert (tmp_path / "checkpoint_best.npz").exists()
    assert (tmp_path / "checkpoint_last.npz").exists()
    assert (tmp_path / "curve.csv").exists()
    assert not list(tmp_path.glob(".tmp-*"))  # atomic writes leave no debris


def test_train_same_seed_same_curve_bitwise():
    def run():
        model = nr.build_model(small_cfg(epochs=2, seed=5))
        tr, va = nr.split_pairs(small_pairs(3, seed=2))
        return nr.train(model, tr, va)

    a, b = run(), run()
    assert len(a.curve) == len(b.curve)
    for ra, rb in zip(a.curve.rows, b.curve.rows):
        assert ra == rb  # float equality, not approx


def test_train_frees_each_steps_gradients_before_the_next_backward(monkeypatch):
    """A step's gradients die after its SGD step: they never sit in memory
    beside the next step's backward."""
    module = importlib.import_module("nestreg.train")
    backward, step = nr.GradTape.backward, module.sgd_step
    held, alive = [], []

    def spy_backward(tape, loss):
        alive.append(sum(ref() is not None for ref in held))
        return backward(tape, loss)

    def spy_step(params, grads, lr, weight_decay):
        held[:] = [weakref.ref(g) for g in grads.values()]
        step(params, grads, lr, weight_decay)

    monkeypatch.setattr(nr.GradTape, "backward", spy_backward)
    monkeypatch.setattr(module, "sgd_step", spy_step)
    tr, va = nr.split_pairs(small_pairs(4))  # 3 train pairs: two steps per epoch
    nr.train(nr.build_model(small_cfg(epochs=2), seed=0), tr, va)
    assert held and alive == [0, 0, 0, 0]


def test_resumed_run_replays_the_straight_through_run():
    tr, va = nr.split_pairs(small_pairs(3, seed=7))

    straight = nr.build_model(small_cfg(epochs=4, seed=3))
    full = nr.train(straight, tr, va)

    stop = nr.build_model(small_cfg(epochs=2, seed=3))
    part = nr.train(stop, tr, va)
    resumed = nr.build_model(small_cfg(epochs=4, seed=3))
    rest = nr.train(resumed, tr, va, resume=part.last)

    assert [r.epoch for r in rest.curve.rows] == [3, 4]
    for ra, rb in zip(full.curve.rows[2:], rest.curve.rows):
        assert ra == rb
    for name, arr in straight.state().items():
        npt.assert_array_equal(arr, resumed.state()[name], err_msg=name)


def test_resume_leaves_the_checkpoint_it_starts_from_unchanged():
    """Training updates parameters in place; resuming must not write through
    into the checkpoint, so a second resume from it replays the first."""
    tr, va = nr.split_pairs(small_pairs(3, seed=7))
    part = nr.train(nr.build_model(small_cfg(epochs=1, seed=3)), tr, va)
    before = {name: arr.copy() for name, arr in part.last.params.items()}
    runs = []
    for _ in range(2):
        model = nr.build_model(small_cfg(epochs=3, seed=3))
        runs.append((nr.train(model, tr, va, resume=part.last), model.state()))
    (first, first_state), (second, second_state) = runs
    assert first.curve.rows == second.curve.rows
    for name, arr in first_state.items():
        npt.assert_array_equal(arr, second_state[name], err_msg=name)
    assert any(not np.array_equal(first_state[name], arr) for name, arr in before.items())
    for name, arr in before.items():
        npt.assert_array_equal(part.last.params[name], arr, err_msg=name)


def test_resume_into_its_run_directory_keeps_the_earlier_best_and_curve(tmp_path):
    """A 2-epoch run plus a resume to epoch 4 writes the same curve.csv and
    checkpoint_best.npz as a straight 4-epoch run, whose best epoch falls in
    the first two."""
    tr, va = nr.split_pairs(small_pairs(3, seed=0))
    straight, split = tmp_path / "straight", tmp_path / "split"
    nr.train(nr.build_model(small_cfg(epochs=4, seed=0)), tr, va, out_dir=straight)
    nr.train(nr.build_model(small_cfg(epochs=2, seed=0)), tr, va, out_dir=split)
    part = nr.load_checkpoint(split / "checkpoint_last.npz")
    rest = nr.train(nr.build_model(small_cfg(epochs=4, seed=0)), tr, va,
                    out_dir=split, resume=part)

    assert [r.epoch for r in rest.curve.rows] == [3, 4]
    assert (split / "curve.csv").read_bytes() == (straight / "curve.csv").read_bytes()
    want = nr.load_checkpoint(straight / "checkpoint_best.npz")
    got = nr.load_checkpoint(split / "checkpoint_best.npz")
    assert got.epoch == want.epoch == rest.best.epoch <= part.epoch
    for name, arr in want.params.items():
        npt.assert_array_equal(got.params[name], arr, err_msg=name)
        npt.assert_array_equal(rest.best.params[name], arr, err_msg=name)


def test_resume_past_the_end_of_a_directory_curve_skips_epochs_and_resumes_there_again(tmp_path):
    """A resume from a later run's epoch-3 checkpoint into a directory whose
    curve ends at epoch 1 keeps that row and writes epochs 4 on: the curve
    skips epochs 2 and 3, loads, and a further resume there continues it."""
    tr, va = nr.split_pairs(small_pairs(3, seed=0))
    nr.train(nr.build_model(small_cfg(epochs=1, seed=0)), tr, va, out_dir=tmp_path)
    later = nr.train(nr.build_model(small_cfg(epochs=3, seed=0)), tr, va)
    nr.train(nr.build_model(small_cfg(epochs=4, seed=0)), tr, va, out_dir=tmp_path, resume=later.last)
    curve = tmp_path / "curve.csv"
    assert [r.epoch for r in nr.read_curve_csv(curve).rows] == [1, 4]
    last = nr.load_checkpoint(tmp_path / "checkpoint_last.npz")
    nr.train(nr.build_model(small_cfg(epochs=5, seed=0)), tr, va, out_dir=tmp_path, resume=last)
    assert [r.epoch for r in nr.read_curve_csv(curve).rows] == [1, 4, 5]


def test_resume_into_a_directory_whose_best_disagrees_with_its_curve_is_rejected(tmp_path):
    tr, va = nr.split_pairs(small_pairs(3, seed=0))
    first = nr.train(nr.build_model(small_cfg(epochs=2, seed=0)), tr, va, out_dir=tmp_path)
    assert first.best.epoch == 1
    nr.save_checkpoint(tmp_path / "checkpoint_best.npz", first.last)
    with pytest.raises(ContractError, match="checkpoint_best"):
        nr.train(nr.build_model(small_cfg(epochs=4, seed=0)), tr, va,
                 out_dir=tmp_path, resume=first.last)


def test_resume_past_the_end_is_rejected():
    model = nr.build_model(small_cfg(epochs=2, seed=3))
    tr, va = nr.split_pairs(small_pairs(2))
    done = nr.train(model, tr, va)
    with pytest.raises(ContractError):
        nr.train(model, tr, va, resume=done.last)


def test_resume_with_a_config_that_differs_beyond_epochs_is_rejected():
    """A resumed run continues the checkpoint's objective and numerics; only
    epochs may change, and the error names each other differing field."""
    tr, va = nr.split_pairs(small_pairs(2))
    part = nr.train(nr.build_model(small_cfg(epochs=1, ncc_window=3), seed=0), tr, va)
    changed = nr.build_model(small_cfg(epochs=3, precision=32), seed=0)
    before = changed.state()
    with pytest.raises(ContractError) as err:
        nr.train(changed, tr, va, resume=part.last)
    msg = str(err.value)
    assert "ncc_window 3 in the checkpoint, 5 in the run" in msg
    assert "precision 64 in the checkpoint, 32 in the run" in msg
    assert "epochs" not in msg
    for name, arr in before.items():
        npt.assert_array_equal(changed.state()[name], arr, err_msg=name)


def test_checkpoint_roundtrip_preserves_forward_bit_for_bit(tmp_path, rng):
    model = nr.build_model(small_cfg(epochs=1, seed=1))
    tr, va = nr.split_pairs(small_pairs(2))
    result = nr.train(model, tr, va)
    path = tmp_path / "ckpt.npz"
    nr.save_checkpoint(path, result.last)
    loaded = nr.load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.epoch == result.last.epoch
    assert loaded.rng_state == result.last.rng_state
    for name, arr in result.last.params.items():
        npt.assert_array_equal(arr, loaded.params[name], err_msg=name)

    rebuilt = nr.model_from_checkpoint(loaded)
    mv, fx = tr[0]
    npt.assert_array_equal(
        rebuilt.forward(mv, fx).u.data, model.forward(mv, fx).u.data
    )


@pytest.mark.parametrize("precision", [32, 64])
def test_checkpoint_is_one_indexed_buffer_that_round_trips_bit_for_bit(tmp_path, precision):
    model = nr.build_model(small_cfg(precision=precision), seed=2)
    state = model.state()
    path = tmp_path / "ckpt.npz"
    nr.save_checkpoint(path, nr.Checkpoint(model.config, state, 3, {}))
    with np.load(path) as data:
        assert sorted(data.files) == ["__meta__", "__params__"]
        meta = json.loads(bytes(data["__meta__"]).decode())
        flat = data["__params__"]
    assert sorted(meta) == ["config", "epoch", "params", "rng_state"]
    assert meta["params"] == [[name, list(arr.shape)] for name, arr in state.items()]
    assert flat.dtype == model.dtype and flat.shape == (sum(a.size for a in state.values()),)

    loaded = nr.load_checkpoint(path)
    assert list(loaded.params) == list(state)
    for name, arr in state.items():
        npt.assert_array_equal(loaded.params[name], arr, err_msg=name, strict=True)
    model.load_state(loaded.params)
    for name, arr in model.state().items():
        npt.assert_array_equal(arr, state[name], err_msg=name, strict=True)


def test_checkpoint_without_parameters_round_trips(tmp_path):
    path = tmp_path / "ckpt.npz"
    nr.save_checkpoint(path, nr.Checkpoint(small_cfg(), {}, 0, {}))
    loaded = nr.load_checkpoint(path)
    assert loaded.params == {} and loaded.config == small_cfg() and loaded.epoch == 0


def _checkpoint_bytes(params):
    """An npz of a valid config, epoch and rng_state, the given ``params``
    index, and a 4-value parameter buffer."""
    return _meta_bytes({"config": small_cfg().to_dict(), "epoch": 1, "rng_state": {},
                        "params": params})


def _meta_bytes(meta):
    """An npz of the given ``__meta__`` and a 4-value parameter buffer."""
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             __params__=np.zeros(4))
    return buf.getvalue()


@pytest.mark.parametrize("params", [
    [["w", [2, "a"]]],
    [["w"]],
    "abc",
    None,
    [["w", [2.0, 2]]],
    [["w", [-2, -2]]],
], ids=["str-extent", "no-shape", "str-index", "null-index", "float-extent", "negative-extents"])
def test_load_checkpoint_with_a_malformed_index_names_the_file(tmp_path, params):
    path = tmp_path / "ckpt.npz"
    path.write_bytes(_checkpoint_bytes(params))
    with pytest.raises(ContractError, match=re.escape(str(path))):
        nr.load_checkpoint(path)


@pytest.mark.parametrize("uinteger", [
    {"__ndarray__": "<u8"},
    {"__ndarray__": "(1000,1000)f8", "values": [1]},
], ids=["encoded-array-without-values", "encoded-array-of-a-subarray-dtype"])
def test_resume_from_an_rng_state_holding_an_encoded_array_raises_contract_error(tmp_path, uinteger):
    """Checkpoints hold PCG64 states, a string and ints, as plain JSON: an
    entry in the layout of an encoded array loads as the dict it is, and a
    resumed run refuses it."""
    model = nr.build_model(small_cfg(), seed=1)
    state = {**np.random.default_rng(0).bit_generator.state, "uinteger": uinteger}
    path = tmp_path / "ckpt.npz"
    nr.save_checkpoint(path, nr.Checkpoint(model.config, model.state(), 1, state))
    loaded = nr.load_checkpoint(path)
    assert loaded.rng_state == state
    tr, va = nr.split_pairs(small_pairs(2))
    with pytest.raises(ContractError, match="rng_state is no PCG64 state"):
        nr.train(model, tr, va, resume=loaded)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
_INDEX = st.lists(st.tuples(st.text(max_size=1), st.lists(st.integers(0, 2), max_size=2)).map(list),
                  max_size=3)
_NEAR_INDEX = st.lists(st.lists(st.text(max_size=1) | st.lists(st.integers(-2, 4) | _JSON, max_size=3),
                                max_size=3), max_size=3)


@given(params=_INDEX | _NEAR_INDEX | _JSON)
def test_load_checkpoint_of_any_parameter_index_loads_or_raises_contract_error(params):
    """Indices mix lists, strings, ints, floats and null at any depth; one
    that loads splits the 4-value buffer among unique names."""
    try:
        loaded = nr.load_checkpoint(io.BytesIO(_checkpoint_bytes(params)))
    except ContractError:
        return
    assert [name for name, _ in params] == list(loaded.params)
    assert sum(a.size for a in loaded.params.values()) == 4


_HUGE = st.integers(-2**130, 2**130)
_ANY = _JSON | st.dictionaries(st.text(max_size=3), _JSON, max_size=3)
_CONFIG = small_cfg().to_dict()
_CONFIGS = (
    st.just(_CONFIG)
    | st.builds(lambda k, v: {**_CONFIG, k: v}, st.sampled_from(sorted(_CONFIG)), _JSON | _HUGE)
    | st.builds(lambda k: {**_CONFIG, k: 1}, st.text(min_size=1, max_size=3))
)
_STATE = np.random.default_rng(0).bit_generator.state  # a PCG64 state: str and ints
_RNG_STATES = (
    st.just(_STATE)
    | st.builds(lambda k, v: {**_STATE, "state": {**_STATE["state"], k: v}},
                st.sampled_from(["state", "inc"]), _HUGE | _JSON)
    | st.builds(lambda k, v: {**_STATE, k: v}, st.sampled_from(sorted(_STATE)), _HUGE | _ANY)
    | st.builds(lambda code, values: {**_STATE, "uinteger": {"__ndarray__": code, "values": values}},
                st.sampled_from(["<u8", "<i4", "|b1", "<f8"]) | st.text(max_size=3), _JSON)
)
_NEAR = {
    "config": _CONFIGS,
    "epoch": st.integers(-3, 5) | st.booleans() | _HUGE,
    "rng_state": _RNG_STATES,
    "params": _INDEX | _NEAR_INDEX,
}


@st.composite
def _metas(draw):
    """A checkpoint ``__meta__`` with up to two of its entries changed: each
    left out, changed in one place, or replaced by any JSON."""
    meta = {"config": _CONFIG, "epoch": 1, "rng_state": _STATE, "params": [["w", [2, 2]]]}
    for key in draw(st.lists(st.sampled_from(sorted(meta)), max_size=2, unique=True)):
        how = draw(st.sampled_from(["near", "near", "leave out", "any"]))
        if how == "leave out":
            del meta[key]
        else:
            meta[key] = draw(_NEAR[key] if how == "near" else _ANY)
    return meta


@given(meta=_metas())
def test_load_checkpoint_of_any_metadata_loads_or_raises_a_documented_error(meta):
    """The whole ``__meta__`` at once. A checkpoint that loads has an epoch
    >= 0 and the index's names; its config validates or raises
    ``ConfigError``, and a resumed run takes its ``rng_state`` or raises
    ``ContractError``."""
    try:
        loaded = nr.load_checkpoint(io.BytesIO(_meta_bytes(meta)))
    except (ConfigError, ContractError):
        return
    assert type(loaded.epoch) is int and loaded.epoch >= 0
    assert list(loaded.params) == [name for name, _ in meta["params"]]
    with contextlib.suppress(ConfigError):
        loaded.config.validated()
    with contextlib.suppress(ContractError):
        _generator_at(loaded.rng_state)


def test_save_checkpoint_rejects_mixed_parameter_dtypes(tmp_path):
    state = nr.build_model(small_cfg(), seed=1).state()
    first = next(iter(state))
    state[first] = state[first].astype(np.float32)
    path = tmp_path / "ckpt.npz"
    with pytest.raises(ContractError, match="mix dtypes"):
        nr.save_checkpoint(path, nr.Checkpoint(small_cfg(), state, 1, {}))
    assert not path.exists()


@pytest.mark.parametrize("overrides, problem", [
    (dict(channels=8), "channels must be a sequence of ints, got 8"),
    (dict(heads=3), "not divisible by heads 3"),
])
def test_save_checkpoint_refuses_an_invalid_config_naming_its_problems(tmp_path, overrides, problem):
    path = tmp_path / "ckpt.npz"
    with pytest.raises(ConfigError, match=problem):
        nr.save_checkpoint(path, nr.Checkpoint(small_cfg(**overrides), {}, 1, {}))
    assert not path.exists()


def test_checkpoint_whose_index_does_not_match_its_buffer_is_rejected(tmp_path):
    state = nr.build_model(small_cfg(), seed=1).state()
    index = [[name, list(arr.shape)] for name, arr in state.items()]
    flat = np.concatenate([arr.ravel() for arr in state.values()])
    repeated = [index[0], [index[0][0], index[1][1]]] + index[2:]  # sizes still sum up
    cases = {
        "short": (index, flat[:-1]),
        "long": (index, np.append(flat, 0.0)),
        "duplicate": (repeated, flat),
        "no_index": ([], flat),
    }
    for what, (idx, buf) in cases.items():
        path = tmp_path / f"{what}.npz"
        meta = {"config": small_cfg().to_dict(), "epoch": 1, "rng_state": {}, "params": idx}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 __params__=buf)
        with pytest.raises(ContractError, match=re.escape(str(path))):
            nr.load_checkpoint(path)


def test_load_state_rejects_mismatched_checkpoints():
    model = nr.build_model(small_cfg(), seed=0)
    state = model.state()
    state.pop(next(iter(state)))
    with pytest.raises(ContractError):
        model.load_state(state)
    state = model.state()
    first = next(iter(state))
    state[first] = np.zeros((1, 2, 3))
    with pytest.raises(ContractError):
        model.load_state(state)


def test_curve_csv_roundtrip_preserves_float64_exactly(tmp_path):
    curve = nr.TrainingCurve()
    curve.append(nr.EpochStats(1, 0.1 + 0.2, 1 / 3, 0.9999999999999999, -0.25))
    curve.append(nr.EpochStats(2, 1e-17, 2.5e300, 0.0, 1.0))
    path = tmp_path / "curve.csv"
    nr.write_curve_csv(path, curve)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,train_loss,val_loss,train_ssim,val_ssim"
    again = nr.read_curve_csv(path)
    assert again.rows == curve.rows
    with pytest.raises(ContractError):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,nope\n")
        nr.read_curve_csv(bad)


_CELLS = st.sampled_from(["1", "0", "-1", "1.5", "nan", "inf", "-inf", "1e999", "", " 2", "abc"]) | st.text(max_size=4)


@st.composite
def _curve_texts(draw):
    """A curve file near a valid one: up to three valid rows (epochs from 1
    or 2, each one or two above the last), perhaps one cell changed, perhaps a row of any cells after them, under the header or
    any text."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    epochs = itertools.accumulate(draw(st.lists(st.integers(1, 2), max_size=3)))
    rows = [[str(epoch)] + [repr(draw(finite)) for _ in range(4)] for epoch in epochs]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 4))] = draw(_CELLS)
    if draw(st.booleans()):
        rows.append(draw(st.lists(_CELLS, max_size=6)))
    header = draw(st.just(",".join(CURVE_COLUMNS)) | st.text(max_size=8))
    return "".join(line + "\n" for line in [header] + [",".join(r) for r in rows])


@given(text=_curve_texts())
def test_read_curve_csv_of_any_text_loads_or_raises_contract_error(tmp_path_factory, text):
    """A curve that loads holds increasing epochs from 1 on with finite
    values, and writes back to the same rows."""
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    path.write_bytes(text.encode())
    try:
        curve = nr.read_curve_csv(path)
    except ContractError as e:
        assert str(path) in str(e)
        return
    epochs = [r.epoch for r in curve.rows]
    assert all(e > after for e, after in zip(epochs, [0] + epochs))
    assert all(math.isfinite(v) for r in curve.rows for v in astuple(r)[1:])
    nr.write_curve_csv(path, curve)
    assert nr.read_curve_csv(path).rows == curve.rows


def test_model_forward_enforces_precision_contract(rng):
    model = nr.build_model(small_cfg(precision=32), seed=0)
    x64 = nr.Volume(values=Tensor(rng.uniform(size=(1, 8, 8, 8))))
    with pytest.raises(nr.ShapeError):
        model.forward(x64, x64)
    x32 = x64.astype(32)
    field = model.forward(x32, x32)
    assert field.u.dtype == np.float32


def test_register_reports_identity_for_an_untrained_model():
    mv, fx, _ = nr.synth_pair(12, seed=3, amplitude=1.5, bits=64)
    model = nr.build_model(small_cfg(), seed=0)
    field, warped, report = nr.register(model, mv, fx)
    npt.assert_array_equal(field.u.data, 0.0)
    npt.assert_array_equal(warped.values.data, mv.values.data)
    assert report.ssim == report.ssim_initial
    assert report.hd95 == report.hd95_initial
    assert report.sdlogj == 0.0
    assert report.folding_fraction == 0.0
    assert report.loss_smoothness == 0.0


def _noised_head(model, seed=9, scale=0.1):
    """``model`` with a random head, so that it predicts a non-zero field."""
    rng = np.random.default_rng(seed)
    for name in ("head.w", "head.b"):
        p = model.registry[name]
        p.data = rng.normal(0.0, scale, size=p.data.shape).astype(p.data.dtype)
    return model


@pytest.mark.parametrize("shape", [32, (24, 32, 20)])
def test_register_report_equals_the_single_metric_calls(shape):
    """The report's SSIM and HD95 equal one call per pair, exactly."""
    mv, fx, _ = nr.synth_pair(shape, seed=4, amplitude=1.5)
    model = _noised_head(nr.build_model(small_cfg(precision=32), seed=0), scale=0.5)
    field, warped, report = nr.register(model, mv, fx)
    assert np.abs(field.u.data).max() > 0.1
    assert report.ssim_initial == nr.ssim(mv, fx)
    assert report.ssim == nr.ssim(warped, fx)
    mask_fx = nr.mask_from_volume(fx)
    assert report.hd95_initial == nr.hd95(nr.mask_from_volume(mv), mask_fx)
    assert report.hd95 == nr.hd95(nr.mask_from_volume(warped), mask_fx)
    assert report.ssim != report.ssim_initial


@pytest.mark.parametrize("shape, seed", [(32, 3), (32, 4), (32, 5), (64, 3)])
def test_register_equals_its_sequential_oracle_bit_for_bit(shape, seed):
    """The metrics overlapped on a worker thread give the field, warped
    volume and every report value of the one-thread composition."""
    model = _noised_head(nr.build_model(ModelConfig(), seed=0))
    mv, fx, _ = nr.synth_pair(shape, seed=seed)
    field, warped, report = nr.register(model, mv, fx)
    want_field, want_warped, want_report = register_ref(model, mv, fx)
    assert np.abs(field.u.data).max() > 0.5
    assert field.u.data.tobytes() == want_field.u.data.tobytes()
    assert warped.values.data.tobytes() == want_warped.values.data.tobytes()
    got, want = report.to_dict(), want_report.to_dict()
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
    assert got.keys() == want.keys()


# The order of register's steps when they ran one after another on one
# thread: a failing step stopped the call, so its error was the one raised.
# The fixed volume's reference is built before the first score, which needs
# it; each score (metrics.score) runs its SSIM, then its HD95.
_REGISTER_STEPS = ("forward", "loss", "sdlogj", "reference", "ssim_initial", "hd95_initial",
                   "ssim_final", "hd95_final")
_METRIC_STEPS = _REGISTER_STEPS[2:]


class _StepError(nr.UndefinedMetricError):
    pass


def _register_with_failing_steps(monkeypatch, failing):
    """``register`` on a small pair with each step named in ``failing``
    raising a ``_StepError`` that names it: the name of the step whose error
    it raised, or None when it returned. The step "ncc_sums" is the worker's
    NCC window sums of the fixed volume, which the loss rebuilds when they
    fail."""
    model = _noised_head(nr.build_model(small_cfg(precision=32), seed=0), scale=0.5)
    mv, fx, _ = nr.synth_pair(16, seed=4, amplitude=1.5)
    _, warped, _ = register_ref(model, mv, fx)
    moving_mask = nr.mask_from_volume(mv)
    assert not np.array_equal(moving_mask, nr.mask_from_volume(warped))

    def step(name, fn):
        def run(*args):
            if name in failing:
                raise _StepError(name)
            return fn(*args)
        return run

    ssim, hd95 = nr.metrics.ssim, nr.metrics.hd95
    moving = mv.astype(32).values.data

    def fake_ssim(a, ref):
        assert isinstance(ref, nr.FixedReference)
        initial = np.array_equal(a.values.data, moving)
        return step("ssim_initial" if initial else "ssim_final", ssim)(a, ref)

    def fake_hd95(a, ref):
        assert isinstance(ref, nr.FixedReference)
        initial = np.array_equal(a, moving_mask)
        return step("hd95_initial" if initial else "hd95_final", hd95)(a, ref)

    monkeypatch.setattr(model, "forward", step("forward", model.forward))
    monkeypatch.setattr(nr.model, "ncc_fixed_sums", step("ncc_sums", nr.model.ncc_fixed_sums))
    monkeypatch.setattr(nr.model, "composite_loss", step("loss", nr.model.composite_loss))
    monkeypatch.setattr(nr.metrics, "sdlogj", step("sdlogj", nr.metrics.sdlogj))
    monkeypatch.setattr(nr.metrics.FixedReference, "__init__",
                        step("reference", nr.metrics.FixedReference.__init__))
    monkeypatch.setattr(nr.metrics, "ssim", fake_ssim)
    monkeypatch.setattr(nr.metrics, "hd95", fake_hd95)
    try:
        nr.register(model, mv, fx)
    except _StepError as e:
        return str(e)
    return None


@pytest.mark.parametrize("failing", [
    *(s for n in range(len(_METRIC_STEPS) + 1) for s in itertools.combinations(_METRIC_STEPS, n)),
    ("forward", *_METRIC_STEPS),
    ("loss", *_METRIC_STEPS),
    ("forward", "sdlogj", "ssim_initial", "hd95_initial", "ssim_final", "hd95_final"),
    ("loss", "sdlogj", "ssim_initial", "hd95_initial", "ssim_final", "hd95_final"),
    ("ncc_sums",),
    ("forward", "ncc_sums", *_METRIC_STEPS),
    ("ncc_sums", "loss", *_METRIC_STEPS),
    ("ncc_sums", *_METRIC_STEPS),
], ids=lambda s: "-".join(s) or "none")
def test_register_raises_the_error_of_the_first_failing_step_and_leaves_no_thread(monkeypatch, failing):
    """Whichever steps fail, ``register`` raises the error of the step that
    the one-thread order (forward, loss, SDlogJ, reference, the moving
    volume's SSIM and HD95, the warped volume's SSIM and HD95) reaches
    first, and no thread outlives the call. Failed NCC sums raise nothing
    of their own: the loss rebuilds them."""
    before = threading.active_count()
    want = next((s for s in failing if s != "ncc_sums"), None)
    assert _register_with_failing_steps(monkeypatch, set(failing)) == want
    assert threading.active_count() == before


@pytest.mark.parametrize("case, error", [
    ("batched pair", "sdlogj expects a [3,D,H,W] field, got (2, 3, 32, 32, 32)"),
    ("window 9 on 8^3", "ncc_loss: extents (8, 8, 8) smaller than window 9"),
    ("window 9 on 8^3, non-finite field", "warp: displacement field contains non-finite values"),
])
def test_register_raises_the_error_of_the_one_thread_order_on_real_inputs(case, error):
    """Inputs that fail the fixed volume's reference or NCC sums on the
    worker still raise the error that one step after another raises: a batch
    fails SDlogJ before the reference, and the loss's warp and window checks
    come before anything the sums found. Neither thread warns."""
    cfg = small_cfg(precision=32, ncc_window=5 if case == "batched pair" else 9)
    model = nr.build_model(cfg, seed=0)
    if case == "batched pair":
        pair = nr.synth_pair(32, seed=4)[:2]
        mv, fx = (nr.Volume(values=Tensor(np.stack([v.values.data] * 2))) for v in pair)
    else:
        mv, fx, _ = nr.synth_pair(8, seed=4)
    if case.endswith("non-finite field"):
        model.registry["head.b"].data[:] = np.inf
    with warnings.catch_warnings(record=True) as caught, pytest.raises(nr.EngineError) as info:
        warnings.simplefilter("always")
        nr.register(model, mv, fx)
    assert str(info.value) == error
    assert [str(w.message) for w in caught] == []
    with pytest.raises(nr.EngineError) as info:
        register_ref(model, mv, fx)
    assert str(info.value) == error


def test_register_after_a_failed_register_succeeds(monkeypatch):
    mv, fx, _ = nr.synth_pair(16, seed=4, amplitude=1.5)
    model = nr.build_model(small_cfg(precision=32), seed=0)
    before = threading.active_count()
    assert _register_with_failing_steps(monkeypatch, {"ssim_final", "hd95_initial"}) == "hd95_initial"
    monkeypatch.undo()
    report = nr.register(model, mv, fx)[2]
    assert threading.active_count() == before
    assert report.to_dict() == register_ref(model, mv, fx)[2].to_dict()
