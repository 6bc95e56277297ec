"""Tape mechanics and reverse-mode gradients against closed forms and
central differences, including a sabotage test that proves the checker can
actually fail."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
import nestreg.decoder
import nestreg.tensor as T
from nestreg import ContractError, GradTape, NumericError, Tensor
from nestreg.diagnostics import (
    _FULL_MODEL_CHECKS,
    _ROWS,
    _TINY_MODEL_SALT,
    MAX_POOL_MARGIN,
    _full_model_inputs,
    _rng,
)


def leaf(rng, *shape, scale=1.0):
    t = Tensor(rng.normal(0.0, scale, size=shape))
    t.requires_grad = True
    return t


def test_product_rule_grads_are_exact(rng):
    a = leaf(rng, 4, 3)
    b = leaf(rng, 4, 3)
    with GradTape() as tape:
        loss = nr.tsum(a * b)
        grads = tape.backward(loss)
    npt.assert_array_equal(grads[a], b.data)
    npt.assert_array_equal(grads[b], a.data)


def test_fanout_accumulates_gradient(rng):
    x = leaf(rng, 5)
    with GradTape() as tape:
        z = x + x
        grads = tape.backward(nr.tsum(z * x))  # d/dx sum(2x * x) = 4x
    npt.assert_allclose(grads[x], 4.0 * x.data, rtol=1e-15)


@pytest.mark.parametrize("join", [
    lambda a, b: a + b,
    lambda a, b: nr.make_op(a.data + b.data, (a, b), lambda g: (g, g)),  # an extension op
], ids=["add", "make_op"])
def test_one_array_handed_to_two_inputs_accumulates_into_each_alone(join):
    """The vjp returns one array for both inputs; a later part for ``a`` must
    not reach ``b``'s gradient."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        z = a * 2.0
        y = join(a, b)
        grads = tape.backward(nr.tsum(y) + nr.tsum(z))
    npt.assert_array_equal(grads[a], [3.0, 3.0, 3.0])
    npt.assert_array_equal(grads[b], [1.0, 1.0, 1.0])


def test_the_copy_of_a_shared_part_keeps_its_memory_layout():
    """Later matmuls round by operand layout, so a C-ordered copy would change
    the model's gradients in the last bits."""
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((3, 4)), requires_grad=True)
    with GradTape() as tape:
        y = nr.make_op(a.data + b.data, (a, b), lambda g: (np.asfortranarray(g),) * 2)
        grads = tape.backward(nr.tsum(y))
    assert not np.shares_memory(grads[a], grads[b])
    assert grads[b].flags.f_contiguous and not grads[b].flags.c_contiguous


def test_matmul_grads_match_closed_form(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4, 2)
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(nr.matmul(a, b)))
    ones = np.ones((3, 2))
    npt.assert_allclose(grads[a], ones @ b.data.T, rtol=1e-14)
    npt.assert_allclose(grads[b], a.data.T @ ones, rtol=1e-14)


def test_broadcast_grads_unbroadcast_to_leaf_shape(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(a + b))
    npt.assert_array_equal(grads[a], np.ones((3, 4)))
    npt.assert_array_equal(grads[b], np.full(4, 3.0))  # summed over the broadcast rows


def test_unreachable_touched_leaf_gets_zeros_untouched_has_no_entry(rng):
    x = leaf(rng, 3)
    dead = leaf(rng, 3)
    never = leaf(rng, 3)
    with GradTape() as tape:
        _ = dead * 2.0  # recorded, but not on the path to the loss
        grads = tape.backward(nr.tsum(x * x))
    npt.assert_allclose(grads[x], 2.0 * x.data, rtol=1e-15)
    npt.assert_array_equal(grads[dead], np.zeros(3))
    assert never not in grads
    assert set(grads) == {x, dead}


def test_backward_returns_each_calls_own_grads(rng):
    x = leaf(rng, 4)
    y = leaf(rng, 4)
    with GradTape() as tape:
        first = tape.backward(nr.tsum(x * x) + nr.tsum(y * y))
    with GradTape() as tape:
        second = tape.backward(nr.tsum(x * x))
    npt.assert_allclose(second[x], 2.0 * x.data, rtol=1e-15)  # not doubled
    assert y not in second  # the first call's gradient is not carried over
    npt.assert_allclose(first[y], 2.0 * y.data, rtol=1e-15)
    assert not hasattr(x, "grad")


def test_backward_rejects_non_scalar_root(rng):
    x = leaf(rng, 3)
    with GradTape() as tape:
        y = x * 1.0
        with pytest.raises(ContractError):
            tape.backward(y)


def test_ops_outside_tape_do_not_record(rng):
    x = leaf(rng, 3)
    y = x * x
    assert not y.requires_grad
    with GradTape() as tape:
        _ = x * x
        assert len(tape) == 1
    z = x * x
    assert not z.requires_grad


def test_ops_record_on_innermost_tape_only(rng):
    x = leaf(rng, 3)
    with GradTape() as outer:
        _ = x + 1.0
        with GradTape() as inner:
            _ = x * 2.0
            _ = x * 3.0
        _ = x - 1.0
    assert len(inner) == 2
    assert len(outer) == 2


def test_detach_blocks_gradient_flow(rng):
    x = leaf(rng, 3)
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(Tensor(x.data) * x))
    npt.assert_allclose(grads[x], x.data, rtol=1e-15)  # only the live factor contributes


def _leaf_grad(data, fn):
    x = Tensor(data, requires_grad=True)
    with GradTape() as tape:
        return tape.backward(fn(x))[x]


def test_volume_promotion_astype_and_3d_model_inputs_keep_the_gradient(rng):
    """Volume's 3-D -> 4-D promotion, astype and a 3-D model input are recorded
    ops: the leaf passed in gets the gradient, not a hidden copy of it."""
    data = rng.normal(size=(8, 8, 8))
    r = Tensor(rng.normal(size=(1, 8, 8, 8)))
    grad = _leaf_grad(data, lambda x: nr.tsum(nr.Volume(values=x).values * r))
    npt.assert_array_equal(grad, r.data[0])

    r32 = r.astype(32)
    grad = _leaf_grad(data[None], lambda x: nr.tsum(x.astype(32) * r32))
    assert grad.dtype == np.float64
    npt.assert_array_equal(grad, r32.data)

    cfg = nr.ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=1,
                         dae_blocks=1, precision=64)
    model = nr.build_model(cfg)
    head = model.registry["head.w"]
    head.data = rng.normal(size=head.shape)  # the zero head would zero every input gradient
    loss = lambda m: nr.tsum(model.forward(m, r).u)
    grad4 = _leaf_grad(data[None], loss)
    assert np.abs(grad4).max() > 0
    npt.assert_array_equal(_leaf_grad(data, loss), grad4[0])


def test_constant_inputs_do_not_require_grad_tracking(rng):
    a = Tensor(rng.normal(size=(3,)))
    with GradTape() as tape:
        out = nr.tsum(a * 2.0)
        assert len(tape) == 0
        assert not out.requires_grad


@given(seed=st.integers(0, 2**32 - 1))
def test_linear_function_gradient_is_its_coefficients(seed):
    g = np.random.default_rng(seed)
    c = g.normal(size=6)
    x = Tensor(g.normal(size=6))
    x.requires_grad = True
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(Tensor(c) * x))
    npt.assert_array_equal(grads[x], c)


# ---------------------------------------------------------------------------
# Central-difference verification of individual backward rules
# ---------------------------------------------------------------------------


def test_gradcheck_passes_on_smooth_composite(rng):
    x = leaf(rng, 4, 3)

    def f():
        return nr.tsum(nr.gelu(nr.tanh(x) * nr.sigmoid(x)) * x)

    err, _ = nr.check_gradients(f, {"x": x})
    assert err < 1e-6


@pytest.mark.parametrize("name", [row.name for row in _ROWS])
def test_backward_rules_pass_finite_difference_check(name):
    results = nr.run_gradcheck_suite(seed=3, names=[name])
    assert len(results) == 1
    assert results[0].passed, results[0].line()


def test_gradcheck_rows_have_unique_names_and_salts_and_no_leaf_named_like_a_parameter():
    """Salts include the full-model checks' and the tiny model's. A row's run
    merges its block's registry into its leaves, so a leaf that shares a
    parameter's name would drop out of the check without a word."""
    names = [row.name for row in _ROWS] + [name for name, _, _ in _FULL_MODEL_CHECKS]
    salts = [row.salt for row in _ROWS] + [salt for _, salt, _ in _FULL_MODEL_CHECKS] + [_TINY_MODEL_SALT]
    assert len(set(names)) == len(names)
    assert len(set(salts)) == len(salts)
    for row in _ROWS:
        _, registry = row.draw_block(np.random.default_rng(0))
        assert not set(row.leaves) & set(registry), row.name


@pytest.mark.parametrize("window", [5, 9])
def test_ncc_adjoint_at_the_band_edges_passes_finite_differences(rng, window):
    """``ncc_loss`` of both volumes on a batch of 2 whose x extent is the
    window: one output column along x, so every adjoint band product runs at
    its edge."""
    shape = (2, 1, window + 4, window + 1, window)
    f, w = leaf(rng, *shape), leaf(rng, *shape)
    loss = lambda: nr.tsum(nr.ncc_loss(nr.Volume(values=f), nr.Volume(values=w), window=window))
    err, _ = nr.check_gradients(loss, {"f": f, "w": w}, max_coords=96)
    assert err < 1e-4


def _max_pooled_top_two_gaps(model, fx, mv, monkeypatch):
    """Top-two gap, per sample and channel, of every input that the model's
    forward max-pools (one-voxel inputs have no kink and are left out)."""
    gaps = []

    def recording_pool(a, mode):
        flat = np.sort(a.data.reshape(a.shape[:-3] + (-1,)), axis=-1)
        if mode == "max" and flat.shape[-1] > 1:
            gaps.append((flat[..., -1] - flat[..., -2]).ravel())
        return nr.global_pool(a, mode)

    monkeypatch.setattr(nestreg.decoder, "global_pool", recording_pool)
    model.forward(mv, fx)
    return np.concatenate(gaps)


@pytest.mark.parametrize("salt,shape", [(21, (1, 8, 8, 8)), (30, (2, 1, 8, 8, 8))])
def test_full_model_gradcheck_inputs_keep_off_the_max_pool_kink(salt, shape, monkeypatch):
    """At seeds 0-9 every input that the fusion max-pools has its top two
    values >= MAX_POOL_MARGIN apart, in every channel and sample."""
    for seed in range(10):
        model, fx, mv = _full_model_inputs(seed, salt, shape)
        assert fx.shape == mv.shape == shape
        assert _max_pooled_top_two_gaps(model, fx, mv, monkeypatch).min() >= MAX_POOL_MARGIN, seed


def test_full_model_gradcheck_redraws_only_inputs_inside_the_margin(monkeypatch):
    """Seed 0 clears the margin on its first draw and keeps it; seed 23's
    first draw has a top-two gap of 6.7e-5, so its inputs are drawn again
    from the same rng."""
    shape = (1, 8, 8, 8)
    for seed, redrawn in ((0, False), (23, True)):
        model, fx, mv = _full_model_inputs(seed, 21, shape)
        rng = _rng(seed, 21)
        first_fx, first_mv = (np.clip(rng.normal(0.5, 0.25, size=shape), 0.0, 1.0) for _ in range(2))
        first_gap = _max_pooled_top_two_gaps(model, Tensor(first_fx), Tensor(first_mv), monkeypatch).min()
        assert (first_gap < MAX_POOL_MARGIN) == redrawn
        assert np.array_equal(fx.data, first_fx) != redrawn
        assert np.array_equal(mv.data, first_mv) != redrawn


def test_slice_and_concat_grads_route_to_their_sources(rng):
    a = leaf(rng, 2, 3)
    b = leaf(rng, 2, 2)
    w = rng.normal(size=(2, 5))
    with GradTape() as tape:
        cat = nr.concat([a, b], axis=1)
        grads = tape.backward(nr.tsum(cat * Tensor(w)))
    npt.assert_array_equal(grads[a], w[:, :3])
    npt.assert_array_equal(grads[b], w[:, 3:])
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(a[:, 1:]))
    want = np.zeros((2, 3))
    want[:, 1:] = 1.0
    npt.assert_array_equal(grads[a], want)


def test_global_pool_max_routes_gradient_to_argmax(rng):
    data = rng.normal(size=(2, 2, 2, 2))
    x = Tensor(data)
    x.requires_grad = True
    with GradTape() as tape:
        grads = tape.backward(nr.tsum(nr.global_pool(x, "max")))
    for c in range(2):
        flat = grads[x][c].reshape(-1)
        assert flat.sum() == 1.0
        assert flat[data[c].argmax()] == 1.0


def test_sabotaged_backward_rule_is_caught(rng, monkeypatch):
    """The finite-difference check must fail loudly when a vjp lies."""
    monkeypatch.setattr(T, "_gelu_grad", lambda x: np.ones_like(x))
    x = leaf(rng, 3, 3)
    err, _ = nr.check_gradients(lambda: nr.tsum(nr.gelu(x)), {"x": x})
    assert err > 1e-2


def test_gradcheck_rejects_nondeterministic_target(rng):
    x = leaf(rng, 3)
    state = {"n": 0.0}

    def f():
        state["n"] += 1.0
        return nr.tsum(x * state["n"])

    with pytest.raises(ContractError):
        nr.check_gradients(f, {"x": x})


def test_gradcheck_rejects_non_finite_target():
    x = Tensor(np.array([1.0]))
    x.requires_grad = True
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        nr.check_gradients(lambda: nr.tsum(x) / 0.0, {"x": x})


def test_gradcheck_rejects_leaf_without_requires_grad(rng):
    x = Tensor(rng.normal(size=3))
    with pytest.raises(ContractError):
        nr.check_gradients(lambda: nr.tsum(x), {"x": x})
