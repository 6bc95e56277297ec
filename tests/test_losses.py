"""Windowed NCC and smoothness against loop oracles, closed forms and their
compositions of taped primitives."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import DeformationField, ModelConfig, ShapeError, Tensor, Volume
from oracles import ncc_loss_composed, ncc_ref, smoothness_loss_composed, smoothness_ref


def vol(arr) -> Volume:
    return Volume(values=Tensor(arr))


def test_ncc_matches_window_loop_oracle(rng):
    for _ in range(5):
        shape = tuple(rng.integers(5, 8, size=3))
        f = rng.uniform(0, 1, size=shape)
        w = rng.uniform(0, 1, size=shape)
        got = nr.ncc_loss(vol(f[None]), vol(w[None])).item()
        npt.assert_allclose(got, ncc_ref(f, w), rtol=1e-10)
        assert nr.ncc_loss(nr.ncc_fixed_sums(vol(f[None]), 5), vol(w[None])).item() == got


@pytest.mark.parametrize("bits, shape", [(32, (1, 9, 8, 7)), (64, (1, 9, 8, 7)), (64, (2, 1, 7, 8, 9))])
def test_ncc_with_prebuilt_fixed_sums_equals_ncc_of_the_volume(rng, bits, shape):
    """The fixed volume's sums built once (outside the tape, as ``register``
    builds them) give the loss and its gradient of the volume itself, bit for
    bit; sums for another window are rebuilt."""
    dtype = np.float32 if bits == 32 else np.float64
    f = vol(rng.uniform(size=shape).astype(dtype))
    w_data = rng.uniform(size=shape).astype(dtype)

    def loss_and_grad(fixed):
        w = Tensor(w_data, requires_grad=True)
        with nr.GradTape() as tape:
            loss = nr.ncc_loss(fixed, Volume(values=w), window=3)
            grads = tape.backward(nr.tsum(loss))
        return loss.data.tobytes(), grads[w].tobytes()

    want = loss_and_grad(f)
    assert loss_and_grad(nr.ncc_fixed_sums(f, 3)) == want
    assert loss_and_grad(nr.ncc_fixed_sums(f, 5)) == want


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("sums", ["volume", "given", "rebuilt"])
@pytest.mark.parametrize("fixed_grad", [False, True])
def test_ncc_records_one_entry_and_gives_the_fixed_gradient_through_its_sums(rng, bits, sums, fixed_grad):
    """``ncc_loss`` records one tape entry whether the fixed side comes as the
    volume, as its sums for this window or as sums for another window, and
    with or without a fixed gradient. The sums are plain arrays, so they add
    no entry, and a fixed gradient through them equals the one through the
    volume bit for bit."""
    dtype = np.float32 if bits == 32 else np.float64
    f = Tensor(rng.uniform(size=(2, 1, 7, 8, 9)).astype(dtype), requires_grad=fixed_grad)
    w = Tensor(rng.uniform(size=(2, 1, 7, 8, 9)).astype(dtype), requires_grad=True)

    def run(fixed):
        with nr.GradTape() as tape:
            loss = nr.ncc_loss(fixed, Volume(values=w), window=3)
            records = len(tape)
            grads = tape.backward(nr.tsum(loss))
        gf = grads.get(f)
        return records, loss.data.tobytes(), grads[w].tobytes(), None if gf is None else gf.tobytes()

    fixed = Volume(values=f)
    if sums != "volume":
        fixed = nr.ncc_fixed_sums(fixed, 3 if sums == "given" else 5)
        assert all(isinstance(a, np.ndarray) for a in (fixed.sf, fixed.var_f))
    records, *got = run(fixed)
    assert records == 1
    assert got == list(run(Volume(values=f))[1:])
    assert (got[-1] is not None) == fixed_grad


def test_ncc_identical_volumes_reach_the_eps_floor(rng):
    f = rng.uniform(0, 1, size=(1, 10, 10, 10))
    loss = nr.ncc_loss(vol(f), vol(f)).item()
    assert 0.0 < loss < 1e-6  # additive eps keeps cc just below 1 on textured windows


def test_ncc_is_insensitive_to_window_affine_intensity_maps(rng):
    f = rng.uniform(0, 1, size=(8, 8, 8))
    g = 3.0 * f - 1.2  # global affine remap
    direct = nr.ncc_loss(vol(f[None]), vol(g[None])).item()
    self_loss = nr.ncc_loss(vol(f[None]), vol(f[None])).item()
    npt.assert_allclose(direct, self_loss, atol=1e-7)


def test_ncc_constant_windows_count_as_uncorrelated():
    a = np.full((1, 6, 6, 6), 0.4)
    b = np.full((1, 6, 6, 6), 0.9)
    assert nr.ncc_loss(vol(a), vol(b)).item() == pytest.approx(1.0)


def test_ncc_anticorrelation_scores_like_correlation(rng):
    f = rng.uniform(0, 1, size=(7, 7, 7))
    flipped = 1.0 - f
    loss = nr.ncc_loss(vol(f[None]), vol(flipped[None])).item()
    assert loss < 1e-6  # squared correlation: sign does not matter


def test_ncc_shape_and_window_guards(rng):
    f = vol(rng.uniform(size=(1, 6, 6, 6)))
    with pytest.raises(ShapeError):
        nr.ncc_loss(f, vol(rng.uniform(size=(1, 6, 6, 5))))
    with pytest.raises(ShapeError):
        nr.ncc_loss(vol(rng.uniform(size=(1, 4, 4, 4))), vol(rng.uniform(size=(1, 4, 4, 4))))
    with pytest.raises(ShapeError):
        nr.ncc_loss(vol(rng.uniform(size=(2, 6, 6, 6))), f)
    # The fixed volume's sums run the loss's own checks, with its messages.
    small = vol(rng.uniform(size=(1, 4, 4, 4)))
    with pytest.raises(ShapeError, match=r"^ncc_loss: extents \(4, 4, 4\) smaller than window 5$"):
        nr.ncc_fixed_sums(small, 5)
    with pytest.raises(ShapeError, match="^ncc_loss expects single-channel volumes"):
        nr.ncc_fixed_sums(vol(rng.uniform(size=(2, 6, 6, 6))), 5)
    with pytest.raises(ShapeError, match="^ncc_loss: volume shapes differ"):
        nr.ncc_loss(nr.ncc_fixed_sums(f, 5), vol(rng.uniform(size=(1, 6, 6, 5))))


def test_smoothness_matches_forward_difference_oracle(rng):
    u = rng.normal(size=(3, 5, 6, 4))
    got = nr.smoothness_loss(DeformationField(u=Tensor(u))).item()
    npt.assert_allclose(got, smoothness_ref(u), rtol=1e-12)


@pytest.mark.parametrize("c", [0.5, -1.25, 2.0])
def test_smoothness_of_linear_ramp_is_c_squared_over_three(c):
    """u_x = c * x has forward differences of exactly c along one axis for one
    of the three components, so the loss is c^2 / 3."""
    n = 6
    u = np.zeros((3, n, n, n))
    u[2] = c * np.arange(n)[None, None, :]
    got = nr.smoothness_loss(DeformationField(u=Tensor(u))).item()
    npt.assert_allclose(got, c * c / 3.0, rtol=1e-12)


def test_smoothness_zero_for_constant_displacement():
    u = np.full((3, 4, 4, 4), 1.7)
    assert nr.smoothness_loss(DeformationField(u=Tensor(u))).item() == 0.0


@given(seed=st.integers(0, 2**32 - 1))
def test_smoothness_is_translation_invariant(seed):
    g = np.random.default_rng(seed)
    u = g.normal(size=(3, 4, 4, 4))
    base = nr.smoothness_loss(DeformationField(u=Tensor(u))).item()
    shifted = nr.smoothness_loss(DeformationField(u=Tensor(u + 3.21))).item()
    npt.assert_allclose(shifted, base, rtol=1e-9, atol=1e-12)


def test_composite_loss_decomposes_and_returns_the_warped_volume(rng):
    shape = (7, 7, 7)
    f = vol(rng.uniform(size=(1,) + shape))
    m = vol(rng.uniform(size=(1,) + shape))
    u = DeformationField(u=Tensor(rng.normal(0, 0.5, size=(3,) + shape)))
    cfg = ModelConfig(smooth_weight=2.5)
    out = nr.composite_loss(f, m, u, cfg)
    npt.assert_allclose(
        out.total.item(),
        out.similarity.item() + 2.5 * out.smoothness.item(),
        rtol=1e-15,
    )
    direct = nr.warp_trilinear(m, u)
    npt.assert_array_equal(out.warped.values.data, direct.values.data)
    npt.assert_allclose(out.similarity.item(), nr.ncc_loss(f, direct).item(), rtol=1e-15)


def test_composite_loss_of_identical_pair_at_zero_field_is_zero(rng):
    f = vol(rng.uniform(size=(1, 9, 9, 9)))
    out = nr.composite_loss(f, f, nr.identity_field((9, 9, 9)))
    assert abs(out.total.item()) < 1e-6
    assert out.smoothness.item() == 0.0


def test_loss_gradients_pass_finite_difference_check():
    names = ["ncc_loss", "ncc_loss_batched", "smoothness_loss", "smoothness_loss_batched", "composite_loss"]
    results = nr.run_gradcheck_suite(seed=2, names=names)
    assert [r.name for r in results] == names
    for r in results:
        assert r.passed, r.line()


# --- the one-op losses against their compositions of taped primitives ----------

# Bound on max |g - g_composed| / max |g_composed| of each gradient. The
# forwards are equal bit for bit at both precisions. Measured worst over
# seeds 0-19 of the cases below (float32 eps is 1.2e-7): NCC 1.1e-15 at
# float64 and 5.7e-7 at float32, smoothness 2.7e-16 and 1.4e-7. Both sides
# round their intermediate arrays to float32, in different orders.
COMPOSED_BOUNDS = {64: 1e-12, 32: 2e-6}


def _assert_grads_close(got, want, bits):
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= COMPOSED_BOUNDS[bits] * np.abs(want).max()


def _ncc_loss_and_grads(loss_fn, f_data, w_data, window, sums, fixed_grad):
    """The loss of (f, w) by ``loss_fn``, the tape's record count and the
    gradients of w and f (None for f without a gradient). ``sums`` is how the
    fixed side reaches the loss: the volume itself, its sums for this window,
    or sums for another window, which the loss rebuilds."""
    f = Tensor(f_data, requires_grad=fixed_grad)
    w = Tensor(w_data, requires_grad=True)
    with nr.GradTape() as tape:
        fixed = Volume(values=f)
        if sums != "volume":
            fixed = nr.ncc_fixed_sums(fixed, window if sums == "given" else 5 if window == 3 else 3)
        before = len(tape)
        loss = loss_fn(fixed, Volume(values=w), window=window)
        records = len(tape) - before
        weights = Tensor(np.arange(1.0, loss.size + 1.0).reshape(loss.shape).astype(w_data.dtype))
        grads = tape.backward(nr.tsum(loss * weights))
    return loss.data.tobytes(), records, grads[w], grads.get(f)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("shape", [(1, 9, 10, 11), (2, 1, 11, 9, 10)])
@pytest.mark.parametrize("window", [3, 5, 9])
@pytest.mark.parametrize("sums", ["volume", "given", "rebuilt"])
@pytest.mark.parametrize("fixed_grad", [False, True])
def test_ncc_op_equals_its_composition_of_taped_primitives(rng, bits, shape, window, sums, fixed_grad):
    """``ncc_loss`` is one taped op. Its forward equals the composed loss's
    bit for bit, and its gradients of both volumes stay within
    COMPOSED_BOUNDS of the composed ones; a fixed volume without a gradient
    gets none. The op records one entry in every case."""
    dtype = np.float32 if bits == 32 else np.float64
    f = rng.uniform(size=shape).astype(dtype)
    w = rng.uniform(size=shape).astype(dtype)
    loss, records, gw, gf = _ncc_loss_and_grads(nr.ncc_loss, f, w, window, sums, fixed_grad)
    want, _, gw_want, gf_want = _ncc_loss_and_grads(ncc_loss_composed, f, w, window, sums, fixed_grad)
    assert loss == want
    assert records == 1
    _assert_grads_close(gw, gw_want, bits)
    if fixed_grad:
        _assert_grads_close(gf, gf_want, bits)
    else:
        assert gf is None and gf_want is None


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("shape", [(3, 4, 5, 6), (2, 3, 7, 5, 4), (3, 2, 2, 2)])
def test_smoothness_op_equals_its_composition_of_taped_primitives(rng, bits, shape):
    """``smoothness_loss`` is one taped op: its forward equals the composed
    loss's bit for bit, and its gradient stays within COMPOSED_BOUNDS."""
    dtype = np.float32 if bits == 32 else np.float64
    u_data = rng.normal(size=shape).astype(dtype)

    def run(loss_fn):
        u = Tensor(u_data, requires_grad=True)
        with nr.GradTape() as tape:
            loss = loss_fn(DeformationField(u=u))
            records = len(tape)
            weights = Tensor(np.arange(1.0, loss.size + 1.0).reshape(loss.shape).astype(dtype))
            grad = tape.backward(nr.tsum(loss * weights))[u]
        return loss.data.tobytes(), records, grad

    loss, records, grad = run(nr.smoothness_loss)
    want, _, grad_want = run(smoothness_loss_composed)
    assert loss == want
    assert records == 1
    _assert_grads_close(grad, grad_want, bits)


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_smoothness_of_a_field_with_an_extent_1_axis_is_a_shape_error(axis):
    shape = [3, 4, 5, 4]
    shape[axis] = 1
    with pytest.raises(ShapeError, match=f"along axis {'zyx'[axis - 1]} \\({axis} of shape"):
        nr.smoothness_loss(DeformationField(u=Tensor(np.ones(shape))))
    with pytest.raises(ShapeError, match=f"along axis {'zyx'[axis - 1]} \\({axis + 1} of shape"):
        nr.smoothness_loss(DeformationField(u=Tensor(np.ones([2] + shape))))


# Traced memory a taped 32^3 B=2 float32 composite loss leaves on the tape
# (warp, NCC and smoothness): 5.4 MiB measured, against 12.0 MiB when each
# loss was a chain of ~30 taped temporaries.
COMPOSITE_TAPE_MIB = 7.0


def test_taped_composite_loss_keeps_its_tape_memory_bound(rng):
    shape = (2, 1, 32, 32, 32)
    fixed = vol(rng.uniform(size=shape).astype(np.float32))
    moving = vol(rng.uniform(size=shape).astype(np.float32))
    u = Tensor(rng.normal(0.0, 1.0, size=(2, 3, 32, 32, 32)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with nr.GradTape():
            out = nr.composite_loss(fixed, moving, DeformationField(u=u))
            grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out.total.shape == (2,)
    assert grown <= COMPOSITE_TAPE_MIB * 2 ** 20, grown / 2 ** 20
