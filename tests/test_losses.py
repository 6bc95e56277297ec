"""Windowed NCC and smoothness against loop oracles and closed forms."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import DeformationField, ModelConfig, ShapeError, Tensor, Volume
from oracles import ncc_ref, smoothness_ref


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


def test_ncc_with_sums_built_off_the_tape_refuses_a_fixed_volume_that_needs_gradients(rng):
    f = Volume(values=Tensor(rng.uniform(size=(1, 6, 6, 6)), requires_grad=True))
    w = vol(rng.uniform(size=(1, 6, 6, 6)))
    sums = nr.ncc_fixed_sums(f, 3)
    nr.ncc_loss(sums, w, window=3)  # no tape: nothing to detach
    with nr.GradTape(), pytest.raises(nr.ContractError):
        nr.ncc_loss(sums, w, window=3)
    with nr.GradTape() as tape:
        grad = tape.backward(nr.ncc_loss(nr.ncc_fixed_sums(f, 3), w, window=3))[f.values]
    with nr.GradTape() as tape:
        assert grad.tobytes() == tape.backward(nr.ncc_loss(f, w, window=3))[f.values].tobytes()


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
    results = nr.run_gradcheck_suite(seed=2, names=["ncc_loss", "smoothness_loss", "composite_loss"])
    for r in results:
        assert r.passed, r.line()
