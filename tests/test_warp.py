"""Trilinear warp against a per-voxel loop oracle, identity fixed point,
border-clamp behavior, and bit identity with the per-axis corner-index
formulation it replaced."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import DeformationField, GradTape, NumericError, ShapeError, Tensor, Volume
from oracles import warp_corner_index_ref, warp_gather_ref, warp_ref


def test_warp_matches_loop_oracle_on_random_fields(rng):
    for _ in range(5):
        shape = tuple(rng.integers(3, 6, size=3))
        m = rng.normal(size=(2,) + shape)
        u = rng.normal(0.0, 1.5, size=(3,) + shape)
        got = nr.warp_trilinear(Volume(values=Tensor(m)), DeformationField(u=Tensor(u)))
        npt.assert_allclose(got.values.data, warp_ref(m, u), atol=1e-12)


def test_zero_field_warp_is_bit_exact(rng):
    m = rng.normal(size=(1, 4, 5, 3))
    out = nr.warp_trilinear(Volume(values=Tensor(m)), nr.identity_field((4, 5, 3)))
    npt.assert_array_equal(out.values.data, m)


def test_integer_shift_reproduces_shifted_voxels(rng):
    m = rng.normal(size=(1, 5, 5, 5))
    u = np.zeros((3, 5, 5, 5))
    u[0] = 1.0  # sample one plane deeper along z
    out = nr.warp_trilinear(Volume(values=Tensor(m)), DeformationField(u=Tensor(u)))
    npt.assert_allclose(out.values.data[0, :4], m[0, 1:], atol=1e-15)
    npt.assert_allclose(out.values.data[0, 4], m[0, 4], atol=1e-15)  # clamped at the border


def test_out_of_range_displacement_clamps_to_border(rng):
    m = rng.normal(size=(1, 3, 3, 3))
    u = np.full((3, 3, 3, 3), 50.0)
    out = nr.warp_trilinear(Volume(values=Tensor(m)), DeformationField(u=Tensor(u)))
    npt.assert_allclose(out.values.data, np.full_like(m, m[0, 2, 2, 2]), atol=1e-15)


def test_fractional_shift_interpolates_linearly():
    m = np.zeros((1, 1, 1, 4))
    m[0, 0, 0] = [0.0, 1.0, 2.0, 3.0]
    u = np.zeros((3, 1, 1, 4))
    u[2] = 0.25
    out = nr.warp_trilinear(Volume(values=Tensor(m)), DeformationField(u=Tensor(u)))
    npt.assert_allclose(out.values.data[0, 0, 0], [0.25, 1.25, 2.25, 3.0], atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 8.0))
def test_warp_output_is_convex_combination_of_inputs(seed, scale):
    g = np.random.default_rng(seed)
    m = g.uniform(-2.0, 3.0, size=(1, 4, 4, 4))
    u = g.normal(0.0, scale, size=(3, 4, 4, 4))
    out = nr.warp_trilinear(Volume(values=Tensor(m)), DeformationField(u=Tensor(u)))
    assert out.values.data.min() >= m.min() - 1e-12
    assert out.values.data.max() <= m.max() + 1e-12


def test_warp_differentiable_wrt_image_and_field(rng):
    results = nr.run_gradcheck_suite(seed=5, names=["warp_trilinear"])
    assert results[0].passed, results[0].line()


def test_warp_shape_dtype_and_finiteness_guards(rng):
    m = Volume(values=Tensor(rng.normal(size=(1, 4, 4, 4))))
    with pytest.raises(ShapeError):
        nr.warp_trilinear(m, DeformationField(u=Tensor(np.zeros((3, 5, 4, 4)))))
    with pytest.raises(ShapeError):
        nr.warp_trilinear(m, DeformationField(u=Tensor(np.zeros((3, 4, 4, 4), dtype=np.float32))))
    bad = np.zeros((3, 4, 4, 4))
    bad[1, 2, 2, 2] = np.nan
    with pytest.raises(NumericError):
        nr.warp_trilinear(m, DeformationField(u=Tensor(bad)))


def test_volume_and_field_constructors_validate_rank(rng):
    v3 = Volume(values=Tensor(rng.normal(size=(4, 4, 4))))
    assert v3.values.shape == (1, 4, 4, 4)  # promoted to single channel
    with pytest.raises(ShapeError):
        Volume(values=Tensor(rng.normal(size=(2, 3))))
    with pytest.raises(ShapeError):
        DeformationField(u=Tensor(rng.normal(size=(2, 4, 4, 4))))


def _clamping_field(rng, lead, exts, dtype):
    """Displacements reaching past every face by up to two voxels, half of
    them whole numbers, so samples land on lattice planes and exactly on the
    clamp boundaries as well as strictly inside and outside them."""
    shape = lead + (3,) + exts
    reach = np.asarray(exts).reshape((3, 1, 1, 1)) + 2
    u = rng.integers(-reach, reach + 1, size=shape).astype(np.float64)
    u += np.where(rng.uniform(size=shape) < 0.5, 0.0, rng.uniform(-1.0, 1.0, size=shape))
    return u.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize(
    "exts", [(5, 6, 4), (1, 6, 4), (2, 6, 4), (5, 1, 4), (5, 2, 4), (5, 6, 1), (5, 6, 2), (1, 2, 1)]
)
def test_base_index_warp_is_bit_identical_to_the_corner_index_warp(rng, dtype, lead, exts):
    """Forward, image gradient and field gradient equal the formulation with
    per-axis index arrays and a stored clamp mask bit for bit; the forward
    also equals the fancy-index gather."""
    m = rng.standard_normal(lead + (2,) + exts).astype(dtype)
    u = _clamping_field(rng, lead, exts, dtype)
    g = rng.standard_normal(m.shape).astype(dtype)
    mt, ut = Tensor(m, requires_grad=True), Tensor(u, requires_grad=True)
    with GradTape() as tape:
        out = nr.warp_trilinear(Volume(values=mt), DeformationField(u=ut)).values
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    want, vjp = warp_corner_index_ref(m, u)
    gm, gu = vjp(g)
    npt.assert_array_equal(out.data, want)
    gathered = warp_gather_ref(m, u) if not lead else np.stack([warp_gather_ref(a, b) for a, b in zip(m, u)])
    npt.assert_array_equal(out.data, gathered)
    assert grads[mt].dtype == grads[ut].dtype == np.dtype(dtype)
    npt.assert_array_equal(grads[mt], gm)
    npt.assert_array_equal(grads[ut], gu)
    if min(exts) > 1:  # the clamp mask both cuts and passes
        assert (gu == 0).any() and (gu != 0).any()
