"""Forward-value tests for the tensor primitives against numpy/scipy oracles."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st
from scipy.special import softmax as sp_softmax

import nestreg as nr
from nestreg import ConfigError, ShapeError, Tensor
from nestreg.tensor import _band, _banded_passes
from oracles import (
    box_sum_adjoint_pad_ref,
    box_sum_prefix_ref,
    box_sum_ref,
    conv3d_ref,
    gelu_ref,
    layernorm_ref,
    layernorm_var_ref,
    upsample_take_ref,
    upsample_trilinear_ref,
)


def test_matmul_matches_numpy(rng):
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    npt.assert_array_equal(nr.matmul(Tensor(a), Tensor(b)).data, a @ b)


def test_matmul_shape_mismatch_raises(rng):
    with pytest.raises(ShapeError):
        nr.matmul(Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(4, 5))))


def test_elementwise_arithmetic_and_broadcasting(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    npt.assert_array_equal((Tensor(a) + Tensor(b)).data, a + b)
    npt.assert_array_equal((Tensor(a) - 2.0).data, a - 2.0)
    npt.assert_array_equal((Tensor(a) * Tensor(b)).data, a * b)
    npt.assert_array_equal((Tensor(a) / 4.0).data, a / 4.0)
    npt.assert_array_equal((-Tensor(a)).data, -a)


def test_mixed_precision_operands_rejected(rng):
    a = Tensor(rng.normal(size=(3,)).astype(np.float32))
    b = Tensor(rng.normal(size=(3,)))
    with pytest.raises(ShapeError):
        _ = a + b


def test_reductions_match_numpy(rng):
    a = rng.normal(size=(2, 3, 4))
    npt.assert_allclose(nr.tsum(Tensor(a)).data, a.sum(), rtol=1e-15)
    npt.assert_allclose(nr.tmean(Tensor(a), axis=1).data, a.mean(axis=1), rtol=1e-15)
    npt.assert_allclose(
        nr.tsum(Tensor(a), axis=(0, 2), keepdims=True).data,
        a.sum(axis=(0, 2), keepdims=True),
        rtol=1e-15,
    )


def test_activations_match_reference(rng):
    x = rng.normal(size=(4, 5)) * 3.0
    npt.assert_allclose(nr.tanh(Tensor(x)).data, np.tanh(x), rtol=1e-15)
    npt.assert_allclose(nr.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)
    npt.assert_allclose(nr.gelu(Tensor(x)).data, gelu_ref(x), rtol=1e-14)


def test_softmax_matches_scipy(rng):
    x = rng.normal(size=(6, 5)) * 4.0
    for axis in (0, 1):
        npt.assert_allclose(
            nr.softmax(Tensor(x), axis=axis).data, sp_softmax(x, axis=axis), atol=1e-14
        )


@given(shift=st.floats(-50, 50), seed=st.integers(0, 2**32 - 1))
def test_softmax_normalized_and_shift_invariant(shift, seed):
    x = np.random.default_rng(seed).normal(size=(4, 6))
    sm = nr.softmax(Tensor(x), axis=1).data
    npt.assert_allclose(sm.sum(axis=1), 1.0, atol=1e-12)
    assert (sm >= 0).all()
    npt.assert_allclose(nr.softmax(Tensor(x + shift), axis=1).data, sm, atol=1e-12)


def test_softmax_extreme_values_stay_finite():
    x = np.array([[1e4, -1e4, 0.0]])
    sm = nr.softmax(Tensor(x), axis=1).data
    assert np.isfinite(sm).all()
    npt.assert_allclose(sm.sum(), 1.0, atol=1e-12)


def test_layernorm_matches_reference(rng):
    x = rng.normal(size=(5, 8)) * 2.0
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    got = nr.layernorm(Tensor(x), Tensor(gamma), Tensor(beta), axis=1).data
    npt.assert_allclose(got, layernorm_ref(x, gamma, beta, axis=1), rtol=1e-12, atol=1e-12)


def test_layernorm_channel_axis_on_volume(rng):
    x = rng.normal(size=(4, 3, 2, 2))
    gamma = np.ones(4)
    beta = np.zeros(4)
    got = nr.layernorm(Tensor(x), Tensor(gamma), Tensor(beta), axis=0).data
    npt.assert_allclose(got.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(got, layernorm_ref(x, gamma, beta, axis=0), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,axis", [((2, 512, 8), -1), ((2, 8, 4, 5, 3), -4)])
def test_layernorm_forward_is_bit_identical_to_the_var_formula(rng, dtype, shape, axis):
    """The variance from the reused centred values forms the sums that
    ndarray.var forms, so the forward equals the var formula bit for bit."""
    x = (rng.normal(size=shape) * 3.0 + 1.5).astype(dtype)
    n = shape[axis]
    gamma, beta = rng.normal(size=n).astype(dtype), rng.normal(size=n).astype(dtype)
    got = nr.layernorm(Tensor(x), Tensor(gamma), Tensor(beta), axis=axis).data
    npt.assert_array_equal(got, layernorm_var_ref(x, gamma, beta, axis))


def test_layernorm_rejects_wrong_param_length(rng):
    x = Tensor(rng.normal(size=(3, 5)))
    with pytest.raises(ShapeError):
        nr.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), axis=1)


def test_same_padding_splits_kernel_extent():
    assert nr.same_padding(3) == (1, 1)
    assert nr.same_padding(1) == (0, 0)
    assert nr.same_padding(3, dilation=2) == (2, 2)
    assert nr.same_padding(6) == (3, 2)  # even kernel pads more on the low side


@pytest.mark.parametrize("kernel,dilation", [(1, 1), (3, 1), (3, 2), (5, 1), (6, 1)])
def test_same_padding_preserves_extent(rng, kernel, dilation):
    x = Tensor(rng.normal(size=(1, 9, 9, 9)))
    w = Tensor(rng.normal(size=(1, 1, kernel, kernel, kernel)))
    pad = nr.same_padding(kernel, dilation)
    out = nr.conv3d(x, w, padding=(pad, pad, pad), dilation=dilation)
    assert out.shape == x.shape


def test_conv3d_plain_matches_loop_oracle(rng):
    x = rng.normal(size=(3, 5, 4, 6))
    w = rng.normal(size=(2, 3, 3, 3, 3))
    b = rng.normal(size=2)
    got = nr.conv3d(Tensor(x), Tensor(w), Tensor(b)).data
    npt.assert_allclose(got, conv3d_ref(x, w, b), rtol=1e-12, atol=1e-12)


def test_conv3d_strided_dilated_asymmetric_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 7, 6, 8))
    w = rng.normal(size=(3, 2, 2, 3, 2))
    got = nr.conv3d(
        Tensor(x),
        Tensor(w),
        stride=(2, 1, 3),
        padding=((1, 2), (1, 1), (0, 2)),
        dilation=(2, 1, 3),
    ).data
    want = conv3d_ref(x, w, stride=(2, 1, 3), padding=((1, 2), (1, 1), (0, 2)), dilation=(2, 1, 3))
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv3d_grouped_and_depthwise_match_loop_oracle(rng):
    x = rng.normal(size=(4, 4, 4, 4))
    w_group = rng.normal(size=(6, 2, 3, 3, 3))
    got = nr.conv3d(Tensor(x), Tensor(w_group), padding=1, groups=2).data
    npt.assert_allclose(got, conv3d_ref(x, w_group, padding=1, groups=2), rtol=1e-12, atol=1e-12)
    w_dw = rng.normal(size=(4, 1, 3, 3, 3))
    got = nr.conv3d(Tensor(x), Tensor(w_dw), padding=1, groups=4).data
    npt.assert_allclose(got, conv3d_ref(x, w_dw, padding=1, groups=4), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "xs,kw",
    [
        ((4, 1, 1, 1), dict(padding=1)),
        ((3, 2, 2, 2), dict(padding=2, dilation=2)),
        ((3, 2, 2, 4), dict(padding=((2, 0), (0, 2), (1, 1)))),
    ],
    ids=["extent1", "extent2_dilated", "one_sided_padding"],
)
def test_conv3d_depthwise_with_padding_only_offsets_matches_loop_oracle(rng, xs, kw):
    x = rng.normal(size=xs)
    w = rng.normal(size=(xs[0], 1, 3, 3, 3))
    b = rng.normal(size=xs[0])
    got = nr.conv3d(Tensor(x), Tensor(w), Tensor(b), groups=xs[0], **kw).data
    want = conv3d_ref(x, w, b, groups=xs[0], **kw)
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv3d_output_extent_formula(rng):
    x = Tensor(rng.normal(size=(1, 10, 10, 10)))
    w = Tensor(rng.normal(size=(1, 1, 3, 3, 3)))
    out = nr.conv3d(x, w, stride=2, padding=1)
    assert out.shape == (1, 5, 5, 5)


def test_conv3d_bad_groups_and_kernel_overrun(rng):
    x = Tensor(rng.normal(size=(3, 4, 4, 4)))
    with pytest.raises(ConfigError):
        nr.conv3d(x, Tensor(rng.normal(size=(2, 1, 3, 3, 3))), groups=2)
    with pytest.raises(ConfigError):
        nr.conv3d(x, Tensor(rng.normal(size=(2, 3, 5, 5, 5))))  # kernel larger than volume
    with pytest.raises(ShapeError):
        nr.conv3d(x, Tensor(rng.normal(size=(2, 2, 3, 3, 3))))  # wrong channels/group


def _window_sum(x, k):
    """Valid k-wide window sums of x over its last three axes: the band
    products with ones that ``ncc_loss`` and ``ncc_fixed_sums`` run, cast
    back to x's dtype."""
    bands = tuple(_band(e, np.ones(k)) for e in x.shape[-3:])
    return _banded_passes(x, bands).astype(x.dtype, copy=False)


def _window_sum_adjoint(g, k):
    """The adjoint of ``_window_sum`` for an output gradient g: the same
    products with the bands transposed, as ``ncc_loss``'s vjp runs them."""
    bands = tuple(_band(e + k - 1, np.ones(k)).T for e in g.shape[-3:])
    return _banded_passes(g, bands).astype(g.dtype, copy=False)


@pytest.mark.parametrize("shape,k", [((2, 4, 5, 6), 3), ((1, 9, 7, 8), 5), ((1, 3, 3, 3), 3)])
def test_band_window_sum_matches_loop_oracle(rng, shape, k):
    x = rng.normal(size=shape)
    npt.assert_allclose(_window_sum(x, k), box_sum_ref(x, k), rtol=1e-6, atol=1e-12)


def test_band_window_sum_float32_within_one_ulp_of_float64_at_full_window(rng):
    """Float64 accumulation leaves float32 64^3 k9 sums one cast from exact:
    relative error under float32 epsilon (2^-23)."""
    x = rng.uniform(size=(1, 64, 64, 64)).astype(np.float32)
    got = _window_sum(x, 9)
    want = _window_sum(x.astype(np.float64), 9)
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want) / np.abs(want)) < np.finfo(np.float32).eps


def test_band_window_sum_float32_within_one_ulp_of_the_prefix_sum_kernel(rng):
    """Both kernels sum in float64 and cast once, so their float32 results
    differ by at most one float32 ulp. On heavy-tailed volumes like these
    (64^3 k9 and 32^3 B=2 k5, five seeds) no voxel differed at all."""
    for shape, k in [((1, 64, 64, 64), 9), ((2, 1, 32, 32, 32), 5)]:
        x = (rng.normal(size=shape) * np.exp(rng.normal(size=shape))).astype(np.float32)
        got = _window_sum(x, k)
        want = box_sum_prefix_ref(x, k)
        assert got.dtype == want.dtype == np.float32
        assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()


def test_band_window_sum_adjoint_float32_within_one_ulp_of_the_padded_kernel(rng):
    """The transposed band products and the zero-padded window sums both sum
    in float64 and cast once: at most one float32 ulp apart. On heavy-tailed
    gradients like these (64^3 k9 and 32^3 B=2 k5) no voxel differed."""
    for shape, k in [((1, 64, 64, 64), 9), ((2, 1, 32, 32, 32), 5)]:
        x = rng.normal(size=shape).astype(np.float32)
        out_shape = shape[:-3] + tuple(e - k + 1 for e in shape[-3:])
        g = (rng.normal(size=out_shape) * np.exp(rng.normal(size=out_shape))).astype(np.float32)
        got = _window_sum_adjoint(g, k)
        want = box_sum_adjoint_pad_ref(g, k)
        assert got.shape == x.shape
        assert got.dtype == want.dtype == np.float32
        assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()


def _band_edge_volumes(rng, k, batch):
    """Two channels of volumes at the band's edges: anisotropic with x extent
    k, z extent k (one output plane), and the first as a non-contiguous
    view with its z and x axes swapped."""
    x = rng.normal(size=batch + (2, k + 4, k + 1, k))
    return [x, rng.normal(size=batch + (2, k, k + 2, k + 3)), np.swapaxes(x, -1, -3)]


@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_band_window_sum_adjoint_matches_the_padded_oracle_and_the_inner_product(rng, k, batch):
    """At float64, the adjoint is within 1e-12 of the zero-padded window
    sums' absolute sum, and <sum(x), g> = <x, adjoint(g)> within 1e-12 of
    <|x|, adjoint(|g|)>."""
    for x in _band_edge_volumes(rng, k, batch):
        y = _window_sum(x, k)
        g = rng.normal(size=y.shape)
        got = _window_sum_adjoint(g, k)
        assert got.shape == x.shape
        scale = box_sum_adjoint_pad_ref(np.abs(g), k)
        assert (np.abs(got - box_sum_adjoint_pad_ref(g, k)) <= 1e-12 * scale).all()
        assert abs(np.vdot(y, g) - np.vdot(x, got)) <= 1e-12 * np.vdot(np.abs(x), scale)


@pytest.mark.parametrize("k", [3, 5, 7, 9])
@pytest.mark.parametrize("split", ["one_plane", "uneven", "single"])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_band_window_sum_of_z_chunks_stitched_matches_the_loop_oracle(rng, k, split, batch):
    """Window sums taken z-chunk by z-chunk and stitched at the chunk edges:
    chunks of 1 output plane, of 2 (an uneven last chunk where the output
    extent is odd) or one chunk, on the band's edge volumes. Each chunk's
    band spans only the chunk, so this checks that an output reads its own window and
    nothing else: within 1e-12 of the window's absolute sum of the loop
    oracle."""
    for x in _band_edge_volumes(rng, k, batch):
        nz = x.shape[-3] - k + 1
        step = {"one_plane": 1, "uneven": 2, "single": nz}[split]
        chunks = [x[..., z0:z0 + step + k - 1, :, :] for z0 in range(0, nz, step)]
        got = np.concatenate([_window_sum(c, k) for c in chunks], axis=-3)
        for b in np.ndindex(batch):
            want = box_sum_ref(x[b], k)
            assert got[b].shape == want.shape
            assert (np.abs(got[b] - want) <= 1e-12 * box_sum_ref(np.abs(x[b]), k)).all()


def test_global_pool_matches_numpy(rng):
    x = rng.normal(size=(3, 2, 4, 5))
    npt.assert_allclose(nr.global_pool(Tensor(x), "avg").data, x.mean(axis=(1, 2, 3)), rtol=1e-15)
    npt.assert_array_equal(nr.global_pool(Tensor(x), "max").data, x.max(axis=(1, 2, 3)))
    with pytest.raises(ConfigError):
        nr.global_pool(Tensor(x), "median")


def test_upsample_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 3, 2, 4))
    for factor in (2, (2, 3, 1), (1, 1, 2), (1, 2, 4)):
        got = nr.upsample_trilinear(Tensor(x), factor).data
        npt.assert_allclose(got, upsample_trilinear_ref(x, factor), rtol=1e-12, atol=1e-12)
    batch = rng.normal(size=(2, 3, 2, 4, 3))
    for factor in (2, (1, 2, 4)):
        got = nr.upsample_trilinear(Tensor(batch), factor).data
        want = np.stack([upsample_trilinear_ref(xb, factor) for xb in batch])
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_upsample_factor_one_is_bit_exact_identity(rng):
    for shape in ((2, 3, 3, 3), (2, 2, 3, 3, 3)):
        x = rng.normal(size=shape)
        npt.assert_array_equal(nr.upsample_trilinear(Tensor(x), 1).data, x)


@pytest.mark.parametrize("shape", [(2, 8, 8, 8, 8), (8, 16, 16, 16)])
def test_upsample_float32_forward_within_stated_bound_of_float64(rng, shape):
    """Max |f32 - f64| / max |f64| of the x4 forward stays below 1e-6. At
    seed 1234 the matrix-product forward measured 1.2e-7 at [2, 8, 8^3] and
    1.2e-7 at [8, 16^3]; the take + lerp forward it replaced measured 1.2e-7
    and 1.5e-7 on the same inputs."""
    x = rng.standard_normal(shape).astype(np.float32)
    want = nr.upsample_trilinear(Tensor(x.astype(np.float64)), 4).data
    for got in (nr.upsample_trilinear(Tensor(x), 4).data, upsample_take_ref(x, 4)):
        assert got.dtype == np.float32
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-6


def test_upsample_constant_volume_stays_constant():
    x = np.full((1, 2, 2, 2), 0.713)
    out = nr.upsample_trilinear(Tensor(x), 3).data
    npt.assert_allclose(out, 0.713, rtol=1e-15)


@given(seed=st.integers(0, 2**32 - 1), factor=st.integers(2, 4))
def test_upsample_output_within_input_range(seed, factor):
    x = np.random.default_rng(seed).uniform(-1, 1, size=(1, 3, 3, 3))
    out = nr.upsample_trilinear(Tensor(x), factor).data
    assert out.min() >= x.min() - 1e-12
    assert out.max() <= x.max() + 1e-12


def test_concat_and_slicing_roundtrip(rng):
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))
    cat = nr.concat([Tensor(a), Tensor(b)], axis=1)
    npt.assert_array_equal(cat.data, np.concatenate([a, b], axis=1))
    npt.assert_array_equal(cat[:, :2].data, a)
    npt.assert_array_equal(cat[:, 2:].data, b)
