"""Backward kernels of conv3d (one per kind), upsample_trilinear and
warp_trilinear: loop oracles at float64, adjoint identities, float32 bounds
against float64 on the same inputs, repeatability and one tape record per call."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import GradTape, Tensor
from nestreg.tensor import _live_offsets, _pad_pairs, _triple
from oracles import conv3d_vjp_ref, dense_einsum_ref, depthwise_live_ref, depthwise_shift_ref

# (x shape, w shape, bias?, conv3d keywords), one per conv3d kernel branch.
CONV_CASES = {
    "dense_strided_dilated_asymmetric": (
        (2, 7, 6, 8), (3, 2, 2, 3, 2), True,
        dict(stride=(2, 1, 3), padding=((1, 2), (1, 1), (0, 2)), dilation=(2, 1, 3)),
    ),
    "grouped": ((4, 4, 4, 4), (6, 2, 3, 3, 3), True, dict(padding=1, groups=2)),
    "depthwise": ((3, 4, 5, 4), (3, 1, 3, 3, 3), True, dict(padding=1, groups=3)),
    "depthwise_dilated": (
        (3, 5, 5, 6), (3, 1, 3, 3, 3), True,
        dict(padding=((2, 2), (2, 1), (1, 2)), dilation=2, groups=3),
    ),
    "depthwise_anisotropic_dilation": (
        (2, 5, 6, 7), (2, 1, 3, 3, 3), False, dict(padding=(1, 2, 3), dilation=(1, 2, 3), groups=2),
    ),
    # Depthwise cases where some kernel offsets read only padding.
    "depthwise_extent1": ((4, 1, 1, 1), (4, 1, 3, 3, 3), True, dict(padding=1, groups=4)),
    "depthwise_extent2_dilated": (
        (3, 2, 2, 2), (3, 1, 3, 3, 3), True, dict(padding=2, dilation=2, groups=3),
    ),
    "depthwise_one_sided_padding": (
        (3, 2, 2, 4), (3, 1, 3, 3, 3), False,
        dict(padding=((2, 0), (0, 2), (1, 1)), groups=3),
    ),
    "pointwise_bias": ((4, 3, 4, 5), (3, 4, 1, 1, 1), True, {}),
    "pointwise_no_bias": ((4, 3, 4, 5), (3, 4, 1, 1, 1), False, {}),
    "unit_kernel_strided": ((4, 5, 4, 6), (3, 4, 1, 1, 1), True, dict(stride=2)),
    "unit_kernel_padded": ((4, 3, 4, 5), (3, 4, 1, 1, 1), False, dict(padding=1)),
}


def _conv_grads(x, w, b, g, kw):
    """(gx, gw, gb) of sum(conv3d(x, w, b) * g) from the tape."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w)]
    if b is not None:
        leaves.append(Tensor(b, requires_grad=True))
    with GradTape() as tape:
        out = nr.conv3d(*leaves, **kw)
        tape.backward(nr.tsum(out * Tensor(g)))
    return tuple(t.grad for t in leaves)


def _conv_inputs(rng, xs, ws, has_bias, kw):
    x = rng.normal(size=xs)
    w = rng.normal(size=ws)
    b = rng.normal(size=ws[0]) if has_bias else None
    g = rng.normal(size=nr.conv3d(Tensor(x), Tensor(w), **kw).shape)
    return x, w, b, g


@pytest.mark.parametrize("case", list(CONV_CASES))
def test_conv3d_vjp_matches_loop_oracle(rng, case):
    xs, ws, has_bias, kw = CONV_CASES[case]
    x, w, b, g = _conv_inputs(rng, xs, ws, has_bias, kw)
    got = _conv_grads(x, w, b, g, kw)
    want = conv3d_vjp_ref(x, w, g, **kw)
    for name, a, e in zip(("gx", "gw", "gb"), got, want):
        npt.assert_allclose(a, e, rtol=1e-6, atol=1e-12, err_msg=name)


PADDING_ONLY_CASES = ["depthwise_extent1", "depthwise_extent2_dilated", "depthwise_one_sided_padding"]


@pytest.mark.parametrize("case", PADDING_ONLY_CASES)
def test_depthwise_offsets_that_read_only_padding_get_zero_weight_gradient(rng, case):
    """Kernel offsets whose window holds no input voxel (found by counting,
    with all-ones inputs, how many input voxels each offset reads) get a
    weight gradient of exactly 0 from both the loop oracle and the engine."""
    xs, ws, has_bias, kw = CONV_CASES[case]
    ones_out = nr.conv3d(Tensor(np.ones(xs)), Tensor(np.ones(ws)), **kw).shape
    reads = conv3d_vjp_ref(np.ones(xs), np.ones(ws), np.ones(ones_out), **kw)[1]
    padding_only = reads == 0
    assert padding_only.any()
    x, w, b, g = _conv_inputs(rng, xs, ws, has_bias, kw)
    assert (conv3d_vjp_ref(x, w, g, **kw)[1][padding_only] == 0).all()
    assert (_conv_grads(x, w, b, g, kw)[1][padding_only] == 0).all()


# (x shape, conv3d keywords) of the model's depthwise convs, plus one-sided padding.
DEPTHWISE_SHAPES = {
    "32x8^3": ((32, 8, 8, 8), dict(padding=1)),
    "8x8^3_dilated": ((8, 8, 8, 8), dict(padding=2, dilation=2)),
    "256x1^3": ((256, 1, 1, 1), dict(padding=1)),
    "32x2^3_dilated": ((32, 2, 2, 2), dict(padding=2, dilation=2)),
    "8x16^3": ((8, 16, 16, 16), dict(padding=1)),
    "one_sided_padding": ((6, 2, 2, 5), dict(padding=((2, 0), (0, 2), (1, 1)))),
}


@pytest.mark.parametrize("case", list(DEPTHWISE_SHAPES))
def test_depthwise_flat_shift_equals_shifted_slice_sum_in_float32(rng, case):
    """The flat shift forms the same float32 products as the shifted-slice
    kernel and adds them in the same order: forward and input gradient are
    bit-identical. Only the weight gradient sums in another order."""
    xs, kw = DEPTHWISE_SHAPES[case]
    c = xs[0]
    x = rng.standard_normal(xs).astype(np.float32)
    w = rng.standard_normal((c, 1, 3, 3, 3)).astype(np.float32)
    want_out, want_vjp = depthwise_shift_ref(x, w, **kw)
    g = rng.standard_normal(want_out.shape).astype(np.float32)
    want_gx, want_gw = want_vjp(g)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with GradTape() as tape:
        out = nr.conv3d(xt, wt, groups=c, **kw)
        tape.backward(nr.tsum(out * Tensor(g)))
    npt.assert_array_equal(out.data, want_out)
    npt.assert_array_equal(xt.grad, want_gx)
    assert np.abs(wt.grad - want_gw).max() <= 1e-6 * np.abs(want_gw).max()


# (x shape, w shape, conv3d keywords) of the dense convs: the default model's
# four patch embeds at 32^3 with B=2, stage 1 at 64^3 unbatched, and every
# dense CONV_CASES entry.
DENSE_SHAPES = {
    "embed1_32^3_B2": ((2, 2, 32, 32, 32), (8, 2, 7, 7, 7), dict(stride=4, padding=3)),
    "embed2_32^3_B2": ((2, 8, 8, 8, 8), (16, 8, 3, 3, 3), dict(stride=2, padding=1)),
    "embed3_32^3_B2": ((2, 16, 4, 4, 4), (32, 16, 3, 3, 3), dict(stride=2, padding=1)),
    "embed4_32^3_B2": ((2, 32, 2, 2, 2), (64, 32, 3, 3, 3), dict(stride=2, padding=1)),
    "embed1_64^3": ((2, 64, 64, 64), (8, 2, 7, 7, 7), dict(stride=4, padding=3)),
    **{
        c: (CONV_CASES[c][0], CONV_CASES[c][1], CONV_CASES[c][3])
        for c in ("dense_strided_dilated_asymmetric", "grouped", "unit_kernel_strided", "unit_kernel_padded")
    },
}

# Forwards that sum in another order than the einsum path, with the bound on
# max |gemm - einsum| / max |einsum|. Measured at seed 1234: embed4 1.8e-7
# (one output voxel per sample; the same conv on one sample is bit-identical),
# grouped 1.6e-7.
DENSE_REORDERED = {"embed4_32^3_B2": 1e-6, "grouped": 1e-6}


@pytest.mark.parametrize("case", list(DENSE_SHAPES))
def test_dense_gemm_equals_einsum_contractions_in_float32(rng, case):
    """The column-matrix GEMM gives the einsum path's input and weight
    gradients bit for bit in float32, and its forward too except on the
    DENSE_REORDERED shapes."""
    xs, ws, kw = DENSE_SHAPES[case]
    x = rng.standard_normal(xs).astype(np.float32)
    w = rng.standard_normal(ws).astype(np.float32)
    want_out, want_vjp = dense_einsum_ref(x, w, **kw)
    g = rng.standard_normal(want_out.shape).astype(np.float32)
    want_gx, want_gw = want_vjp(g)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with GradTape() as tape:
        out = nr.conv3d(xt, wt, **kw)
        tape.backward(nr.tsum(out * Tensor(g)))
    if case in DENSE_REORDERED:
        assert np.abs(out.data - want_out).max() <= DENSE_REORDERED[case] * np.abs(want_out).max()
    else:
        npt.assert_array_equal(out.data, want_out)
    npt.assert_array_equal(xt.grad, want_gx)
    npt.assert_array_equal(wt.grad, want_gw)


@pytest.mark.parametrize(
    "xs,kw",
    list(DEPTHWISE_SHAPES.values()) + [(CONV_CASES[c][0], CONV_CASES[c][3]) for c in PADDING_ONLY_CASES],
    ids=list(DEPTHWISE_SHAPES) + PADDING_ONLY_CASES,
)
def test_depthwise_live_offsets_are_the_product_of_per_axis_lists(xs, kw):
    """The per-axis product lists the same live (index, shift) pairs in the
    same order as testing each of the 27 offsets on every axis."""
    pads = _pad_pairs(kw["padding"])
    dils = _triple(kw.get("dilation", 1), "dilation")
    spatial = xs[1:]
    out_ext = nr.conv3d(Tensor(np.zeros(xs)), Tensor(np.zeros((xs[0], 1, 3, 3, 3))), **{**kw, "groups": xs[0]}).shape[1:]
    py, px = (e + lo + hi for e, (lo, hi) in zip(spatial[1:], pads[1:]))
    want = depthwise_live_ref((3, 3, 3), dils, pads, out_ext, spatial, py, px)
    assert _live_offsets((3, 3, 3), dils, pads, out_ext, spatial, (py * px, px, 1)) == want


@pytest.mark.parametrize("case", list(CONV_CASES))
def test_conv3d_records_one_tape_entry_per_call(rng, case):
    xs, ws, has_bias, kw = CONV_CASES[case]
    x, w, b, _g = _conv_inputs(rng, xs, ws, has_bias, kw)
    args = [Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)]
    if b is not None:
        args.append(Tensor(b, requires_grad=True))
    with GradTape() as tape:
        nr.conv3d(*args, **kw)
    assert len(tape) == 1


@pytest.mark.parametrize(
    "shape,factor",
    [
        ((2, 3, 4, 5), (2, 3, 1)),
        ((1, 3, 2, 4), (4, 4, 4)),
        ((2, 1, 2, 1), (2, 3, 1)),   # extents 1 and 2: the border clamp repeats i0/i1
        ((1, 2, 1, 2), (4, 4, 4)),
    ],
)
def test_upsample_vjp_is_the_adjoint_of_the_forward(rng, shape, factor):
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    with GradTape() as tape:
        up = nr.upsample_trilinear(x, factor)
        g = rng.normal(size=up.shape)
        tape.backward(nr.tsum(up * Tensor(g)))
    lhs = np.vdot(up.data, g)
    rhs = np.vdot(x.data, x.grad)
    assert abs(lhs - rhs) <= 1e-12 * np.abs(up.data * g).sum()


def test_warp_image_vjp_is_the_adjoint_of_the_forward(rng):
    """The warp is linear in the image: <warp(m), g> == <m, vjp(g)>, here with
    two channels and displacements large enough to clamp at the border."""
    m = Tensor(rng.normal(size=(2, 5, 4, 6)), requires_grad=True)
    u = nr.DeformationField(rng.normal(scale=3.0, size=(3, 5, 4, 6)))
    with GradTape() as tape:
        out = nr.warp_trilinear(nr.Volume(m), u).values
        g = rng.normal(size=out.shape)
        tape.backward(nr.tsum(out * Tensor(g)))
    lhs = np.vdot(out.data, g)
    rhs = np.vdot(m.data, m.grad)
    assert abs(lhs - rhs) <= 1e-12 * np.abs(out.data * g).sum()


# --- float32 against float64 on the same inputs ------------------------------


def _warp_grads(m, u, g):
    mt = Tensor(m, requires_grad=True)
    ut = Tensor(u, requires_grad=True)
    with GradTape() as tape:
        out = nr.warp_trilinear(nr.Volume(mt), nr.DeformationField(ut)).values
        tape.backward(nr.tsum(out * Tensor(g)))
    return mt.grad, ut.grad


def _upsample_grads(x, g):
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        tape.backward(nr.tsum(nr.upsample_trilinear(xt, 4) * Tensor(g)))
    return (xt.grad,)


def _float32_cases(rng):
    """Model-sized inputs in float32: name -> (grad function, inputs)."""
    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def conv(xs, ws, **kw):
        x, w, b = f32(*xs), f32(*ws), f32(ws[0])
        g = f32(*nr.conv3d(Tensor(x), Tensor(w), **kw).shape)
        return lambda x, w, b, g: _conv_grads(x, w, b, g, kw), (x, w, b, g)

    # Displacements whose sample positions keep >= 0.15 voxel off the lattice,
    # so float32 and float64 pick the same corners.
    frac = rng.uniform(0.15, 0.85, size=(3, 32, 32, 32)) * rng.choice([-1, 1], size=(3, 32, 32, 32))
    u = (rng.integers(-2, 3, size=frac.shape) + frac).astype(np.float32)
    return {
        "dense": conv((2, 32, 32, 32), (8, 2, 7, 7, 7), stride=4, padding=3),
        "grouped": conv((8, 8, 8, 8), (16, 4, 3, 3, 3), padding=1, groups=2),
        "depthwise": conv((32, 8, 8, 8), (32, 1, 3, 3, 3), padding=2, dilation=2, groups=32),
        "pointwise": conv((16, 16, 16, 16), (8, 16, 1, 1, 1)),
        "upsample": (_upsample_grads, (f32(8, 8, 8, 8), f32(8, 32, 32, 32))),
        "warp": (_warp_grads, (f32(1, 32, 32, 32), u, f32(1, 32, 32, 32))),
        # Stage-4 Mix-FFN and a dilated conv at 2^3: 26 of 27 offsets read only padding.
        "depthwise_extent1": conv((256, 1, 1, 1), (256, 1, 3, 3, 3), padding=1, groups=256),
        "depthwise_extent2_dilated": conv(
            (32, 2, 2, 2), (32, 1, 3, 3, 3), padding=2, dilation=2, groups=32
        ),
    }


# The bound on max |g32 - g64| / max |g64| of each case; the docstring below
# gives what was measured.
FLOAT32_BOUNDS = {
    "dense": 1e-6, "grouped": 1e-6, "depthwise": 1e-6, "pointwise": 1e-6,
    "upsample": 1e-6, "warp": 5e-6, "depthwise_extent1": 1e-6, "depthwise_extent2_dilated": 1e-6,
}


@pytest.mark.parametrize("case", list(FLOAT32_BOUNDS))
def test_float32_vjps_within_stated_bound_of_float64(rng, case):
    """Float32 gradients stay within FLOAT32_BOUNDS of the float64 ones on the
    same inputs, and repeat bit for bit. Worst max-norm relative error over a
    call's gradients, measured at seed 1234 (float32 eps is 1.2e-7): dense
    3.6e-7, grouped 1.5e-7, depthwise 2.3e-7 (1.8e-7 before its weight
    gradient became one dot product per offset), pointwise 3.2e-7, upsample
    1.2e-7, warp 1.4e-6, depthwise_extent1 4.5e-8, depthwise_extent2_dilated
    1.1e-7. The warp's error comes from its float32 sample positions (one
    ulp at 32 is 3.8e-6), not from the float64 bincount that accumulates the
    image gradient."""
    fn, inputs = _float32_cases(rng)[case]
    got = fn(*inputs)
    again = fn(*inputs)
    want = fn(*(a.astype(np.float64) for a in inputs))
    for a, a2, e in zip(got, again, want):
        assert a.dtype == np.float32
        npt.assert_array_equal(a, a2)
        assert np.abs(a - e).max() / np.abs(e).max() < FLOAT32_BOUNDS[case]
