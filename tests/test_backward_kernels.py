"""Backward kernels of conv3d (one per kind), upsample_trilinear and
warp_trilinear: loop oracles at float64, adjoint identities, float32 bounds
against float64 on the same inputs, repeatability and one tape record per call."""

from __future__ import annotations

import itertools

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import GradTape, Tensor
import nestreg.tensor as nt
from nestreg.tensor import _live_ranges, _pad_pairs, _triple
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
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    return tuple(grads[t] for t in leaves)


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


# (x shape, conv3d keywords) of the model's depthwise convs, plus one-sided padding
# and an axis without live offsets.
DEPTHWISE_SHAPES = {
    "32x8^3": ((32, 8, 8, 8), dict(padding=1)),
    "8x8^3_dilated": ((8, 8, 8, 8), dict(padding=2, dilation=2)),
    "256x1^3": ((256, 1, 1, 1), dict(padding=1)),
    "32x2^3_dilated": ((32, 2, 2, 2), dict(padding=2, dilation=2)),
    "8x16^3": ((8, 16, 16, 16), dict(padding=1)),
    "one_sided_padding": ((6, 2, 2, 5), dict(padding=((2, 0), (0, 2), (1, 1)))),
    # No z offset reads input: the output is 0 and so are both gradients.
    "no_live_z_offset": ((2, 1, 3, 3), dict(padding=((1, 3), (1, 1), (1, 1)), dilation=(2, 1, 1))),
}


def _depthwise_engine_and_ref(rng, xs, kw, dtype, batch=()):
    """(engine, reference) pairs of (out, gx, gw) for a depthwise conv of a
    random x [*batch, *xs] by a 3x3x3 kernel; the reference runs
    depthwise_shift_ref on each sample and sums the weight gradients."""
    c = xs[0]
    x = rng.standard_normal(batch + xs).astype(dtype)
    w = rng.standard_normal((c, 1, 3, 3, 3)).astype(dtype)
    xb = x.reshape((-1,) + xs)
    refs = [depthwise_shift_ref(xi, w, **kw) for xi in xb]
    g = rng.standard_normal(batch + refs[0][0].shape).astype(dtype)
    grads = [vjp(gi) for (_o, vjp), gi in zip(refs, g.reshape((-1,) + refs[0][0].shape))]
    want = (
        np.stack([o for o, _vjp in refs]).reshape(g.shape),
        np.stack([gx for gx, _gw in grads]).reshape(x.shape),
        sum(gw for _gx, gw in grads),
    )
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with GradTape() as tape:
        out = nr.conv3d(xt, wt, groups=c, **kw)
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    return (out.data, grads[xt], grads[wt]), want


def _assert_close(got, want, bound):
    for name, a, e in zip(("out", "gx", "gw"), got, want):
        assert np.abs(a - e).max() <= bound * np.abs(e).max(), name


@pytest.mark.parametrize("case", list(DEPTHWISE_SHAPES))
def test_depthwise_columns_match_shifted_slice_sum_in_float64(rng, case):
    """The column kernel's forward, input gradient and weight gradient equal
    the per-offset sum of shifted slices to 1e-12 at float64."""
    xs, kw = DEPTHWISE_SHAPES[case]
    _assert_close(*_depthwise_engine_and_ref(rng, xs, kw, np.float64), 1e-12)


@pytest.mark.parametrize("case", list(DEPTHWISE_SHAPES))
def test_depthwise_columns_within_float32_bound_of_shifted_slice_sum(rng, case):
    """At float32 the column kernel's matrix products sum in another order
    than the per-offset sum of shifted slices: forward, input gradient and
    weight gradient stay within 2e-6 of it (max |diff| / max |ref|; measured
    at most 7.6e-7 over seeds 0-19, with and without a batch of 2)."""
    xs, kw = DEPTHWISE_SHAPES[case]
    _assert_close(*_depthwise_engine_and_ref(rng, xs, kw, np.float32), 2e-6)


def _recorded_blocks(monkeypatch, budget):
    """Set the column budget and record the (rows, flat) slices of every block."""
    monkeypatch.setattr(nt, "_BLOCK_BYTES", budget)
    seen, blocks = [], nt._column_blocks

    def recording(view):
        for rs, fs, cols in blocks(view):
            seen.append((rs, fs))
            yield rs, fs, cols

    monkeypatch.setattr(nt, "_column_blocks", recording)
    return seen


# A batch of 2 x 3 channels with one-sided padding: 6 rows of n = 2*4*7 = 56
# flat outputs, 2*2*3 = 12 live offsets, and offsets that read only padding.
BLOCK_X, BLOCK_KW = (3, 2, 2, 5), dict(padding=((2, 0), (0, 2), (1, 1)))


@pytest.mark.parametrize("split", ["rows", "flat"])
def test_depthwise_column_blocks_at_their_edges_match_the_oracle(rng, monkeypatch, split):
    """A budget of 4 rows' columns splits the 6 rows into blocks of 4 and 2;
    one of 20 columns splits each row along n into 20, 20, 16. Both match
    the shifted-slice sum at float64, and offsets that read only padding get
    a weight gradient of exactly 0."""
    live = [len(r) for r in _live_ranges((3, 3, 3), (1, 1, 1), _pad_pairs(BLOCK_KW["padding"]), (2, 2, 5), BLOCK_X[1:])]
    k, n = np.prod(live), 56
    budget = 4 * k * n * 8 if split == "rows" else 20 * k * 8
    seen = _recorded_blocks(monkeypatch, budget)
    got, want = _depthwise_engine_and_ref(rng, BLOCK_X, BLOCK_KW, np.float64, batch=(2,))
    _assert_close(got, want, 1e-12)
    forward = [(rs.stop - rs.start, fs.stop - fs.start) for rs, fs in seen[:3 if split == "flat" else 2]]
    assert forward == ([(4, n), (2, n)] if split == "rows" else [(1, 20), (1, 20), (1, 16)])
    xs1 = (1,) + BLOCK_X[1:]
    reads = conv3d_vjp_ref(np.ones(xs1), np.ones((1, 1, 3, 3, 3)), np.ones((1, 2, 2, 5)), **BLOCK_KW)[1]
    assert (reads == 0).any()
    assert (got[2][np.broadcast_to(reads == 0, got[2].shape)] == 0).all()


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
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    if case in DENSE_REORDERED:
        assert np.abs(out.data - want_out).max() <= DENSE_REORDERED[case] * np.abs(want_out).max()
    else:
        npt.assert_array_equal(out.data, want_out)
    npt.assert_array_equal(grads[xt], want_gx)
    npt.assert_array_equal(grads[wt], want_gw)


@pytest.mark.parametrize(
    "xs,kw",
    list(DEPTHWISE_SHAPES.values()) + [(CONV_CASES[c][0], CONV_CASES[c][3]) for c in PADDING_ONLY_CASES],
    ids=list(DEPTHWISE_SHAPES) + PADDING_ONLY_CASES,
)
def test_depthwise_live_offsets_are_the_product_of_per_axis_lists(xs, kw):
    """Each axis's live offsets are one contiguous range, and the product of
    the three ranges lists the same live (index, shift) pairs in the same
    order as testing each of the 27 offsets on every axis."""
    pads = _pad_pairs(kw["padding"])
    dils = _triple(kw.get("dilation", 1), "dilation")
    spatial = xs[1:]
    out_ext = nr.conv3d(Tensor(np.zeros(xs)), Tensor(np.zeros((xs[0], 1, 3, 3, 3))), **{**kw, "groups": xs[0]}).shape[1:]
    py, px = (e + lo + hi for e, (lo, hi) in zip(spatial[1:], pads[1:]))
    ranges = _live_ranges((3, 3, 3), dils, pads, out_ext, spatial)
    assert all(isinstance(r, range) and r.step == 1 for r in ranges)
    steps = [d * s for d, s in zip(dils, (py * px, px, 1))]
    got = [
        ((jz * 3 + jy) * 3 + jx, jz * steps[0] + jy * steps[1] + jx * steps[2])
        for jz, jy, jx in itertools.product(*ranges)
    ]
    assert got == depthwise_live_ref((3, 3, 3), dils, pads, out_ext, spatial, py, px)


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
        grads = tape.backward(nr.tsum(up * Tensor(g)))
    lhs = np.vdot(up.data, g)
    rhs = np.vdot(x.data, grads[x])
    assert abs(lhs - rhs) <= 1e-12 * np.abs(up.data * g).sum()


def test_warp_image_vjp_is_the_adjoint_of_the_forward(rng):
    """The warp is linear in the image: <warp(m), g> == <m, vjp(g)>, here with
    two channels and displacements large enough to clamp at the border."""
    m = Tensor(rng.normal(size=(2, 5, 4, 6)), requires_grad=True)
    u = nr.DeformationField(rng.normal(scale=3.0, size=(3, 5, 4, 6)))
    with GradTape() as tape:
        out = nr.warp_trilinear(nr.Volume(m), u).values
        g = rng.normal(size=out.shape)
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    lhs = np.vdot(out.data, g)
    rhs = np.vdot(m.data, grads[m])
    assert abs(lhs - rhs) <= 1e-12 * np.abs(out.data * g).sum()


# --- float32 against float64 on the same inputs ------------------------------


def _warp_grads(m, u, g):
    mt = Tensor(m, requires_grad=True)
    ut = Tensor(u, requires_grad=True)
    with GradTape() as tape:
        out = nr.warp_trilinear(nr.Volume(mt), nr.DeformationField(ut)).values
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    return grads[mt], grads[ut]


def _upsample_grads(x, g):
    xt = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        return (tape.backward(nr.tsum(nr.upsample_trilinear(xt, 4) * Tensor(g)))[xt],)


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
    3.6e-7, grouped 1.5e-7, depthwise 2.3e-7 (the same on the flat shift
    and on the column kernel that replaced it), pointwise 3.2e-7, upsample
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
