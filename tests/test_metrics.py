"""Evaluation metrics against loop oracles and closed forms: SSIM, 6-neighbor
surface HD95 (each of one volume or mask against another; a batch is
refused), and the log-Jacobian spread."""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st

import nestreg as nr
from nestreg import ShapeError, Tensor, UndefinedMetricError, Volume, metrics
from oracles import (
    hd95_edt_ref,
    hd95_ref,
    sdlogj_ref,
    sdlogj_whole_volume_ref,
    ssim_pair_ref,
    ssim_ref,
    surface_erosion_ref,
    surface_ref,
    windowed_mean_correlate_ref,
    windowed_mean_full_ref,
)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


# The band products sum each window in BLAS's order, not correlate1d's. A
# windowed mean stays within this many float64 epsilons of the reference's,
# relative to the window's weighted sum of absolute values (3.4 measured on
# 64^3 synthetic pairs); an SSIM score within SSIM_BOUND (2.8e-15 measured).
WINDOWED_MEAN_ULPS = 8
SSIM_BOUND = 1e-12


def _assert_windowed_mean_bound(got, v, kern, ref):
    want = ref(v, kern)
    assert got.shape == want.shape
    scale = ref(np.abs(v), kern)
    assert (np.abs(got - want) <= WINDOWED_MEAN_ULPS * np.finfo(np.float64).eps * scale).all()


def test_ssim_matches_window_loop_oracle(rng):
    for _ in range(4):
        a = rng.uniform(0, 1, size=(8, 8, 8))
        b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
        npt.assert_allclose(nr.ssim(a, b), ssim_ref(a, b), rtol=1e-10)
        assert nr.ssim(a, nr.FixedReference(b)) == nr.ssim(a, b)


def test_ssim_of_identical_volumes_is_one(rng):
    a = rng.uniform(0, 1, size=(9, 9, 9))
    assert abs(nr.ssim(a, a) - 1.0) <= 1e-9


def test_ssim_accepts_volume_tensor_and_array_inputs(rng):
    a = rng.uniform(0, 1, size=(8, 8, 8))
    b = rng.uniform(0, 1, size=(8, 8, 8))
    want = nr.ssim(a, b)
    assert nr.ssim(Volume(values=Tensor(a)), b) == want
    assert nr.ssim(Tensor(a[None]), b) == want
    assert nr.ssim(a, nr.FixedReference(Volume(values=Tensor(b)))) == want
    assert nr.ssim(a, nr.FixedReference(Tensor(b[None]))) == want


def test_ssim_constant_volume_conventions(rng):
    a = np.full((7, 7, 7), 0.3)
    assert nr.ssim(a, a.copy()) == 1.0            # zero dynamic range, equal
    assert nr.ssim(a, nr.FixedReference(a)) == 1.0
    b = np.full((7, 7, 7), 0.8)
    got = nr.ssim(a, b)                           # span 0.5, pure luminance shift
    npt.assert_allclose(got, ssim_ref(a, b), rtol=1e-12)
    assert got < 1.0
    assert nr.ssim(a, nr.FixedReference(b)) == got
    c = rng.uniform(0, 1, size=a.shape)           # a constant against a varying volume
    assert abs(nr.ssim(a, c) - ssim_pair_ref(a, c)) <= SSIM_BOUND
    assert nr.ssim(a, nr.FixedReference(c)) == nr.ssim(a, c)
    assert nr.ssim(c, nr.FixedReference(a)) == nr.ssim(c, a)
    d = a.copy()                                  # a NaN makes the range NaN, not 0,
    d[0, 0, 0] = np.nan                           # on either side of a constant
    with np.errstate(invalid="ignore"):
        assert np.isnan(nr.ssim(a, d)) and np.isnan(nr.ssim(d, a))


def test_ssim_decreases_with_noise(rng):
    a = rng.uniform(0, 1, size=(10, 10, 10))
    small = np.clip(a + rng.normal(0, 0.02, a.shape), 0, 1)
    large = np.clip(a + rng.normal(0, 0.3, a.shape), 0, 1)
    assert nr.ssim(a, small) > nr.ssim(a, large)


def test_ssim_shape_and_window_guards(rng):
    a = rng.uniform(size=(8, 8, 8))
    with pytest.raises(ShapeError, match="shapes differ"):
        nr.ssim(a, rng.uniform(size=(8, 8, 7)))
    with pytest.raises(ShapeError, match="smaller than window 7"):
        nr.ssim(rng.uniform(size=(5, 5, 5)), rng.uniform(size=(5, 5, 5)))
    # A reference runs the same checks.
    with pytest.raises(ShapeError, match="shapes differ"):
        nr.ssim(rng.uniform(size=(8, 8, 7)), nr.FixedReference(a))
    with pytest.raises(ShapeError, match="smaller than window 7"):
        nr.FixedReference(rng.uniform(size=(5, 5, 5)))


# ---------------------------------------------------------------------------
# Masks, surfaces, HD95
# ---------------------------------------------------------------------------


def test_mask_from_volume_thresholds_relative_to_peak():
    ramp = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)
    npt.assert_array_equal(nr.mask_from_volume(ramp), ramp > 0.1)
    npt.assert_array_equal(nr.mask_from_volume(2.0 * ramp - 1.0), ramp > 0.55)
    assert not nr.mask_from_volume(np.zeros((4, 4, 4))).any()


def test_surface_voxels_matches_loop_oracle(rng):
    for _ in range(4):
        mask = rng.uniform(size=(6, 6, 6)) > 0.6
        npt.assert_array_equal(nr.surface_voxels(mask), surface_ref(mask))


def test_surface_of_solid_block_is_its_shell():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True
    surf = nr.surface_voxels(mask)
    assert surf.sum() == 26  # 3x3x3 block minus its single interior voxel
    assert not surf[2, 2, 2]


def _slicing_surface_cases(rng):
    """Masks on which the sliced surface must equal the eroded one."""
    for seed in (1, 2):
        moving, fixed, _ = nr.synth_pair(64, seed=seed)
        yield from (nr.mask_from_volume(v) for v in (moving, fixed))
    for axis in range(3):
        for face in (slice(0, 4), slice(-4, None)):
            mask = np.zeros((9, 10, 11), dtype=bool)
            box = [slice(2, 7), slice(3, 8), slice(2, 9)]
            box[axis] = face
            mask[tuple(box)] = True
            yield mask
            yield mask & (rng.uniform(size=mask.shape) > 0.2)
    yield np.ones((6, 7, 8), dtype=bool)
    single = np.zeros((6, 7, 8), dtype=bool)
    single[2, 5, 3] = True
    yield single
    for thin in ((1, 9, 8), (2, 9, 8), (9, 1, 8), (9, 2, 8), (9, 8, 1), (9, 8, 2)):
        yield np.ones(thin, dtype=bool)
        yield rng.uniform(size=thin) > 0.3


def test_surface_by_slicing_equals_the_erosion_formulation(rng):
    n = 0
    for mask in _slicing_surface_cases(rng):
        npt.assert_array_equal(nr.surface_voxels(mask), surface_erosion_ref(mask), strict=True)
        n += 1
    assert n == 4 + 12 + 2 + 12


def _surface_box(a, b):
    hit = np.argwhere(surface_ref(a) | surface_ref(b))
    return tuple(int(e) for e in hit.min(axis=0)), tuple(int(e) for e in np.ptp(hit, axis=0) + 1)


def test_hd95_matches_all_pairs_oracle(rng):
    cases = []
    for _ in range(4):
        a = np.zeros((7, 7, 7), dtype=bool)
        b = np.zeros((7, 7, 7), dtype=bool)
        az, ay, ax = rng.integers(0, 4, size=3)
        bz, by, bx = rng.integers(0, 4, size=3)
        a[az:az + 3, ay:ay + 3, ax:ax + 3] = True
        b[bz:bz + 3, by:by + 3, bx:bx + 3] = True
        cases.append((a, b))

    # Surfaces that touch opposite faces: the box is the whole volume.
    a = np.zeros((7, 7, 7), dtype=bool)
    b = np.zeros((7, 7, 7), dtype=bool)
    a[:, 2:4, 1:5] = True
    b[3:5, :, :] = True
    assert _surface_box(a, b) == ((0, 0, 0), (7, 7, 7))
    cases.append((a, b))

    # A box offset from the origin with anisotropic extents.
    a = np.zeros((16, 18, 14), dtype=bool)
    b = np.zeros((16, 18, 14), dtype=bool)
    a[3:8, 4:10, 5:9] = True
    b[6:12, 9:16, 6:12] = True
    assert _surface_box(a, b) == ((3, 4, 5), (9, 12, 7))
    cases.append((a, b))

    # Two single voxels in opposite corners.
    a = np.zeros((7, 8, 9), dtype=bool)
    b = np.zeros((7, 8, 9), dtype=bool)
    a[0, 0, 0] = True
    b[-1, -1, -1] = True
    cases.append((a, b))

    # A mask filling the whole volume against a small interior block.
    a = np.ones((7, 7, 7), dtype=bool)
    b = np.zeros((7, 7, 7), dtype=bool)
    b[2:4, 3:5, 2:5] = True
    cases.append((a, b))

    for a, b in cases:
        assert nr.hd95(a, b) == hd95_ref(a, b)
        assert nr.hd95(b, a) == hd95_ref(b, a)
        # A reference of a volume whose mask is b holds b and its surface.
        ref = nr.FixedReference(b.astype(np.float64))
        assert np.array_equal(ref.mask, b)
        assert nr.hd95(a, ref) == nr.hd95(a, b)


@pytest.mark.parametrize("seed, perm, flip", [(1, (0, 1, 2), None), (2, (2, 0, 1), 1)])
def test_cropped_hd95_and_ssim_equal_their_full_volume_formulations(monkeypatch, seed, perm, flip):
    moving, fixed, _ = nr.synth_pair(64, seed=seed)
    x, y = (v.values.data[0].transpose(perm) for v in (moving, fixed))
    if flip is not None:
        x, y = np.flip(x, flip), np.flip(y, flip)
    ma, mb = nr.mask_from_volume(x), nr.mask_from_volume(y)
    assert nr.hd95(ma, mb) == hd95_edt_ref(ma, mb)
    ref = nr.FixedReference(y)
    assert nr.hd95(ma, ref) == nr.hd95(ma, mb)
    assert nr.ssim(x, ref) == nr.ssim(x, y)

    x, y = x.astype(np.float64), y.astype(np.float64)
    kern = metrics._gaussian_window(7, 1.5)
    for v in (x, y, x * y):
        got = metrics._windowed_mean(v, kern)
        _assert_windowed_mean_bound(got, v, kern, windowed_mean_full_ref)
    got = nr.ssim(x, y)
    assert abs(got - ssim_pair_ref(x, y)) <= SSIM_BOUND
    monkeypatch.setattr(metrics, "_windowed_mean", windowed_mean_full_ref)
    assert abs(nr.ssim(x, y) - got) <= SSIM_BOUND


@pytest.mark.parametrize("window", [3, 5, 7, 9])
@pytest.mark.parametrize("sigma", [0.8, 1.5])
def test_windowed_mean_of_z_chunks_equals_the_correlate1d_pass(rng, window, sigma):
    """The band products equal ``correlate1d``'s passes to float64 rounding
    (``WINDOWED_MEAN_ULPS``), on anisotropic volumes whose extents can equal
    the window (one output plane) and on a non-contiguous transposed view,
    taken whole and z-chunk by z-chunk (chunks of one output plane, or of two
    with an uneven last chunk where the output extent is odd) and stitched at
    the chunk edges: each output reads its own window and nothing else."""
    kern = metrics._gaussian_window(window, sigma)
    assert np.array_equal(kern, kern[::-1])
    shapes = [(window, 13, 17), (window + 6, window, 11), (2 * window + 1, 16, window + 2)]
    for shape in shapes:
        v = rng.normal(loc=1.0, scale=3.0, size=shape)
        for vol, step in product((v, v.transpose(0, 2, 1)), (None, 1, 2)):
            nz = vol.shape[0] - window + 1
            step = step or nz
            chunks = [vol[z0:z0 + step + window - 1] for z0 in range(0, nz, step)]
            got = np.concatenate([metrics._windowed_mean(c, kern) for c in chunks])
            assert got.shape == tuple(e - window + 1 for e in vol.shape)
            assert got.dtype == np.float64
            _assert_windowed_mean_bound(got, vol, kern, windowed_mean_correlate_ref)


def test_hd95_identity_and_symmetry(rng):
    a = rng.uniform(size=(6, 6, 6)) > 0.5
    if not a.any():
        a[3, 3, 3] = True
    assert nr.hd95(a, a) == 0.0
    b = rng.uniform(size=(6, 6, 6)) > 0.5
    if not b.any():
        b[2, 2, 2] = True
    assert nr.hd95(a, b) == nr.hd95(b, a)


def test_hd95_of_two_single_voxels_is_their_distance():
    a = np.zeros((8, 8, 8), dtype=bool)
    b = np.zeros((8, 8, 8), dtype=bool)
    a[1, 1, 1] = True
    b[4, 5, 1] = True
    npt.assert_allclose(nr.hd95(a, b), 5.0)  # 3-4-5 triangle


def test_hd95_undefined_for_empty_mask():
    a = np.zeros((5, 5, 5), dtype=bool)
    b = np.ones((5, 5, 5), dtype=bool)
    with pytest.raises(UndefinedMetricError):
        nr.hd95(a, b)
    # A reference of an all-zero volume holds an empty mask and no surface.
    ref = nr.FixedReference(np.zeros((7, 7, 7)))
    assert ref.surface is None and not ref.mask.any()
    with pytest.raises(UndefinedMetricError, match="^hd95 is undefined for an empty mask$"):
        nr.hd95(np.ones((7, 7, 7), dtype=bool), ref)
    with pytest.raises(UndefinedMetricError, match="^hd95 is undefined for an empty mask$"):
        nr.hd95(np.zeros((7, 7, 7), dtype=bool), nr.FixedReference(np.ones((7, 7, 7))))


@st.composite
def _mask_pairs(draw):
    """Two masks on one grid of extents 1-20 per axis, each a union of one to
    three boxes less an optional box-shaped hole. A box may touch any face."""
    shape = tuple(draw(st.integers(1, 20)) for _ in range(3))

    def box():
        lo = [draw(st.integers(0, e - 1)) for e in shape]
        return tuple(slice(l, l + draw(st.integers(1, e - l))) for l, e in zip(lo, shape))

    def mask():
        m = np.zeros(shape, dtype=bool)
        for _ in range(draw(st.integers(1, 3))):
            m[box()] = True
        if draw(st.booleans()):
            m[box()] = False
        return m

    return mask(), mask()


@given(masks=_mask_pairs())
def test_hd95_equals_the_distance_transform_formulation_on_any_masks(masks):
    """Exactly, on anisotropic grids and masks on the border, near or farther
    apart than the reach; and on small grids the all-pairs oracle agrees."""
    a, b = masks
    assume(a.any() and b.any())
    want = hd95_edt_ref(a, b)
    assert nr.hd95(a, b) == want
    assert nr.hd95(b, a) == hd95_edt_ref(b, a)
    if a.size <= 1000:
        assert want == hd95_ref(a, b)


def _boxes(shape, *boxes):
    m = np.zeros(shape, dtype=bool)
    for box in boxes:
        m[box] = True
    return m


_HOLLOW = _boxes((24, 24, 24), np.s_[2:22, 2:22, 2:22]) & ~_boxes((24, 24, 24), np.s_[4:20, 4:20, 4:20])


@pytest.mark.parametrize("a, b, both", [
    # A long bar beside a small block: the bar's far end is beyond the reach
    # of the block's surface, while every block voxel is within it of the bar.
    pytest.param(_boxes((6, 6, 30), np.s_[0:4, 2:4, 0:30]), _boxes((6, 6, 30), np.s_[4:6, 2:4, 0:3]),
                 False, id="one-direction"),
    # Two slabs 16 voxels apart: every voxel of either surface is beyond the reach.
    pytest.param(_boxes((18, 20, 20), np.s_[0:2]), _boxes((18, 20, 20), np.s_[16:18]), True, id="both-directions"),
    # Two single voxels 47.9 apart.
    pytest.param(_boxes((28, 28, 30), np.s_[0, 0, 0]), _boxes((28, 28, 30), np.s_[27, 27, 29]),
                 True, id="single-voxels"),
    # A small cube inside a hollow box, 8 voxels from its inner surface: the
    # cube lies inside the box's bounds, so the cube's walk runs and finds
    # nothing.
    pytest.param(_HOLLOW, _boxes((24, 24, 24), np.s_[11:13, 11:13, 11:13]), True, id="hollow"),
])
def test_hd95_beyond_the_reach_takes_the_exact_fallback(monkeypatch, a, b, both):
    """Surface voxels with nothing within the reach get their distances from
    the fallback, in one direction or ``both``, and the result still equals
    both oracles."""
    calls = []
    far = metrics._far_distances
    monkeypatch.setattr(metrics, "_far_distances", lambda pts, dst: calls.append(len(dst.coords)) or far(pts, dst))
    got = nr.hd95(a, b)
    monkeypatch.undo()
    assert got == hd95_ref(a, b) == hd95_edt_ref(a, b)
    assert nr.hd95(b, a) == hd95_ref(b, a)
    n_a, n_b = int(surface_ref(a).sum()), int(surface_ref(b).sum())
    assert calls == ([n_b, n_a] if both else [n_b])


# ---------------------------------------------------------------------------
# A batch is refused: each call scores one volume or mask against another
# ---------------------------------------------------------------------------


def test_batched_ssim_rejects_a_mismatched_member(rng):
    b = rng.uniform(size=(8, 8, 8))
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(2, 1, 8, 8, 7)), b)
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(2, 2, 8, 8, 8)), b)  # two channels per member
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(2, 1, 5, 5, 5)), rng.uniform(size=(5, 5, 5)))
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(2, 1, 8, 8, 8)), b)  # well-formed members too
    with pytest.raises(ShapeError, match="^expected a single-channel 3-D volume"):
        nr.FixedReference(rng.uniform(size=(2, 1, 8, 8, 8)))
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(2, 1, 8, 8, 8)), nr.FixedReference(b))


def test_batched_hd95_guards(rng):
    b = rng.uniform(size=(6, 6, 6)) > 0.5
    full = np.ones_like(b)
    with pytest.raises(ShapeError):
        nr.hd95(np.stack([full, full]), b)
    with pytest.raises(ShapeError):
        nr.hd95(b, np.stack([full, full]))
    with pytest.raises(UndefinedMetricError):
        nr.hd95(full, np.zeros_like(b))
    with pytest.raises(ShapeError):
        nr.hd95(np.ones((6, 6, 5), dtype=bool), b)
    ref = nr.FixedReference(np.ones((7, 7, 7)))
    with pytest.raises(ShapeError):
        nr.hd95(np.ones((2, 7, 7, 7), dtype=bool), ref)
    with pytest.raises(ShapeError):
        nr.hd95(np.ones((7, 7, 6), dtype=bool), ref)


# ---------------------------------------------------------------------------
# SDlogJ
# ---------------------------------------------------------------------------


def test_sdlogj_matches_determinant_loop_oracle(rng):
    for _ in range(4):
        u = rng.normal(0, 0.15, size=(3, 6, 6, 6))
        got = nr.sdlogj(u)
        want_sd, want_frac = sdlogj_ref(u)
        npt.assert_allclose(got.sdlogj, want_sd, rtol=1e-10)
        assert got.folding_fraction == want_frac


def test_sdlogj_zero_for_identity_and_affine_fields(rng):
    assert nr.sdlogj(np.zeros((3, 5, 5, 5))).sdlogj == 0.0

    # u = A v + b gives a constant Jacobian I + A: zero spread, no folding.
    grid = np.indices((6, 6, 6), dtype=np.float64)
    amat = rng.normal(0, 0.05, size=(3, 3))
    u = np.einsum("ij,jzyx->izyx", amat, grid) + rng.normal(size=(3, 1, 1, 1))
    stats = nr.sdlogj(u)
    assert stats.sdlogj <= 1e-12
    assert stats.folding_fraction == 0.0


def test_sdlogj_counts_folding():
    n = 7
    u = np.zeros((3, n, n, n))
    u[2] = -2.0 * np.arange(n)[None, None, :]  # du_x/dx = -2 -> det = -1 everywhere
    with pytest.raises(UndefinedMetricError):
        nr.sdlogj(u)

    u[2] *= 0.25  # det = 0.5 > 0 everywhere
    stats = nr.sdlogj(u)
    assert stats.folding_fraction == 0.0
    npt.assert_allclose(stats.sdlogj, 0.0, atol=1e-12)


def test_sdlogj_accepts_field_and_checks_shape(rng):
    u = rng.normal(0, 0.1, size=(3, 5, 5, 5))
    via_field = nr.sdlogj(nr.DeformationField(u=Tensor(u)))
    via_array = nr.sdlogj(u)
    assert via_field.sdlogj == via_array.sdlogj
    with pytest.raises(ShapeError):
        nr.sdlogj(np.zeros((2, 5, 5, 5)))
    with pytest.raises(UndefinedMetricError):
        nr.sdlogj(np.zeros((3, 2, 5, 5)))  # no interior voxels along z


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scale, folds", [(0.05, False), (0.6, True)])
def test_sdlogj_of_a_float32_field_equals_that_of_its_float64_copy(seed, scale, folds):
    """The central differences are taken in float64, so a float32 field and
    its float64 copy give the same SDlogJ and folding fraction bit for bit,
    with and without folded voxels."""
    u = np.random.default_rng(seed).normal(0, scale, size=(3, 12, 10, 14)).astype(np.float32)
    got = nr.sdlogj(u)
    assert got == nr.sdlogj(u.astype(np.float64))
    assert (got.folding_fraction > 0) == folds


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slab_sdlogj_is_bit_identical_to_the_whole_volume_sdlogj(monkeypatch, dtype):
    """Over three or more z-slabs of interior planes, the last one partial,
    SDlogJ and the folding fraction equal the whole-volume formulation bit
    for bit with folded voxels present, and a field with no positive
    determinant still raises."""
    slabs = []
    jacobian_det = metrics._jacobian_det

    def spy(u):
        slabs.append(u.shape[1] - 2)
        return jacobian_det(u)

    monkeypatch.setattr(metrics, "_jacobian_det", spy)
    u = np.random.default_rng(3).normal(0, 0.6, size=(3, 45, 26, 35)).astype(dtype)
    got = nr.sdlogj(u)
    assert len(slabs) >= 3 and slabs[-1] < slabs[0] and sum(slabs) == 43
    assert got.folding_fraction > 0
    assert (got.sdlogj, got.folding_fraction) == sdlogj_whole_volume_ref(u)

    inverted = -2.0 * np.indices(u.shape[1:], dtype=dtype)  # det(I + grad u) = -1
    with pytest.raises(UndefinedMetricError):
        sdlogj_whole_volume_ref(inverted)
    with pytest.raises(UndefinedMetricError):
        nr.sdlogj(inverted)


def test_sdlogj_traced_peak_stays_within_6_mb():
    """SDlogJ of a 64^3 float32 field holds one slab's Jacobian and the logs,
    not the whole interior's nine float64 planes."""
    u = np.random.default_rng(4).normal(0, 0.6, size=(3, 64, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        nr.sdlogj(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 0.2))
def test_sdlogj_nonnegative_and_finite_on_smooth_fields(seed, scale):
    u = np.random.default_rng(seed).normal(0, scale, size=(3, 5, 5, 5))
    stats = nr.sdlogj(u)
    assert stats.sdlogj >= 0.0
    assert np.isfinite(stats.sdlogj)
    assert 0.0 <= stats.folding_fraction <= 1.0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape, seed", [(16, 0), (32, 1), ((12, 20, 16), 2)])
def test_score_holds_the_metrics_of_the_pair_either_way_round(shape, seed):
    """``score(b, FixedReference(a), u)`` equals, bit for bit, SSIM and HD95
    of the pair in either order and SDlogJ of the field; without a field it
    holds SSIM and HD95 alone."""
    a, b, u = nr.synth_pair(shape, seed=seed)
    ref = nr.FixedReference(a)
    jac = nr.sdlogj(u)
    mask_a, mask_b = nr.mask_from_volume(a), nr.mask_from_volume(b)
    want = {"ssim": nr.ssim(a, b), "hd95": nr.hd95(mask_a, mask_b)}
    assert want == {"ssim": nr.ssim(b, a), "hd95": nr.hd95(mask_b, mask_a)}
    assert nr.score(b, ref) == want
    assert nr.score(b, ref, u) == {**want, "sdlogj": jac.sdlogj,
                                   "folding_fraction": jac.folding_fraction}
