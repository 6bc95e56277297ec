"""Evaluation metrics against loop oracles and closed forms: SSIM, 6-neighbor
surface HD95, and the log-Jacobian spread."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import nestreg as nr
from nestreg import ShapeError, Tensor, UndefinedMetricError, Volume, metrics
from oracles import (
    hd95_edt_ref,
    hd95_ref,
    sdlogj_ref,
    ssim_ref,
    surface_ref,
    windowed_mean_full_ref,
)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_matches_window_loop_oracle(rng):
    for _ in range(4):
        a = rng.uniform(0, 1, size=(8, 8, 8))
        b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
        npt.assert_allclose(nr.ssim(a, b), ssim_ref(a, b), rtol=1e-10)


def test_ssim_of_identical_volumes_is_one(rng):
    a = rng.uniform(0, 1, size=(9, 9, 9))
    assert abs(nr.ssim(a, a) - 1.0) <= 1e-9


def test_ssim_accepts_volume_tensor_and_array_inputs(rng):
    a = rng.uniform(0, 1, size=(8, 8, 8))
    b = rng.uniform(0, 1, size=(8, 8, 8))
    want = nr.ssim(a, b)
    assert nr.ssim(Volume(values=Tensor(a)), b) == want
    assert nr.ssim(Tensor(a[None]), b) == want


def test_ssim_constant_volume_conventions():
    a = np.full((7, 7, 7), 0.3)
    assert nr.ssim(a, a.copy()) == 1.0            # zero dynamic range, equal
    b = np.full((7, 7, 7), 0.8)
    got = nr.ssim(a, b)                           # span 0.5, pure luminance shift
    npt.assert_allclose(got, ssim_ref(a, b), rtol=1e-12)
    assert got < 1.0


def test_ssim_decreases_with_noise(rng):
    a = rng.uniform(0, 1, size=(10, 10, 10))
    small = np.clip(a + rng.normal(0, 0.02, a.shape), 0, 1)
    large = np.clip(a + rng.normal(0, 0.3, a.shape), 0, 1)
    assert nr.ssim(a, small) > nr.ssim(a, large)


def test_ssim_shape_and_window_guards(rng):
    a = rng.uniform(size=(8, 8, 8))
    with pytest.raises(ShapeError):
        nr.ssim(a, rng.uniform(size=(8, 8, 7)))
    with pytest.raises(ShapeError):
        nr.ssim(a, a, window=4)
    with pytest.raises(ShapeError):
        nr.ssim(rng.uniform(size=(5, 5, 5)), rng.uniform(size=(5, 5, 5)), window=7)


# ---------------------------------------------------------------------------
# Masks, surfaces, HD95
# ---------------------------------------------------------------------------


def test_mask_from_volume_thresholds_relative_to_peak():
    ramp = np.linspace(0.0, 1.0, 64).reshape(4, 4, 4)
    mask = nr.mask_from_volume(ramp, rel_threshold=0.5)
    npt.assert_array_equal(mask, ramp > 0.5)
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


@pytest.mark.parametrize("seed, perm, flip", [(1, (0, 1, 2), None), (2, (2, 0, 1), 1)])
def test_cropped_hd95_and_ssim_equal_their_full_volume_formulations(monkeypatch, seed, perm, flip):
    moving, fixed, _ = nr.synth_pair(64, seed=seed)
    x, y = (v.values.data[0].transpose(perm) for v in (moving, fixed))
    if flip is not None:
        x, y = np.flip(x, flip), np.flip(y, flip)
    ma, mb = nr.mask_from_volume(x), nr.mask_from_volume(y)
    assert nr.hd95(ma, mb) == hd95_edt_ref(ma, mb)

    x, y = x.astype(np.float64), y.astype(np.float64)
    kern = metrics._gaussian_window(7, 1.5)
    for v in (x, y, x * y):
        npt.assert_array_equal(metrics._windowed_mean(v, kern), windowed_mean_full_ref(v, kern))
    got = nr.ssim(x, y)
    monkeypatch.setattr(metrics, "_windowed_mean", windowed_mean_full_ref)
    assert nr.ssim(x, y) == got


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


# ---------------------------------------------------------------------------
# SDlogJ
# ---------------------------------------------------------------------------


def test_sdlogj_matches_determinant_loop_oracle(rng):
    for _ in range(4):
        u = rng.normal(0, 0.15, size=(3, 6, 6, 6))
        got = nr.sdlogj(u)
        want_sd, want_frac = sdlogj_ref(u)
        npt.assert_allclose(got.sdlogj, want_sd, rtol=1e-10)
        assert got.nonpositive_fraction == want_frac


def test_sdlogj_zero_for_identity_and_affine_fields(rng):
    assert nr.sdlogj(np.zeros((3, 5, 5, 5))).sdlogj == 0.0

    # u = A v + b gives a constant Jacobian I + A: zero spread, no folding.
    grid = np.indices((6, 6, 6), dtype=np.float64)
    amat = rng.normal(0, 0.05, size=(3, 3))
    u = np.einsum("ij,jzyx->izyx", amat, grid) + rng.normal(size=(3, 1, 1, 1))
    stats = nr.sdlogj(u)
    assert stats.sdlogj <= 1e-12
    assert stats.nonpositive_fraction == 0.0


def test_sdlogj_counts_folding():
    n = 7
    u = np.zeros((3, n, n, n))
    u[2] = -2.0 * np.arange(n)[None, None, :]  # du_x/dx = -2 -> det = -1 everywhere
    with pytest.raises(UndefinedMetricError):
        nr.sdlogj(u)

    u[2] *= 0.25  # det = 0.5 > 0 everywhere
    stats = nr.sdlogj(u)
    assert stats.nonpositive_fraction == 0.0
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


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 0.2))
def test_sdlogj_nonnegative_and_finite_on_smooth_fields(seed, scale):
    u = np.random.default_rng(seed).normal(0, scale, size=(3, 5, 5, 5))
    stats = nr.sdlogj(u)
    assert stats.sdlogj >= 0.0
    assert np.isfinite(stats.sdlogj)
    assert 0.0 <= stats.nonpositive_fraction <= 1.0
