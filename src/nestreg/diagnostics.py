"""Finite-difference verification of every differentiable block.

Each check builds a float64 fixture from the seed, scalarizes the block
output through a fixed random projection, and compares tape gradients with
central differences (h = 1e-4) for every leaf — inputs and parameters.
Shared by the test suite and the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import decoder as dec
from .config import ModelConfig
from .encoder import encoder_forward
from .gradcheck import check_gradients
from .losses import composite_loss, ncc_loss, smoothness_loss
from .model import _Builder, build_model
from .tensor import (
    Tensor,
    box_sum,
    concat,
    conv3d,
    gelu,
    global_pool,
    layernorm,
    matmul,
    sigmoid,
    softmax,
    tanh,
    tmean,
    tsum,
    upsample_trilinear,
)
from .warp import DeformationField, Volume, warp_trilinear


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float
    passed: bool
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag}  {self.name:<28s} max_rel={self.max_rel_error:.3e} "
            f"tol={self.tolerance:.0e} ({self.seconds:.2f}s)"
        )


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


def _proj(rng, shape):
    return Tensor(rng.normal(size=shape))


def _offgrid_field(rng, shape) -> np.ndarray:
    """Displacements whose sample positions stay >= 0.15 voxel away from
    lattice planes and clamp boundaries (the warp has derivative kinks there)."""
    mag = rng.uniform(0.15, 0.85, size=(3,) + tuple(shape))
    sign = rng.choice([-1.0, 1.0], size=mag.shape)
    return mag * sign


NOISE_STD = 0.3


def random_block(rng, kind: str, width: int, heads: int = 1, **kwargs):
    """Float64 parameters of one block, built by the model's own builder
    (``kind`` names a ``_Builder`` method: ``attention``, ``mix_ffn``,
    ``dual_block``, ``lka``, ``fusion``) with N(0, NOISE_STD) added to every
    entry, so no weight sits at its zero/one/constant initial value.

    Returns ``(params, registry)``; ``registry`` is the ``{name: leaf}`` map
    that ``check_gradients`` takes.
    """
    b = _Builder(ModelConfig(heads=heads, precision=64), rng)
    params = getattr(b, kind)(kind, width, **kwargs)
    for leaf in b.registry.values():
        leaf.data += rng.normal(0.0, NOISE_STD, size=leaf.shape)
    return params, b.registry


# --- individual checks ------------------------------------------------------


def _check_matmul(seed, h, max_coords):
    rng = _rng(seed, 1)
    x = _leaf(rng, (4, 5))
    w = _leaf(rng, (5, 3))
    r = _proj(rng, (4, 3))
    return check_gradients(lambda: tsum(matmul(x, w) * r), {"x": x, "w": w}, h=h)


def _check_activations(seed, h, max_coords):
    rng = _rng(seed, 2)
    x = _leaf(rng, (3, 4, 5))
    r = _proj(rng, (3, 4, 5))
    fn = lambda: tsum((sigmoid(x) + gelu(x) + tanh(x)) * r)
    return check_gradients(fn, {"x": x}, h=h)


def _check_softmax(seed, h, max_coords):
    rng = _rng(seed, 3)
    x = _leaf(rng, (5, 4))
    r0 = _proj(rng, (5, 4))
    r1 = _proj(rng, (5, 4))
    fn = lambda: tsum(softmax(x, axis=0) * r0) + tsum(softmax(x, axis=1) * r1)
    return check_gradients(fn, {"x": x}, h=h)


def _check_layernorm(seed, h, max_coords):
    rng = _rng(seed, 4)
    x = _leaf(rng, (6, 5))
    gamma = Tensor(1.0 + 0.2 * rng.normal(size=(5,)), requires_grad=True)
    beta = Tensor(0.2 * rng.normal(size=(5,)), requires_grad=True)
    r = _proj(rng, (6, 5))
    fn = lambda: tsum(layernorm(x, gamma, beta, axis=1) * r)
    return check_gradients(fn, {"x": x, "gamma": gamma, "beta": beta}, h=h)


def _check_conv3d_plain(seed, h, max_coords):
    rng = _rng(seed, 5)
    x = _leaf(rng, (2, 4, 5, 4))
    w = _leaf(rng, (3, 2, 3, 3, 3), 0.3)
    b = _leaf(rng, (3,))
    r = _proj(rng, (3, 4, 5, 4))
    fn = lambda: tsum(conv3d(x, w, b, padding=1) * r)
    return check_gradients(fn, {"x": x, "w": w, "b": b}, h=h)


def _check_conv3d_strided(seed, h, max_coords):
    rng = _rng(seed, 6)
    x = _leaf(rng, (2, 7, 8, 9))
    w = _leaf(rng, (3, 2, 2, 3, 2), 0.3)
    b = _leaf(rng, (3,))
    out_shape = conv3d(
        x.detach(), w.detach(), stride=(2, 2, 3), padding=(2, 1, 2), dilation=(2, 1, 3)
    ).shape
    r = _proj(rng, out_shape)
    fn = lambda: tsum(
        conv3d(x, w, b, stride=(2, 2, 3), padding=(2, 1, 2), dilation=(2, 1, 3)) * r
    )
    return check_gradients(fn, {"x": x, "w": w, "b": b}, h=h)


def _check_conv3d_grouped(seed, h, max_coords):
    rng = _rng(seed, 7)
    x = _leaf(rng, (4, 4, 4, 4))
    w = _leaf(rng, (6, 2, 3, 3, 3), 0.3)
    r = _proj(rng, (6, 4, 4, 4))
    fn = lambda: tsum(conv3d(x, w, padding=1, groups=2) * r)
    return check_gradients(fn, {"x": x, "w": w}, h=h)


def _check_conv3d_depthwise(seed, h, max_coords):
    rng = _rng(seed, 23)
    x = _leaf(rng, (3, 4, 5, 4))
    w = _leaf(rng, (3, 1, 3, 3, 3), 0.3)
    b = _leaf(rng, (3,))
    r = _proj(rng, (3, 4, 5, 4))
    fn = lambda: tsum(conv3d(x, w, b, padding=2, dilation=2, groups=3) * r)
    return check_gradients(fn, {"x": x, "w": w, "b": b}, h=h)


def _check_conv3d_pointwise(seed, h, max_coords):
    rng = _rng(seed, 24)
    x = _leaf(rng, (4, 3, 4, 5))
    w = _leaf(rng, (3, 4, 1, 1, 1), 0.3)
    b = _leaf(rng, (3,))
    r = _proj(rng, (3, 3, 4, 5))
    fn = lambda: tsum(conv3d(x, w, b) * r)
    return check_gradients(fn, {"x": x, "w": w, "b": b}, h=h)


def _check_conv3d_batched(seed, h, max_coords):
    # A batch of two through each kernel kind: dense, depthwise, pointwise.
    rng = _rng(seed, 25)
    x = _leaf(rng, (2, 3, 4, 5, 4))
    wd = _leaf(rng, (2, 3, 3, 3, 3), 0.3)
    wdw = _leaf(rng, (3, 1, 3, 3, 3), 0.3)
    wp = _leaf(rng, (2, 3, 1, 1, 1), 0.3)
    b = _leaf(rng, (2,))
    r0, r1, r2 = (_proj(rng, (2, c, 4, 5, 4)) for c in (2, 3, 2))

    def fn():
        return (
            tsum(conv3d(x, wd, b, padding=1) * r0)
            + tsum(conv3d(x, wdw, padding=2, dilation=2, groups=3) * r1)
            + tsum(conv3d(x, wp, b) * r2)
        )

    return check_gradients(fn, {"x": x, "wd": wd, "wdw": wdw, "wp": wp, "b": b}, h=h)


def _check_upsample(seed, h, max_coords):
    rng = _rng(seed, 8)
    x = _leaf(rng, (2, 3, 4, 5))
    r = _proj(rng, (2, 6, 12, 5))
    fn = lambda: tsum(upsample_trilinear(x, (2, 3, 1)) * r)
    return check_gradients(fn, {"x": x}, h=h)


def _check_box_sum(seed, h, max_coords):
    rng = _rng(seed, 22)
    x = _leaf(rng, (2, 4, 5, 6))
    r = _proj(rng, (2, 2, 3, 4))
    return check_gradients(lambda: tsum(box_sum(x, 3) * r), {"x": x}, h=h)


def _check_global_pool(seed, h, max_coords):
    rng = _rng(seed, 9)
    x = _leaf(rng, (3, 3, 4, 2))
    r0 = _proj(rng, (3,))
    r1 = _proj(rng, (3,))
    fn = lambda: tsum(global_pool(x, "avg") * r0) + tsum(global_pool(x, "max") * r1)
    return check_gradients(fn, {"x": x}, h=h)


def _check_efficient_attention(seed, h, max_coords):
    rng = _rng(seed, 10)
    x = _leaf(rng, (10, 6), 0.7)
    p, params = random_block(rng, "attention", 6, heads=2, with_tau=False)
    leaves = {"x": x, **params}
    r = _proj(rng, (10, 6))
    fn = lambda: tsum(att.efficient_attention(x, p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_channel_attention(seed, h, max_coords):
    rng = _rng(seed, 11)
    x = _leaf(rng, (10, 6), 0.7)
    p, params = random_block(rng, "attention", 6, heads=2, with_tau=True)
    leaves = {"x": x, **params}
    r = _proj(rng, (10, 6))
    fn = lambda: tsum(att.channel_attention(x, p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_mix_ffn(seed, h, max_coords):
    rng = _rng(seed, 12)
    x = _leaf(rng, (24, 4), 0.7)
    p, params = random_block(rng, "mix_ffn", 4)
    r = _proj(rng, (24, 4))
    leaves = {"x": x, **params}
    fn = lambda: tsum(att.mix_ffn(x, (2, 3, 4), p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_dual_block(seed, h, max_coords):
    rng = _rng(seed, 13)
    x = _leaf(rng, (12, 4), 0.7)
    p, params = random_block(rng, "dual_block", 4, heads=2)
    r = _proj(rng, (12, 4))
    leaves = {"x": x, **params}
    fn = lambda: tsum(att.dual_attention_block(x, (2, 2, 3), p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_dual_block_batched(seed, h, max_coords):
    rng = _rng(seed, 27)
    x = _leaf(rng, (2, 12, 4), 0.7)
    p, params = random_block(rng, "dual_block", 4, heads=2)
    r = _proj(rng, (2, 12, 4))
    leaves = {"x": x, **params}
    fn = lambda: tsum(att.dual_attention_block(x, (2, 2, 3), p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_lka(seed, h, max_coords):
    rng = _rng(seed, 14)
    x = _leaf(rng, (3, 4, 4, 5), 0.7)
    p, params = random_block(rng, "lka", 3)
    r = _proj(rng, (3, 4, 4, 5))
    leaves = {"x": x, **params}
    fn = lambda: tsum(dec.lka_block(x, p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_fusion(seed, h, max_coords):
    rng = _rng(seed, 15)
    x1 = _leaf(rng, (4, 3, 4, 5), 0.7)
    x2 = _leaf(rng, (4, 3, 4, 5), 0.7)
    p, params = random_block(rng, "fusion", 4)
    r = _proj(rng, (4, 3, 4, 5))
    leaves = {"x1": x1, "x2": x2, **params}
    fn = lambda: tsum(dec.nested_attention_fusion(x1, x2, p) * r)
    return check_gradients(fn, leaves, h=h, max_coords=max_coords)


def _check_warp(seed, h, max_coords):
    rng = _rng(seed, 16)
    m = _leaf(rng, (1, 6, 5, 7))
    u = Tensor(_offgrid_field(rng, (6, 5, 7)), requires_grad=True)
    r = _proj(rng, (1, 6, 5, 7))
    fn = lambda: tsum(
        warp_trilinear(Volume(values=m), DeformationField(u=u)).values * r
    )
    return check_gradients(fn, {"m": m, "u": u}, h=h, max_coords=max_coords)


def _check_warp_batched(seed, h, max_coords):
    rng = _rng(seed, 26)
    m = _leaf(rng, (2, 1, 6, 5, 7))
    u = Tensor(np.moveaxis(_offgrid_field(rng, (2, 6, 5, 7)), 0, 1), requires_grad=True)
    r = _proj(rng, (2, 1, 6, 5, 7))
    fn = lambda: tsum(
        warp_trilinear(Volume(values=m), DeformationField(u=u)).values * r
    )
    return check_gradients(fn, {"m": m, "u": u}, h=h, max_coords=max_coords)


def _check_ncc(seed, h, max_coords):
    rng = _rng(seed, 17)
    f = _leaf(rng, (1, 7, 7, 7))
    w = _leaf(rng, (1, 7, 7, 7))
    fn = lambda: ncc_loss(Volume(values=f), Volume(values=w), window=5)
    return check_gradients(fn, {"f": f, "w": w}, h=h, max_coords=max_coords)


def _check_smoothness(seed, h, max_coords):
    rng = _rng(seed, 18)
    u = _leaf(rng, (3, 4, 5, 4))
    fn = lambda: smoothness_loss(DeformationField(u=u))
    return check_gradients(fn, {"u": u}, h=h, max_coords=max_coords)


def _check_composite(seed, h, max_coords):
    rng = _rng(seed, 19)
    fx = _leaf(rng, (1, 8, 8, 8))
    mv = _leaf(rng, (1, 8, 8, 8))
    u = Tensor(_offgrid_field(rng, (8, 8, 8)), requires_grad=True)
    cfg = ModelConfig(ncc_window=5)
    fn = lambda: composite_loss(
        Volume(values=fx), Volume(values=mv), DeformationField(u=u), cfg
    ).total
    return check_gradients(fn, {"u": u, "moving": mv}, h=h, max_coords=max_coords)


def _tiny_model(seed):
    # No stage is 2 wide: layernorm over two channels is a sign of their
    # difference smoothed over 2*sqrt(eps) ~ 6e-3, and a token inside that
    # band bends the loss too sharply for a central difference at h = 1e-4.
    cfg = ModelConfig(
        channels=(4, 4, 6, 8),
        strides=(2, 2, 2, 1),
        kernels=(3, 3, 3, 3),
        blocks_per_stage=1,
        heads=2,
        dae_blocks=2,
        lka_blocks=2,
        precision=64,
        seed=seed,
        init_std=0.2,
    )
    model = build_model(cfg)
    rng = _rng(seed, 20)
    # A zero head keeps every sample position exactly on the lattice, where the
    # warp is non-differentiable; randomize it so the check runs off-grid.
    head_w = model.registry["head.w"]
    head_w.data = rng.normal(size=head_w.data.shape) * 0.05
    head_b = model.registry["head.b"]
    head_b.data = rng.uniform(0.2, 0.4, size=head_b.data.shape) * rng.choice(
        [-1.0, 1.0], size=head_b.data.shape
    )
    return model


# The fusion max-pools every encoder skip but the deepest, and a max-pool has a
# kink where its top two values tie: a central difference at h = 1e-4
# straddles it when they lie closer than about 5e-4.
MAX_POOL_MARGIN = 1e-3


def _full_model_inputs(seed: int, salt: int, shape):
    """The tiny model and its fixed/moving leaves of ``shape``, drawn again
    from the same rng until every max-pooled skip feature of more than one
    voxel has its top two values MAX_POOL_MARGIN apart in every channel and
    sample (one tape-free encoder forward per draw)."""
    rng = _rng(seed, salt)
    model = _tiny_model(seed)
    while True:
        fx, mv = (
            Tensor(np.clip(rng.normal(0.5, 0.25, size=shape), 0.0, 1.0), requires_grad=True)
            for _ in range(2)
        )
        x = concat([mv, fx], axis=-4)
        skips = encoder_forward(x, model.config, model.enc_stages)[:-1]
        flats = [f.data.reshape(f.shape[:-3] + (-1,)) for f in skips if math.prod(f.shape[-3:]) > 1]
        top2 = [np.partition(f, -2, axis=-1)[..., -2:] for f in flats]
        if min((t[..., 1] - t[..., 0]).min() for t in top2) >= MAX_POOL_MARGIN:
            return model, fx, mv


def _full_model_check(salt: int, shape):
    """The tiny model's composite loss on fixed/moving leaves of ``shape``
    ([1, 8, 8, 8] for one pair, [B, 1, 8, 8, 8] for a batch, whose loss is
    the mean of the per-pair totals)."""

    def check(seed, h, max_coords):
        model, fx, mv = _full_model_inputs(seed, salt, shape)

        def fn():
            field = model.forward(mv, fx)
            out = composite_loss(Volume(values=fx), Volume(values=mv), field, model.config)
            return tmean(out.total)

        leaves = {"moving": mv, "fixed": fx}
        leaves.update(model.parameters())
        return check_gradients(fn, leaves, h=h, max_coords=max_coords)

    return check


_CHECKS = [
    ("matmul", _check_matmul, None),
    ("activations", _check_activations, None),
    ("softmax", _check_softmax, None),
    ("layernorm", _check_layernorm, None),
    ("conv3d", _check_conv3d_plain, None),
    ("conv3d_strided_dilated", _check_conv3d_strided, None),
    ("conv3d_grouped", _check_conv3d_grouped, None),
    ("conv3d_depthwise", _check_conv3d_depthwise, None),
    ("conv3d_pointwise", _check_conv3d_pointwise, None),
    ("conv3d_batched", _check_conv3d_batched, None),
    ("box_sum", _check_box_sum, None),
    ("upsample_trilinear", _check_upsample, None),
    ("global_pool", _check_global_pool, None),
    ("efficient_attention", _check_efficient_attention, 24),
    ("channel_attention", _check_channel_attention, 24),
    ("mix_ffn", _check_mix_ffn, 24),
    ("dual_attention_block", _check_dual_block, 12),
    ("dual_attention_block_batched", _check_dual_block_batched, 12),
    ("lka_block", _check_lka, 24),
    ("nested_attention_fusion", _check_fusion, 12),
    ("warp_trilinear", _check_warp, 48),
    ("warp_batched", _check_warp_batched, 48),
    ("ncc_loss", _check_ncc, 48),
    ("smoothness_loss", _check_smoothness, None),
    ("composite_loss", _check_composite, 32),
    ("full_model", _full_model_check(21, (1, 8, 8, 8)), 3),
    ("full_model_batched", _full_model_check(30, (2, 1, 8, 8, 8)), 3),
]


def run_gradcheck_suite(seed: int = 0, h: float = 1e-4, tol: float = 1e-4, names=None):
    """Run every block check; returns a list of CheckResult."""
    results = []
    for name, fnc, max_coords in _CHECKS:
        if names is not None and name not in names:
            continue
        started = time.perf_counter()
        worst, _per_leaf = fnc(seed, h, max_coords)
        results.append(
            CheckResult(
                name=name,
                max_rel_error=float(worst),
                tolerance=tol,
                passed=bool(worst < tol),
                seconds=time.perf_counter() - started,
            )
        )
    return results
