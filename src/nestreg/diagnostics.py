"""Finite-difference verification of every differentiable block.

The checks are one table, ``_ROWS``: each row draws float64 leaves from the
seed, scalarizes the block output through a fixed random projection, and
compares tape gradients with central differences (h = 1e-4) for every leaf —
inputs and parameters. Two full-model checks follow the table. Shared by the
test suite and the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

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
    passed: bool
    tolerance: float
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag}  {self.name:<28s} max_rel={self.max_rel_error:.3e} "
            f"tol={self.tolerance:.0e} ({self.seconds:.2f}s)"
        )


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


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


# --- the table of block checks -----------------------------------------------


def _n(*shape, scale=1.0, shift=0.0):
    """Leaf draw: N(shift, scale) entries of ``shape``."""
    return lambda rng: rng.normal(size=shape) * scale + shift


def _field(*shape):
    """Leaf draw: an off-grid displacement field of ``shape``, ``([B,] 3, D, H, W)``."""
    return lambda rng: np.moveaxis(_offgrid_field(rng, shape[:-4] + shape[-3:]), 0, -4)


def _warped(m, u):
    return warp_trilinear(Volume(values=m), DeformationField(u=u)).values


_COMPOSITE_CONFIG = ModelConfig(ncc_window=5)


@dataclass(frozen=True)
class _Row:
    """One finite-difference check: the leaves drawn from ``_rng(seed, salt)``
    in order, then the parameters of ``block`` (``(kind, width, kwargs)`` for
    ``random_block``, appended to ``call``'s arguments), then one projection
    per output of ``call``, whose projected sum is the checked scalar (a
    scalar output is checked as it is)."""

    name: str
    salt: int
    leaves: dict
    call: Callable
    block: tuple | None = None
    max_coords: int | None = None

    def draw_block(self, rng):
        """``(extra call arguments, {name: leaf})`` of the row's block."""
        if self.block is None:
            return (), {}
        kind, width, kwargs = self.block
        params, registry = random_block(rng, kind, width, **kwargs)
        return (params,), registry

    def outputs(self, *args):
        out = self.call(*args)
        return out if isinstance(out, tuple) else (out,)

    def run(self, seed):
        rng = _rng(seed, self.salt)
        leaves = {k: Tensor(draw(rng), requires_grad=True) for k, draw in self.leaves.items()}
        extra, registry = self.draw_block(rng)
        args = (*leaves.values(), *extra)
        leaves.update(registry)
        proj = [Tensor(rng.normal(size=o.shape)) for o in self.outputs(*args) if o.shape != ()]

        def fn():
            outs = self.outputs(*args)
            if not proj:
                return outs[0]
            return functools.reduce(operator.add, (tsum(o * r) for o, r in zip(outs, proj)))

        return check_gradients(fn, leaves, max_coords=self.max_coords)


_ROWS = (
    _Row("matmul", 1, {"x": _n(4, 5), "w": _n(5, 3)}, matmul),
    _Row("activations", 2, {"x": _n(3, 4, 5)}, lambda x: sigmoid(x) + gelu(x) + tanh(x)),
    _Row("softmax", 3, {"x": _n(5, 4)}, lambda x: (softmax(x, axis=0), softmax(x, axis=1))),
    _Row(
        "layernorm", 4,
        {"x": _n(6, 5), "gamma": _n(5, scale=0.2, shift=1.0), "beta": _n(5, scale=0.2)},
        lambda x, gamma, beta: layernorm(x, gamma, beta, axis=1),
    ),
    _Row(
        "conv3d", 5, {"x": _n(2, 4, 5, 4), "w": _n(3, 2, 3, 3, 3, scale=0.3), "b": _n(3)},
        lambda x, w, b: conv3d(x, w, b, padding=1),
    ),
    _Row(
        "conv3d_strided_dilated", 6,
        {"x": _n(2, 7, 8, 9), "w": _n(3, 2, 2, 3, 2, scale=0.3), "b": _n(3)},
        lambda x, w, b: conv3d(x, w, b, stride=(2, 2, 3), padding=(2, 1, 2), dilation=(2, 1, 3)),
    ),
    _Row(
        "conv3d_grouped", 7, {"x": _n(4, 4, 4, 4), "w": _n(6, 2, 3, 3, 3, scale=0.3)},
        lambda x, w: conv3d(x, w, padding=1, groups=2),
    ),
    _Row(
        "conv3d_depthwise", 23, {"x": _n(3, 4, 5, 4), "w": _n(3, 1, 3, 3, 3, scale=0.3), "b": _n(3)},
        lambda x, w, b: conv3d(x, w, b, padding=2, dilation=2, groups=3),
    ),
    _Row(
        "conv3d_pointwise", 24, {"x": _n(4, 3, 4, 5), "w": _n(3, 4, 1, 1, 1, scale=0.3), "b": _n(3)},
        lambda x, w, b: conv3d(x, w, b),
    ),
    # A batch of two through each kernel kind: dense, depthwise, pointwise.
    _Row(
        "conv3d_batched", 25,
        {
            "x": _n(2, 3, 4, 5, 4),
            "wd": _n(2, 3, 3, 3, 3, scale=0.3),
            "wdw": _n(3, 1, 3, 3, 3, scale=0.3),
            "wp": _n(2, 3, 1, 1, 1, scale=0.3),
            "b": _n(2),
        },
        lambda x, wd, wdw, wp, b: (
            conv3d(x, wd, b, padding=1),
            conv3d(x, wdw, padding=2, dilation=2, groups=3),
            conv3d(x, wp, b),
        ),
    ),
    _Row("upsample_trilinear", 8, {"x": _n(2, 3, 4, 5)}, lambda x: upsample_trilinear(x, (2, 3, 1))),
    _Row(
        "global_pool", 9, {"x": _n(3, 3, 4, 2)},
        lambda x: (global_pool(x, "avg"), global_pool(x, "max")),
    ),
    _Row(
        "efficient_attention", 10, {"x": _n(6, 2, 1, 5, scale=0.7)}, att.efficient_attention,
        ("attention", 6, {"heads": 2, "with_tau": False}), 24,
    ),
    _Row(
        "channel_attention", 11, {"x": _n(6, 2, 1, 5, scale=0.7)}, att.channel_attention,
        ("attention", 6, {"heads": 2, "with_tau": True}), 24,
    ),
    _Row("mix_ffn", 12, {"x": _n(4, 2, 3, 4, scale=0.7)}, att.mix_ffn, ("mix_ffn", 4, {}), 24),
    _Row(
        "dual_attention_block", 13, {"x": _n(4, 2, 2, 3, scale=0.7)},
        att.dual_attention_block, ("dual_block", 4, {"heads": 2}), 12,
    ),
    _Row(
        "dual_attention_block_batched", 27, {"x": _n(2, 4, 2, 2, 3, scale=0.7)},
        att.dual_attention_block, ("dual_block", 4, {"heads": 2}), 12,
    ),
    _Row("lka_block", 14, {"x": _n(3, 4, 4, 5, scale=0.7)}, dec.lka_block, ("lka", 3, {}), 24),
    _Row(
        "nested_attention_fusion", 15, {"x1": _n(4, 3, 4, 5, scale=0.7), "x2": _n(4, 3, 4, 5, scale=0.7)},
        dec.nested_attention_fusion, ("fusion", 4, {}), 12,
    ),
    _Row("warp_trilinear", 16, {"m": _n(2, 6, 5, 7), "u": _field(3, 6, 5, 7)}, _warped, max_coords=48),
    _Row("warp_batched", 26, {"m": _n(2, 1, 6, 5, 7), "u": _field(2, 3, 6, 5, 7)}, _warped, max_coords=48),
    _Row(
        "ncc_loss", 17, {"f": _n(1, 7, 7, 7), "w": _n(1, 7, 7, 7)},
        lambda f, w: ncc_loss(Volume(values=f), Volume(values=w), window=5), max_coords=48,
    ),
    _Row(
        "ncc_loss_batched", 31, {"f": _n(2, 1, 7, 6, 8), "w": _n(2, 1, 7, 6, 8)},
        lambda f, w: ncc_loss(Volume(values=f), Volume(values=w), window=3), max_coords=48,
    ),
    _Row("smoothness_loss", 18, {"u": _n(3, 4, 5, 4)}, lambda u: smoothness_loss(DeformationField(u=u))),
    _Row(
        "smoothness_loss_batched", 32, {"u": _n(2, 3, 4, 5, 3)},
        lambda u: smoothness_loss(DeformationField(u=u)),
    ),
    _Row(
        "composite_loss", 19, {"fixed": _n(1, 8, 8, 8), "moving": _n(1, 8, 8, 8), "u": _field(3, 8, 8, 8)},
        lambda fx, mv, u: composite_loss(
            Volume(values=fx), Volume(values=mv), DeformationField(u=u), _COMPOSITE_CONFIG
        ).total,
        max_coords=32,
    ),
)


_TINY_MODEL_SALT = 20


def _tiny_model(seed):
    # No stage is 2 wide: layernorm over two channels is a sign of their
    # difference smoothed over 2*sqrt(eps) ~ 6e-3, and a voxel inside that
    # band bends the loss too sharply for a central difference at h = 1e-4.
    cfg = ModelConfig(
        channels=(4, 4, 6, 8),
        strides=(2, 2, 2, 1),
        kernels=(3, 3, 3, 3),
        blocks_per_stage=1,
        heads=2,
        dae_blocks=2,
        precision=64,
        seed=seed,
        init_std=0.2,
    )
    model = build_model(cfg)
    rng = _rng(seed, _TINY_MODEL_SALT)
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


def _full_model_check(salt: int, shape, seed):
    """The tiny model's composite loss on fixed/moving leaves of ``shape``
    ([1, 8, 8, 8] for one pair, [B, 1, 8, 8, 8] for a batch, whose loss is
    the mean of the per-pair totals), 3 sampled coordinates per leaf."""
    model, fx, mv = _full_model_inputs(seed, salt, shape)

    def fn():
        field = model.forward(mv, fx)
        out = composite_loss(Volume(values=fx), Volume(values=mv), field, model.config)
        return tmean(out.total)

    leaves = {"moving": mv, "fixed": fx}
    leaves.update(model.parameters())
    return check_gradients(fn, leaves, max_coords=3)


# (name, salt, input shape) of the checks that run after the table's rows.
_FULL_MODEL_CHECKS = (("full_model", 21, (1, 8, 8, 8)), ("full_model_batched", 30, (2, 1, 8, 8, 8)))


def run_gradcheck_suite(seed: int = 0, tol: float = 1e-4, names=None):
    """Run every block check; returns a list of CheckResult."""
    checks = [(row.name, row.run) for row in _ROWS] + [
        (name, functools.partial(_full_model_check, salt, shape)) for name, salt, shape in _FULL_MODEL_CHECKS
    ]
    results = []
    for name, check in checks:
        if names is not None and name not in names:
            continue
        started = time.perf_counter()
        worst, _per_leaf = check(seed)
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
