"""The optional leading batch axis: every volume primitive on a batch equals
its per-sample calls stacked, the trilinear warp's flat-index gather equals
the fancy-index gather it replaced, and one batched training step equals the
mean of its per-pair steps; two threads stepping one model get each pair's
own gradients."""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import GradTape, Tensor
from nestreg.diagnostics import _ROWS, _offgrid_field, _tiny_model
from nestreg.losses import composite_loss
from nestreg.train import Checkpoint, model_from_checkpoint
from oracles import warp_gather_ref
from test_backward_kernels import CONV_CASES

ROWS = {row.name: row for row in _ROWS}


def _value_and_grads(fn, arrays, g):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        out = fn(*leaves)
        grads = tape.backward(nr.tsum(out * Tensor(g)))
    return out.data, [grads[t] for t in leaves]


def _check_batch_equals_loop(rng, fn, batched, shared, exact):
    """fn on [2, ...] inputs against fn on each sample: outputs stacked, the
    batched inputs' gradients stacked, the shared inputs' gradients summed."""
    out_shape = fn(*[Tensor(a) for a in batched + shared]).shape
    g = rng.normal(size=out_shape)
    out, grads = _value_and_grads(fn, batched + shared, g)
    loop = [_value_and_grads(fn, [a[j] for a in batched] + shared, g[j]) for j in range(2)]
    want_out = np.stack([o for o, _ in loop])
    if exact:
        npt.assert_array_equal(out, want_out)
    else:
        npt.assert_allclose(out, want_out, rtol=1e-6, atol=1e-12)
    for i, got in enumerate(grads):
        parts = [gs[i] for _, gs in loop]
        want = np.stack(parts) if i < len(batched) else sum(parts)
        npt.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


# Depthwise convs fold the batch into the channels, so their forward forms
# the same products in the same order; the other kinds batch a contraction.
@pytest.mark.parametrize("case", list(CONV_CASES))
def test_conv3d_on_a_batch_equals_stacked_per_sample_calls(rng, case):
    xs, ws, has_bias, kw = CONV_CASES[case]
    shared = [rng.normal(size=ws)] + ([rng.normal(size=ws[0])] if has_bias else [])
    depthwise = kw.get("groups", 1) == xs[0] == ws[0]
    _check_batch_equals_loop(
        rng, lambda x, *wb: nr.conv3d(x, *wb, **kw), [rng.normal(size=(2,) + xs)], shared, exact=depthwise
    )


# The gradcheck rows whose leaves all take a leading batch axis, by case id:
# (row, which output to compare or None for all of them concatenated, and
# whether the batched forward is bitwise equal to the per-sample calls). NCC's
# window sums, the resampling, the pooling and the warp treat each sample
# alone with the same operations.
BATCHABLE = {
    "matmul": ("matmul", None, False),
    "activations": ("activations", None, False),
    "upsample": ("upsample_trilinear", None, True),
    "global_pool_avg": ("global_pool", 0, True),
    "global_pool_max": ("global_pool", 1, True),
    "efficient_attention": ("efficient_attention", None, False),
    "channel_attention": ("channel_attention", None, False),
    "mix_ffn": ("mix_ffn", None, False),
    "dual_attention_block": ("dual_attention_block", None, False),
    "lka_block": ("lka_block", None, False),
    "nested_attention_fusion": ("nested_attention_fusion", None, False),
    "warp": ("warp_trilinear", None, True),
    "ncc": ("ncc_loss", None, True),
    "smoothness": ("smoothness_loss", None, False),
    "composite": ("composite_loss", None, False),
}


@pytest.mark.parametrize("case", list(BATCHABLE))
def test_volume_primitive_on_a_batch_equals_stacked_per_sample_calls(rng, case):
    """Each leaf drawn twice and stacked; the block's parameters are shared
    by both samples, and tuple outputs are concatenated."""
    name, which, exact = BATCHABLE[case]
    row = ROWS[name]
    batched = [np.stack([draw(rng), draw(rng)]) for draw in row.leaves.values()]
    extra, _ = row.draw_block(rng)

    def fn(*leaves):
        outs = row.outputs(*leaves, *extra)
        if which is not None:
            return outs[which]
        return outs[0] if len(outs) == 1 else nr.concat(outs, axis=-1)

    _check_batch_equals_loop(rng, fn, batched, [], exact)


@pytest.mark.parametrize("batch", [None, 1, 2])
def test_warp_flat_index_gather_equals_fancy_index_gather(rng, batch):
    """Bitwise in float32, on off-grid fields that also clamp at the border."""
    lead = () if batch is None else (batch,)
    m = rng.standard_normal(lead + (2, 9, 7, 8)).astype(np.float32)
    frac = np.moveaxis(_offgrid_field(rng, lead + (9, 7, 8)), 0, -4)
    u = (rng.integers(-3, 4, size=frac.shape) + frac).astype(np.float32)
    got = nr.warp_trilinear(nr.Volume(Tensor(m)), nr.DeformationField(Tensor(u))).values.data
    want = warp_gather_ref(m, u) if batch is None else np.stack([warp_gather_ref(m[j], u[j]) for j in range(batch)])
    npt.assert_array_equal(got, want)


# --- one batched training step of the tiny model ------------------------------


def _pairs(rng, dtype):
    return [
        tuple(np.clip(rng.normal(0.5, 0.25, size=(1, 8, 8, 8)), 0.0, 1.0).astype(dtype) for _ in range(2))
        for _ in range(2)
    ]


def _step(model, moving, fixed):
    """(per-pair totals, loss, gradients, tape records) of one step on the
    stacked pairs, with the loss the mean of the per-pair totals as in train."""
    with GradTape() as tape:
        mv, fx = nr.Volume(Tensor(moving)), nr.Volume(Tensor(fixed))
        out = composite_loss(fx, mv, model.forward(mv, fx), model.config)
        loss = nr.tmean(out.total)
        by_leaf = tape.backward(loss)
    grads = {k: by_leaf[p] for k, p in model.parameters().items()}
    return out.total.data, loss.item(), grads, len(tape)


def _batched_vs_per_pair(model, pairs):
    totals, loss, grads, _ = _step(model, *(np.stack([p[k] for p in pairs]) for k in (0, 1)))
    singles = [_step(model, mv[None], fx[None]) for mv, fx in pairs]
    mean_grads = {k: (singles[0][2][k] + singles[1][2][k]) / 2 for k in grads}
    return totals, loss, grads, singles, mean_grads


def test_batched_step_is_the_mean_of_per_pair_steps_in_float64(rng):
    """Gradient entries that cancel to near zero get an absolute floor of
    1e-13 of the largest gradient; measured worst 4e-15 at seed 1234."""
    model = _tiny_model(0)
    totals, loss, grads, singles, mean_grads = _batched_vs_per_pair(model, _pairs(rng, np.float64))
    npt.assert_allclose(totals, [s[0][0] for s in singles], rtol=1e-10)
    npt.assert_allclose(loss, (singles[0][1] + singles[1][1]) / 2, rtol=1e-10)
    scale = max(np.abs(g).max() for g in mean_grads.values())
    for name, g in grads.items():
        npt.assert_allclose(g, mean_grads[name], rtol=1e-10, atol=1e-13 * scale, err_msg=name)


def test_batched_step_in_float32_within_stated_bound_of_per_pair_steps(rng):
    """max |g_batch - mean of g_pair| / max |mean of g_pair|, worst over the
    parameters that carry a gradient above 1e-3 of the largest one, stays
    below 1e-5; measured 1.7e-6 at seed 1234 (1.1e-6 to 3.1e-6 at seeds
    1-3). Float32 sums in another order
    over the batch (the weight gradients of every conv and matmul add the
    pairs' terms inside one contraction), not another formula. The per-pair
    totals and the loss agree within 1e-6."""
    m64 = _tiny_model(0)
    model = model_from_checkpoint(
        Checkpoint(config=replace(m64.config, precision=32), params=m64.state(), epoch=0, rng_state={})
    )
    totals, loss, grads, singles, mean_grads = _batched_vs_per_pair(model, _pairs(rng, np.float32))
    npt.assert_allclose(totals, [s[0][0] for s in singles], rtol=1e-6)
    npt.assert_allclose(loss, (singles[0][1] + singles[1][1]) / 2, rtol=1e-6)
    scale = max(np.abs(g).max() for g in mean_grads.values())
    worst = max(
        np.abs(grads[k] - g).max() / np.abs(g).max()
        for k, g in mean_grads.items()
        if np.abs(g).max() > 1e-3 * scale
    )
    assert worst < 1e-5


def test_batch_of_one_and_of_two_record_the_same_tape(rng):
    model = _tiny_model(0)
    (m1, f1), (m2, f2) = _pairs(rng, np.float64)
    one = _step(model, m1[None], f1[None])[3]
    two = _step(model, np.stack([m1, m2]), np.stack([f1, f2]))[3]
    with GradTape() as tape:
        fld = model.forward(Tensor(m1), Tensor(f1))
        composite_loss(nr.Volume(Tensor(f1)), nr.Volume(Tensor(m1)), fld, model.config)
    assert one == two == len(tape) + 1  # the batch mean is one more record


def test_default_step_records_at_most_430_entries_and_125_views(rng):
    """A default 32^3 B=2 step records every op once per layer, not once per
    sample. The features keep one layout, so the only reshapes and
    transposes are attention's flattenings, head splits and merges and the
    fusion's pooled descriptors (measured: 396 records, 96 of them views)."""
    model = nr.build_model(nr.ModelConfig())
    mv, fx = (nr.Volume(Tensor(rng.uniform(size=(2, 1, 32, 32, 32)).astype(np.float32))) for _ in range(2))
    with GradTape() as tape:
        nr.tmean(composite_loss(fx, mv, model.forward(mv, fx), model.config).total)
    kinds = Counter(vjp.__qualname__.split(".")[0] for _, _, vjp in tape._records)
    assert len(tape) <= 430
    assert kinds["reshape"] + kinds["transpose"] <= 125


def test_two_threads_on_one_model_each_get_their_pairs_gradients_bit_for_bit(rng):
    """Tapes and the depthwise column buffer are per thread, and ``backward``
    returns the gradients instead of storing them on the shared parameters.
    So two threads that run one pair's forward and backward each, at the
    same time through one float32 model, return what each pair gives alone
    on the main thread, byte for byte, and leave no thread behind."""
    m64 = _tiny_model(0)
    model = model_from_checkpoint(
        Checkpoint(config=replace(m64.config, precision=32), params=m64.state(), epoch=0, rng_state={})
    )
    pairs = [rng.uniform(size=(2, 1, 1, 16, 16, 16)).astype(np.float32) for _ in range(2)]

    def grads_of(moving, fixed):
        with GradTape() as tape:
            mv, fx = nr.Volume(Tensor(moving)), nr.Volume(Tensor(fixed))
            out = composite_loss(fx, mv, model.forward(mv, fx), model.config)
            return tape.backward(nr.tmean(out.total))

    want = [grads_of(*pair) for pair in pairs]
    params = set(model.parameters().values())
    assert want[0].keys() == want[1].keys() == params
    assert any(want[0][p].tobytes() != want[1][p].tobytes() for p in params)

    start = threading.Barrier(2, timeout=60)
    results = [None, None]

    def in_step(i):
        try:
            start.wait()  # both forwards begin together
            results[i] = grads_of(*pairs[i])
        except Exception as e:  # raised again on the main thread
            results[i] = e

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        threads = [threading.Thread(target=in_step, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == before
    for got, w in zip(results, want):
        if isinstance(got, Exception):
            raise got
        assert got.keys() == w.keys()
        assert all(got[p].tobytes() == w[p].tobytes() for p in w)
