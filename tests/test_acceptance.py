"""Release-gate acceptance checklist for the registration engine.

Each test below is one gate; together they cover the engine end to end:

  1.  gradient integrity — finite differences over every block and the full
      composite model at a tiny 8-cube configuration (64-bit, < 1e-4);
  2.  equation oracles — every core computation agrees with an independent
      brute-force transcription on >= 20 random small instances (< 1e-6,
      exact for HD95);
  3.  identity fixed points — warping by a zero field, self-similarity,
      SSIM(a, a), and the Jacobian statistic of identity/affine fields;
  4.  associativity — both parenthesizations of the linear-attention product
      agree within 1e-6 over 100 seeds;
  5.  training sanity — 50 default-config epochs on one synthetic 32-cube pair
      must visibly register it (SSIM gain >= 0.05, mask HD95 reduced, folding
      < 1%) in under 10 CPU-minutes;
  6.  ablation-grid liveness — every configuration-axis row builds, survives
      one 16-cube epoch with finite loss, and parameter totals are distinct
      wherever architectures differ;
  7.  determinism & persistence — equal seeds give bit-identical curves,
      checkpoints restore the forward pass bit-for-bit, volume files
      round-trip exactly;
  8.  parameter accounting — ParamTable matches hand-computed closed-form
      counts exactly on three tiny configurations.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
from nestreg import DeformationField, ModelConfig, Tensor, Volume
from nestreg.diagnostics import _FULL_MODEL_CHECKS, _ROWS

from conftest import block
from oracles import (
    channel_attention_ref,
    conv3d_ref,
    efficient_attention_quadratic_ref,
    efficient_attention_ref,
    fusion_ref,
    hd95_ref,
    ncc_ref,
    sdlogj_ref,
    ssim_ref,
    warp_ref,
)


def _verdict(num: int, title: str, detail: str) -> None:
    print(f"\n[acceptance] criterion {num} PASS — {title}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient integrity
# ---------------------------------------------------------------------------


def test_c1_gradient_integrity():
    """Finite-difference check of every differentiable block and the composite
    model (8-cube, channels (4, 4, 6, 8)) in 64-bit, max rel error < 1e-4."""
    t0 = time.perf_counter()
    results = nr.run_gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - t0
    for r in results:
        print("  ", r.line())

    assert [r.name for r in results] == [row.name for row in _ROWS] + [n for n, _, _ in _FULL_MODEL_CHECKS]
    worst = max(r.max_rel_error for r in results)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    assert worst < 1e-4
    assert elapsed < 300.0, f"gradcheck suite took {elapsed:.0f}s (budget 300s)"
    _verdict(1, "gradient integrity",
             f"{len(results)} checks, worst rel err {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Equation oracles
# ---------------------------------------------------------------------------


def _attention_input(g: np.random.Generator, with_tau: bool):
    """A random head count, a volume [d_model, D, H, W] of 4-12 voxels and
    attention parameters for it."""
    heads = int(g.choice([1, 2, 3]))
    dm = heads * int(g.integers(2, 5))
    x = g.normal(size=(dm, int(g.integers(4, 13)), 1, 1))
    return x, block(g, "attention", dm, heads=heads, with_tau=with_tau)


def _dev_efficient_attention(g: np.random.Generator) -> float:
    x, p = _attention_input(g, with_tau=False)
    got = nr.efficient_attention(Tensor(x), p).data
    want = efficient_attention_ref(x.reshape(x.shape[0], -1), p.wq.data, p.wk.data, p.wv.data, p.wo.data, p.heads)
    return float(np.max(np.abs(got - want.reshape(x.shape))))


def _dev_channel_attention(g: np.random.Generator) -> float:
    x, p = _attention_input(g, with_tau=True)
    got = nr.channel_attention(Tensor(x), p).data
    want = channel_attention_ref(
        x.reshape(x.shape[0], -1), p.wq.data, p.wk.data, p.wv.data, p.wo.data, p.heads, p.log_tau.data
    )
    return float(np.max(np.abs(got - want.reshape(x.shape))))


def _dev_fusion(g: np.random.Generator) -> float:
    c = int(g.integers(2, 4))
    shape = tuple(int(g.integers(2, 4)) for _ in range(3))
    x1 = g.normal(size=(c,) + shape)
    x2 = g.normal(size=(c,) + shape)
    p = block(g, "fusion", c)
    got = nr.nested_attention_fusion(Tensor(x1), Tensor(x2), p).data
    return float(np.max(np.abs(got - fusion_ref(x1, x2, p))))


def _dev_conv3d(g: np.random.Generator) -> float:
    groups = int(g.choice([1, 1, 2]))
    cin = groups * int(g.integers(1, 3))
    cout = groups * int(g.integers(1, 3))
    k = int(g.integers(1, 4))
    dil = int(g.choice([1, 2]))
    span = (k - 1) * dil + 1
    exts = tuple(span + int(g.integers(0, 3)) for _ in range(3))
    pads = tuple(int(g.integers(0, 2)) for _ in range(3))
    strides = tuple(int(g.integers(1, 3)) for _ in range(3))
    x = g.normal(size=(cin,) + exts)
    w = g.normal(size=(cout, cin // groups, k, k, k))
    b = g.normal(size=cout) if g.integers(0, 2) else None
    got = nr.conv3d(
        Tensor(x), Tensor(w), None if b is None else Tensor(b),
        stride=strides, padding=pads, dilation=dil, groups=groups,
    ).data
    want = conv3d_ref(x, w, b, stride=strides, padding=pads, dilation=dil, groups=groups)
    return float(np.max(np.abs(got - want)))


def _dev_warp(g: np.random.Generator) -> float:
    c = int(g.integers(1, 3))
    shape = tuple(int(g.integers(3, 6)) for _ in range(3))
    m = g.normal(size=(c,) + shape)
    u = g.normal(0.0, 1.5, size=(3,) + shape)
    got = nr.warp_trilinear(
        Volume(values=Tensor(m)), DeformationField(u=Tensor(u))
    ).values.data
    return float(np.max(np.abs(got - warp_ref(m, u))))


def _dev_ncc(g: np.random.Generator) -> float:
    shape = tuple(int(g.integers(5, 8)) for _ in range(3))
    f = g.uniform(size=shape)
    w = g.uniform(size=shape)
    got = nr.ncc_loss(
        Volume(values=Tensor(f[None])), Volume(values=Tensor(w[None]))
    ).item()
    return abs(got - ncc_ref(f, w))


def _dev_ssim(g: np.random.Generator) -> float:
    shape = tuple(int(g.integers(7, 10)) for _ in range(3))
    a = g.uniform(size=shape)
    b = np.clip(a + g.normal(0.0, 0.2, size=shape), 0.0, 1.5)
    return abs(nr.ssim(a, b) - ssim_ref(a, b))


def _dev_hd95(g: np.random.Generator) -> float:
    a = np.zeros((7, 7, 7), dtype=bool)
    b = np.zeros((7, 7, 7), dtype=bool)
    az, ay, ax = g.integers(0, 4, size=3)
    bz, by, bx = g.integers(0, 4, size=3)
    a[az:az + 3, ay:ay + 3, ax:ax + 3] = True
    b[bz:bz + 4, by:by + 3, bx:bx + 2] = True
    got, want = nr.hd95(a, b), hd95_ref(a, b)
    assert got == want, f"hd95 {got!r} != oracle {want!r}"  # exact, not approx
    return 0.0


def _dev_sdlogj(g: np.random.Generator) -> float:
    shape = tuple(int(g.integers(4, 7)) for _ in range(3))
    u = g.normal(0.0, 0.15, size=(3,) + shape)
    stats = nr.sdlogj(u)
    want_sd, want_frac = sdlogj_ref(u)
    assert stats.folding_fraction == want_frac
    return abs(stats.sdlogj - want_sd)


_ORACLES = [
    ("efficient attention", _dev_efficient_attention),
    ("channel attention", _dev_channel_attention),
    ("nested fusion", _dev_fusion),
    ("conv3d", _dev_conv3d),
    ("trilinear warp", _dev_warp),
    ("windowed NCC", _dev_ncc),
    ("SSIM", _dev_ssim),
    ("HD95", _dev_hd95),
    ("SDlogJ", _dev_sdlogj),
]


def test_c2_equation_oracles():
    """Each core equation agrees with its brute-force loop transcription on
    >= 20 random small instances, within 1e-6 (HD95 exactly)."""
    report = []
    for label, dev_fn in _ORACLES:
        g = np.random.default_rng(abs(hash(label)) % 2**32)
        worst = max(dev_fn(g) for _ in range(20))
        assert worst < 1e-6, f"{label}: max |impl - oracle| = {worst:.3e}"
        report.append(f"{label} {worst:.1e}")
    _verdict(2, "equation oracles", "20 instances each; max devs: " + ", ".join(report))


# ---------------------------------------------------------------------------
# 3. Identity fixed points
# ---------------------------------------------------------------------------


def test_c3_identity_fixed_points(rng):
    # Zero-field warp returns the moving volume bit-for-bit.
    m = rng.uniform(size=(2, 6, 7, 5))
    out = nr.warp_trilinear(Volume(values=Tensor(m)), nr.identity_field((6, 7, 5)))
    npt.assert_array_equal(out.values.data, m)

    # Self-registration loss: smoothness is exactly zero; the NCC term bottoms
    # out at its documented eps floor (~1e-7 on textured volumes), so "zero"
    # is asserted at the shared 1e-6 oracle tolerance.
    f = Volume(values=Tensor(rng.uniform(size=(1, 9, 9, 9))))
    loss = nr.composite_loss(f, f, nr.identity_field((9, 9, 9)))
    assert loss.smoothness.item() == 0.0
    assert abs(loss.total.item()) < 1e-6

    a = rng.uniform(size=(8, 8, 8))
    assert abs(nr.ssim(a, a) - 1.0) <= 1e-9

    assert nr.sdlogj(np.zeros((3, 6, 6, 6))).sdlogj == 0.0

    # An affine displacement has a constant Jacobian, so the log-determinant
    # deviates only by float rounding of the central differences.
    A = rng.normal(0.0, 0.05, size=(3, 3))
    b = rng.normal(size=3)
    grid = np.stack(
        np.meshgrid(*(np.arange(6, dtype=np.float64),) * 3, indexing="ij"), axis=0
    )
    u = np.einsum("ij,jzyx->izyx", A, grid) + b[:, None, None, None]
    stats = nr.sdlogj(u)
    assert stats.sdlogj <= 1e-12
    assert stats.folding_fraction == 0.0
    _verdict(3, "identity fixed points",
             f"zero-warp bit-exact, self-loss {loss.total.item():.1e}, "
             f"SSIM(a,a)-1 <= 1e-9, SDlogJ(identity)=0, SDlogJ(affine) {stats.sdlogj:.1e}")


# ---------------------------------------------------------------------------
# 4. Linear-attention associativity
# ---------------------------------------------------------------------------


def test_c4_attention_parenthesizations_agree():
    """(V rho_k(K)^T) rho_q(Q) versus V (rho_k(K)^T rho_q(Q)) over 100 seeds."""
    worst = 0.0
    for seed in range(100):
        g = np.random.default_rng(seed)
        heads = int(g.choice([1, 2, 3]))
        dm = heads * int(g.integers(2, 5))
        x = g.normal(size=(dm, int(g.integers(4, 16)), 1, 1)) * 2.0
        p = block(g, "attention", dm, heads=heads, with_tau=False)
        fast = nr.efficient_attention(Tensor(x), p).data
        slow = efficient_attention_quadratic_ref(
            x.reshape(dm, -1), p.wq.data, p.wk.data, p.wv.data, p.wo.data, heads
        ).reshape(x.shape)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst < 1e-6
    _verdict(4, "attention associativity", f"100 seeds, max gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 5. Training sanity
# ---------------------------------------------------------------------------


def test_c5_training_sanity(tmp_path):
    """Default config (50 epochs) on one seeded synthetic 32-cube amplitude-3
    pair must raise SSIM by >= 0.05, reduce mask HD95, and keep folding < 1%."""
    t0 = time.perf_counter()
    mv, fx, _ = nr.synth_pair(32, seed=7, amplitude=3.0, bits=32)
    cfg = ModelConfig()
    assert cfg.epochs == 50  # the default config is the thing under test
    model = nr.build_model(cfg)
    result = nr.train(model, [(mv, fx)], [(mv, fx)], out_dir=tmp_path)
    best = nr.model_from_checkpoint(result.best)
    _, _, report = nr.register(best, mv, fx)
    elapsed = time.perf_counter() - t0

    gain = report.ssim - report.ssim_initial
    assert gain >= 0.05, f"SSIM gain {gain:.3f} < 0.05"
    assert report.hd95 < report.hd95_initial, (
        f"mask HD95 {report.hd95:.2f} not reduced from {report.hd95_initial:.2f}"
    )
    assert report.folding_fraction < 0.01
    assert elapsed < 600.0, f"training sanity took {elapsed:.0f}s (budget 600s)"
    _verdict(5, "training sanity",
             f"SSIM {report.ssim_initial:.3f}→{report.ssim:.3f} (+{gain:.3f}), "
             f"HD95 {report.hd95_initial:.2f}→{report.hd95:.2f}, "
             f"folding {report.folding_fraction:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Ablation-grid liveness
# ---------------------------------------------------------------------------

def _ablation_grid():
    """``scripts/ablation_grid.py``, loaded by path, so the gate trains exactly
    the rows (and the 16-cube base) that the script sweeps."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "ablation_grid.py"
    spec = importlib.util.spec_from_file_location("ablation_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GRID = _ablation_grid()


def _arch_signature(cfg: ModelConfig) -> tuple:
    """The fields that determine the parameter count (batch size, optimizer
    and loss settings do not)."""
    return (
        cfg.channels, cfg.kernels, cfg.heads, cfg.patch_kernel,
        cfg.blocks_per_stage, cfg.use_efficient, cfg.use_channel,
        cfg.dae_blocks,
    )


def test_c6_ablation_grid_liveness():
    pairs = [
        nr.synth_pair(16, seed=100 + i, amplitude=1.5, bits=32)[:2] for i in range(8)
    ]
    totals_by_sig: dict[tuple, int] = {}
    lines = []
    for label, overrides in _GRID.ROWS:
        cfg = ModelConfig(**_GRID.BASE, epochs=1, **overrides)
        assert cfg.validate() == [], f"{label}: {cfg.validate()}"
        total = nr.count_params(cfg).total
        sig = _arch_signature(cfg)
        assert totals_by_sig.setdefault(sig, total) == total
        model = nr.build_model(cfg)
        result = nr.train(model, pairs, pairs[:1])
        last = result.curve.rows[-1]
        assert math.isfinite(last.train_loss) and math.isfinite(last.val_loss), label
        lines.append(f"{label}: {total:,} params, epoch loss {last.train_loss:.4f}")
    for line in lines:
        print("  ", line)

    # Distinct architectures must be told apart by the accounting.
    totals = list(totals_by_sig.values())
    assert len(set(totals)) == len(totals), "param totals collide across architectures"
    _verdict(6, "ablation grid liveness",
             f"{len(_GRID.ROWS)} rows trained, {len(totals)} distinct architectures, "
             "all totals distinct")


def test_ablation_grid_seed_initializes_and_shuffles_from_each_rows_config(monkeypatch, capsys):
    """``--seed`` goes into each row's config, so the recorded config both
    shuffled the run and rebuilds its initial model."""
    started = []
    real_train = nr.train

    def recording_train(model, *args, **kwargs):
        started.append((model.config, model.state()))
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(nr, "train", recording_train)
    assert _GRID.main(["--epochs", "1", "--pairs", "2", "--seed", "3"]) == 0
    assert len(started) == len(_GRID.ROWS)
    for (label, _), (cfg, state) in zip(_GRID.ROWS, started):
        assert cfg.seed == 3, label
        rebuilt = nr.build_model(cfg).state()
        assert rebuilt.keys() == state.keys(), label
        for name, arr in state.items():
            npt.assert_array_equal(rebuilt[name], arr, err_msg=f"{label}: {name}")


# ---------------------------------------------------------------------------
# 7. Determinism & persistence
# ---------------------------------------------------------------------------


def test_c7_determinism_and_persistence(tmp_path):
    cfg = ModelConfig(
        channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=1,
        dae_blocks=1, epochs=3, precision=64, seed=9,
    )
    pairs = [nr.synth_pair(12, seed=40 + i, amplitude=1.5, bits=64)[:2] for i in range(3)]
    tr, va = nr.split_pairs(pairs)

    def run():
        return nr.train(nr.build_model(cfg), tr, va)

    a, b = run(), run()
    rows_a = np.array([dataclasses.astuple(r) for r in a.curve.rows])
    rows_b = np.array([dataclasses.astuple(r) for r in b.curve.rows])
    assert rows_a.tobytes() == rows_b.tobytes()  # bit-identical, not approx

    # Checkpoint round-trip preserves the forward pass bit-for-bit.
    path = tmp_path / "ckpt.npz"
    nr.save_checkpoint(path, a.last)
    rebuilt = nr.model_from_checkpoint(nr.load_checkpoint(path))
    reference = nr.model_from_checkpoint(a.last)
    mv, fx = tr[0]
    u_ref = reference.forward(mv, fx).u.data
    u_back = rebuilt.forward(mv, fx).u.data
    assert u_ref.tobytes() == u_back.tobytes()

    # Volume files round-trip exactly in both precisions and both ranks.
    g = np.random.default_rng(3)
    for arr in (
        g.normal(size=(5, 6, 7)),
        g.normal(size=(3, 4, 4, 4)),
        g.normal(size=(6, 5, 4)).astype(np.float32),
    ):
        p = tmp_path / "roundtrip.nmv"
        nr.save_volume(p, arr)
        back = nr.load_volume(p)
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()
    _verdict(7, "determinism & persistence",
             f"{rows_a.shape[0]}-epoch curves bit-identical, checkpoint forward "
             "bit-exact, volume files exact")


# ---------------------------------------------------------------------------
# 8. Parameter accounting
# ---------------------------------------------------------------------------

# Hand-computed closed-form counts (independently derived per block:
# embed c*prev*k^3+3c; dual 4c^2 [EA] + 4c^2+H [CA] + 4c + 2*(8c^2+4ck^3+9c);
# LKA c^2+57c; fusion 6c^2+2ck^3+10c; projection c_skip*c+c_skip; head 3c+3).
_COUNT_CASES = [
    (
        ModelConfig(
            channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=1, dae_blocks=1,
        ),
        {"Encoder": 2264, "DAE-Former 1": 1337, "LKA-Former 1": 118, "Other": 171},
    ),
    (
        ModelConfig(channels=(4, 8, 12, 16), strides=(2, 2, 2, 2), kernels=(3, 3, 3, 3), heads=2),
        {
            "Encoder": 30104,
            "DAE-Former 1": 9954, "DAE-Former 2": 6314,
            "LKA-Former 1": 520, "LKA-Former 2": 244,
            "Other": 3239,
        },
    ),
    (
        ModelConfig(
            channels=(3, 6), strides=(2, 2), kernels=(3, 3), heads=3,
            blocks_per_stage=2, use_channel=False, dae_blocks=0,
        ),
        {"Encoder": 6777, "LKA-Former 1": 378, "LKA-Former 2": 180, "Other": 279},
    ),
]

# The full-scale reference model reports roughly 86.66M (encoder),
# 87.59M + 22.04M (dual-attention stages), 4.05M + 2.08M (large-kernel
# stages), 202.41M total. Those totals cannot be reconstructed here: they
# depend on per-stage widths that are not public, so no configuration in this
# repository reproduces them and nothing below asserts them. The three tiny
# configurations above are fully determined and are checked exactly.


@pytest.mark.parametrize("cfg,frozen", _COUNT_CASES, ids=["A", "B", "C"])
def test_c8_parameter_accounting(cfg, frozen):
    table = nr.count_params(cfg)
    assert table.rows == list(frozen.items())  # Encoder, DAE i, LKA i, Other
    assert table.total == sum(frozen.values())
    assert nr.build_model(cfg).num_params == table.total
    _verdict(8, "parameter accounting",
             f"{len(frozen)} rows exact, total {table.total:,}")
