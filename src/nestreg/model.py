"""Model assembly: deterministic parameter initialization from a
``ModelConfig``, the end-to-end registration network, and parameter
accounting.

The registration network concatenates moving and fixed volumes on channels,
encodes them into a feature pyramid, decodes with fusion against the skips,
and emits a dense displacement field from a zero-initialized head — so a
freshly built model computes the identity transform.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .attention import AttentionParams, DualBlockParams, LayerNormParams, MixFfnParams
from .config import ModelConfig
from .decoder import DecoderHeadParams, DecoderStageParams, FusionParams, LkaParams, decoder_forward
from .encoder import EncoderStageParams, PatchEmbedParams, encoder_forward
from .errors import ContractError, ShapeError
from .losses import composite_loss, ncc_fixed_sums
from .tensor import DTYPES, Tensor, concat
from .warp import DeformationField, Volume


# ---------------------------------------------------------------------------
# Building parameters
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None):
        self.cfg = cfg
        self.rng = rng
        self.dtype = DTYPES[cfg.precision]
        self.registry: dict[str, Tensor] = {}

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.registry:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = Tensor(np.ascontiguousarray(data, dtype=self.dtype), requires_grad=True)
        self.registry[name] = p
        return p

    def weight(self, name: str, shape) -> Tensor:
        """Truncated-normal (resampled beyond ±2σ) weights.

        Convolution kernels [out, in/groups, kd, kh, kw] use a fan-in-scaled
        σ = sqrt(2/fan_in): the decoder's projection/fusion convs sit on
        non-residual paths, and a fixed small σ would shrink features by
        orders of magnitude per stage, silencing the gradient at the head.
        Plain projection matrices (which all live inside residual blocks or
        ahead of a layernorm) use the configured init_std.
        """
        if self.rng is None:
            return self._register(name, np.zeros(shape))
        if len(shape) == 5:
            fan_in = shape[1] * shape[2] * shape[3] * shape[4]
            std = math.sqrt(2.0 / fan_in)
        else:
            std = self.cfg.init_std
        out = self.rng.normal(0.0, std, size=shape)
        bad = np.abs(out) > 2.0 * std
        while bad.any():
            out[bad] = self.rng.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * std
        return self._register(name, out)

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))

    def const(self, name: str, value) -> Tensor:
        return self._register(name, np.asarray(value))

    # -- composite pieces ---------------------------------------------------

    def layernorm(self, prefix: str, width: int) -> LayerNormParams:
        return LayerNormParams(
            gamma=self.ones(f"{prefix}.gamma", (width,)),
            beta=self.zeros(f"{prefix}.beta", (width,)),
        )

    def attention(self, prefix: str, width: int, with_tau: bool) -> AttentionParams:
        heads = self.cfg.heads
        p = AttentionParams(
            wq=self.weight(f"{prefix}.wq", (width, width)),
            wk=self.weight(f"{prefix}.wk", (width, width)),
            wv=self.weight(f"{prefix}.wv", (width, width)),
            wo=self.weight(f"{prefix}.wo", (width, width)),
            heads=heads,
            log_tau=None,
        )
        if with_tau:
            d_head = width // heads
            p.log_tau = self.const(
                f"{prefix}.log_tau", np.full(heads, math.log(math.sqrt(d_head)))
            )
        return p

    def mix_ffn(self, prefix: str, width: int) -> MixFfnParams:
        hidden = 4 * width
        k = self.cfg.patch_kernel
        return MixFfnParams(
            w1=self.weight(f"{prefix}.w1", (width, hidden)),
            b1=self.zeros(f"{prefix}.b1", (hidden,)),
            dw_w=self.weight(f"{prefix}.dw_w", (hidden, 1, k, k, k)),
            dw_b=self.zeros(f"{prefix}.dw_b", (hidden,)),
            w2=self.weight(f"{prefix}.w2", (hidden, width)),
            b2=self.zeros(f"{prefix}.b2", (width,)),
        )

    def dual_block(self, prefix: str, width: int) -> DualBlockParams:
        cfg = self.cfg
        return DualBlockParams(
            efficient=self.attention(f"{prefix}.ea", width, with_tau=False)
            if cfg.use_efficient
            else None,
            channel=self.attention(f"{prefix}.ca", width, with_tau=True)
            if cfg.use_channel
            else None,
            ln1=self.layernorm(f"{prefix}.ln1", width),
            ffn1=self.mix_ffn(f"{prefix}.ffn1", width),
            ln2=self.layernorm(f"{prefix}.ln2", width),
            ffn2=self.mix_ffn(f"{prefix}.ffn2", width),
        )

    def lka(self, prefix: str, width: int) -> LkaParams:
        return LkaParams(
            dw_w=self.weight(f"{prefix}.dw_w", (width, 1, 3, 3, 3)),
            dw_b=self.zeros(f"{prefix}.dw_b", (width,)),
            dwd_w=self.weight(f"{prefix}.dwd_w", (width, 1, 3, 3, 3)),
            dwd_b=self.zeros(f"{prefix}.dwd_b", (width,)),
            pw_w=self.weight(f"{prefix}.pw_w", (width, width, 1, 1, 1)),
            pw_b=self.zeros(f"{prefix}.pw_b", (width,)),
        )

    def fusion(self, prefix: str, width: int) -> FusionParams:
        k = self.cfg.patch_kernel
        return FusionParams(
            g_w=self.weight(f"{prefix}.g_w", (width, width)),
            g_b=self.zeros(f"{prefix}.g_b", (width,)),
            fe_dw_w=self.weight(f"{prefix}.fe_dw_w", (width, 1, k, k, k)),
            fe_dw_b=self.zeros(f"{prefix}.fe_dw_b", (width,)),
            fe_pw_w=self.weight(f"{prefix}.fe_pw_w", (width, width, 1, 1, 1)),
            fe_pw_b=self.zeros(f"{prefix}.fe_pw_b", (width,)),
            fe_dwd_w=self.weight(f"{prefix}.fe_dwd_w", (width, 1, k, k, k)),
            fe_dwd_b=self.zeros(f"{prefix}.fe_dwd_b", (width,)),
            fe_red_w=self.weight(f"{prefix}.fe_red_w", (width, width, 1, 1, 1)),
            fe_red_b=self.zeros(f"{prefix}.fe_red_b", (width,)),
            norm_gamma=self.ones(f"{prefix}.norm.gamma", (width,)),
            norm_beta=self.zeros(f"{prefix}.norm.beta", (width,)),
            sel_w=self.weight(f"{prefix}.sel_w", (width, width, 1, 1, 1)),
            sel_b=self.zeros(f"{prefix}.sel_b", (width,)),
            inner_w=self.weight(f"{prefix}.inner_w", (width, width, 1, 1, 1)),
            inner_b=self.zeros(f"{prefix}.inner_b", (width,)),
            outer_w=self.weight(f"{prefix}.outer_w", (width, width, 1, 1, 1)),
            outer_b=self.zeros(f"{prefix}.outer_b", (width,)),
        )


def _build(cfg: ModelConfig, rng: np.random.Generator | None):
    b = _Builder(cfg, rng)
    channels = list(cfg.channels)
    n = len(channels)

    enc_stages = []
    prev = cfg.in_channels
    for i, (c, k) in enumerate(zip(channels, cfg.kernels), start=1):
        prefix = f"encoder.stage{i}"
        embed = PatchEmbedParams(
            w=b.weight(f"{prefix}.embed.w", (c, prev, k, k, k)),
            b=b.zeros(f"{prefix}.embed.b", (c,)),
            gamma=b.ones(f"{prefix}.embed.gamma", (c,)),
            beta=b.zeros(f"{prefix}.embed.beta", (c,)),
        )
        blocks = [
            b.dual_block(f"{prefix}.block{j}", c)
            for j in range(1, cfg.blocks_per_stage + 1)
        ]
        enc_stages.append(
            EncoderStageParams(
                embed=embed,
                blocks=blocks,
                out_gamma=b.ones(f"{prefix}.out.gamma", (c,)),
                out_beta=b.zeros(f"{prefix}.out.beta", (c,)),
            )
        )
        prev = c

    dec_stages = []
    dae_seen = lka_seen = 0
    for i in range(cfg.dae_blocks + cfg.lka_blocks):
        stage_idx = n - 1 - i           # encoder stage the block runs on
        width = channels[stage_idx]
        if i < cfg.dae_blocks:
            dae_seen += 1
            prefix = f"decoder.dae{dae_seen}"
            block = b.dual_block(prefix, width)
        else:
            lka_seen += 1
            prefix = f"decoder.lka{lka_seen}"
            block = b.lka(prefix, width)
        sp = DecoderStageParams(block=block)
        if stage_idx > 0:
            target = channels[stage_idx - 1]
            sp.proj_w = b.weight(f"decoder.proj{i + 1}.w", (target, width, 1, 1, 1))
            sp.proj_b = b.zeros(f"decoder.proj{i + 1}.b", (target,))
            sp.fusion = b.fusion(f"decoder.fuse{i + 1}", target)
        dec_stages.append(sp)

    head = DecoderHeadParams(
        w=b.zeros("head.w", (3, channels[0], 1, 1, 1)),
        b=b.zeros("head.b", (3,)),
    )
    return enc_stages, dec_stages, head, b.registry


class RegistrationModel:
    """Built parameters plus the forward pass moving x fixed -> field."""

    def __init__(self, config, enc_stages, dec_stages, head, registry):
        self.config = config
        self.enc_stages = enc_stages
        self.dec_stages = dec_stages
        self.head = head
        self.registry = registry

    @property
    def dtype(self):
        return DTYPES[self.config.precision]

    def parameters(self) -> dict[str, Tensor]:
        return self.registry

    @property
    def num_params(self) -> int:
        return sum(p.data.size for p in self.registry.values())

    def _volume_tensor(self, v, what: str) -> Tensor:
        t = v.values if isinstance(v, Volume) else v
        if not isinstance(t, Tensor):
            t = Tensor(t, dtype=self.dtype)
        if t.ndim == 3:
            t = Volume(values=t).values
        if t.ndim not in (4, 5) or t.shape[-4] != 1:
            raise ShapeError(f"{what} must be a [1,D,H,W] volume or a [B,1,D,H,W] batch, got {t.shape}")
        if t.dtype != self.dtype:
            raise ShapeError(
                f"{what} dtype {t.dtype.name} != model precision "
                f"{np.dtype(self.dtype).name}; cast explicitly"
            )
        return t

    def forward(self, moving, fixed) -> DeformationField:
        """The field [3, D, H, W] for one pair, or [B, 3, D, H, W] for a
        batch of B pairs stacked as [B, 1, D, H, W]."""
        m = self._volume_tensor(moving, "moving")
        f = self._volume_tensor(fixed, "fixed")
        if m.shape != f.shape:
            raise ShapeError(f"moving shape {m.shape} != fixed shape {f.shape}")
        x = concat([m, f], axis=-4)
        pyramid = encoder_forward(x, self.config, self.enc_stages)
        u = decoder_forward(pyramid, self.config, self.dec_stages, self.head)
        return DeformationField(u)

    # -- state ---------------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.registry.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self.registry) - set(state))
        extra = sorted(set(state) - set(self.registry))
        if missing or extra:
            raise ContractError(
                f"checkpoint/model parameter mismatch; missing={missing[:5]} extra={extra[:5]}"
            )
        for name, p in self.registry.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ContractError(
                    f"parameter {name}: checkpoint shape {arr.shape} != model {p.data.shape}"
                )
            p.data = np.array(arr, dtype=self.dtype, order="C")  # a copy: sgd_step updates in place


def build_model(cfg: ModelConfig, seed: int | None = None) -> RegistrationModel:
    """Deterministically initialize a model (truncated-normal weights, zero
    biases, zero deformation head, log-tau at log sqrt(d_head))."""
    cfg.validated()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed if seed is None else seed, 0]))
    return RegistrationModel(cfg, *_build(cfg, rng))


def register(model: RegistrationModel, moving: Volume, fixed: Volume):
    """Predict the field for one pair and evaluate it.

    Returns (field, warped, report); runs without a tape (no gradients).

    One worker thread scores the pair beside the main thread. While the
    network runs, it builds what depends on the fixed volume alone, once:
    NCC's window sums (``losses.ncc_fixed_sums``) and the metrics'
    ``FixedReference``; then ``metrics.score`` of the moving volume against
    the reference. SDlogJ runs while the main thread computes the loss. Each
    value is the one that a call after another on one thread gives, and
    errors surface in that order too (forward, loss, SDlogJ, reference, the
    moving volume's score, the warped volume's score). The worker is started
    and joined within the call, one thread start per call.
    """
    if not isinstance(moving, Volume):
        moving = Volume(values=moving)
    if not isinstance(fixed, Volume):
        fixed = Volume(values=fixed)
    moving = moving.astype(model.config.precision)
    fixed = fixed.astype(model.config.precision)
    with ThreadPoolExecutor(max_workers=1) as worker:
        # The worker's queue is in the order the main thread needs its results.
        # The scores are looked up in nestreg.metrics per call (perfbench
        # times their metrics there). All worker tasks but SDlogJ end inside
        # the forward. SDlogJ takes a little less time than the warp that
        # starts the loss, so it ends inside the warp's span (at 64^3, beside
        # each other, a median 14.6 ms against 15.3 ms, ending first in 13
        # of 15 calls). perfbench keeps one span stack for both threads: a
        # worker span that ended inside the warped score's HD95 would leave
        # that score's SSIM uncounted.
        pending_sums = worker.submit(ncc_fixed_sums, fixed, model.config.ncc_window)
        pending_ref = worker.submit(metrics.FixedReference, fixed)
        pending_initial = worker.submit(lambda: metrics.score(moving, pending_ref.result()))
        field = model.forward(moving, fixed)
        # Sums that failed go back to the fixed volume: the loss then meets
        # the error again in its own order (the warp's errors first).
        ncc_fixed = fixed if pending_sums.exception() else pending_sums.result()
        # The loss's warp refuses a non-finite field, so SDlogJ, which would
        # only warn about its arithmetic, skips one.
        pending_jac = worker.submit(
            lambda: metrics.sdlogj(field) if np.isfinite(field.u.data).all() else None)
        out = composite_loss(ncc_fixed, moving, field, model.config)
        warped = out.warped
        try:
            final = metrics.score(warped, pending_ref.result())
        finally:  # an earlier step's error wins over this one's
            jac, initial = pending_jac.result(), pending_initial.result()
    report = metrics.RegistrationReport(
        ssim_initial=initial["ssim"],
        ssim=final["ssim"],
        hd95_initial=initial["hd95"],
        hd95=final["hd95"],
        sdlogj=jac.sdlogj,
        folding_fraction=jac.folding_fraction,
        ncc=1.0 - out.similarity.item(),
        loss_total=out.total.item(),
        loss_similarity=out.similarity.item(),
        loss_smoothness=out.smoothness.item(),
    )
    report.validate()
    return field, warped, report


# ---------------------------------------------------------------------------
# Counting parameters
# ---------------------------------------------------------------------------


@dataclass
class ParamTable:
    rows: list = field(default_factory=list)  # (group, count)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.rows)

    def to_dict(self) -> dict:
        return {"rows": [[g, c] for g, c in self.rows], "total": self.total}

    def render(self) -> str:
        width = max(len(g) for g, _ in self.rows + [("Total", 0)])
        lines = [f"{g:<{width}}  {c:>12,}" for g, c in self.rows]
        lines.append("-" * (width + 14))
        lines.append(f"{'Total':<{width}}  {self.total:>12,}")
        return "\n".join(lines)


def _group_of(name: str) -> str:
    if name.startswith("encoder."):
        return "Encoder"
    if name.startswith("decoder.dae"):
        return "DAE-Former " + name.split(".")[1][3:]
    if name.startswith("decoder.lka"):
        return "LKA-Former " + name.split(".")[1][3:]
    return "Other"


def count_params(cfg: ModelConfig) -> ParamTable:
    """Per-group parameter counts (Encoder / DAE-Former i / LKA-Former i / Other)."""
    cfg.validated()
    _, _, _, registry = _build(cfg, rng=None)
    counts: dict[str, int] = {}
    for name, p in registry.items():
        g = _group_of(name)
        counts[g] = counts.get(g, 0) + p.size
    # The registry lists Encoder, DAE-Former i, LKA-Former i in build order,
    # with skip projections ("Other") between them; a stable sort puts Other last.
    return ParamTable(rows=sorted(counts.items(), key=lambda row: row[0] == "Other"))
