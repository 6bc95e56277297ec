"""Per-layer spans recorded from outside the engine.

``Tracer.install`` swaps the module attributes through which nestreg's layers
call each other (``nestreg.model.encoder_forward``, ``nestreg.losses.ncc_loss``,
...) for timing wrappers, and ``Tracer.remove`` puts the originals back.
Nothing under ``src/`` is edited: an untraced call runs the original code.

Forward time of a layer is the wall time of its function call. Backward time
comes from the tape itself: every record made while a layer's span is open
gets its vjp wrapped, so ``GradTape.backward`` splits exactly into the layers
that recorded the ops. Spans nest (a dual-attention block inside the
encoder); a vjp is charged to every layer that was open when it was recorded.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, forward key, backward key). The attribute is the name the
# *caller* looks up, so one function can need several entries (ssim is reached
# through nestreg.train and nestreg.metrics). Keys are per-layer metric names
# without the "_ms" suffix.
SPANS = (
    ("nestreg.cli", "volume_from_file", "volio.load", None),
    ("nestreg.cli", "save_volume", "volio.save", None),
    ("nestreg.cli", "write_report", "volio.save", None),
    ("nestreg.cli", "load_checkpoint", "train.checkpoint_load", None),
    ("nestreg.cli", "build_model", "model.build", None),
    ("nestreg.train", "build_model", "model.build", None),
    ("nestreg.train", "save_checkpoint", "train.checkpoint_save", None),
    ("nestreg.train", "sgd_step", "train.sgd", None),
    ("nestreg.train", "ssim", "metrics.ssim", None),
    ("nestreg.metrics", "ssim", "metrics.ssim", None),
    ("nestreg.metrics", "hd95", "metrics.hd95", None),
    ("nestreg.metrics", "sdlogj", "metrics.sdlogj", None),
    ("nestreg.model", "encoder_forward", "encoder.fwd", "encoder.bwd"),
    ("nestreg.model", "decoder_forward", "decoder.fwd", "decoder.bwd"),
    ("nestreg.encoder", "dual_attention_block", "attention.dual_block.fwd", "attention.dual_block.bwd"),
    ("nestreg.decoder", "dual_attention_block", "attention.dual_block.fwd", "attention.dual_block.bwd"),
    ("nestreg.losses", "warp_trilinear", "warp.fwd", "warp.bwd"),
    ("nestreg.losses", "ncc_loss", "losses.ncc.fwd", "losses.ncc.bwd"),
    ("nestreg.losses", "smoothness_loss", "losses.smooth.fwd", "losses.smooth.bwd"),
)

# model.forward is reported for tape-free calls only (validation, register);
# a taped forward is still a named span for coverage, under this key.
_TAPED_FORWARD = "model.forward_taped"


class Tracer:
    """Span totals for one operation at a time (see ``start``/``finish``)."""

    def __init__(self):
        self._saved = []
        self._stack = []          # open spans: (fwd key, bwd key)
        self.totals = defaultdict(float)
        self.named_s = 0.0        # time inside outermost spans
        self.tape_records = []    # len(tape) at each backward

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from nestreg.model import RegistrationModel
        from nestreg.tensor import GradTape, _active_tape

        for mod_name, attr, fwd, bwd in SPANS:
            self._swap(importlib.import_module(mod_name), attr, lambda fn, f=fwd, b=bwd: self._wrap(fn, f, b))
        self._swap(
            RegistrationModel, "forward",
            lambda fn: self._wrap(
                fn, lambda: "model.forward" if _active_tape() is None else _TAPED_FORWARD, None
            ),
        )
        self._swap(GradTape, "backward", self._wrap_backward)
        self._swap(GradTape, "record", self._wrap_record)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, fwd, bwd):
        def traced(*args, **kwargs):
            key = fwd() if callable(fwd) else fwd
            self._stack.append((key, bwd))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key, perf_counter() - t0)

        return traced

    def _close(self, key, seconds) -> None:
        self._stack.pop()
        self.totals[key] += seconds
        if not self._stack:
            self.named_s += seconds

    def _wrap_backward(self, fn):
        traced = self._wrap(fn, "tensor.backward", None)

        def backward(tape, loss):
            self.tape_records.append(len(tape))
            return traced(tape, loss)

        return backward

    def _wrap_record(self, fn):
        totals = self.totals

        def record(tape, output, inputs, vjp):
            keys = tuple(dict.fromkeys(b for _, b in self._stack if b))
            if keys:
                inner = vjp

                def vjp(g):
                    t0 = perf_counter()
                    parts = inner(g)
                    dt = perf_counter() - t0
                    for k in keys:
                        totals[k] += dt
                    return parts

            return fn(tape, output, inputs, vjp)

        return record

    # -- per-operation bookkeeping -----------------------------------------

    def start(self) -> None:
        self.totals.clear()
        self.named_s = 0.0
        self.tape_records = []

    def finish(self, wall_s: float) -> dict:
        """Snapshot of the operation just traced: span totals in ms, plus its
        wall time and the part of it spent inside outermost spans."""
        snap = {k: v * 1e3 for k, v in self.totals.items()}
        snap["_wall_ms"] = wall_s * 1e3
        snap["_named_ms"] = self.named_s * 1e3
        snap["_tape_records"] = list(self.tape_records)
        return snap

    def timed(self, fwd, bwd, fn):
        """Run ``fn`` inside one span (used for fixed-shape micro-benchmarks)."""
        return self._wrap(fn, fwd, bwd)()


def micro_benchmarks(tracer: Tracer, extent: int, ncc_window: int, repeats: int, seed: int) -> dict:
    """Forward/backward ms of single primitive calls at fixed shapes of the
    default model at ``extent``: one metric pair per conv3d kind, plus the
    decoder's last (largest) trilinear upsample.

    Each call gets its own GradTape; the backward time is the vjp time of
    the primitive's own record, measured by the tracer.
    """
    from nestreg.model import ModelConfig
    from nestreg.tensor import GradTape, Tensor, conv3d, same_padding, tsum, upsample_trilinear

    cfg = ModelConfig()
    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    c0, k0, s0 = cfg.channels[0], cfg.kernels[0], cfg.strides[0]
    hidden = 4 * c0                   # Mix-FFN hidden width of stage 1
    e1 = extent // s0                 # stage-1 extent
    pk = cfg.patch_kernel
    box = Tensor(np.ones((1, 1, ncc_window, ncc_window, ncc_window), np.float32))

    # Each case builds its inputs and returns the call to time.
    def dense():  # stage-1 overlapping patch embed
        x, w, b = t(cfg.in_channels, extent, extent, extent), t(c0, cfg.in_channels, k0, k0, k0), t(c0)
        return lambda: conv3d(x, w, b, stride=s0, padding=k0 // 2)

    def depthwise():  # stage-1 Mix-FFN depthwise
        x, w, b = t(hidden, e1, e1, e1), t(hidden, 1, pk, pk, pk), t(hidden)
        return lambda: conv3d(x, w, b, padding=(same_padding(pk),) * 3, groups=hidden)

    def pointwise():  # stage-1 fusion 1x1x1 projection
        x, w, b = t(c0, e1, e1, e1), t(c0, c0, 1, 1, 1), t(c0)
        return lambda: conv3d(x, w, b)

    def box_sum():  # one of the NCC loss's five ones-kernel window sums
        x = t(1, extent, extent, extent)
        return lambda: conv3d(x, box)

    def upsample():  # the decoder's last upsample, stage-1 extent to full extent
        x = t(c0, e1, e1, e1)
        return lambda: upsample_trilinear(x, s0)

    cases = {
        "tensor.conv3d.dense": dense,
        "tensor.conv3d.depthwise": depthwise,
        "tensor.conv3d.pointwise": pointwise,
        "tensor.conv3d.box": box_sum,
        "tensor.upsample": upsample,
    }
    out = {}
    for name, make in cases.items():
        fwd_key, bwd_key = name + ".fwd", name + ".bwd"
        fwd, bwd = [], []
        for _ in range(repeats):
            call = make()
            tracer.start()
            with GradTape() as tape:
                loss = tsum(tracer.timed(fwd_key, bwd_key, call))
            tape.backward(loss)
            fwd.append(tracer.totals[fwd_key])
            bwd.append(tracer.totals[bwd_key])
        out[fwd_key + "_ms"] = statistics.median(fwd) * 1e3
        out[bwd_key + "_ms"] = statistics.median(bwd) * 1e3
    return out
