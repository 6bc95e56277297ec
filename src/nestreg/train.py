"""Training loop: seeded shuffling, minibatch gradient accumulation on one
tape, plain SGD with decoupled-style weight decay folded into the gradient
(p <- p - lr * (g + wd * p)), per-epoch train/val loss and SSIM, and
best/last checkpointing.

Everything is bit-deterministic given (seed, config, data); a checkpoint
carries the shuffling RNG state so a resumed run replays the exact epochs a
straight-through run would have produced.
"""

from __future__ import annotations

import copy
import io
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError
from .losses import composite_loss
from .metrics import ssim
from .model import ModelConfig, RegistrationModel, _build
from .model import build_model  # noqa: F401  (perfbench/spans.py times the builder through this name)
from .tensor import GradTape
from .volio import atomic_write_bytes

log = logging.getLogger(__name__)

CURVE_COLUMNS = ("epoch", "train_loss", "val_loss", "train_ssim", "val_ssim")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_ssim: float
    val_ssim: float


@dataclass
class TrainingCurve:
    rows: list = field(default_factory=list)

    def append(self, row: EpochStats) -> None:
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict
    epoch: int
    rng_state: dict


@dataclass
class TrainResult:
    curve: TrainingCurve
    best: Checkpoint
    last: Checkpoint


def split_pairs(pairs, val_fraction: float = 0.2):
    """Deterministic order-preserving train/val split (80/20 by default).

    A single-pair dataset is reused for validation rather than leaving one
    side empty.
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("split_pairs needs at least one pair")
    n_val = int(round(len(pairs) * val_fraction))
    n_train = len(pairs) - n_val
    if n_train == 0 or n_val == 0:
        return pairs, pairs
    return pairs[:n_train], pairs[n_train:]


def sgd_step(params: dict, lr: float, weight_decay: float) -> None:
    """p <- p - lr * (grad + weight_decay * p), in the parameter dtype."""
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"sgd_step: parameter {name!r} has no gradient")
        dt = p.data.dtype.type
        p.data -= dt(lr) * (p.grad + dt(weight_decay) * p.data)


def _cast_pairs(pairs, bits: int):
    out = []
    for mv, fx in pairs:
        out.append((mv.astype(bits), fx.astype(bits)))
    return out


def _snapshot(model: RegistrationModel, rng, epoch: int) -> Checkpoint:
    return Checkpoint(
        config=model.config,
        params=model.state(),
        epoch=epoch,
        rng_state=copy.deepcopy(rng.bit_generator.state),
    )


def train(
    model: RegistrationModel,
    train_pairs,
    val_pairs,
    out_dir=None,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Run model.config.epochs of SGD. Returns the curve plus best-val-SSIM
    and last checkpoints; with ``out_dir`` also writes checkpoint_best.npz,
    checkpoint_last.npz and curve.csv there."""
    cfg = model.config
    train_pairs = _cast_pairs(train_pairs, cfg.precision)
    val_pairs = _cast_pairs(val_pairs, cfg.precision)
    if not train_pairs or not val_pairs:
        raise ContractError("train needs non-empty train and val pair lists")
    loss_cfg = cfg.loss_config()

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    start_epoch = 0
    if resume is not None:
        model.load_state(resume.params)
        rng.bit_generator.state = copy.deepcopy(resume.rng_state)
        start_epoch = resume.epoch
        if start_epoch >= cfg.epochs:
            raise ContractError(
                f"resume epoch {start_epoch} >= configured epochs {cfg.epochs}"
            )

    curve = TrainingCurve()
    earlier, best = [], None
    if resume is not None and out_dir is not None:
        earlier, best = _earlier_run(out_dir, start_epoch)
    best_ssim = max((r.val_ssim for r in earlier), default=-np.inf)
    for epoch in range(start_epoch, cfg.epochs):
        order = rng.permutation(len(train_pairs))
        losses, ssims = [], []
        for lo in range(0, len(order), cfg.batch_size):
            chunk = order[lo:lo + cfg.batch_size]
            with GradTape() as tape:
                outs = []
                for idx in chunk:
                    mv, fx = train_pairs[idx]
                    fld = model.forward(mv, fx)
                    outs.append(composite_loss(fx, mv, fld, loss_cfg))
                acc = outs[0].total
                for o in outs[1:]:
                    acc = acc + o.total
                batch_loss = acc * (1.0 / len(chunk))
                tape.backward(batch_loss)
            value = batch_loss.item()
            if not np.isfinite(value):
                detail = ", ".join(
                    f"pair {int(i)}: sim={o.similarity.item():.6g} smooth={o.smoothness.item():.6g}"
                    for i, o in zip(chunk, outs)
                )
                raise NumericError(
                    f"non-finite loss {value!r} at epoch {epoch + 1}, "
                    f"batch pairs {list(map(int, chunk))} ({detail})"
                )
            sgd_step(model.parameters(), cfg.lr, cfg.weight_decay)
            for i, o in zip(chunk, outs):
                losses.append(o.total.item())
                ssims.append(ssim(o.warped, train_pairs[int(i)][1]))
        val_losses, val_ssims = [], []
        for mv, fx in val_pairs:
            out = composite_loss(fx, mv, model.forward(mv, fx), loss_cfg)
            val_losses.append(out.total.item())
            val_ssims.append(ssim(out.warped, fx))
        row = EpochStats(
            epoch=epoch + 1,
            train_loss=float(np.mean(losses)),
            val_loss=float(np.mean(val_losses)),
            train_ssim=float(np.mean(ssims)),
            val_ssim=float(np.mean(val_ssims)),
        )
        if not all(map(np.isfinite, (row.train_loss, row.val_loss, row.train_ssim, row.val_ssim))):
            raise NumericError(f"non-finite training statistics at epoch {epoch + 1}: {row}")
        curve.append(row)
        log.info(
            "epoch %d: train_loss=%.6f val_loss=%.6f train_ssim=%.4f val_ssim=%.4f",
            row.epoch, row.train_loss, row.val_loss, row.train_ssim, row.val_ssim,
        )
        if row.val_ssim > best_ssim:
            best_ssim = row.val_ssim
            best = _snapshot(model, rng, epoch + 1)
    last = _snapshot(model, rng, cfg.epochs)
    if best is None:
        best = last
    result = TrainResult(curve=curve, best=best, last=last)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "checkpoint_best.npz"), result.best)
        save_checkpoint(os.path.join(out_dir, "checkpoint_last.npz"), result.last)
        write_curve_csv(os.path.join(out_dir, "curve.csv"), TrainingCurve(earlier + curve.rows))
    return result


def _earlier_run(out_dir, epoch: int):
    """Curve rows up to ``epoch`` and the best checkpoint of the run that
    ``out_dir`` already holds, so a resumed run continues its curve and its
    best; ``([], None)`` when the directory holds no curve."""
    curve_path = os.path.join(out_dir, "curve.csv")
    if not os.path.exists(curve_path):
        return [], None
    rows = [r for r in read_curve_csv(curve_path).rows if r.epoch <= epoch]
    if not rows:
        return [], None
    want = max(rows, key=lambda r: r.val_ssim).epoch  # first maximum, as train's strict >
    best = load_checkpoint(os.path.join(out_dir, "checkpoint_best.npz"))
    if best.epoch != want:
        raise ContractError(
            f"{out_dir}: checkpoint_best.npz is from epoch {best.epoch}, but curve.csv "
            f"up to the resumed epoch {epoch} has its best val_ssim at epoch {want}"
        )
    return rows, best


# ---------------------------------------------------------------------------
# Curve CSV and checkpoint files
# ---------------------------------------------------------------------------


def write_curve_csv(path, curve: TrainingCurve) -> None:
    lines = [",".join(CURVE_COLUMNS)]
    for r in curve.rows:
        lines.append(
            f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.train_ssim!r},{r.val_ssim!r}"
        )
    payload = ("\n".join(lines) + "\n").encode()
    atomic_write_bytes(path, payload)


def read_curve_csv(path) -> TrainingCurve:
    with open(path, "rb") as fh:
        text = fh.read().decode()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(CURVE_COLUMNS):
        raise ContractError(f"curve file {path} has unexpected header")
    curve = TrainingCurve()
    for ln in lines[1:]:
        cells = ln.split(",")
        curve.append(
            EpochStats(
                epoch=int(cells[0]),
                train_loss=float(cells[1]),
                val_loss=float(cells[2]),
                train_ssim=float(cells[3]),
                val_ssim=float(cells[4]),
            )
        )
    return curve


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Parameters verbatim (bit-exact) in an npz plus a JSON metadata entry."""
    meta = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": _jsonable(ckpt.rng_state),
    }

    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **ckpt.params)
    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    with np.load(path) as data:
        if "__meta__" not in data:
            raise ContractError(f"{path} is not a checkpoint (missing metadata)")
        meta = json.loads(bytes(data["__meta__"]).decode())
        params = {k: data[k] for k in data.files if k != "__meta__"}
    return Checkpoint(
        config=ModelConfig.from_dict(meta["config"]),
        params=params,
        epoch=int(meta["epoch"]),
        rng_state=_unjsonable(meta["rng_state"]),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> RegistrationModel:
    # Zero-filled parameters: load_state overwrites every value, so a random
    # init would be discarded work.
    cfg = ckpt.config.validated()
    model = RegistrationModel(cfg, *_build(cfg, rng=None))
    model.load_state(ckpt.params)
    return model


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.dtype.str, "values": obj.tolist()}
    return obj


def _unjsonable(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["values"], dtype=np.dtype(obj["__ndarray__"]))
        return {k: _unjsonable(v) for k, v in obj.items()}
    return obj
