"""Training loop: seeded shuffling, one batched forward and backward per
minibatch (the chunk's pairs stacked on a leading batch axis), plain SGD with
decoupled-style weight decay folded into the gradient
(p <- p - lr * (g + wd * p)), per-epoch train/val loss and SSIM, and
best/last checkpointing.

Everything is bit-deterministic given (seed, config, data); a checkpoint
carries the shuffling RNG state so a resumed run replays the exact epochs a
straight-through run would have produced.
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import logging
import math
import os
import zipfile
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .config import ModelConfig
from .errors import ContractError, NumericError, ShapeError
from .losses import CompositeLoss, composite_loss
from .metrics import ssim  # _pair_ssims calls it by this name, which perfbench/spans.py times
from .model import RegistrationModel, _build
from .model import build_model  # noqa: F401  (perfbench/spans.py times the builder through this name)
from .tensor import GradTape, Tensor, tmean
from .volio import atomic_write_bytes
from .warp import Volume

log = logging.getLogger(__name__)


@dataclass
class EpochStats:
    """One row of the training curve: its fields, in order, are curve.csv's
    columns."""

    epoch: int
    train_loss: float
    val_loss: float
    train_ssim: float
    val_ssim: float

    def line(self) -> str:
        return (
            f"epoch {self.epoch}: train_loss={self.train_loss:.6f} val_loss={self.val_loss:.6f} "
            f"train_ssim={self.train_ssim:.4f} val_ssim={self.val_ssim:.4f}"
        )


CURVE_COLUMNS = tuple(f.name for f in fields(EpochStats))


@dataclass
class TrainingCurve:
    rows: list = field(default_factory=list)


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


def split_pairs(pairs):
    """Deterministic order-preserving train/val split: the last 20 % of the
    pairs, rounded, validate.

    One or two pairs round to no validation pair; they are all reused for
    validation rather than leaving one side empty.
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("split_pairs needs at least one pair")
    n_val = int(round(len(pairs) * 0.2))
    n_train = len(pairs) - n_val
    if n_train == 0 or n_val == 0:
        return pairs, pairs
    return pairs[:n_train], pairs[n_train:]


def sgd_step(params: dict, grads: dict, lr: float, weight_decay: float) -> None:
    """p <- p - lr * (grads[p] + weight_decay * p), in the parameter dtype;
    a parameter without a gradient in ``grads`` is an error, and none moves."""
    missing = [name for name, p in params.items() if p not in grads]
    if missing:
        raise ContractError(f"sgd_step: parameters without a gradient: {missing}")
    for p in params.values():
        dt = p.data.dtype.type
        p.data -= dt(lr) * (grads[p] + dt(weight_decay) * p.data)


def _cast_pairs(pairs, bits: int):
    out = []
    for mv, fx in pairs:
        out.append((mv.astype(bits), fx.astype(bits)))
    return out


def _check_one_shape(pairs, what: str) -> None:
    """Batches stack their pairs, so every volume of a set shares one shape."""
    first = pairs[0][0].values.shape
    for i, pair in enumerate(pairs):
        for vol in pair:
            if vol.values.shape != first:
                raise ShapeError(
                    f"{what} pairs must share one volume shape: pair 0 has {first}, "
                    f"pair {i} has {vol.values.shape}"
                )


def _chunk_loss(model: RegistrationModel, pairs, chunk) -> CompositeLoss:
    """One forward and composite loss for the pairs ``chunk`` indexes, stacked
    on a batch axis; every loss term has shape [len(chunk)]."""
    mv, fx = (
        Volume(values=Tensor(np.stack([pairs[int(i)][k].values.data for i in chunk])))
        for k in (0, 1)
    )
    return composite_loss(fx, mv, model.forward(mv, fx), model.config)


def _pair_ssims(out: CompositeLoss, pairs, chunk) -> list:
    return [ssim(out.warped.values.data[j], pairs[int(i)][1]) for j, i in enumerate(chunk)]


def _snapshot(model: RegistrationModel, rng, epoch: int) -> Checkpoint:
    return Checkpoint(
        config=model.config,
        params=model.state(),
        epoch=epoch,
        rng_state=copy.deepcopy(rng.bit_generator.state),
    )


def _check_resume_config(saved: ModelConfig, run: ModelConfig) -> None:
    """A resumed run continues the checkpoint's run, so only ``epochs`` may
    differ between the checkpoint's config and the run's."""
    theirs, ours = saved.to_dict(), run.to_dict()
    differ = [f"{k} {theirs[k]!r} in the checkpoint, {ours[k]!r} in the run"
              for k in ours if k != "epochs" and theirs[k] != ours[k]]
    if differ:
        raise ContractError("resume checkpoint's config differs from the run's: "
                            + "; ".join(differ))


def _generator_at(state: dict) -> np.random.Generator:
    """A generator in a checkpoint's ``rng_state``; a state that PCG64 does
    not take raises ``ContractError``."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = copy.deepcopy(state)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ContractError(f"resume checkpoint's rng_state is no PCG64 state: {e!r}") from e
    return rng


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
    _check_one_shape(train_pairs, "train")
    _check_one_shape(val_pairs, "validation")

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    start_epoch = 0
    if resume is not None:
        _check_resume_config(resume.config, cfg)
        model.load_state(resume.params)
        rng = _generator_at(resume.rng_state)
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
                out = _chunk_loss(model, train_pairs, chunk)
                batch_loss = tmean(out.total)
                grads = tape.backward(batch_loss)
            value = batch_loss.item()
            if not np.isfinite(value):
                detail = ", ".join(
                    f"pair {int(i)}: sim={float(sim):.6g} smooth={float(smooth):.6g}"
                    for i, sim, smooth in zip(chunk, out.similarity.data, out.smoothness.data)
                )
                raise NumericError(
                    f"non-finite loss {value!r} at epoch {epoch + 1}, "
                    f"batch pairs {list(map(int, chunk))} ({detail})"
                )
            sgd_step(model.parameters(), grads, cfg.lr, cfg.weight_decay)
            del grads  # not held alive through the next step's backward
            losses.extend(map(float, out.total.data))
            ssims.extend(_pair_ssims(out, train_pairs, chunk))
        val_losses, val_ssims = [], []
        for lo in range(0, len(val_pairs), cfg.batch_size):
            chunk = range(lo, min(lo + cfg.batch_size, len(val_pairs)))
            out = _chunk_loss(model, val_pairs, chunk)
            val_losses.extend(map(float, out.total.data))
            val_ssims.extend(_pair_ssims(out, val_pairs, chunk))
        row = EpochStats(
            epoch=epoch + 1,
            train_loss=float(np.mean(losses)),
            val_loss=float(np.mean(val_losses)),
            train_ssim=float(np.mean(ssims)),
            val_ssim=float(np.mean(val_ssims)),
        )
        if not all(map(np.isfinite, astuple(row))):
            raise NumericError(f"non-finite training statistics at epoch {epoch + 1}: {row}")
        curve.rows.append(row)
        log.info("%s", row.line())
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
    lines = [",".join(CURVE_COLUMNS)] + [",".join(map(repr, astuple(r))) for r in curve.rows]
    payload = ("\n".join(lines) + "\n").encode()
    atomic_write_bytes(path, payload)


def read_curve_csv(path) -> TrainingCurve:
    """The rows of a ``write_curve_csv`` file. A wrong header, or a row that is
    not an int epoch >= 1 above the row before it and four finite floats,
    raises ``ContractError`` naming the file (and the row). ``train`` writes
    no other: a run resumed into a directory keeps the rows up to its
    checkpoint's epoch and adds the epochs after it, so a curve may start
    past epoch 1 or skip epochs, but never repeats one. Bytes that are not
    UTF-8 decode to U+FFFD, which neither passes."""
    with open(path, "rb") as fh:
        text = fh.read().decode(errors="replace")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(CURVE_COLUMNS):
        raise ContractError(f"curve file {path} has unexpected header")
    curve = TrainingCurve()
    for row, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        try:
            if len(cells) != len(CURVE_COLUMNS):
                raise ValueError(f"{len(cells)} fields, expected {len(CURVE_COLUMNS)}")
            stats = EpochStats(int(cells[0]), *map(float, cells[1:]))
            after = curve.rows[-1].epoch if curve.rows else 0
            if stats.epoch <= after:
                raise ValueError(f"epoch {stats.epoch} is not above epoch {after}")
            if not all(map(math.isfinite, astuple(stats))):
                raise ValueError("a value is not finite")
            curve.rows.append(stats)
        except ValueError as e:
            raise ContractError(f"curve file {path}: row {row} ({ln!r}) is malformed: {e}") from e
    return curve


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """The parameters, verbatim (bit-exact), as one flat buffer ``__params__``
    of their shared dtype; the JSON ``__meta__`` lists each name and shape in
    order. A config that fails ``validate()`` raises ``ConfigError`` naming
    every problem, and nothing is written."""
    ckpt.config.validated()
    dtypes = {str(p.dtype) for p in ckpt.params.values()}
    if len(dtypes) > 1:
        raise ContractError(f"save_checkpoint: parameters mix dtypes {sorted(dtypes)}")
    meta = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "params": [[name, list(p.shape)] for name, p in ckpt.params.items()],
    }
    flat = np.concatenate([p.ravel() for p in ckpt.params.values()] or [np.empty(0)])
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             __params__=flat)
    atomic_write_bytes(path, buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    """The parameters come back as reshaped views of the file's one buffer
    ``__params__``. A file that is no readable npz archive or lacks
    ``__meta__`` or ``__params__``, or whose ``__meta__`` is not a JSON object
    with objects ``config`` and ``rng_state`` and an int ``epoch`` >= 0 (not a
    bool), raises ``ContractError``; so does a ``params`` index that is not a
    list of ``[name, list of ints >= 0]`` with unique names whose extents sum
    to the buffer."""
    try:
        with np.load(path) as data:  # a .npy array is no context manager: TypeError
            missing = [k for k in ("__meta__", "__params__") if k not in data]
            if missing:
                raise ContractError(f"{path} is not a checkpoint (missing {', '.join(missing)})")
            raw, flat = bytes(data["__meta__"]), data["__params__"]
    except (ValueError, EOFError, TypeError, zipfile.BadZipFile) as e:
        raise ContractError(f"{path} is not a readable checkpoint archive: {e}") from e
    try:
        meta = json.loads(raw.decode())
    except ValueError as e:
        raise ContractError(f"{path}: checkpoint metadata is not JSON: {e}") from e
    kinds = {"config": dict, "epoch": int, "rng_state": dict}
    bad = [k for k, kind in kinds.items()
           if not isinstance(meta, dict) or not isinstance(meta.get(k), kind)]
    if "epoch" not in bad and (type(meta["epoch"]) is bool or meta["epoch"] < 0):
        bad.append("epoch")
    if bad:
        raise ContractError(f"{path}: checkpoint metadata lacks a valid {', '.join(bad)}")
    index = meta.get("params")
    if not (isinstance(index, list) and all(map(_is_index_entry, index))):
        raise ContractError(f"{path}: checkpoint parameter index is not a list of "
                            f"[name, list of extents >= 0] pairs")
    ends = list(itertools.accumulate((math.prod(shape) for _, shape in index), initial=0))
    if ends[-1] != flat.size or len(dict(index)) != len(index):
        raise ContractError(f"{path}: index of {len(index)} parameters ({ends[-1]} values) "
                            f"does not match its {flat.size}-value buffer or repeats a name")
    return Checkpoint(
        config=ModelConfig.from_dict(meta["config"]),
        params={name: flat[lo:hi].reshape(shape)
                for (name, shape), lo, hi in zip(index, ends, ends[1:])},
        epoch=meta["epoch"],
        rng_state=meta["rng_state"],
    )


def _is_index_entry(entry) -> bool:
    """``[name, shape]`` with a str name and a list of ints >= 0 as its shape."""
    return (
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and all(type(n) is int and n >= 0 for n in entry[1])
    )


def model_from_checkpoint(ckpt: Checkpoint) -> RegistrationModel:
    # Zero-filled parameters: load_state overwrites every value, so a random
    # init would be discarded work.
    cfg = ckpt.config.validated()
    model = RegistrationModel(cfg, *_build(cfg, rng=None))
    model.load_state(ckpt.params)
    return model

