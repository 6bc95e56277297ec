"""The benchmark's two workloads: set-up, one operation, and its checks.

Both drive the real entry point in-process, ``nestreg.cli.main([...])``, on
pairs that ``synth_pair`` makes from fixed seeds and that the benchmark's
seed then turns into one of the cube's 48 orientations. An operation is one
CLI call; it fails when it exits nonzero, raises, or fails a check.

train-32     ``nestreg train`` on five 32^3 float32 pairs (split 4 train /
             1 validation by the engine's 80/20 rule) with the default
             ModelConfig (NCC window 5, batch 2) for two epochs: two
             batch-2 steps per epoch, validation, checkpoints and curve.csv.
register-64  ``nestreg register`` on two 64^3 float32 pairs, alternating,
             with a checkpoint at the paper's NCC window of 9. Set-up makes
             the checkpoint with a short 32^3 ``nestreg train`` (the model
             does not depend on the volume extent).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from nestreg import cli
from nestreg.errors import EngineError
from nestreg.metrics import ssim
from nestreg.model import ModelConfig
from nestreg.synth import synth_pair
from nestreg.tensor import Tensor
from nestreg.train import load_checkpoint, read_curve_csv, split_pairs
from nestreg.volio import config_hash, field_from_file, save_volume, volume_from_file
from nestreg.warp import Volume, warp_trilinear


def run_cli(argv: list[str]):
    """One in-process CLI call: (wall seconds, exit code, stdout, error).

    A call that raises is reported with exit code None and its traceback.
    """
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        err = None
    except Exception:  # the benchmark counts a raising call as failed and goes on
        rc, err = None, traceback.format_exc(limit=4)
    return perf_counter() - t0, rc, out.getvalue(), err


def pair_seed(tag: int, i: int) -> int:
    """Seed of the i-th synthetic pair of a workload; the same for every run.

    ``synth_pair``'s cost depends on its seed (the phantom's ellipsoid count,
    the fold-halving loop), so fixed pair seeds keep set-up the same work on
    every run, and ``setup_s`` varies only with the host.
    """
    return int(np.random.SeedSequence([tag, i]).generate_state(1)[0])


def orientation(seed: int, tag: int):
    """The benchmark seed's choice of one of the 48 rotations and reflections
    of the cube for a workload's pairs: (axis order, axes to flip)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    return tuple(int(a) for a in rng.permutation(3)), tuple(int(a) for a in np.flatnonzero(rng.integers(0, 2, 3)))


def orient(vol: Volume, perm, flips) -> Volume:
    """``vol`` with its spatial axes permuted by ``perm``, then flipped along ``flips``."""
    a = np.flip(vol.values.data[0].transpose(perm), axis=flips)
    return Volume(values=Tensor(np.ascontiguousarray(a)[None]), spacing=vol.spacing)


def write_pairs(directory: Path, extent: int, seed: int, tag: int, count: int, synth_ms: list) -> list:
    """Synthesize ``count`` pairs as pair<i>_{moving,fixed}.nmv; returns
    [(moving path, fixed path)] and appends each synth_pair time to ``synth_ms``.

    All pairs are turned by the one orientation ``seed`` picks, so every
    seed gives other inputs at the same synthesis cost.
    """
    directory.mkdir(parents=True, exist_ok=True)
    turn = orientation(seed, tag)
    paths = []
    for i in range(count):
        t0 = perf_counter()
        moving, fixed, _ = synth_pair(extent, seed=pair_seed(tag, i))
        synth_ms.append((perf_counter() - t0) * 1e3)
        m, f = directory / f"pair{i}_moving.nmv", directory / f"pair{i}_fixed.nmv"
        save_volume(m, orient(moving, *turn))
        save_volume(f, orient(fixed, *turn))
        paths.append((m, f))
    return paths


def _size(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class TrainWorkload:
    name = "train-32"
    extent = 32
    ncc_window = ModelConfig().ncc_window
    setup_repeats = 11

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.pairs = 2 if smoke else 5
        self.epochs = 2          # the fewest that can show the loss falling
        self.synth_ms = []

    def setup(self, directory: Path) -> None:
        self.dir = directory
        self.data = directory / "data"
        self.out = directory / "out"
        self.files = write_pairs(self.data, self.extent, self.seed, 32, self.pairs, self.synth_ms)
        train_idx, val_idx = split_pairs(list(range(self.pairs)))
        self.n_train = len(train_idx)
        self.val = [self.files[i] for i in val_idx]
        self.val_ssim_initial = statistics.fmean(
            ssim(volume_from_file(m), volume_from_file(f)) for m, f in self.val
        )
        self.first = None

    def argv(self, i: int) -> list[str]:
        return ["train", "--data", str(self.data), "--out", str(self.out),
                "--epochs", str(self.epochs), "--json"]

    def check(self, i: int, payload: dict) -> list[str]:
        problems = []
        rows = payload["epochs"]
        if [r["epoch"] for r in rows] != list(range(1, self.epochs + 1)):
            problems.append(f"curve has epochs {[r['epoch'] for r in rows]}, want 1..{self.epochs}")
        if not all(_finite(r.values()) for r in rows):
            problems.append("curve has a non-finite value")
        if [asdict(r) for r in read_curve_csv(self.out / "curve.csv").rows] != rows:
            problems.append("curve.csv differs from the JSON curve")
        last = load_checkpoint(self.out / "checkpoint_last.npz")
        best = load_checkpoint(self.out / "checkpoint_best.npz")
        if last.epoch != self.epochs or config_hash(last.config) != payload["config_hash"]:
            problems.append("checkpoint_last.npz does not match the run")
        if best.epoch != payload["best_epoch"]:
            problems.append(f"checkpoint_best.npz is epoch {best.epoch}, JSON says {payload['best_epoch']}")
        if rows and not rows[-1]["train_loss"] < rows[0]["train_loss"]:
            problems.append(f"train loss did not fall: {rows[0]['train_loss']} -> {rows[-1]['train_loss']}")
        if self.first is None:
            self.first = payload
        elif payload != self.first:
            problems.append("result differs from the first call on the same data (not deterministic)")
        return problems

    def quality(self) -> dict:
        val_ssim = self.first["epochs"][-1]["val_ssim"]
        return {"val_ssim": val_ssim, "ssim_ratio": val_ssim / self.val_ssim_initial}

    def throughput(self, call_s: float) -> dict:
        return {"train_pairs_per_s": self.n_train * self.epochs / call_s}

    def bytes_read(self) -> int:
        return _size(*(p for pair in self.files for p in pair))

    def bytes_written(self) -> int:
        return _size(*(self.out / n for n in ("checkpoint_best.npz", "checkpoint_last.npz", "curve.csv")))

    def complement_argv(self) -> list[str]:
        """A 32^3 register call with the trained checkpoint: reaches the layers
        a train call does not (checkpoint load, HD95, SDlogJ, volume save)."""
        m, f = self.val[0]
        d = self.dir / "complement"
        d.mkdir(exist_ok=True)
        return ["register", "--checkpoint", str(self.out / "checkpoint_best.npz"),
                "--moving", str(m), "--fixed", str(f), "--out-field", str(d / "field.nmv"),
                "--out-warped", str(d / "warped.nmv"), "--report", str(d / "report.json"), "--json"]


class RegisterWorkload:
    name = "register-64"
    ncc_window = 9                # the paper's full-scale window
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.extent = 32 if smoke else 64
        self.pairs = 2
        self.ckpt_pairs = 2
        self.ckpt_epochs = 2
        self.synth_ms = []

    def setup(self, directory: Path) -> None:
        self.dir = directory
        self.files = write_pairs(directory / "pairs", self.extent, self.seed, 64, self.pairs, self.synth_ms)
        write_pairs(directory / "ckpt_data", 32, self.seed, 65, self.ckpt_pairs, synth_ms=[])
        (directory / "config.json").write_text(json.dumps({"ncc_window": self.ncc_window}))
        _, rc, _, err = run_cli(self._train_argv("ckpt"))
        if rc != 0:
            raise RuntimeError(f"set-up train exited {rc}: {err or 'see stderr'}")
        self.checkpoint = directory / "ckpt" / "checkpoint_best.npz"
        self.outputs = [directory / n for n in ("field.nmv", "warped.nmv", "report.json")]
        self.first = {}

    def _train_argv(self, out: str) -> list[str]:
        d = self.dir
        return ["train", "--data", str(d / "ckpt_data"), "--out", str(d / out),
                "--config", str(d / "config.json"), "--epochs", str(self.ckpt_epochs), "--json"]

    def argv(self, i: int) -> list[str]:
        m, f = self.files[i % self.pairs]
        field, warped, report = self.outputs
        return ["register", "--checkpoint", str(self.checkpoint), "--moving", str(m), "--fixed", str(f),
                "--out-field", str(field), "--out-warped", str(warped), "--report", str(report), "--json"]

    def check(self, i: int, payload: dict) -> list[str]:
        problems = []
        if not _finite(payload.values()):
            problems.append(f"report has a non-finite field: {payload}")
        field_path, warped_path, report_path = self.outputs
        try:
            field = field_from_file(field_path)
        except EngineError as e:
            return problems + [f"saved field does not load: {e}"]
        want = (3,) + (self.extent,) * 3
        if field.u.shape != want:
            problems.append(f"saved field has shape {field.u.shape}, want {want}")
        moving = volume_from_file(self.files[i % self.pairs][0])
        warped = warp_trilinear(moving, field).values.data
        if not np.array_equal(warped, volume_from_file(warped_path).values.data):
            problems.append("saved warped volume != warp_trilinear(moving, saved field)")
        if json.loads(report_path.read_text())["metrics"] != payload:
            problems.append("report file differs from the JSON report")
        first = self.first.setdefault(i % self.pairs, payload)
        if payload != first:
            problems.append("report differs from the first call on the same pair (not deterministic)")
        return problems

    def quality(self) -> dict:
        reports = list(self.first.values())
        return {
            "warped_ssim": statistics.fmean(r["ssim"] for r in reports),
            "ssim_ratio": statistics.fmean(r["ssim"] / r["ssim_initial"] for r in reports),
        }

    def throughput(self, call_s: float) -> dict:
        return {"register_s": call_s}

    def bytes_read(self) -> int:
        return _size(self.checkpoint, *self.files[0])

    def bytes_written(self) -> int:
        return _size(*self.outputs)

    def complement_argv(self) -> list[str]:
        """The set-up train again (32^3, window 9): reaches the layers a
        register call does not (tape, backward, SGD, checkpoint save)."""
        return self._train_argv("ckpt_traced")


WORKLOADS = {w.name: w for w in (TrainWorkload, RegisterWorkload)}
