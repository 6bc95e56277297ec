"""Command-line interface.

Subcommands: synth, train, register, metrics, params, gradcheck.

Exit codes:
    0  success
    1  usage / configuration errors
    2  data errors (missing or malformed files, shape mismatches)
    3  numeric failures (non-finite values, failed gradient checks)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import (
    ConfigError,
    ContractError,
    NumericError,
    ShapeError,
    UndefinedMetricError,
    VolumeFormatError,
)
from .metrics import FixedReference, score
from .model import build_model, count_params, register
from .synth import synth_pair
from .train import load_checkpoint, model_from_checkpoint, split_pairs, train
from .volio import (
    config_hash,
    field_from_file,
    save_volume,
    volume_from_file,
    write_report,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="nestreg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    sp = sub.add_parser("synth", help="generate a synthetic pair")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--shape", type=int, nargs="+", default=[32], help="extent(s), 1 or 3 ints")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--amplitude", type=float, default=3.0, help="peak displacement, voxels")
    sp.add_argument("--sigma", type=float, default=4.0, help="field smoothness, voxels")
    sp.add_argument("--bits", type=int, choices=(32, 64), default=32)
    sp.add_argument("--json", action="store_true")

    tp = sub.add_parser("train", help="train on a directory of pairs")
    tp.add_argument("--data", required=True, help="dir of moving/fixed .nmv pairs")
    tp.add_argument("--out", required=True, help="output dir for checkpoints + curve.csv")
    tp.add_argument("--config", help="JSON file of config overrides")
    tp.add_argument("--epochs", type=int, help="override config epochs")
    tp.add_argument("--seed", type=int, help="override config seed")
    tp.add_argument("--resume", help="checkpoint to resume from")
    tp.add_argument("--json", action="store_true")

    rp = sub.add_parser("register", help="register one pair")
    rp.add_argument("--checkpoint", required=True)
    rp.add_argument("--moving", required=True)
    rp.add_argument("--fixed", required=True)
    rp.add_argument("--out-field", required=True)
    rp.add_argument("--out-warped")
    rp.add_argument("--report", help="write the JSON report here as well")
    rp.add_argument("--json", action="store_true")

    mp = sub.add_parser("metrics", help="compare two volumes")
    mp.add_argument("--a", required=True, help="reference volume (.nmv)")
    mp.add_argument("--b", required=True, help="test volume (.nmv)")
    mp.add_argument("--field", help="optional displacement field (.nmv) for Jacobian stats")
    mp.add_argument("--json", action="store_true")

    pp = sub.add_parser("params", help="parameter-count table")
    pp.add_argument("--config", help="JSON file of config overrides")
    pp.add_argument("--json", action="store_true")

    gp = sub.add_parser("gradcheck", help="finite-difference suite")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--tol", type=float, default=1e-4)
    gp.add_argument("--json", action="store_true")

    return p


def _load_config(path: str | None, epochs=None, seed=None) -> ModelConfig:
    data = {}
    if path is not None:
        fp = Path(path)
        if not fp.exists():
            raise VolumeFormatError(f"config file not found: {fp}")
        try:
            data = json.loads(fp.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError([f"config file {fp} is not valid JSON: {e}"]) from e
        if not isinstance(data, dict):
            raise ConfigError([f"config file {fp} must hold a JSON object"])
    merged = ModelConfig().to_dict()
    merged.update(data)
    if epochs is not None:
        merged["epochs"] = epochs
    if seed is not None:
        merged["seed"] = seed
    return ModelConfig.from_dict(merged).validated()


def _discover_pairs(data_dir: str) -> list[tuple[Path, Path]]:
    d = Path(data_dir)
    if not d.is_dir():
        raise VolumeFormatError(f"data directory not found: {d}")
    pairs = []
    for moving in sorted(d.glob("*_moving.nmv")):
        fixed = moving.with_name(moving.name[: -len("_moving.nmv")] + "_fixed.nmv")
        if not fixed.exists():
            raise VolumeFormatError(f"no fixed volume for {moving.name} (expected {fixed.name})")
        pairs.append((moving, fixed))
    if not pairs and (d / "moving.nmv").exists() and (d / "fixed.nmv").exists():
        pairs.append((d / "moving.nmv", d / "fixed.nmv"))
    if not pairs:
        raise VolumeFormatError(
            f"no pairs in {d}: expected moving.nmv/fixed.nmv or *_moving.nmv/*_fixed.nmv"
        )
    return pairs


def _print(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_synth(args) -> int:
    if len(args.shape) == 1:
        shape = (args.shape[0],) * 3
    elif len(args.shape) == 3:
        shape = tuple(args.shape)
    else:
        raise _UsageError("--shape takes 1 or 3 integers")
    moving, fixed, truth = synth_pair(
        shape, seed=args.seed, amplitude=args.amplitude, field_sigma=args.sigma, bits=args.bits
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "moving": out / "moving.nmv",
        "fixed": out / "fixed.nmv",
        "truth_field": out / "truth_field.nmv",
    }
    save_volume(files["moving"], moving)
    save_volume(files["fixed"], fixed)
    save_volume(files["truth_field"], truth)
    payload = {
        "shape": list(shape),
        "seed": args.seed,
        "amplitude": args.amplitude,
        "files": {k: str(v) for k, v in files.items()},
    }
    _print(payload, args.json, [f"wrote {v}" for v in files.values()])
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config, epochs=args.epochs, seed=args.seed)
    pairs = [
        (volume_from_file(m), volume_from_file(f)) for m, f in _discover_pairs(args.data)
    ]
    train_pairs, val_pairs = split_pairs(pairs)
    resume = load_checkpoint(args.resume) if args.resume else None
    model = build_model(cfg)
    result = train(model, train_pairs, val_pairs, out_dir=Path(args.out), resume=resume)
    payload = {
        "config_hash": config_hash(cfg),
        "epochs": [asdict(e) for e in result.curve.rows],
        "best_epoch": result.best.epoch,
        "out": str(Path(args.out)),
    }
    lines = [e.line() for e in result.curve.rows]
    lines.append(f"best epoch {result.best.epoch}; wrote {args.out}/checkpoint_best.npz")
    _print(payload, args.json, lines)
    return 0


def _cmd_register(args) -> int:
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    moving = volume_from_file(args.moving)
    fixed = volume_from_file(args.fixed)
    field, warped, report = register(model, moving, fixed)
    save_volume(args.out_field, field)
    if args.out_warped:
        save_volume(args.out_warped, warped)
    payload = report.to_dict()
    if args.report:
        write_report(Path(args.report), report, model.config)
    lines = [f"{k}: {v:.12g}" for k, v in payload.items()]
    lines.append(f"wrote field to {args.out_field}")
    _print(payload, args.json, lines)
    return 0


def _finite(path, data):
    """``data``, or a data error naming ``path`` when it holds NaN or Inf."""
    bad = data.size - np.count_nonzero(np.isfinite(data))
    if bad:
        raise UndefinedMetricError(f"{path}: {bad} non-finite values; the metrics are undefined")
    return data


def _cmd_metrics(args) -> int:
    a = _finite(args.a, volume_from_file(args.a).values.data)
    b = _finite(args.b, volume_from_file(args.b).values.data)
    u = _finite(args.field, field_from_file(args.field).u.data) if args.field else None
    payload = score(b, FixedReference(a), u)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_params(args) -> int:
    cfg = _load_config(args.config)
    table = count_params(cfg)
    if args.json:
        print(json.dumps(table.to_dict(), indent=2))
    else:
        print(table.render())
    return 0


def _cmd_gradcheck(args) -> int:
    from .diagnostics import run_gradcheck_suite

    results = run_gradcheck_suite(seed=args.seed, tol=args.tol)
    if args.json:
        rows = [{k: v for k, v in asdict(r).items() if k != "seconds"} for r in results]
        print(json.dumps(rows, indent=2))
    else:
        for r in results:
            print(r.line())
    if all(r.passed for r in results):
        return 0
    n_bad = sum(not r.passed for r in results)
    print(f"{n_bad} gradient check(s) FAILED", file=sys.stderr)
    return 3


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "register": _cmd_register,
    "metrics": _cmd_metrics,
    "params": _cmd_params,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (VolumeFormatError, ShapeError, ContractError, UndefinedMetricError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
