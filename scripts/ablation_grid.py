"""Sweep the ablation axes at 16-cube scale and tabulate the results.

Each row builds its model, reports the parameter total, and trains for a few
epochs on a shared set of synthetic pairs, printing the final train/val loss.
The grid covers batch size {2, 8}, heads {1, 8}, patch kernel {3, 6}, total
dual-attention layers {4, 8}, single-mechanism variants (efficient-only /
channel-only), and every DAE/LKA decoder split from (0, 4) to (4, 0).

Usage:
    python scripts/ablation_grid.py
    python scripts/ablation_grid.py --epochs 5 --pairs 4
"""

from __future__ import annotations

import argparse
import time

import nestreg as nr

# Four stride-2 stages so a 16-cube divides evenly through the pyramid;
# "layers N" spreads N dual-attention blocks evenly over the four stages.
BASE = dict(strides=(2, 2, 2, 2), kernels=(3, 3, 3, 3))

ROWS = [
    ("batch 2", dict(batch_size=2)),
    ("batch 8", dict(batch_size=8)),
    ("heads 1", dict(heads=1)),
    ("heads 8", dict(heads=8)),
    ("patch 3", dict(patch_kernel=3)),
    ("patch 6", dict(patch_kernel=6)),
    ("layers 4", dict(blocks_per_stage=1)),
    ("layers 8", dict(blocks_per_stage=2)),
    ("EA only", dict(use_channel=False)),
    ("CA only", dict(use_efficient=False)),
    ("DAE/LKA 0/4", dict(dae_blocks=0)),
    ("DAE/LKA 1/3", dict(dae_blocks=1)),
    ("DAE/LKA 2/2", dict(dae_blocks=2)),
    ("DAE/LKA 3/1", dict(dae_blocks=3)),
    ("DAE/LKA 4/0", dict(dae_blocks=4)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=8, help="synthetic pairs to train on")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    pairs = [
        nr.synth_pair(16, seed=args.seed + 100 + i, amplitude=1.5, bits=32)[:2]
        for i in range(args.pairs)
    ]
    print(f"{'row':<14} {'params':>10} {'train loss':>11} {'val loss':>9} {'time':>6}")
    for label, overrides in ROWS:
        cfg = nr.ModelConfig(**BASE, epochs=args.epochs, seed=args.seed, **overrides)
        model = nr.build_model(cfg)
        t0 = time.perf_counter()
        result = nr.train(model, pairs, pairs[:1])
        dt = time.perf_counter() - t0
        last = result.curve.rows[-1]
        print(f"{label:<14} {model.num_params:>10,} {last.train_loss:>11.4f} "
              f"{last.val_loss:>9.4f} {dt:>5.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
