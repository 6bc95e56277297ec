"""Central-difference gradient verification.

Meant for float64: with h = 1e-4 the truncation error of the central
difference sits well below the 1e-4 relative-error gate for the smooth
functions used here.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, NumericError
from .tensor import GradTape, Tensor


def _scalar(fn: Callable[[], Tensor]) -> float:
    out = fn()
    if out.data.size != 1:
        raise ContractError(f"gradcheck target must be scalar, got shape {out.data.shape}")
    return float(out.data)


H = 1e-4  # the central difference's step

# The relative error's floor is H: central differences carry an O(h²·f''')
# truncation term, so a coordinate whose true derivative is far below h
# cannot be certified *relatively* by them at any implementation quality —
# near such critical points the check degrades to an absolute comparison at
# tolerance·h (e.g. 1e-8 for the default gate), which still sits well above
# the ~1e-9 truncation floor of a correct gradient.
FLOOR = H


def check_gradients(
    fn: Callable[[], Tensor],
    leaves: Mapping[str, Tensor],
    max_coords: int | None = None,
) -> tuple[float, dict[str, float]]:
    """Compare tape gradients of ``fn()`` against central differences at
    step ``H``.

    ``fn`` must be a deterministic closure over ``leaves`` that re-reads their
    ``.data`` on every call.  Each leaf is perturbed coordinate-wise (all
    coordinates, or a sample of ``max_coords`` drawn from seed 0).  Returns
    the worst relative error overall and per leaf, with the relative error
    defined as |a - n| / max(|a|, |n|, FLOOR).
    """
    y1 = _scalar(fn)
    y2 = _scalar(fn)
    if not (np.isfinite(y1) and np.isfinite(y2)):
        raise NumericError(f"gradcheck target is not finite: {y1!r}")
    if np.float64(y1) != np.float64(y2):
        raise ContractError(
            f"gradcheck target is not deterministic: {y1!r} != {y2!r}"
        )

    for name, leaf in leaves.items():
        if not leaf.requires_grad:
            raise ContractError(f"gradcheck leaf {name!r} does not require grad")
        if not leaf.data.flags["C_CONTIGUOUS"]:
            leaf.data = np.ascontiguousarray(leaf.data)

    with GradTape() as tape:
        grads = tape.backward(fn())
    analytic = {name: grads.get(leaf, np.zeros_like(leaf.data)) for name, leaf in leaves.items()}

    rng = np.random.default_rng(0)
    worst = 0.0
    per_leaf: dict[str, float] = {}
    for name, leaf in leaves.items():
        flat = leaf.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            coords = np.sort(rng.choice(n, size=max_coords, replace=False))
        else:
            coords = np.arange(n)
        ana_flat = analytic[name].reshape(-1)
        leaf_worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + H
            fp = _scalar(fn)
            flat[i] = orig - H
            fm = _scalar(fn)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * H)
            ana = float(ana_flat[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), FLOOR)
            leaf_worst = max(leaf_worst, rel)
        per_leaf[name] = leaf_worst
        worst = max(worst, leaf_worst)
    return worst, per_leaf

