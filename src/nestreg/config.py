"""The one configuration object: architecture, loss, optimizer and numerics.

The encoder, decoder and losses read their settings from a ``ModelConfig``;
checkpoints and reports record its ``to_dict()`` and ``volio.config_hash``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from typing import ClassVar

from .errors import ConfigError
from .tensor import DTYPES

_SEQUENCES = ("channels", "strides", "kernels")

# (field, requirement, test) for the fields bounded on their own.
_BOUNDS = (
    ("blocks_per_stage", ">= 1", lambda v: v >= 1),
    ("patch_kernel", ">= 1", lambda v: v >= 1),
    ("ncc_eps", "positive", lambda v: v > 0),
    ("smooth_weight", ">= 0", lambda v: v >= 0),
    ("lr", "positive", lambda v: v > 0),
    ("weight_decay", ">= 0", lambda v: v >= 0),
    ("epochs", ">= 1", lambda v: v >= 1),
    ("batch_size", ">= 1", lambda v: v >= 1),
    ("init_std", "positive", lambda v: v > 0),
    ("seed", ">= 0", lambda v: v >= 0),
)


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _kind(default) -> tuple[str, object]:
    """The kind of value a field with this default takes: (name, test)."""
    if isinstance(default, bool):
        return "a bool", lambda v: isinstance(v, bool)
    if isinstance(default, int):
        return "an int", _is_int
    if isinstance(default, float):
        return "a real number", lambda v: isinstance(v, Real) and not isinstance(v, bool)
    return "a sequence of ints", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))


@dataclass
class ModelConfig:
    """Everything needed to rebuild a model and its training run. The decoder
    has one stage per encoder stage: the deepest ``dae_blocks`` run dual
    attention, the rest large-kernel attention."""

    # architecture
    channels: tuple = (8, 16, 32, 64)
    strides: tuple = (4, 2, 2, 2)
    kernels: tuple = (7, 3, 3, 3)
    blocks_per_stage: int = 1
    heads: int = 2
    patch_kernel: int = 3
    use_efficient: bool = True
    use_channel: bool = True
    dae_blocks: int = 2
    # Not a field: the forward concatenates the moving and the fixed volume.
    in_channels: ClassVar[int] = 2
    # loss
    ncc_window: int = 5
    ncc_eps: float = 1e-5
    smooth_weight: float = 1.0
    # optimizer / training (full-scale reference: lr 1e-4, wd 3e-5, 100 epochs,
    # batch 4). The desk-scale lr sits in the measured stable band of plain SGD
    # on 32^3 synthetic pairs: 0.1 diverges, 0.03 under-converges in 50 epochs.
    lr: float = 0.05
    weight_decay: float = 3e-5
    epochs: int = 50
    batch_size: int = 2
    # numerics
    precision: int = 32
    seed: int = 0
    init_std: float = 0.02

    def validate(self) -> list[str]:
        """Every problem found. A field of the wrong kind is reported once,
        and the rules that read it are skipped."""
        problems, wrong = [], set()
        for f in fields(self):
            value = getattr(self, f.name)
            kind, ok = _kind(f.default)
            if not ok(value):
                problems.append(f"{f.name} must be {kind}, got {value!r}")
                wrong.add(f.name)

        def checkable(*names):
            return wrong.isdisjoint(names)

        for name, requirement, ok in _BOUNDS:
            value = getattr(self, name)
            if checkable(name) and not ok(value):
                problems.append(f"{name} must be {requirement}, got {value}")
        if checkable(*_SEQUENCES, "heads"):
            problems += self._stage_problems()
        if checkable("use_efficient", "use_channel") and not (
            self.use_efficient or self.use_channel
        ):
            problems.append("at least one of use_efficient/use_channel must be on")
        if checkable("dae_blocks", "channels") and not 0 <= self.dae_blocks <= len(self.channels):
            problems.append(
                f"dae_blocks must be in 0..{len(self.channels)} (the encoder stages), "
                f"got {self.dae_blocks}"
            )
        if checkable("ncc_window") and (self.ncc_window < 3 or self.ncc_window % 2 == 0):
            problems.append(f"ncc_window must be odd and >= 3, got {self.ncc_window}")
        if checkable("precision") and self.precision not in DTYPES:
            problems.append(f"precision must be 32 or 64, got {self.precision}")
        return problems

    def _stage_problems(self) -> list[str]:
        problems = []
        if not self.channels:
            problems.append("channels must name at least one stage")
        if not (len(self.channels) == len(self.strides) == len(self.kernels)):
            problems.append(
                f"channels/strides/kernels lengths differ: "
                f"{len(self.channels)}/{len(self.strides)}/{len(self.kernels)}"
            )
            return problems
        for i, (c, s, k) in enumerate(zip(self.channels, self.strides, self.kernels), start=1):
            if c < 1:
                problems.append(f"stage {i}: channels must be >= 1, got {c}")
            if s < 1:
                problems.append(f"stage {i}: stride must be >= 1, got {s}")
            if k <= s:
                problems.append(
                    f"stage {i}: patch kernel {k} must exceed stride {s} (patches must overlap)"
                )
            if self.heads < 1 or c % self.heads:
                problems.append(f"stage {i}: channels {c} not divisible by heads {self.heads}")
        return problems

    def validated(self) -> "ModelConfig":
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self) -> dict:
        """The fields as JSON-ready values: the stage sequences as lists. A
        field of the wrong kind is kept as it is, for ``validate`` to name."""
        out = asdict(self)
        for key in _SEQUENCES:
            if isinstance(out[key], (list, tuple)):
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([f"unknown config key {k!r}" for k in unknown])
        kwargs = dict(data)
        for key in _SEQUENCES:
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)
