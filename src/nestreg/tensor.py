"""Reverse-mode tensor core on top of raw numpy arrays.

A ``Tensor`` wraps one numpy array in a fixed precision (float32 or float64).
While a ``GradTape`` is active, every primitive records (inputs, output, vjp)
onto it; ``GradTape.backward`` replays the records once, in reverse order,
and returns the gradients of the participating leaves.  Without an active tape
the same primitives run as plain numpy, which is the evaluation fast path.

Tapes are confined to the thread that opened them (the active-tape stack is
thread-local); tensors themselves are plain containers and may be shared
read-only.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from .errors import ConfigError, ContractError, ShapeError

DTYPES = {32: np.float32, 64: np.float64}

# Bytes of working set that a kernel walking a volume block by block holds at
# once: small enough to stay in a core's L2 cache. It sizes the column buffer
# that a depthwise conv fills per matrix product, and the z-slabs of the warp
# (nestreg.warp) and of SDlogJ (nestreg.metrics).
_BLOCK_BYTES = 1 << 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy array and a trainable flag; gradients live in the dict that
    ``GradTape.backward`` returns, not on the tensor.

    ``requires_grad`` on a leaf marks it as trainable; on an op output it just
    means "this value is connected to a leaf on the active tape".
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def astype(self, bits: int) -> "Tensor":
        """Precision cast; on a tape the gradient is cast back to this dtype."""
        dtype = self.data.dtype
        return make_op(self.data.astype(DTYPES[bits]), (self,), lambda g: (g.astype(dtype),))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)


class _TapeStack(threading.local):
    def __init__(self):
        self.stack = []


_TAPES = _TapeStack()


def _active_tape():
    return _TAPES.stack[-1] if _TAPES.stack else None


class GradTape:
    """Ordered record of every primitive executed while the tape is active.

    The forward pass appends records in execution (topological) order, so a
    single reverse sweep visits each op exactly once with its output gradient
    complete before its input gradients are produced.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "GradTape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.stack.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        self._records.append((output, inputs, vjp))
        self._produced.add(id(output))

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(leaf) for every requires_grad leaf that was touched while
        recording, keyed by the leaf itself.

        Leaves not reachable from ``loss`` get zero gradients.  Nothing is
        written on the leaves, so each call's gradients are its own.
        """
        if loss.data.size != 1:
            raise ContractError(
                f"backward root must be a scalar, got shape {loss.data.shape}"
            )
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for output, inputs, vjp in reversed(self._records):
            for t in inputs:
                if t.requires_grad and id(t) not in self._produced:
                    leaves[id(t)] = t
            g = grads.pop(id(output), None)
            if g is None:
                continue
            parts = vjp(g)
            kept = []
            for t, part in zip(inputs, parts):
                if part is None or not t.requires_grad:
                    continue
                # A vjp may hand one array to two inputs (add returns
                # (g, g)); accumulating into one must not change the other.
                # The copy keeps the layout, so later matmuls round alike.
                if any(np.may_share_memory(part, k) for k in kept):
                    part = np.copy(part, order="K")
                kept.append(part)
                slot = grads.get(id(t))
                if slot is None:
                    grads[id(t)] = part
                else:
                    slot += part
        return {leaf: np.asarray(grads[tid]) if tid in grads else np.zeros_like(leaf.data)
                for tid, leaf in leaves.items()}


def make_op(out_data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Create an op output, recording it when a tape is active.

    ``vjp(grad_out) -> tuple`` must return one array (or None) per input.
    Extension modules use this to define new primitives.
    """
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        tape.record(out, tuple(inputs), vjp)
    return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(
            f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}; "
            "cast explicitly with astype()"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _triple(value, what: str) -> tuple[int, int, int]:
    if isinstance(value, int):
        return (value, value, value)
    value = tuple(int(v) for v in value)
    if len(value) != 3:
        raise ConfigError(f"{what} must be an int or a length-3 sequence, got {value}")
    return value


def _pad_pairs(padding) -> tuple[tuple[int, int], ...]:
    """Normalize padding to three (low, high) pairs."""
    if isinstance(padding, int):
        return ((padding, padding),) * 3
    padding = tuple(padding)
    if len(padding) != 3:
        raise ConfigError(f"padding must describe 3 axes, got {padding!r}")
    pairs = []
    for p in padding:
        if isinstance(p, int):
            pairs.append((p, p))
        else:
            lo, hi = p
            pairs.append((int(lo), int(hi)))
    return tuple(pairs)


def same_padding(kernel: int, dilation: int = 1) -> tuple[int, int]:
    """(low, high) padding that keeps the extent under stride 1."""
    total = dilation * (kernel - 1)
    return (total - total // 2, total // 2)


# ---------------------------------------------------------------------------
# Arithmetic primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_same_dtype(a, b, "add")
    out = a.data + b.data
    return make_op(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_same_dtype(a, b, "sub")
    out = a.data - b.data
    return make_op(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return make_op(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_same_dtype(a, b, "mul")
    out = a.data * b.data
    return make_op(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_same_dtype(a, b, "div")
    out = a.data / b.data
    return make_op(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires ndim >= 2 operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return make_op(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# Shape primitives
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return make_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return make_op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def take_slice(a: Tensor, key) -> Tensor:
    """Basic (non-repeating) indexing with ints and slices."""
    out = a.data[key]

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        return (buf,)

    return make_op(out, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    for p in parts[1:]:
        _check_same_dtype(parts[0], p, "concat")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = list(itertools.accumulate(sizes, initial=0))

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return make_op(out, tuple(parts), vjp)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        for ax in sorted(ax % len(in_shape) for ax in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return make_op(
        out, (a,), lambda g: (_expand_reduced(g, a.data.shape, axis, keepdims).copy(),)
    )


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if out.size == 0 else a.data.size // max(out.size, 1)

    def vjp(g):
        return (_expand_reduced(g, a.data.shape, axis, keepdims) / count,)

    return make_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return make_op(out, (a,), lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return make_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = _special.expit(a.data)
    return make_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact (erf-based) GELU: Phi(x) + x * phi(x)."""
    cdf = 0.5 * (1.0 + _special.erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return cdf + x * pdf


def gelu(a: Tensor) -> Tensor:
    x = a.data
    out = x * (0.5 * (1.0 + _special.erf(x * _INV_SQRT2)))
    return make_op(out, (a,), lambda g: (g * _gelu_grad(x),))


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return make_op(out, (a,), vjp)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


_LAYERNORM_EPS = 1e-5  # added to the variance under the square root


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1) -> Tensor:
    """Normalize over a single axis; gamma/beta are 1-D of that axis length."""
    _check_same_dtype(a, gamma, "layernorm")
    _check_same_dtype(a, beta, "layernorm")
    axis = axis % a.ndim
    n = a.data.shape[axis]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(
            f"layernorm: gamma/beta must have shape ({n},), got "
            f"{gamma.data.shape} and {beta.data.shape} for input {a.data.shape}"
        )
    pshape = [1] * a.ndim
    pshape[axis] = n
    gb = gamma.data.reshape(pshape)
    bb = beta.data.reshape(pshape)

    # The variance from the centred values d, which xhat reuses: the sums
    # ndarray.var forms, without its second mean pass.
    d = a.data - a.data.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt((d * d).mean(axis=axis, keepdims=True) + _LAYERNORM_EPS)
    xhat = d * inv
    out = xhat * gb + bb

    others = tuple(i for i in range(a.ndim) if i != axis)

    def vjp(g):
        gbeta = g.sum(axis=others) if others else g.copy()
        ggamma = (g * xhat).sum(axis=others) if others else g * xhat
        gh = g * gb
        gx = inv * (
            gh
            - gh.mean(axis=axis, keepdims=True)
            - xhat * (gh * xhat).mean(axis=axis, keepdims=True)
        )
        return gx, ggamma, gbeta

    return make_op(out, (a, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# 3-D convolution
# ---------------------------------------------------------------------------


def _zero_pad(a: np.ndarray, pads) -> np.ndarray:
    """[..., D, H, W] inside a fresh zeros buffer, (low, high) pads per spatial axis."""
    shape = tuple(e + lo + hi for e, (lo, hi) in zip(a.shape[-3:], pads))
    out = np.zeros(a.shape[:-3] + shape, dtype=a.dtype)
    out[(Ellipsis,) + tuple(slice(lo, lo + e) for e, (lo, _hi) in zip(a.shape[-3:], pads))] = a
    return out


def _crop(ap: np.ndarray, pads, spatial) -> np.ndarray:
    """The inverse of ``_zero_pad``: the ``spatial`` interior that starts at the low pads."""
    keep = tuple(slice(lo, lo + e) for (lo, _hi), e in zip(pads, spatial))
    return np.ascontiguousarray(ap[(Ellipsis,) + keep])


def _columns(xp, kern, dils, strides, groups):
    """The windows that a dense conv reads from its padded input xp [..., C,
    Pz, Py, Px] as one contiguous [..., groups, C/groups*kd*kh*kw, do*ho*wo]."""
    eff = tuple(d * (k - 1) + 1 for k, d in zip(kern, dils))
    win = np.lib.stride_tricks.sliding_window_view(xp, eff, axis=(-3, -2, -1))
    win = win[(Ellipsis,) + tuple(slice(None, None, s) for s in strides + dils)]
    # win: [..., C, do, ho, wo, kd, kh, kw], a view; kernel axes go before output axes.
    win = np.moveaxis(win, (-3, -2, -1), (-6, -5, -4))
    return np.ascontiguousarray(win).reshape(win.shape[:-7] + (groups, -1, math.prod(win.shape[-3:])))


def conv3d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride=1,
    padding=0,
    dilation=1,
    groups: int = 1,
) -> Tensor:
    """Grouped, strided, dilated 3-D convolution (cross-correlation).

    x: [C_in, D, H, W] or a batch [B, C_in, D, H, W]; weight: [C_out,
    C_in/groups, kd, kh, kw]; bias: [C_out]. The output keeps x's batch axis.
    Output extent per axis: (ext + lo + hi - dilation*(k-1) - 1)//stride + 1.

    Two kinds run on their own kernels. Pointwise (1x1x1, stride 1, no
    padding, one group) is a channel matmul, batched over B. Depthwise
    (groups = C_in = C_out, stride 1, any padding and dilation) folds B into
    the channels: x is copied once into a zeros buffer [B*C, Pz+1, Py, Px]
    (the padded extents plus a slack z-plane that keeps the last window in
    bounds), viewed flat. There kernel offset (jz, jy, jx) is the shift
    jz*dz*Py*Px + jy*dy*Px + jx*dx, and its input for every output voxel is
    one contiguous run of oz*Py*Px values per channel. Output rows at y >= oy
    or x >= ox read wrapped-around values and are cropped once at the end.
    On each axis the offsets whose window reads some input (max(0, lo - j*d)
    < min(o, n + lo - j*d)) form one range; the others add only zeros, are
    skipped, and get a weight gradient of exactly 0. One strided view [B*C,
    kz', ky', kx', oz*Py*Px] holds the live offsets' runs. Block by block
    (_BLOCK_BYTES, along the channels and, if one channel's columns exceed
    it, along the flat axis) the view is copied into a contiguous column
    buffer and the output is one batched matrix-vector product, out[r] =
    w[r] @ cols[r]. The backward rebuilds the same blocks
    for gw[r] = cols[r] @ g[r] (wrapped rows of g set to 0), and gets the
    input gradient from the same kernel with the live block flipped, run on
    g placed in a zeros buffer, over the z-planes that hold input.

    Every other conv (the strided patch embeds, grouped convs) is one matmul
    of the weight [groups, C_out/groups, C_in/groups*kd*kh*kw] with a
    contiguous copy of the input's windows (``_columns``). The backward keeps
    only the padded input, rebuilds one sample's columns at a time, takes
    gw = g @ cols^T and the column gradient w^T @ g, and scatters the latter
    back by kernel offset.
    """
    _check_same_dtype(x, weight, "conv3d")
    if x.ndim not in (4, 5) or weight.ndim != 5:
        raise ShapeError(
            f"conv3d expects x [C,D,H,W] or [B,C,D,H,W] and weight [O,I,kd,kh,kw], got "
            f"{x.data.shape} and {weight.data.shape}"
        )
    lead = x.data.shape[:-4]
    cin = x.data.shape[-4]
    cout, cin_g, kd, kh, kw = weight.data.shape
    if groups < 1 or cin % groups or cout % groups:
        raise ConfigError(
            f"conv3d: groups={groups} must divide C_in={cin} and C_out={cout}"
        )
    if cin_g != cin // groups:
        raise ShapeError(
            f"conv3d: weight expects {cin_g} channels/group but input provides "
            f"{cin // groups} ({cin} channels, {groups} groups)"
        )
    strides = _triple(stride, "stride")
    dils = _triple(dilation, "dilation")
    pads = _pad_pairs(padding)
    kern = (kd, kh, kw)
    spatial = x.data.shape[-3:]
    out_ext = []
    for ax in range(3):
        eff = dils[ax] * (kern[ax] - 1) + 1
        padded = spatial[ax] + pads[ax][0] + pads[ax][1]
        o = (padded - eff) // strides[ax] + 1
        if padded < eff or o < 1:
            raise ConfigError(
                f"conv3d: axis {ax} extent {spatial[ax]} with padding {pads[ax]} "
                f"cannot fit kernel {kern[ax]} (dilation {dils[ax]})"
            )
        out_ext.append(o)
    out_ext = tuple(out_ext)
    if bias is not None:
        _check_same_dtype(x, bias, "conv3d")
        if bias.data.shape != (cout,):
            raise ShapeError(
                f"conv3d: bias shape {bias.data.shape} != ({cout},)"
            )
    need_gx = x.requires_grad
    w = weight.data
    unit_stride = strides == (1, 1, 1)

    if kern == (1, 1, 1) and unit_stride and groups == 1 and pads == ((0, 0),) * 3:
        x2 = x.data.reshape(lead + (cin, -1))
        w2 = w.reshape(cout, cin)
        out = (w2 @ x2).reshape(lead + (cout,) + spatial)

        def kernel_vjp(g):
            g2 = g.reshape(lead + (cout, -1))
            gx = (w2.T @ g2).reshape(x.data.shape) if need_gx else None
            return gx, _unbroadcast(g2 @ np.swapaxes(x2, -1, -2), w2.shape).reshape(w.shape)

    elif groups == cin == cout and unit_stride:
        out, kernel_vjp = _depthwise_columns(x.data, w, pads, dils, out_ext, need_gx)

    else:
        xp = _zero_pad(x.data, pads)
        wg = w.reshape(groups, cout // groups, -1)
        out = (wg @ _columns(xp, kern, dils, strides, groups)).reshape(lead + (cout,) + out_ext)

        def kernel_vjp(g):
            # One sample's columns at a time (b is () without a batch axis),
            # so the tape holds only xp and the temporaries stay one sample's.
            go = g.reshape(lead + (groups, cout // groups, -1))
            gxp = np.zeros_like(xp) if need_gx else None
            # taps[i]: the slice of xp that flat kernel offset i reads for the output.
            per_axis = [
                [slice(j * d, j * d + s * (o - 1) + 1, s) for j in range(k)]
                for k, d, s, o in zip(kern, dils, strides, out_ext)
            ]
            taps = [(Ellipsis,) + t for t in itertools.product(*per_axis)]
            gw = None
            for b in np.ndindex(lead):
                cols_t = np.swapaxes(_columns(xp[b], kern, dils, strides, groups), -1, -2)
                part = go[b] @ cols_t
                gw = part if gw is None else gw + part
                if need_gx:
                    gcols = (np.swapaxes(wg, -1, -2) @ go[b]).reshape((cin, len(taps)) + out_ext)
                    for i, t in enumerate(taps):
                        gxp[b][t] += gcols[:, i]
            gx = _crop(gxp, pads, spatial) if need_gx else None
            return gx, gw.reshape(w.shape)

    if bias is not None:
        out += bias.data[:, None, None, None]

    def vjp(g):
        grads = kernel_vjp(g)
        if bias is None:
            return grads
        return grads + (_unbroadcast(g.sum(axis=(-3, -2, -1)), (cout,)),)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return make_op(out, inputs, vjp)


def _live_ranges(kern, dils, pads, out_ext, spatial):
    """Per axis, the kernel offsets j whose window reads some input: those
    with max(0, lo - j*d) < min(o, e + lo - j*d). The window slides with j,
    so each axis's set is one range, and the live offsets are their product."""
    ranges = []
    for k, d, (lo, _hi), o, e in zip(kern, dils, pads, out_ext, spatial):
        live = [j for j in range(k) if max(0, lo - j * d) < min(o, e + lo - j * d)]
        ranges.append(range(live[0], live[-1] + 1) if live else range(0))
    return ranges


def _window_view(flat, start, shifts, live, n):
    """The view [R, *live, n] of a contiguous flat [R, L] whose element [r, a,
    b, c, t] is flat[r, start + a*shifts[0] + b*shifts[1] + c*shifts[2] + t].
    numpy checks that every element lies inside flat."""
    item = flat.itemsize
    return np.ndarray(
        (flat.shape[0],) + live + (n,), flat.dtype, flat, start * item,
        (flat.shape[1] * item,) + tuple(s * item for s in shifts) + (item,),
    )


def _column_blocks(view):
    """Copy the window view [R, *live, n] block by block into one contiguous
    buffer of at most _BLOCK_BYTES (a row whose columns exceed it is split
    along n) and yield (row slice, flat slice, columns [r, prod(live),
    f])."""
    rows, n = view.shape[0], view.shape[-1]
    live = view.shape[1:-1]
    k = math.prod(live)
    col_bytes = max(k, 1) * view.itemsize
    f = max(1, min(n, _BLOCK_BYTES // col_bytes))
    r = max(1, min(rows, _BLOCK_BYTES // (col_bytes * f)))
    buf = np.empty(r * k * f, view.dtype)
    for r0 in range(0, rows, r):
        rs = slice(r0, min(rows, r0 + r))
        for f0 in range(0, n, f):
            fs = slice(f0, min(n, f0 + f))
            nrows, nflat = rs.stop - r0, fs.stop - f0
            cols = buf[:nrows * k * nflat].reshape((nrows,) + live + (nflat,))
            np.copyto(cols, view[rs, ..., fs])
            yield rs, fs, cols.reshape(nrows, k, nflat)


def _weighted_windows(view, wl):
    """out[r, t] = sum_k wl[r, k] * view[r, k, t] (the live axes flattened):
    one batched matrix-vector product per column block."""
    out = np.empty((view.shape[0], view.shape[-1]), dtype=view.dtype)
    for rs, fs, cols in _column_blocks(view):
        np.matmul(wl[rs, None, :], cols, out=out[rs, None, fs])
    return out


def _depthwise_columns(x, w, pads, dils, out_ext, need_gx):
    """Depthwise stride-1 conv3d of x [..., C, D, H, W] by w [C, 1, kd, kh,
    kw] on the live-offset columns of a flat zero-padded buffer (described in
    ``conv3d``), with a batch axis folded into the channels: returns (output,
    vjp of (x, w))."""
    c, spatial, kern = w.shape[0], x.shape[-3:], w.shape[2:]
    (lz, hz), (ly, hy), (lx, hx) = pads
    xp = _zero_pad(x, ((lz, hz + 1), (ly, hy), (lx, hx)))
    _pz, py, px = xp.shape[-3:]
    xf = xp.reshape(-1, math.prod(xp.shape[-3:]))
    bc = xf.shape[0]
    oz, oy, ox = out_ext
    n = oz * py * px
    ranges = _live_ranges(kern, dils, pads, out_ext, spatial)
    live = tuple(len(r) for r in ranges)
    shifts = tuple(d * s for d, s in zip(dils, (py * px, px, 1)))
    first = sum(r.start * s for r, s in zip(ranges, shifts))
    span = sum(max(k - 1, 0) * s for k, s in zip(live, shifts))
    sub = (slice(None),) + tuple(slice(r.start, r.stop) for r in ranges)
    wl = np.tile(w.reshape((c,) + kern)[sub].reshape(c, -1), (bc // c, 1))
    view = _window_view(xf, first, shifts, live, n)
    out = _weighted_windows(view, wl).reshape(bc, oz, py, px)[:, :, :oy, :ox]
    out = np.ascontiguousarray(out).reshape(x.shape[:-3] + out_ext)

    def kernel_vjp(g):
        # g sits at flat offset first + span of a zeros buffer, the wrapped
        # rows left at 0; the input gradient over the z-planes that hold input
        # is the same kernel on that buffer with the live block flipped.
        gz0, gn = lz * py * px, spatial[0] * py * px
        last = first + span
        gp = np.zeros((bc, max(gz0 + gn + span, last + n)), dtype=g.dtype)
        gf = gp[:, last:last + n]
        gf.reshape(bc, oz, py, px)[:, :, :oy, :ox] = g.reshape((bc,) + out_ext)
        gwl = np.zeros((bc, wl.shape[1], 1), dtype=g.dtype)
        for rs, fs, cols in _column_blocks(view):
            gwl[rs] += cols @ gf[rs, fs, None]
        gw = np.zeros((c,) + kern, dtype=w.dtype)
        gw[sub] = gwl.reshape((bc // c, c) + live).sum(axis=0)
        if not need_gx:
            return None, gw.reshape(w.shape)
        gx = _weighted_windows(_window_view(gp, gz0, shifts, live, gn), wl[:, ::-1].copy())
        gx = _crop(gx.reshape(bc, spatial[0], py, px), ((0, 0),) + pads[1:], spatial)
        return gx.reshape(x.shape), gw.reshape(w.shape)

    return out, kernel_vjp


def _band(n: int, taps: np.ndarray) -> np.ndarray:
    """The [n, n - k + 1] float64 matrix whose column j holds the k taps in
    rows j .. j + k - 1, zeros elsewhere: ``v @ band`` is the valid
    correlation of a length-n line v with the taps, and ``u @ band.T`` its
    adjoint."""
    m = n - taps.size + 1
    band = np.zeros((n, m))
    cols = np.arange(m)
    for t, tap in enumerate(taps):
        band[cols + t, cols] = tap
    return band


def _banded_passes(x: np.ndarray, bands) -> np.ndarray:
    """x [..., D, H, W] times one matrix per spatial axis, bands = (bz, by,
    bx) each [extent in, extent out]: three float64 matrix products, along z,
    y and x in turn. Returns a fresh float64 [..., D', H', W'].

    x is made contiguous float64 first, so every product goes to BLAS and
    the result does not depend on x's dtype or memory layout.
    """
    bz, by, bx = bands
    (d, h, w), lead = x.shape[-3:], x.shape[:-3]
    a = np.ascontiguousarray(x, dtype=np.float64)
    a = np.matmul(bz.T, a.reshape((-1, d, h * w)))
    a = np.matmul(by.T, a.reshape((-1, h, w)))
    a = a.reshape((-1, w)) @ bx
    return a.reshape(lead + (bz.shape[1], by.shape[1], bx.shape[1]))


# ---------------------------------------------------------------------------
# Pooling and resampling
# ---------------------------------------------------------------------------


def global_pool(a: Tensor, mode: str) -> Tensor:
    """Pool [C, D, H, W] to [C], or [B, C, D, H, W] to [B, C], by 'avg' or
    'max' over the spatial axes."""
    if a.ndim not in (4, 5):
        raise ShapeError(f"global_pool expects [C,D,H,W] or [B,C,D,H,W], got {a.data.shape}")
    flat = a.data.reshape(a.data.shape[:-3] + (-1,))
    if mode == "avg":
        out = flat.mean(axis=-1)
        nvox = flat.shape[-1]

        def vjp(g):
            return (np.broadcast_to(g[..., None] / nvox, flat.shape).reshape(a.data.shape).copy(),)

    elif mode == "max":
        idx = flat.argmax(axis=-1)[..., None]
        out = np.take_along_axis(flat, idx, axis=-1)[..., 0]

        def vjp(g):
            buf = np.zeros_like(flat)
            np.put_along_axis(buf, idx, g[..., None], axis=-1)
            return (buf.reshape(a.data.shape),)

    else:
        raise ConfigError(f"global_pool mode must be 'avg' or 'max', got {mode!r}")
    return make_op(out, (a,), vjp)


def _interp_matrix(in_ext: int, factor: int, dtype) -> np.ndarray:
    """m [in_ext, in_ext*factor] of one half-pixel-aligned upsampled axis:
    m[i, j] = d out[j] / d in[i], with 1 - w and w in every column."""
    scalar = np.dtype(dtype).type
    pos = (np.arange(in_ext * factor, dtype=dtype) + scalar(0.5)) / scalar(factor) - scalar(0.5)
    pos = np.clip(pos, 0.0, in_ext - 1)
    i0 = np.floor(pos).astype(np.intp)
    if in_ext > 1:
        i0 = np.minimum(i0, in_ext - 2)
    w = (pos - i0).astype(dtype)
    # Each statement writes every column once, so fancy-index += stays exact
    # where the border clamp makes i0 == i1.
    m = np.zeros((in_ext, w.size), dtype=dtype)
    cols = np.arange(w.size)
    m[i0, cols] += 1.0 - w
    m[np.minimum(i0 + 1, in_ext - 1), cols] += w
    return m


def upsample_trilinear(a: Tensor, factor) -> Tensor:
    """Upsample [C, D, H, W] or [B, C, D, H, W] by integer factors, half-pixel
    aligned.

    Each upsampled axis is one matmul by its interpolation matrix m: the
    forward contracts the axis with m's rows, the vjp with its columns.
    Factor 1 on an axis is the identity (bit-exact).
    """
    if a.ndim not in (4, 5):
        raise ShapeError(f"upsample_trilinear expects [C,D,H,W] or [B,C,D,H,W], got {a.data.shape}")
    factors = _triple(factor, "factor")
    if any(f < 1 for f in factors):
        raise ConfigError(f"upsample factors must be >= 1, got {factors}")
    if all(f == 1 for f in factors):
        return make_op(a.data.copy(), (a,), lambda g: (g,))
    mats = []
    out = a.data
    for ax, f in zip((-3, -2, -1), factors):
        if f > 1:
            mats.append((ax, _interp_matrix(out.shape[ax], f, out.dtype)))
            out = np.moveaxis(np.moveaxis(out, ax, -1) @ mats[-1][1], -1, ax)

    def vjp(g):
        for ax, m in reversed(mats):
            g = np.moveaxis(np.moveaxis(g, ax, -1) @ m.T, -1, ax)
        return (np.ascontiguousarray(g),)

    return make_op(np.ascontiguousarray(out), (a,), vjp)
