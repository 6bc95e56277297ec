"""Brute-force reference implementations used to cross-check the engine.

Every function here is a literal transcription of the defining equation,
written with explicit loops and none of the code under test.  They are slow
on purpose; call them only on tiny inputs.  All work happens in float64.

The last three sections are the exception. Full-volume formulations of
metric steps that the engine now runs on less data are fast enough for 64^3
inputs and are compared with ``==`` or a stated float64 bound. Earlier
formulations of restructured kernels run in the input's dtype, so that
float32 results can be compared bit for bit or to the ulp. Sequential
compositions of engine calls that the engine now overlaps on two threads
call the engine itself, one step after another.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy import ndimage
from scipy.special import erf, expit, softmax as sp_softmax


# ---------------------------------------------------------------------------
# Elementwise / dense primitives
# ---------------------------------------------------------------------------


def gelu_ref(x: np.ndarray) -> np.ndarray:
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def layernorm_ref(x, gamma, beta, axis, eps=1e-5):
    mu = x.mean(axis=axis, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=axis, keepdims=True)
    shape = [1] * x.ndim
    shape[axis % x.ndim] = -1
    return ((x - mu) / np.sqrt(var + eps)) * gamma.reshape(shape) + beta.reshape(shape)


def layernorm_var_ref(x, gamma, beta, axis, eps=1e-5):
    """Layernorm in the input's dtype with the variance from ``ndarray.var``:
    the forward the engine used before it reused the centred values."""
    mu = x.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=axis, keepdims=True) + eps)
    shape = [1] * x.ndim
    shape[axis % x.ndim] = -1
    return (x - mu) * inv * gamma.reshape(shape) + beta.reshape(shape)


def _triple(v):
    return (v, v, v) if np.isscalar(v) else tuple(v)


def _pad_pairs(padding):
    """(low, high) padding per spatial axis."""
    if np.isscalar(padding):
        return ((padding, padding),) * 3
    return tuple((p, p) if np.isscalar(p) else tuple(p) for p in padding)


def _conv_geometry(x, w, stride, padding, dilation):
    """Padded float64 input, per-axis (stride, dilation) and output extents."""
    pads = _pad_pairs(padding)
    steps = tuple(zip(_triple(stride), _triple(dilation)))
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0),) + pads)
    out_ext = tuple(
        (xp.shape[1 + ax] - d * (w.shape[2 + ax] - 1) - 1) // s + 1
        for ax, (s, d) in enumerate(steps)
    )
    return xp, pads, steps, out_ext


def _conv_taps(x, w, groups, steps, out_ext):
    """Yield (output index, weight index, padded input index) for every term of the sum."""
    cin = x.shape[0]
    cout, cin_g = w.shape[:2]
    per_group_out = cout // groups
    (sd, dd), (sh, dh), (sw, dw) = steps
    for o in range(cout):
        g = o // per_group_out
        for z, y, xx in product(*(range(e) for e in out_ext)):
            for ig in range(cin_g):
                ci = g * (cin // groups) + ig
                for a, bb, c in product(*(range(k) for k in w.shape[2:])):
                    src = (ci, z * sd + a * dd, y * sh + bb * dh, xx * sw + c * dw)
                    yield (o, z, y, xx), (o, ig, a, bb, c), src


def conv3d_ref(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """Seven nested loops over the convolution sum. x [C,D,H,W], w [O,I,kd,kh,kw]."""
    xp, _pads, steps, out_ext = _conv_geometry(x, w, stride, padding, dilation)
    out = np.zeros((w.shape[0],) + out_ext)
    for dst, wi, src in _conv_taps(x, w, groups, steps, out_ext):
        out[dst] += w[wi] * xp[src]
    if b is not None:
        out += np.asarray(b)[:, None, None, None]
    return out


def conv3d_vjp_ref(x, w, g, stride=1, padding=0, dilation=1, groups=1):
    """The conv3d backward by the same loops: each output voxel's gradient
    scatters g * w into the input it read and g * x into the weight that read
    it. Returns (gx, gw, gb) for output gradient g."""
    xp, pads, steps, out_ext = _conv_geometry(x, w, stride, padding, dilation)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    for dst, wi, src in _conv_taps(x, w, groups, steps, out_ext):
        gxp[src] += g[dst] * w[wi]
        gw[wi] += g[dst] * xp[src]
    keep = tuple(slice(lo, lo + ext) for (lo, _hi), ext in zip(pads, x.shape[1:]))
    return gxp[(slice(None),) + keep], gw, g.sum(axis=(1, 2, 3))


def upsample_trilinear_ref(x, factors):
    """Per-output-voxel transcription of half-pixel-aligned trilinear upsampling."""
    factors = (factors,) * 3 if np.isscalar(factors) else tuple(factors)
    c = x.shape[0]
    exts = x.shape[1:]
    out_exts = tuple(e * f for e, f in zip(exts, factors))
    out = np.zeros((c,) + out_exts)

    def axis_sample(ext, factor, i):
        pos = (i + 0.5) / factor - 0.5
        pos = min(max(pos, 0.0), ext - 1)
        lo = int(np.floor(pos))
        lo = min(lo, ext - 2) if ext > 1 else 0
        hi = min(lo + 1, ext - 1)
        return lo, hi, pos - lo

    for z, y, xx in product(*(range(e) for e in out_exts)):
        z0, z1, fz = axis_sample(exts[0], factors[0], z)
        y0, y1, fy = axis_sample(exts[1], factors[1], y)
        x0, x1, fx = axis_sample(exts[2], factors[2], xx)
        for bz, by, bx in product((0, 1), repeat=3):
            wgt = (fz if bz else 1 - fz) * (fy if by else 1 - fy) * (fx if bx else 1 - fx)
            out[:, z, y, xx] += wgt * x[:, (z1 if bz else z0), (y1 if by else y0), (x1 if bx else x0)]
    return out


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


def efficient_attention_ref(x, wq, wk, wv, wo, heads):
    """Quadratic-form expansion: out_i = sum_j (rho_q(q_i) . rho_k(k)_j) v_j per head."""
    n, dm = x.shape
    dh = dm // heads
    q = x @ wq
    k = x @ wk
    v = x @ wv
    merged = np.zeros((n, dm))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        rq = np.stack([sp_softmax(qh[i]) for i in range(n)])          # rows
        rk = np.stack([sp_softmax(kh[:, d]) for d in range(dh)], axis=1)  # columns
        for i in range(n):
            acc = np.zeros(dh)
            for j in range(n):
                acc += float(rq[i] @ rk[j]) * vh[j]
            merged[i, sl] = acc
    return merged @ wo


def channel_attention_ref(x, wq, wk, wv, wo, heads, log_tau):
    n, dm = x.shape
    dh = dm // heads
    q = x @ wq
    k = x @ wk
    v = x @ wv
    merged = np.zeros((n, dm))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        scores = np.zeros((dh, dh))
        for d, e in product(range(dh), range(dh)):
            scores[d, e] = float(kh[:, d] @ qh[:, e]) / np.exp(log_tau[h])
        mix = np.stack([sp_softmax(scores[:, e]) for e in range(dh)], axis=1)
        merged[:, sl] = vh @ mix
    return merged @ wo


# ---------------------------------------------------------------------------
# Nested attention fusion (decoder stream x1, encoder skip x2)
# ---------------------------------------------------------------------------


def fusion_ref(x1, x2, p):
    """Transcribes nested_attention_fusion with numpy + conv3d_ref calls.

    ``p`` is a FusionParams; tensors are read out as float64 arrays.
    """
    d = {f: getattr(p, f).data.astype(np.float64) for f in (
        "g_w", "g_b", "fe_dw_w", "fe_dw_b", "fe_pw_w", "fe_pw_b",
        "fe_dwd_w", "fe_dwd_b", "fe_red_w", "fe_red_b",
        "norm_gamma", "norm_beta", "sel_w", "sel_b",
        "inner_w", "inner_b", "outer_w", "outer_b",
    )}
    k = p.fe_dw_w.shape[-1]
    c = x1.shape[0]
    pad_1 = (k - 1) // 2, k - 1 - (k - 1) // 2
    pad_2 = (k - 1), (k - 1)  # dilation 2 of the same kernel

    fe = conv3d_ref(x1, d["fe_dw_w"], d["fe_dw_b"], padding=(pad_1,) * 3, groups=c)
    fe = conv3d_ref(fe, d["fe_pw_w"], d["fe_pw_b"])
    fe = conv3d_ref(fe, d["fe_dwd_w"], d["fe_dwd_b"], padding=(pad_2,) * 3, dilation=2, groups=c)
    fe = conv3d_ref(fe, d["fe_red_w"], d["fe_red_b"])

    avg = x2.mean(axis=(1, 2, 3))
    mx = x2.max(axis=(1, 2, 3))
    ge = (avg @ d["g_w"] + d["g_b"]) + (mx @ d["g_w"] + d["g_b"])
    u = fe + ge[:, None, None, None]
    u = layernorm_ref(u, d["norm_gamma"], d["norm_beta"], axis=0)

    sel = conv3d_ref(u, d["sel_w"], d["sel_b"])
    sm = np.zeros_like(sel)
    for z, y, xx in product(*(range(e) for e in sel.shape[1:])):
        sm[:, z, y, xx] = sp_softmax(sel[:, z, y, xx])
    x1s = sm * x1 + x1
    x2s = sm * x2 + x2
    mutual = (x1s * expit(x2s)) * (x2s * expit(x1s))
    gate = expit(conv3d_ref(mutual, d["inner_w"], d["inner_b"]))
    return conv3d_ref(gate * x1, d["outer_w"], d["outer_b"])


# ---------------------------------------------------------------------------
# Warp
# ---------------------------------------------------------------------------


def warp_ref(m, u):
    """Per-voxel 8-corner trilinear sampling at v + u(v) with border clamping."""
    c = m.shape[0]
    exts = m.shape[1:]
    out = np.zeros_like(np.asarray(m, dtype=np.float64))
    for z, y, xx in product(*(range(e) for e in exts)):
        pos = np.array([z, y, xx], dtype=np.float64) + u[:, z, y, xx]
        idx0, idx1, frac = [], [], []
        for ax in range(3):
            hi = exts[ax] - 1
            pc = min(max(float(pos[ax]), 0.0), float(hi))
            lo = int(np.floor(pc))
            lo = min(lo, exts[ax] - 2) if exts[ax] > 1 else 0
            idx0.append(lo)
            idx1.append(min(lo + 1, hi))
            frac.append(pc - lo)
        for bz, by, bx in product((0, 1), repeat=3):
            wgt = (
                (frac[0] if bz else 1 - frac[0])
                * (frac[1] if by else 1 - frac[1])
                * (frac[2] if bx else 1 - frac[2])
            )
            src = (
                idx1[0] if bz else idx0[0],
                idx1[1] if by else idx0[1],
                idx1[2] if bx else idx0[2],
            )
            for ch in range(c):
                out[ch, z, y, xx] += wgt * m[(ch,) + src]
    return out


# ---------------------------------------------------------------------------
# Losses and metrics
# ---------------------------------------------------------------------------


def box_sum_ref(x, k):
    """Sum of each valid k-cube window, per channel, by explicit window loops."""
    c = x.shape[0]
    out = np.zeros((c,) + tuple(e - k + 1 for e in x.shape[1:]))
    for ch, z, y, xx in product(range(c), *(range(e) for e in out.shape[1:])):
        out[ch, z, y, xx] = x[ch, z:z + k, y:y + k, xx:xx + k].sum()
    return out


def ncc_ref(f, w, window=5, eps=1e-5):
    """1 - mean of windowed squared NCC; cube sums per valid window position."""
    n = window ** 3
    exts = f.shape
    ccs = []
    for z, y, xx in product(*(range(e - window + 1) for e in exts)):
        cf = f[z:z + window, y:y + window, xx:xx + window]
        cw = w[z:z + window, y:y + window, xx:xx + window]
        sf, sw = cf.sum(), cw.sum()
        cross = (cf * cw).sum() - sf * sw / n
        var_f = (cf * cf).sum() - sf * sf / n
        var_w = (cw * cw).sum() - sw * sw / n
        ccs.append(cross * cross / (var_f * var_w + eps))
    return 1.0 - float(np.mean(ccs))


def smoothness_ref(u):
    """Sum over axes of the mean squared forward difference of the field."""
    total = 0.0
    for axis in (1, 2, 3):
        d = np.diff(u, axis=axis)
        total += float((d * d).mean())
    return total


def ssim_ref(a, b, window=7, sigma=1.5):
    """Per-window-position Gaussian-weighted SSIM, looped."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    half = (window - 1) / 2.0
    g1 = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma ** 2))
    g1 /= g1.sum()
    kern = g1[:, None, None] * g1[None, :, None] * g1[None, None, :]
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    span = hi - lo
    if span == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    vals = []
    for z, y, xx in product(*(range(e - window + 1) for e in a.shape)):
        ca = a[z:z + window, y:y + window, xx:xx + window]
        cb = b[z:z + window, y:y + window, xx:xx + window]
        mx = (kern * ca).sum()
        my = (kern * cb).sum()
        vx = (kern * ca * ca).sum() - mx * mx
        vy = (kern * cb * cb).sum() - my * my
        cov = (kern * ca * cb).sum() - mx * my
        vals.append(
            ((2 * mx * my + c1) * (2 * cov + c2))
            / ((mx * mx + my * my + c1) * (vx + vy + c2))
        )
    return float(np.mean(vals))


def surface_ref(mask):
    """Mask voxels with a non-mask 6-neighbor; outside the volume counts as non-mask."""
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    exts = mask.shape
    for z, y, xx in product(*(range(e) for e in exts)):
        if not mask[z, y, xx]:
            continue
        for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nz, ny, nx = z + dz, y + dy, xx + dx
            if not (0 <= nz < exts[0] and 0 <= ny < exts[1] and 0 <= nx < exts[2]):
                out[z, y, xx] = True
                break
            if not mask[nz, ny, nx]:
                out[z, y, xx] = True
                break
    return out


def hd95_ref(mask_a, mask_b):
    """All-pairs directed surface distances, pooled, 95th percentile."""
    sa = np.argwhere(surface_ref(mask_a)).astype(np.float64)
    sb = np.argwhere(surface_ref(mask_b)).astype(np.float64)
    d2 = ((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=2)
    dmat = np.sqrt(d2)
    pooled = np.concatenate([dmat.min(axis=1), dmat.min(axis=0)])
    return float(np.percentile(pooled, 95))


def sdlogj_ref(u):
    """Central-difference Jacobians per interior voxel via np.linalg.det."""
    u = np.asarray(u, dtype=np.float64)
    exts = u.shape[1:]
    dets = []
    for z, y, xx in product(*(range(1, e - 1) for e in exts)):
        jac = np.eye(3)
        for i in range(3):
            jac[i, 0] += 0.5 * (u[i, z + 1, y, xx] - u[i, z - 1, y, xx])
            jac[i, 1] += 0.5 * (u[i, z, y + 1, xx] - u[i, z, y - 1, xx])
            jac[i, 2] += 0.5 * (u[i, z, y, xx + 1] - u[i, z, y, xx - 1])
        dets.append(np.linalg.det(jac))
    dets = np.array(dets)
    positive = dets > 0
    frac_bad = float(1.0 - positive.mean())
    return float(np.std(np.log(dets[positive]))), frac_bad


# ---------------------------------------------------------------------------
# Full-volume metric formulations (exact references for cropped fast paths)
# ---------------------------------------------------------------------------


def windowed_mean_full_ref(a, kern1d):
    """Separable windowed mean: filter the whole volume along each axis, then
    crop the invalid border once at the end."""
    r = (kern1d.size - 1) // 2
    out = a
    for axis in range(3):
        out = ndimage.correlate1d(out, kern1d, axis=axis, mode="constant")
    return out[r:-r, r:-r, r:-r] if r else out


def hd95_edt_ref(mask_a, mask_b):
    """HD95 from exact Euclidean distance transforms of the whole volume;
    surfaces by 6-neighbor erosion with the border counted as background."""
    surf_a = surface_erosion_ref(mask_a)
    surf_b = surface_erosion_ref(mask_b)
    dist_to_b = ndimage.distance_transform_edt(~surf_b)
    dist_to_a = ndimage.distance_transform_edt(~surf_a)
    pooled = np.concatenate([dist_to_b[surf_a], dist_to_a[surf_b]])
    return float(np.percentile(pooled, 95))


def sdlogj_whole_volume_ref(u):
    """SDlogJ and the folding fraction of u [3, D, H, W] with the float64
    Jacobian [3, 3, D-2, H-2, W-2] and its determinant held for the whole
    interior at once: the formulation that the engine's z-slabs replaced.
    Returns (sdlogj, folding_fraction); raises UndefinedMetricError when no
    determinant is positive."""
    from nestreg import UndefinedMetricError

    jac = np.empty((3, 3) + tuple(e - 2 for e in u.shape[1:]), dtype=np.float64)
    for j in range(3):
        fwd = [slice(None)] + [slice(1, -1)] * 3
        bwd = [slice(None)] + [slice(1, -1)] * 3
        fwd[j + 1] = slice(2, None)
        bwd[j + 1] = slice(None, -2)
        np.subtract(u[tuple(fwd)], u[tuple(bwd)], out=jac[:, j], dtype=np.float64)
    jac *= 0.5
    for j in range(3):
        jac[j, j] += 1.0
    a, b, c = jac[0]
    d, e, f = jac[1]
    g, h, i = jac[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    positive = det > 0
    frac_bad = float(1.0 - positive.mean())
    if not positive.any():
        raise UndefinedMetricError("sdlogj undefined: no voxel has positive Jacobian")
    return float(np.std(np.log(det[positive]))), frac_bad


# ---------------------------------------------------------------------------
# Earlier kernel formulations (exact references for restructured kernels)
# ---------------------------------------------------------------------------


def surface_erosion_ref(mask):
    """6-neighbor surface as the mask minus its binary erosion, the border
    counted as background: the formulation the engine's slicing replaced."""
    mask = np.asarray(mask, dtype=bool)
    six = ndimage.generate_binary_structure(3, 1)
    return mask & ~ndimage.binary_erosion(mask, structure=six, border_value=0)


def windowed_mean_correlate_ref(a, kern1d):
    """Separable windowed mean with ``correlate1d`` along all three axes, each
    pass cropped to its valid range before the next: the formulation the
    engine's band products replaced."""
    r = (kern1d.size - 1) // 2
    out = a
    for axis in range(3):
        out = ndimage.correlate1d(out, kern1d, axis=axis, mode="constant")
        if r:
            out = out[(slice(None),) * axis + (slice(r, -r),)]
    return out


def ssim_pair_ref(a, b, window=7, sigma=1.5):
    """SSIM of one pair of float64 [D,H,W] volumes with every windowed mean
    (both volumes' included) taken per call, in the order the metric used
    before a batch shared the fixed volume's terms."""
    lo = min(a.min(), b.min())
    span = max(a.max(), b.max()) - lo
    if span == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    c1 = (0.01 * span) ** 2
    c2 = (0.03 * span) ** 2
    x = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k /= k.sum()
    mu_a = windowed_mean_correlate_ref(a, k)
    mu_b = windowed_mean_correlate_ref(b, k)
    var_a = windowed_mean_correlate_ref(a * a, k) - mu_a * mu_a
    var_b = windowed_mean_correlate_ref(b * b, k) - mu_b * mu_b
    cov = windowed_mean_correlate_ref(a * b, k) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def box_sum_prefix_ref(x, k):
    """Valid k-wide window sums over the last three axes by float64 prefix
    sums, one axis at a time, each differenced at distance k, cast back to
    x's dtype: the kernel that the engine's log-step doubling replaced."""
    def along(ax, sl):
        key = [slice(None)] * x.ndim
        key[ax] = sl
        return tuple(key)

    out = x.astype(np.float64, copy=False)
    for ax in (-3, -2, -1):
        shape = list(out.shape)
        shape[ax] += 1
        c = np.zeros(shape)  # c[i] = sum of the first i planes
        np.cumsum(out, axis=ax, out=c[along(ax, slice(1, None))])
        out = c[along(ax, slice(k, None))] - c[along(ax, slice(None, -k))]
    return out.astype(x.dtype)


def box_sum_adjoint_pad_ref(g, k):
    """The adjoint of a valid k-wide box sum over the last three axes: g
    zero-padded by k-1 on every side, then summed over every valid window,
    one axis at a time as k shifted slices, in float64, cast back to g's
    dtype: the kernel that the engine's transposed band products replaced."""
    out = np.pad(g.astype(np.float64), ((0, 0),) * (g.ndim - 3) + ((k - 1, k - 1),) * 3)
    for ax in (-3, -2, -1):
        n = out.shape[ax] - k + 1
        out = sum(np.take(out, np.arange(t, t + n), axis=ax) for t in range(k))
    return out.astype(g.dtype)


def depthwise_shift_ref(x, w, padding, dilation=1):
    """Depthwise stride-1 conv3d as a sum of shifted slices of the padded
    input, one slice per kernel offset in row-major offset order, in the
    input's dtype: the kernel that the engine's flat-buffer kernels replaced.
    x [C,D,H,W], w [C,1,kd,kh,kw]; returns (out, vjp) with vjp(g) -> (gx, gw)."""
    pads = _pad_pairs(padding)
    dils = _triple(dilation)
    xp = np.pad(x, ((0, 0),) + pads)
    kern = w.shape[2:]
    out_ext = tuple(xp.shape[1 + a] - dils[a] * (kern[a] - 1) for a in range(3))
    per_axis = [[slice(j * d, j * d + o) for j in range(k)] for k, d, o in zip(kern, dils, out_ext)]
    taps = [(slice(None),) + t for t in product(*per_axis)]
    c = x.shape[0]
    wdw = w.reshape(c, -1)[:, :, None, None, None]
    out = np.zeros((c,) + out_ext, dtype=x.dtype)
    for i, t in enumerate(taps):
        out += wdw[:, i] * xp[t]

    def vjp(g):
        gw = np.empty((c, len(taps)), dtype=w.dtype)
        gxp = np.zeros_like(xp)
        for i, t in enumerate(taps):
            gw[:, i] = (g * xp[t]).sum(axis=(1, 2, 3))
            gxp[t] += g * wdw[:, i]
        keep = tuple(slice(lo, lo + e) for (lo, _hi), e in zip(pads, x.shape[1:]))
        return gxp[(slice(None),) + keep], gw.reshape(w.shape)

    return out, vjp


def depthwise_live_ref(kern, dils, pads, out_ext, spatial, py, px):
    """(flat kernel index, flat shift) of the depthwise offsets that read some
    input, by testing every offset on all three axes: the list the engine
    built before it took the product of per-axis ranges."""
    live = []
    for i, js in enumerate(product(*map(range, kern))):
        if all(
            max(0, lo - j * d) < min(o, e + lo - j * d)
            for j, d, (lo, _hi), o, e in zip(js, dils, pads, out_ext, spatial)
        ):
            live.append((i, js[0] * dils[0] * py * px + js[1] * dils[1] * px + js[2] * dils[2]))
    return live


def warp_gather_ref(m, u):
    """The trilinear warp's forward of m [C,D,H,W] by u [3,D,H,W] with the
    corners gathered by three-array fancy indexing, in the input's dtype:
    the gather that the engine's flat-index ``np.take`` replaced."""
    exts = m.shape[1:]
    pos = np.indices(exts, dtype=m.dtype) + u
    i0 = np.empty((3,) + exts, dtype=np.intp)
    i1 = np.empty_like(i0)
    frac = np.empty_like(pos)
    for ax in range(3):
        hi = exts[ax] - 1
        posc = np.clip(pos[ax], 0.0, hi)
        lo = np.floor(posc).astype(np.intp)
        if exts[ax] > 1:
            np.minimum(lo, exts[ax] - 2, out=lo)
        i0[ax] = lo
        i1[ax] = np.minimum(lo + 1, hi)
        frac[ax] = posc - lo
    wsel = [(1.0 - f, f) for f in frac]
    out = np.zeros_like(m)
    for bz, by, bx in product((0, 1), repeat=3):
        iz, iy, ix = (i1[0] if bz else i0[0], i1[1] if by else i0[1], i1[2] if bx else i0[2])
        out += m[:, iz, iy, ix] * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])
    return out


def dense_einsum_ref(x, w, stride=1, padding=0, dilation=1, groups=1):
    """Dense conv3d (no bias) of x [C,D,H,W] or [B,C,D,H,W] by w [O,I,kd,kh,kw]
    as einsum contractions over a sliding-window view of the padded input,
    in the input's dtype: the kernel that the engine's column-matrix GEMM
    replaced. Returns (out, vjp) with vjp(g) -> (gx, gw)."""
    pads = _pad_pairs(padding)
    strides, dils = _triple(stride), _triple(dilation)
    lead, cin, spatial = x.shape[:-4], x.shape[-4], x.shape[-3:]
    cout, cin_g, kd, kh, kw = w.shape
    kern = (kd, kh, kw)
    xp = np.pad(x, ((0, 0),) * (x.ndim - 3) + pads)
    out_ext = tuple(
        (xp.shape[-3 + a] - dils[a] * (kern[a] - 1) - 1) // strides[a] + 1 for a in range(3)
    )
    per_axis = [
        [slice(j * d, j * d + s * (o - 1) + 1, s) for j in range(k)]
        for k, d, s, o in zip(kern, dils, strides, out_ext)
    ]
    taps = [(Ellipsis,) + t for t in product(*per_axis)]
    win = np.lib.stride_tricks.sliding_window_view(
        xp, tuple(dils[a] * (kern[a] - 1) + 1 for a in range(3)), axis=(-3, -2, -1)
    )
    win = win[..., :: strides[0], :: strides[1], :: strides[2], :: dils[0], :: dils[1], :: dils[2]]
    vg = win.reshape(lead + (groups, cin_g) + win.shape[-6:])
    wg = w.reshape(groups, cout // groups, cin_g, kd, kh, kw)
    out = np.einsum("goiabc,...gizyxabc->...gozyx", wg, vg, optimize=True)
    out = np.ascontiguousarray(out.reshape(lead + (cout,) + out_ext))

    def vjp(g):
        go = g.reshape(lead + (groups, cout // groups) + out_ext)
        gxp = np.zeros_like(xp)
        gw = None
        for b in np.ndindex(lead):
            part = np.einsum("gozyx,gizyxabc->goiabc", go[b], vg[b], optimize=True)
            gw = part if gw is None else gw + part
            gcols = np.einsum("gozyx,goiabc->giabczyx", go[b], wg, optimize=True)
            gcols = gcols.reshape((cin, len(taps)) + out_ext)
            for i, t in enumerate(taps):
                gxp[b][t] += gcols[:, i]
        keep = tuple(slice(lo, lo + e) for (lo, _hi), e in zip(pads, spatial))
        return gxp[(Ellipsis,) + keep], gw.reshape(w.shape)

    return out, vjp


def upsample_take_ref(x, factors):
    """Trilinear upsampling of x [..., D, H, W] one axis at a time, each a
    gather of both neighbors by ``np.take`` and a lerp, in the input's dtype:
    the forward that the engine's interpolation-matrix product replaced."""
    factors = (factors,) * 3 if np.isscalar(factors) else tuple(factors)
    scalar = x.dtype.type
    for ax, f in zip((-3, -2, -1), factors):
        if f == 1:
            continue
        n = x.shape[ax]
        pos = (np.arange(n * f, dtype=x.dtype) + scalar(0.5)) / scalar(f) - scalar(0.5)
        pos = np.clip(pos, 0.0, n - 1)
        i0 = np.floor(pos).astype(np.intp)
        if n > 1:
            i0 = np.minimum(i0, n - 2)
        i1 = np.minimum(i0 + 1, n - 1)
        wshape = [1, 1, 1]
        wshape[ax] = n * f
        w = (pos - i0).astype(x.dtype).reshape(wshape)
        x = np.take(x, i0, axis=ax) * (1.0 - w) + np.take(x, i1, axis=ax) * w
    return x


def warp_corner_index_ref(m, u):
    """The trilinear warp of m [..., C, D, H, W] by u [..., 3, D, H, W] with
    each corner's flat index summed from per-axis lower/upper index arrays
    and the clamp's derivative mask stored on the forward, in the input's
    dtype: the warp that the engine's one base index replaced. Returns
    (out, vjp) with vjp(g) -> (gm, gu)."""
    exts = m.shape[-3:]
    pos = np.moveaxis(np.indices(exts, dtype=m.dtype) + u, -4, 0)
    live = np.empty(pos.shape, dtype=bool)
    posc = np.empty_like(pos)
    i0 = np.empty(pos.shape, dtype=np.intp)
    i1 = np.empty_like(i0)
    frac = np.empty_like(pos)
    steps = (exts[1] * exts[2], exts[2], 1)
    for ax in range(3):
        hi = exts[ax] - 1
        live[ax] = (pos[ax] > 0.0) & (pos[ax] < hi)
        posc[ax] = np.clip(pos[ax], 0.0, hi)
        lo = np.floor(posc[ax]).astype(np.intp)
        if exts[ax] > 1:
            np.minimum(lo, exts[ax] - 2, out=lo)
        frac[ax] = posc[ax] - lo
        i0[ax] = lo * steps[ax]
        i1[ax] = np.minimum(lo + 1, hi) * steps[ax]
    wz1, wy1, wx1 = np.expand_dims(frac, -4)
    wsel = ((1.0 - wz1, wz1), (1.0 - wy1, wy1), (1.0 - wx1, wx1))
    nvox = exts[0] * steps[0]
    rows = (np.arange(m.size // nvox) * nvox).reshape(m.shape[:-3] + (1, 1, 1))
    flat = m.ravel()

    def corner_index(bz, by, bx):
        iz, iy, ix = (i1[0] if bz else i0[0], i1[1] if by else i0[1], i1[2] if bx else i0[2])
        return np.expand_dims(iz + iy + ix, -4) + rows

    corners = {key: np.take(flat, corner_index(*key)) for key in product((0, 1), repeat=3)}
    out = np.zeros_like(m)
    for (bz, by, bx), val in corners.items():
        out += val * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])

    def vjp(g):
        idx, parts = [], []
        for bz, by, bx in corners:
            idx.append(corner_index(bz, by, bx))
            parts.append(g * (wsel[0][bz] * wsel[1][by] * wsel[2][bx]))
        gm = np.bincount(
            np.ravel(idx), weights=np.ravel(parts), minlength=m.size
        ).astype(m.dtype).reshape(m.shape)
        gu = np.zeros_like(pos)
        for by, bx in product((0, 1), repeat=2):
            diff = corners[(1, by, bx)] - corners[(0, by, bx)]
            gu[0] += (g * diff * (wsel[1][by] * wsel[2][bx])).sum(axis=-4)
        for bz, bx in product((0, 1), repeat=2):
            diff = corners[(bz, 1, bx)] - corners[(bz, 0, bx)]
            gu[1] += (g * diff * (wsel[0][bz] * wsel[2][bx])).sum(axis=-4)
        for bz, by in product((0, 1), repeat=2):
            diff = corners[(bz, by, 1)] - corners[(bz, by, 0)]
            gu[2] += (g * diff * (wsel[0][bz] * wsel[1][by])).sum(axis=-4)
        gu *= live
        return gm, np.ascontiguousarray(np.moveaxis(gu, 0, -4))

    return out, vjp


def warp_whole_volume_ref(m, u):
    """The trilinear warp of m [..., C, D, H, W] by u [..., 3, D, H, W] with
    every temporary at full volume size (the position grid from
    ``np.indices``, ``frac`` promoted through float64 and rounded back), in
    the input's dtype: the warp that the engine's z-slabs replaced. Returns
    (out, vjp) with vjp(g) -> (gm, gu)."""
    exts = m.shape[-3:]
    dtype = m.dtype
    pos = np.moveaxis(np.indices(exts, dtype=dtype) + u, -4, 0)
    posc = np.empty_like(pos)
    frac = np.empty_like(pos)
    base = np.zeros(pos.shape[1:], dtype=np.intp)
    steps = (exts[1] * exts[2], exts[2], 1)
    for ax in range(3):
        posc[ax] = np.clip(pos[ax], 0.0, exts[ax] - 1)
        lo = np.floor(posc[ax]).astype(np.intp)
        if exts[ax] > 1:
            np.minimum(lo, exts[ax] - 2, out=lo)
        frac[ax] = posc[ax] - lo
        base += lo * steps[ax]
    up = [s if e > 1 else 0 for s, e in zip(steps, exts)]
    shift = {(bz, by, bx): bz * up[0] + by * up[1] + bx * up[2] for bz, by, bx in product((0, 1), repeat=3)}
    wz1, wy1, wx1 = np.expand_dims(frac, -4)
    wsel = ((1.0 - wz1, wz1), (1.0 - wy1, wy1), (1.0 - wx1, wx1))
    nvox = exts[0] * steps[0]
    rows = (np.arange(m.size // nvox) * nvox).reshape(m.shape[:-3] + (1, 1, 1))
    idx = np.expand_dims(base, -4) + rows
    flat = m.ravel()
    corners = {key: np.take(flat[k:], idx) for key, k in shift.items()}
    out = np.zeros_like(m)
    for (bz, by, bx), val in corners.items():
        out += val * (wsel[0][bz] * wsel[1][by] * wsel[2][bx])

    def vjp(g):
        parts = [g * (wsel[0][bz] * wsel[1][by] * wsel[2][bx]) for bz, by, bx in shift]
        gm = np.bincount(
            np.ravel([idx + k for k in shift.values()]), weights=np.ravel(parts), minlength=m.size
        ).astype(dtype).reshape(m.shape)
        gu = np.zeros_like(pos)
        for by, bx in product((0, 1), repeat=2):
            diff = corners[(1, by, bx)] - corners[(0, by, bx)]
            gu[0] += (g * diff * (wsel[1][by] * wsel[2][bx])).sum(axis=-4)
        for bz, bx in product((0, 1), repeat=2):
            diff = corners[(bz, 1, bx)] - corners[(bz, 0, bx)]
            gu[1] += (g * diff * (wsel[0][bz] * wsel[2][bx])).sum(axis=-4)
        for bz, by in product((0, 1), repeat=2):
            diff = corners[(bz, by, 1)] - corners[(bz, by, 0)]
            gu[2] += (g * diff * (wsel[0][bz] * wsel[1][by])).sum(axis=-4)
        for ax in range(3):
            gu[ax] *= (pos[ax] > 0.0) & (pos[ax] < exts[ax] - 1)
        return gm, np.ascontiguousarray(np.moveaxis(gu, 0, -4))

    return out, vjp


# ---------------------------------------------------------------------------
# Sequential compositions (exact references for overlapped ones)
# ---------------------------------------------------------------------------


def register_ref(model, moving, fixed):
    """``register`` of two Volumes one step after another on the calling
    thread: the forward, the composite loss, SDlogJ, then SSIM and HD95 of
    the moving volume, then of the warped volume, against the fixed one.
    Returns (field, warped, report)."""
    from nestreg import metrics
    from nestreg.losses import composite_loss

    moving = moving.astype(model.config.precision)
    fixed = fixed.astype(model.config.precision)
    field = model.forward(moving, fixed)
    out = composite_loss(fixed, moving, field, model.config)
    jac = metrics.sdlogj(field)
    fixed_mask = metrics.mask_from_volume(fixed)
    ssim_initial = metrics.ssim(moving, fixed)
    hd95_initial = metrics.hd95(metrics.mask_from_volume(moving), fixed_mask)
    ssim_final = metrics.ssim(out.warped, fixed)
    hd95_final = metrics.hd95(metrics.mask_from_volume(out.warped), fixed_mask)
    report = metrics.RegistrationReport(
        ssim_initial=ssim_initial,
        ssim=ssim_final,
        hd95_initial=hd95_initial,
        hd95=hd95_final,
        sdlogj=jac.sdlogj,
        folding_fraction=jac.folding_fraction,
        ncc=1.0 - out.similarity.item(),
        loss_total=out.total.item(),
        loss_similarity=out.similarity.item(),
        loss_smoothness=out.smoothness.item(),
    )
    report.validate()
    return field, out.warped, report
