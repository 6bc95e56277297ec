"""Brute-force reference implementations used to cross-check the engine.

Every function here is a literal transcription of the defining equation,
written with explicit loops and none of the code under test.  They are slow
on purpose; call them only on tiny inputs.  All work happens in float64.

The last section is the exception: full-volume formulations of metric steps
that the engine now runs on less data. They are fast enough for 64^3 inputs
and are compared with ``==``, because the engine's results must not move.
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


def _conv_geometry(x, w, stride, padding, dilation):
    """Padded float64 input, per-axis (stride, dilation) and output extents."""

    def triple(v):
        return (v, v, v) if np.isscalar(v) else tuple(v)

    pads = padding
    if np.isscalar(pads):
        pads = ((pads, pads),) * 3
    else:
        pads = tuple((p, p) if np.isscalar(p) else tuple(p) for p in pads)
    steps = tuple(zip(triple(stride), triple(dilation)))
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
    k = p.kernel
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
    six = ndimage.generate_binary_structure(3, 1)
    surf_a = mask_a & ~ndimage.binary_erosion(mask_a, structure=six, border_value=0)
    surf_b = mask_b & ~ndimage.binary_erosion(mask_b, structure=six, border_value=0)
    dist_to_b = ndimage.distance_transform_edt(~surf_b)
    dist_to_a = ndimage.distance_transform_edt(~surf_a)
    pooled = np.concatenate([dist_to_b[surf_a], dist_to_a[surf_b]])
    return float(np.percentile(pooled, 95))
