"""Fixture builders for the toy dataset and the candidate file format, the
slow references that optimised library paths are tested against (each one
the code that the optimised path replaced, so tests compare bit for bit),
and the multiply-count oracle that the FLOP model is tested against.

The library and the CLI only read candidate files; tests write them here."""

from pathlib import Path

import numpy as np

from axialreid import aggregation as agg
from axialreid import attention as att
from axialreid import detect_link as dl
from axialreid import flops
from axialreid import toytrain as tt
from axialreid.errors import ValidationError
from axialreid.tensor import Rng


def fresh_split(dataset: tt.SyntheticIdentityDataset, seed: int) -> tt.SyntheticIdentityDataset:
    """New tracklets of the same identities (same palette, new seed)."""
    return tt.SyntheticIdentityDataset(
        num_ids=dataset.num_ids,
        tracklets_per_id=dataset.tracklets_per_id,
        frames_per_tracklet=dataset.frames_per_tracklet,
        seed=seed,
        palette=dataset.palette,
    )


def write_candidate_file(path, records: dict[int, list[dl.CandidateBox]], dim: int) -> None:
    """The candidate file ``detect_link.read_candidate_file`` reads; records maps
    tracklet id -> candidate list (any frame order)."""
    lines = [f"D={dim}"]
    for tid in sorted(records):
        for c in sorted(records[tid], key=lambda c: c.frame):
            if c.feature.shape != (dim,):
                raise ValidationError(f"tracklet {tid}: feature dim {c.feature.shape} != {dim}")
            x, y, w, h = (float(v) for v in c.box)
            feat = "\t".join(repr(float(v)) for v in c.feature)
            lines.append(f"{tid}\t{c.frame}\t{x!r}\t{y!r}\t{w!r}\t{h!r}\t{float(c.confidence)!r}\t{feat}")
    Path(path).write_text("\n".join(lines) + "\n")


def resize_bilinear_oracle(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Reference for ``detect_link._resize_bilinear``: the 2-D double fancy
    index, gathering each of the four neighbours of every output pixel."""
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def rank_oracle(distances: np.ndarray) -> np.ndarray:
    """Reference for ``evaluate._rank``: a stable argsort of each row, so
    tied distances keep gallery order."""
    return np.argsort(distances, axis=1, kind="stable")


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Reference for ``attention._softmax``: one max reduction per row, then
    exp and normalise into new arrays, leaving logits as they are."""
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_backward(attn: np.ndarray, d_attn: np.ndarray) -> np.ndarray:
    """Reference for ``attention._softmax_backward``: one sum reduction per
    row, and the logit gradient as a new array, leaving d_attn as it is."""
    inner = (attn * d_attn).sum(axis=-1, keepdims=True)
    return attn * (d_attn - inner)


def offset_index(length: int) -> np.ndarray:
    """(L, L) map from a query/key pair [i, j] to the row j - i + L - 1 of a
    (2L-1, d) offset table."""
    return np.arange(length)[None, :] - np.arange(length)[:, None] + length - 1


def reference_gather_offsets(table: np.ndarray, length: int) -> np.ndarray:
    """Reference for ``attention._gather_offsets``: a fancy-index copy."""
    return table[offset_index(length)]


def reference_scatter_offsets(grad_full: np.ndarray, length: int) -> np.ndarray:
    """Reference for ``attention._scatter_offsets``: one ``np.add.at``."""
    out = np.zeros((2 * length - 1, grad_full.shape[-1]), dtype=np.float64)
    np.add.at(out, offset_index(length), grad_full)
    return out


def reference_batchnorm_forward(bn: tt.BatchNorm, x: np.ndarray, training: bool) -> np.ndarray:
    """Reference for ``toytrain.BatchNorm.forward`` with the same signature and
    cache: the batch variance from ``x.var``, and x centred a second time for
    xhat."""
    axes = (0, *range(2, x.ndim))
    col = (-1,) + (1,) * (x.ndim - 2)
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        bn.running_mean = (1 - tt.BN_MOMENTUM) * bn.running_mean + tt.BN_MOMENTUM * mean
        bn.running_var = (1 - tt.BN_MOMENTUM) * bn.running_var + tt.BN_MOMENTUM * var
    else:
        mean, var = bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean.reshape(col)) * inv.reshape(col)
    bn._cache = (xhat, inv, axes, col) if training else None
    return bn.gamma.reshape(col) * xhat + bn.beta.reshape(col)


def reference_model_backward(model: tt.ToyModel, d_f_pre: np.ndarray, d_logits: np.ndarray) -> dict:
    """Reference for ``toytrain.ToyModel.backward``: every layer's full
    backward, conv0's input gradient included."""
    t = model._cache["t"]
    grads = {"classifier.weight": d_logits.T @ model._cache["f_post"]}
    d_f_pre = d_f_pre + model.bn_feat.backward(d_logits @ model.classifier)
    grads.update(model.bn_feat.named_grads("bn_feat"))
    d_x = agg.masked_avg_pool_backward(np.repeat(d_f_pre, t, axis=0) / t, model._cache["small_masks"])
    for name, layer in reversed(model.layers):
        d_x = layer.backward(d_x)
        grads.update(layer.named_grads(name))
    return grads


def reference_conv_forward(conv: tt.Conv2d, x: np.ndarray, training: bool) -> np.ndarray:
    """Reference for ``toytrain.Conv2d.forward`` with the same signature and
    cache: ``np.pad``, and each tap's weight read as the strided
    ``weight[:, :, di, dj]``."""
    b, c, h, w = x.shape
    s = conv.stride
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
    o = conv.weight.shape[0]
    out = np.zeros((b, o, ho * wo))
    for di in range(3):
        for dj in range(3):
            xs = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s].reshape(b, c, ho * wo)
            out += conv.weight[:, :, di, dj] @ xs
    conv._cache = (xp, x.shape, ho, wo) if training else None
    return out.reshape(b, o, ho, wo)


def reference_conv_backward(conv: tt.Conv2d, dy: np.ndarray) -> np.ndarray:
    """Reference for ``toytrain.Conv2d.backward`` after ``reference_conv_forward``:
    d_x from the strided, transposed ``weight[:, :, di, dj].T``."""
    xp, x_shape, ho, wo = conv._cache
    s = conv.stride
    (o, c), b = conv.weight.shape[:2], x_shape[0]
    g = dy.reshape(b, o, ho * wo)
    d_w = conv.d_weight = np.zeros_like(conv.weight)
    d_xp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            tap = (slice(None), slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s))
            xs = xp[tap].reshape(b, c, ho * wo)
            d_w[:, :, di, dj] = (g @ xs.transpose(0, 2, 1)).sum(0)
            d_xp[tap] += (conv.weight[:, :, di, dj].T @ g).reshape(b, c, ho, wo)
    return d_xp[:, :, 1 : 1 + x_shape[2], 1 : 1 + x_shape[3]]


def reference_tracklet_feature(model: tt.ToyModel, track: tt.Tracklet) -> np.ndarray:
    """Reference for one row of ``toytrain.tracklet_features``: every clip of
    the one tracklet in its own eval-mode forward, and the mean of the post-BN
    features."""
    clip = tt.CLIP_LEN
    f = track.frames.shape[0]
    if f < clip:
        raise ValidationError(f"tracklet {track.tid} has {f} frames, fewer than clip_len={clip}")
    used = f // clip * clip
    frames = track.frames[:used].reshape(-1, clip, *track.frames.shape[1:])
    masks = track.masks[:used].reshape(-1, clip, *track.masks.shape[1:])
    _, f_post, _ = model.forward(frames, masks, training=False)
    return f_post.mean(axis=0)


def reference_rng(seed: int, keys: tuple[int, ...]) -> np.random.Generator:
    """Reference for the generator behind ``Rng(seed).child(*keys)``: numpy's
    SeedSequence handed the Python list, which it splits into words itself."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def reference_select_first_frame(candidates: list[dl.CandidateBox]) -> dl.CandidateBox:
    """Reference for ``detect_link.select_first_frame``: the argmax loop that
    moves only on a strictly larger (area, confidence)."""
    best = 0
    for i, c in enumerate(candidates[1:], 1):
        b = candidates[best]
        if (c.area, c.confidence) > (b.area, b.confidence):
            best = i
    return candidates[best]


def reference_link_frame(f_g: np.ndarray, candidates: list[dl.CandidateBox],
                         alpha: float) -> tuple[dl.CandidateBox, np.ndarray]:
    """Reference for ``detect_link.link_frame``: a full sort by (distance,
    -confidence, index), then the EMA as the old link-state update wrote it."""
    dists = [np.linalg.norm(c.feature - f_g) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (dists[i], -candidates[i].confidence, i))
    chosen = candidates[order[0]]
    return chosen, alpha * f_g + (1.0 - alpha) * chosen.feature


def reference_nonlocal_params(cfg: att.AttentionConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Reference for ``attention.init_nonlocal_params``: the four projections
    drawn one by one from children 0-3."""
    return {
        "w_q": rng.child(0).uniform_init((cfg.c_qk, cfg.c_in), cfg.c_in),
        "w_k": rng.child(1).uniform_init((cfg.c_qk, cfg.c_in), cfg.c_in),
        "w_v": rng.child(2).uniform_init((cfg.c_out, cfg.c_in), cfg.c_in),
        "w_o": rng.child(3).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out),
    }


def reference_mask_downsample(mask, target_hw: tuple[int, int]) -> np.ndarray:
    """Reference for ``aggregation.mask_downsample`` on 0/1 masks that pool
    to target_hw: the counts as one reshape and sum over the window axes."""
    mask = np.asarray(mask)
    t, h, w = mask.shape
    th, tw = target_hw
    fh, fw = h // th, w // tw
    window = float(fh * fw)
    counts = mask.reshape(t, th, fh, tw, fw).sum(axis=(2, 4))
    out = (counts > window / 2.0).astype(np.float64)
    dead = out.reshape(t, -1).sum(axis=1) == 0
    out[dead] = 1.0
    return out


def count_oracle_multiplies(variant: str, cfg: att.AttentionConfig, seed: int = 0) -> int:
    """Execute the attention kernels at the given config with an instrumented
    multiply counter; returns the measured score/value contraction multiplies,
    the measured side of ``flops.attention_contraction_count``."""
    rng = Rng(seed)
    x = rng.child(0).normal((cfg.c_in, *cfg.axis_lengths))
    if variant == "nonlocal3d":
        params = att.init_nonlocal_params(cfg, rng.child(1))
        with att.count_multiplies() as counter:
            att.nonlocal_3d_forward(x, params, cfg)
        return counter.total
    params = att.init_cfaa_params(cfg, rng.child(1))
    with att.count_multiplies() as counter:
        att.cfaa_forward(x, params, cfg)
    return counter.total


def reference_attention_layers(variant: str, cfg: att.AttentionConfig) -> list[tuple[int, int, int]]:
    """Reference for the layers ``flops._module_ops`` reads off
    ``attention.module_layers``, written out on its own: (positions, keys per
    query, input channels) of each attention layer in one module, the single
    3D layer or AA^H, AA^W, AA^T at every scale s, pooled by 2^s with ceiling
    division."""
    t, h, w = cfg.axis_lengths
    if variant == "nonlocal3d":
        return [(t * h * w, t * h * w, cfg.c_in)]
    c_in, c_out = cfg.c_in // cfg.scales, cfg.c_out // cfg.scales
    layers = []
    for s in range(cfg.scales):
        hs, ws = -(-h // 2**s), -(-w // 2**s)
        n = t * hs * ws
        layers += [(n, hs, c_in), (n, ws, c_out), (n, t, c_out)]
    return layers


def reference_module_ops(variant: str, cfg: att.AttentionConfig, per_head: bool, projections: bool) -> int:
    """Reference for ``flops._module_ops``: the same prices per query/key pair
    and per projection, summed over reference_attention_layers."""
    t, h, w = cfg.axis_lengths
    cqk, cout = cfg.c_qk // cfg.scales, cfg.c_out // cfg.scales
    per_pair = cqk + cout
    if cfg.encoding == "relative":
        per_pair += 2 * cqk + cout if per_head else 2 * (cqk // flops.TOTAL_HEADS) + cout // flops.TOTAL_HEADS
    elif cfg.encoding == "sinusoidal" and not per_head:
        per_pair += cqk // flops.TOTAL_HEADS
    ops = 0
    for n, keys, c_x in reference_attention_layers(variant, cfg):
        ops += n * keys * per_pair + (n * c_x * (2 * cqk + cout) if projections else 0)
    return ops + (t * h * w * cfg.c_out * cfg.c_in if projections else 0)
