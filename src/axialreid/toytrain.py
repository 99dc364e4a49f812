"""Desk-scale end-to-end demo: a small conv backbone with coarse-to-fine axial
attention inserted, trained on a synthetic video-identity dataset with the
triplet + cross-entropy recipe, then evaluated with the retrieval protocol.

Everything is seeded; a run is bitwise reproducible at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention as att
from . import aggregation as agg
from . import evaluate as ev
from .errors import ConfigurationError, DimensionError, ValidationError
from .tensor import Rng

SGD_MOMENTUM = 0.9
TRIPLET_MARGIN = 0.3
LR_DECAY_AFTER = 0.75  # fraction of the epochs after which the learning rate drops 10x

# ---------------------------------------------------------------------------
# layers for the toy backbone


class Layer:
    """forward(x, training) -> y caches what backward reads only when training,
    so an eval-mode forward keeps nothing; backward(dy) -> dx then stores the
    gradient of each parameter attribute p in PARAMS as d_p. named_params and
    named_grads yield them as ("<prefix>.p", array) pairs."""

    PARAMS: tuple[str, ...] = ()

    def named_params(self, prefix: str):
        return ((f"{prefix}.{p}", getattr(self, p)) for p in self.PARAMS)

    def named_grads(self, prefix: str):
        return ((f"{prefix}.{p}", getattr(self, f"d_{p}")) for p in self.PARAMS)


class Conv2d(Layer):
    """3x3 / 1x1 convolution without bias, stride s, zero padding. Each of the
    k*k taps is one stacked per-frame matmul, weight[:, :, di, dj] (O, C) times
    the tap's strided window of the padded input (B, C, Ho*Wo)."""

    PARAMS = ("weight",)

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, rng: Rng):
        fan_in = c_in * kernel * kernel
        self.weight = rng.uniform_init((c_out, c_in, kernel, kernel), fan_in)
        self.stride = stride
        self.pad = kernel // 2
        self._cache = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        b, c, h, w = x.shape
        k, s, p = self.weight.shape[2], self.stride, self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        o = self.weight.shape[0]
        out = np.zeros((b, o, ho * wo))
        for di in range(k):
            for dj in range(k):
                xs = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s].reshape(b, c, ho * wo)
                out += self.weight[:, :, di, dj] @ xs
        self._cache = (xp, x.shape, ho, wo) if training else None
        return out.reshape(b, o, ho, wo)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp, x_shape, ho, wo = self._cache
        k, s, p = self.weight.shape[2], self.stride, self.pad
        (o, c), b = self.weight.shape[:2], x_shape[0]
        g = dy.reshape(b, o, ho * wo)
        d_w = self.d_weight = np.zeros_like(self.weight)
        d_xp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                tap = (slice(None), slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s))
                xs = xp[tap].reshape(b, c, ho * wo)
                d_w[:, :, di, dj] = (g @ xs.transpose(0, 2, 1)).sum(0)
                d_xp[tap] += (self.weight[:, :, di, dj].T @ g).reshape(b, c, ho, wo)
        return d_xp[:, :, p : p + x_shape[2], p : p + x_shape[3]] if p else d_xp


class BatchNorm(Layer):
    """Batch normalization over (N, C) or (N, C, H, W) inputs: statistics per
    channel (axis 1), reduced over every other axis, with learned affine and
    running estimates. Training mode normalizes with batch statistics and
    updates the running estimates; eval mode uses the running estimates."""

    PARAMS = ("gamma", "beta")

    def __init__(self, dim: int, momentum: float = 0.1):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.eps, self.momentum = 1e-5, momentum
        self._cache = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        axes = (0, *range(2, x.ndim))
        col = (-1,) + (1,) * (x.ndim - 2)  # a per-channel vector against axis 1
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(col)) * inv.reshape(col)
        self._cache = (xhat, inv, axes, col) if training else None
        return self.gamma.reshape(col) * xhat + self.beta.reshape(col)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Gradient through the batch statistics of the training-mode forward."""
        xhat, inv, axes, col = self._cache
        n = dy.size // dy.shape[1]
        self.d_gamma = (dy * xhat).sum(axis=axes)
        self.d_beta = dy.sum(axis=axes)
        d_xhat = dy * self.gamma.reshape(col)
        return (inv.reshape(col) / n) * (
            n * d_xhat
            - d_xhat.sum(axis=axes).reshape(col)
            - xhat * (d_xhat * xhat).sum(axis=axes).reshape(col)
        )


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class CfaaLayer(Layer):
    """Coarse-to-fine axial attention on (B*T, C, H, W) frame maps: each clip's
    T = cfg.axis_lengths[0] frames form one (C, T, H, W) volume, and the batch is
    one att.cfaa_forward call. A zero output projection makes it start as the identity."""

    def __init__(self, cfg: att.AttentionConfig, rng: Rng):
        self.cfg = cfg
        self.params = att.init_cfaa_params(cfg, rng, zero_output_proj=True)
        self._cache = None

    def named_params(self, prefix: str):
        return self.params.named(prefix)

    def named_grads(self, prefix: str):
        return self.d_params.named(prefix)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        t = self.cfg.axis_lengths[0]
        vols = x.reshape(x.shape[0] // t, t, *x.shape[1:]).transpose(0, 2, 1, 3, 4)  # (B, C, T, H, W)
        out = att.cfaa_forward(vols, self.params, self.cfg, want_cache=training)
        out, self._cache = out if training else (out, None)
        return out.transpose(0, 2, 1, 3, 4).reshape(x.shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        t = self.cfg.axis_lengths[0]
        d_vols = dy.reshape(dy.shape[0] // t, t, *dy.shape[1:]).transpose(0, 2, 1, 3, 4)
        d_in, self.d_params = att.cfaa_backward(d_vols, self.params, self._cache)
        return d_in.transpose(0, 2, 1, 3, 4).reshape(dy.shape)


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass
class Tracklet:
    identity: int
    camera: int
    tid: int
    frames: np.ndarray  # (F, 3, H, W)
    masks: np.ndarray  # (F, H, W)


@dataclass
class SyntheticIdentityDataset:
    """Colored-figure identities on camera-tinted textured backgrounds, with
    seeded jitter, occasional occluders, and padded columns mirroring the
    alignment pipeline's output. Fully determined by the seed."""

    num_ids: int = 20
    tracklets_per_id: int = 4
    frames_per_tracklet: int = 8
    hw: tuple[int, int] = (32, 16)
    seed: int = 0
    tracklets: list[Tracklet] = field(default_factory=list)
    palette: np.ndarray | None = None

    def __post_init__(self):
        rng = Rng(self.seed)
        if self.palette is None:
            self.palette = self._stratified_palette(rng.child(0))
        self.tracklets = []
        tid = 0
        for ident in range(self.num_ids):
            for k in range(self.tracklets_per_id):
                camera = k % 2
                self.tracklets.append(
                    self._make_tracklet(ident, camera, tid, rng.child(1, ident, k))
                )
                tid += 1

    def _stratified_palette(self, rng: Rng) -> np.ndarray:
        """Identity colors drawn from a jittered RGB lattice so no two identities
        nearly collide (uniform sampling does collide at 20 identities)."""
        levels = np.array([0.3, 0.62, 0.95])
        lattice = np.array([(r, g, b) for r in levels for g in levels for b in levels])
        order = rng.child(0).permutation(len(lattice))
        colors = [lattice[i] for i in order]
        while len(colors) < self.num_ids:
            colors.append(rng.child(1, len(colors)).uniform(0.25, 1.0, (3,)))
        palette = np.stack(colors[: self.num_ids])
        return np.clip(palette + rng.child(2).uniform(-0.04, 0.04, palette.shape), 0.0, 1.0)

    def _make_tracklet(self, ident: int, camera: int, tid: int, rng: Rng) -> Tracklet:
        h, w = self.hw
        f = self.frames_per_tracklet
        color = self.palette[ident]
        frames = np.empty((f, 3, h, w))
        masks = np.ones((f, h, w))
        base_y = int(rng.child(0).integers(4, 9))
        base_x = int(rng.child(1).integers(3, max(4, w - 10)))
        occlude = rng.child(2).uniform(0, 1) < 0.7
        occ_start = int(rng.child(3).integers(0, max(f - 3, 1)))
        pad_cols = int(rng.child(4).integers(0, 5)) if rng.child(5).uniform(0, 1) < 0.5 else 0
        pad_left = rng.child(6).uniform(0, 1) < 0.5
        distract = rng.child(8).uniform(0, 1) < 0.6
        distract_color = self.palette[int(rng.child(9).integers(0, self.num_ids))]
        tint = 0.15 + 0.2 * camera
        for i in range(f):
            frng = rng.child(7, i)
            bg = tint + frng.child(0).normal((3, h, w), scale=0.03)
            y = np.clip(base_y + int(frng.child(1).integers(-2, 3)), 0, h - 18)
            x = np.clip(base_x + int(frng.child(2).integers(-2, 3)), 0, w - 7)
            img = bg
            img[:, y : y + 18, x : x + 6] = color[:, None, None] + frng.child(3).normal((3, 18, 6), scale=0.02)
            img[:, y : y + 4, x + 1 : x + 5] = color[::-1, None, None] * 0.8
            if distract and frng.child(4).uniform(0, 1) < 0.5:
                # partial second person at a frame edge, in another identity's color
                dx = 0 if x > w // 2 else w - 4
                img[:, h - 14 : h - 2, dx : dx + 4] = distract_color[:, None, None]
            if occlude and occ_start <= i < occ_start + 3:
                img[:, y : y + 18, :] = 0.45  # occluder hides the whole figure
            if pad_cols:
                sl = slice(0, pad_cols) if pad_left else slice(w - pad_cols, w)
                img[:, :, sl] = 0.0
                masks[i, :, sl] = 0.0
            frames[i] = np.clip(img, 0.0, 1.2)
        return Tracklet(identity=ident, camera=camera, tid=tid, frames=frames, masks=masks)


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ToyModelSpec:
    channels: tuple[int, ...] = (32, 64, 64)
    strides: tuple[int, ...] = (2, 2, 1)
    frame_hw: tuple[int, int] = (32, 16)
    clip_len: int = 4
    num_classes: int = 20
    use_attention: bool = True
    attention_scales: int = 4
    attention_heads: int = 2

    def attention_config(self) -> att.AttentionConfig:
        h, w = (n // self.strides[0] for n in self.frame_hw)  # CF-AA follows block 0
        c = self.channels[0]
        return att.AttentionConfig(
            c_in=c, c_qk=c // 2, c_out=c,
            heads=self.attention_heads, scales=self.attention_scales,
            encoding="relative", axis_lengths=(self.clip_len, h, w),
        )


class ToyModel:
    """Backbone: (name, layer) pairs, 3x3 conv/BN/ReLU per block and CF-AA after
    block 0. Head: masked pooling, temporal mean, bn_feat, classifier."""

    def __init__(self, spec: ToyModelSpec, rng: Rng):
        self.spec = spec
        self.layers: list[tuple[str, Layer]] = []
        c_prev = 3
        for i, (c, s) in enumerate(zip(spec.channels, spec.strides)):
            self.layers += [(f"conv{i}", Conv2d(c_prev, c, 3, s, rng.child(0, i))),
                            (f"bn{i}", BatchNorm(c)), (f"relu{i}", ReLU())]
            if spec.use_attention and i == 0:
                self.layers.append(("attention", CfaaLayer(spec.attention_config(), rng.child(1))))
            c_prev = c
        self.bn_feat = BatchNorm(spec.channels[-1])
        self.classifier = rng.child(2).uniform_init((spec.num_classes, spec.channels[-1]), spec.channels[-1])
        self._cache = None

    def named_params(self):
        for name, layer in self.layers:
            yield from layer.named_params(name)
        yield from self.bn_feat.named_params("bn_feat")
        yield "classifier.weight", self.classifier

    def forward(self, frames: np.ndarray, masks: np.ndarray, training: bool):
        """frames (B, T, 3, H, W), masks (B, T, H, W) -> (f_pre, f_post, logits)."""
        b, t = frames.shape[:2]
        if self.spec.use_attention and t != self.spec.clip_len:
            raise DimensionError(f"clips of T={t} frames, but attention runs on clip_len={self.spec.clip_len}")
        x = frames.reshape(b * t, *frames.shape[2:])
        for _, layer in self.layers:
            x = layer.forward(x, training)
        small_masks = agg.mask_downsample(masks.reshape(b * t, *masks.shape[2:]), x.shape[2:])
        f_pre = agg.masked_avg_pool(x, small_masks).reshape(b, t, -1).mean(axis=1)  # (B, C)
        f_post = self.bn_feat.forward(f_pre, training)
        logits = f_post @ self.classifier.T
        self._cache = dict(t=t, small_masks=small_masks, f_post=f_post) if training else None
        return f_pre, f_post, logits

    def backward(self, d_f_pre: np.ndarray, d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a combined loss with d(loss)/d(f_pre) and
        d(loss)/d(logits), after a training-mode forward; returns name ->
        gradient matching named_params."""
        if self._cache is None:
            raise ConfigurationError("backward needs a training-mode forward; the last forward kept no cache")
        t = self._cache["t"]
        grads = {"classifier.weight": d_logits.T @ self._cache["f_post"]}
        d_f_pre = d_f_pre + self.bn_feat.backward(d_logits @ self.classifier)
        grads.update(self.bn_feat.named_grads("bn_feat"))
        d_pooled = np.repeat(d_f_pre, t, axis=0) / t  # temporal mean, one row per frame
        d_x = agg.masked_avg_pool_backward(d_pooled, self._cache["small_masks"])
        for name, layer in reversed(self.layers):
            d_x = layer.backward(d_x)
            grads.update(layer.named_grads(name))
        return grads


# ---------------------------------------------------------------------------
# training and retrieval


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)


def _sample_clip(track: Tracklet, clip_len: int, rng: Rng, flip: bool):
    f = track.frames.shape[0]
    start = int(rng.integers(0, f - clip_len + 1)) if f > clip_len else 0
    frames = track.frames[start : start + clip_len]
    masks = track.masks[start : start + clip_len]
    if flip:  # synchronized: every frame of the clip flips
        frames, masks = frames[..., ::-1], masks[..., ::-1]
    return frames.copy(), masks.copy()


def train(spec: ToyModelSpec, dataset: SyntheticIdentityDataset, epochs: int, seed: int,
          lr: float = 0.05, p_ids: int = 4, k_tracks: int = 2) -> tuple[ToyModel, TrainLog]:
    """SGD with momentum on cross-entropy + batch-hard triplet over p_ids x k_tracks
    batches; deterministic per seed. The learning rate drops 10x after LR_DECAY_AFTER."""
    if dataset.num_ids < p_ids or dataset.tracklets_per_id < k_tracks:
        raise ValidationError(
            f"cannot build {p_ids}x{k_tracks} batches from {dataset.num_ids} ids "
            f"x {dataset.tracklets_per_id} tracklets"
        )
    if dataset.frames_per_tracklet < spec.clip_len:
        raise ValidationError(
            f"tracklets of {dataset.frames_per_tracklet} frames are shorter than clip_len={spec.clip_len}"
        )
    use_triplet = p_ids >= 2  # a single-identity batch has no negatives: CE only
    if spec.num_classes != dataset.num_ids:
        raise ConfigurationError(f"classifier width {spec.num_classes} != {dataset.num_ids} identities")
    rng = Rng(seed)
    model = ToyModel(spec, rng.child(0))
    by_id: dict[int, list[Tracklet]] = {}
    for tr in dataset.tracklets:
        by_id.setdefault(tr.identity, []).append(tr)

    velocity = {name: np.zeros_like(p) for name, p in model.named_params()}
    log = TrainLog()
    for epoch in range(epochs):
        epoch_lr = lr * (0.1 if epochs > 1 and epoch >= LR_DECAY_AFTER * epochs else 1.0)
        erng = rng.child(1, epoch)
        id_order = erng.child(0).permutation(dataset.num_ids)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, dataset.num_ids - p_ids + 1, p_ids):
            brng = erng.child(1 + n_batches)
            batch, labels = [], []
            for slot, ident in enumerate(id_order[start : start + p_ids]):
                tracks = by_id[int(ident)]
                picks = brng.child(slot).choice(len(tracks), k_tracks, replace=False)
                for j, pick in enumerate(picks):
                    tr = tracks[int(pick)]
                    flip = bool(brng.child(10 + slot, j).uniform(0, 1) < 0.5)
                    frames, masks = _sample_clip(tr, spec.clip_len, brng.child(20 + slot, j), flip)
                    batch.append((frames, masks))
                    labels.append(tr.identity)
            frames = np.stack([f for f, _ in batch])
            masks = np.stack([m for _, m in batch])
            labels = np.asarray(labels)

            f_pre, _, logits = model.forward(frames, masks, training=True)
            ce_loss, d_logits = agg.cross_entropy(logits, labels)
            if use_triplet:
                tri_loss, d_f_pre = agg.batch_hard_triplet(f_pre, labels, margin=TRIPLET_MARGIN)
            else:
                tri_loss, d_f_pre = 0.0, np.zeros_like(f_pre)
            grads = model.backward(d_f_pre, d_logits)
            if lr != 0.0:
                for name, param in model.named_params():
                    v = velocity[name]
                    v *= SGD_MOMENTUM
                    v += grads[name]
                    param -= epoch_lr * v
            epoch_loss += ce_loss + tri_loss
            n_batches += 1
        log.epoch_losses.append(epoch_loss / max(n_batches, 1))
    return model, log


def tracklet_feature(model: ToyModel, track: Tracklet) -> np.ndarray:
    """Clip-split-and-average representation (post-BN feature, eval mode)."""
    clip = model.spec.clip_len
    f = track.frames.shape[0]
    if f < clip:
        raise ValidationError(f"tracklet {track.tid} has {f} frames, fewer than clip_len={clip}")
    used = f // clip * clip  # every clip of the tracklet in one eval-mode forward
    frames = track.frames[:used].reshape(-1, clip, *track.frames.shape[1:])
    masks = track.masks[:used].reshape(-1, clip, *track.masks.shape[1:])
    _, f_post, _ = model.forward(frames, masks, training=False)
    return f_post.mean(axis=0)


def retrieve(model: ToyModel, tracklets: list[Tracklet]) -> ev.EvalDataset:
    """Features per tracklet, Euclidean query x gallery distances; queries are
    the tracklets under camera 0, gallery is everything else."""
    queries = [t for t in tracklets if t.camera == 0]
    gallery = [t for t in tracklets if t.camera != 0]
    if not queries or not gallery:
        raise ValidationError("retrieval needs tracklets under at least two cameras")
    qf = np.stack([tracklet_feature(model, t) for t in queries])
    gf = np.stack([tracklet_feature(model, t) for t in gallery])
    dist = np.sqrt(np.maximum(
        (qf**2).sum(1)[:, None] + (gf**2).sum(1)[None, :] - 2.0 * qf @ gf.T, 0.0
    ))
    return ev.EvalDataset(
        queries=[ev.TrackletMeta(tid=t.tid, identity=t.identity + 1, camera=t.camera) for t in queries],
        gallery=[ev.TrackletMeta(tid=t.tid, identity=t.identity + 1, camera=t.camera) for t in gallery],
        distances=dist,
    )


def chance_baseline(spec: ToyModelSpec, dataset: SyntheticIdentityDataset, seeds=range(5)) -> list[float]:
    """Monte-Carlo rank-1 of untrained models (the documented chance level)."""
    out = []
    for s in seeds:
        model = ToyModel(spec, Rng(int(s)).child(0))
        res = ev.evaluate(retrieve(model, dataset.tracklets), "old")
        out.append(res.cmc_at(1))
    return out
