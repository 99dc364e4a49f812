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
from .errors import ConfigurationError, ValidationError
from .tensor import Rng

# ---------------------------------------------------------------------------
# layers for the toy backbone


class Conv2d:
    """3x3 / 1x1 convolution without bias, stride s, zero padding. Each of the
    k*k taps is one stacked per-frame matmul, weight[:, :, di, dj] (O, C) times
    the tap's strided window of the padded input (B, C, Ho*Wo)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, rng: Rng):
        fan_in = c_in * kernel * kernel
        self.weight = rng.uniform_init((c_out, c_in, kernel, kernel), fan_in)
        self.stride = stride
        self.pad = kernel // 2
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
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
        self._cache = (xp, x.shape, ho, wo)
        return out.reshape(b, o, ho, wo)

    def backward(self, grad: np.ndarray):
        xp, x_shape, ho, wo = self._cache
        k, s, p = self.weight.shape[2], self.stride, self.pad
        (o, c), b = self.weight.shape[:2], x_shape[0]
        g = grad.reshape(b, o, ho * wo)
        d_w = np.zeros_like(self.weight)
        d_xp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                tap = (slice(None), slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s))
                xs = xp[tap].reshape(b, c, ho * wo)
                d_w[:, :, di, dj] = (g @ xs.transpose(0, 2, 1)).sum(0)
                d_xp[tap] += (self.weight[:, :, di, dj].T @ g).reshape(b, c, ho, wo)
        d_x = d_xp[:, :, p : p + x_shape[2], p : p + x_shape[3]] if p else d_xp
        return d_x, d_w


class BatchNorm:
    """Batch normalization over (N, C) or (N, C, H, W) inputs: statistics per
    channel (axis 1), reduced over every other axis, with learned affine and
    running estimates. Training mode normalizes with batch statistics and
    updates the running estimates; eval mode uses the running estimates."""

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.eps, self.momentum = eps, momentum
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
        self._cache = (xhat, inv, training, axes, col)
        return self.gamma.reshape(col) * xhat + self.beta.reshape(col)

    def backward(self, grad: np.ndarray):
        """Returns (d_x, d_gamma, d_beta)."""
        xhat, inv, training, axes, col = self._cache
        n = grad.size // grad.shape[1]
        d_gamma = (grad * xhat).sum(axis=axes)
        d_beta = grad.sum(axis=axes)
        d_xhat = grad * self.gamma.reshape(col)
        if training:
            d_x = (inv.reshape(col) / n) * (
                n * d_xhat
                - d_xhat.sum(axis=axes).reshape(col)
                - xhat * (d_xhat * xhat).sum(axis=axes).reshape(col)
            )
        else:
            d_x = d_xhat * inv.reshape(col)
        return d_x, d_gamma, d_beta


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


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

    def fresh_split(self, seed: int) -> "SyntheticIdentityDataset":
        """New tracklets of the same identities (same palette, new seed)."""
        return SyntheticIdentityDataset(
            num_ids=self.num_ids,
            tracklets_per_id=self.tracklets_per_id,
            frames_per_tracklet=self.frames_per_tracklet,
            hw=self.hw,
            seed=seed,
            palette=self.palette,
        )


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ToyModelSpec:
    channels: tuple[int, ...] = (32, 64, 64)
    strides: tuple[int, ...] = (2, 2, 1)
    kernel: int = 3
    frame_hw: tuple[int, int] = (32, 16)
    clip_len: int = 4
    num_classes: int = 20
    use_attention: bool = True
    attention_after_block: int = 0
    attention_scales: int = 4
    attention_heads: int = 2

    def attention_config(self) -> att.AttentionConfig | None:
        if not self.use_attention:
            return None
        h, w = self.frame_hw
        for s in self.strides[: self.attention_after_block + 1]:
            h, w = h // s, w // s
        c = self.channels[self.attention_after_block]
        return att.AttentionConfig(
            c_in=c, c_qk=c // 2, c_out=c,
            heads=self.attention_heads, scales=self.attention_scales,
            encoding="relative", axis_lengths=(self.clip_len, h, w),
        )


class ToyModel:
    def __init__(self, spec: ToyModelSpec, rng: Rng):
        self.spec = spec
        self.convs: list[Conv2d] = []
        self.bns: list[BatchNorm] = []
        self.relus: list[ReLU] = []
        c_prev = 3
        for i, (c, s) in enumerate(zip(spec.channels, spec.strides)):
            self.convs.append(Conv2d(c_prev, c, spec.kernel, s, rng.child(0, i)))
            self.bns.append(BatchNorm(c))
            self.relus.append(ReLU())
            c_prev = c
        self.att_cfg = spec.attention_config()
        self.att_params = (
            att.init_cfaa_params(self.att_cfg, rng.child(1), zero_output_proj=True)
            if self.att_cfg else None
        )
        self.bn_feat = BatchNorm(spec.channels[-1])
        self.classifier = rng.child(2).uniform_init((spec.num_classes, spec.channels[-1]), spec.channels[-1])
        self._cache = None

    def named_params(self):
        for i, conv in enumerate(self.convs):
            yield f"conv{i}.weight", conv.weight
            yield f"bn{i}.gamma", self.bns[i].gamma
            yield f"bn{i}.beta", self.bns[i].beta
        if self.att_params is not None:
            yield from self.att_params.named("attention")
        yield "bn_feat.gamma", self.bn_feat.gamma
        yield "bn_feat.beta", self.bn_feat.beta
        yield "classifier.weight", self.classifier

    def forward(self, frames: np.ndarray, masks: np.ndarray, training: bool):
        """frames (B, T, 3, H, W), masks (B, T, H, W) -> (f_pre, f_post, logits)."""
        b, t = frames.shape[:2]
        x = frames.reshape(b * t, *frames.shape[2:])
        att_caches = None
        for i in range(len(self.convs)):
            x = self.relus[i].forward(self.bns[i].forward(self.convs[i].forward(x), training))
            if self.att_params is not None and i == self.spec.attention_after_block:
                c, h, w = x.shape[1:]
                x = x.reshape(b, t, c, h, w)
                att_caches = []
                for bi in range(b):
                    vol = np.ascontiguousarray(np.moveaxis(x[bi], 0, 1))  # (C, T, h, w)
                    out, cache = att.cfaa_forward(vol, self.att_params, self.att_cfg, want_cache=True)
                    x[bi] = np.moveaxis(out, 1, 0)
                    att_caches.append(cache)
                x = x.reshape(b * t, c, h, w)
        small_masks = agg.mask_downsample(masks.reshape(b * t, *masks.shape[2:]), x.shape[2:])
        f_pre = agg.masked_avg_pool(x, small_masks).reshape(b, t, -1).mean(axis=1)  # (B, C)
        f_post = self.bn_feat.forward(f_pre, training)
        logits = f_post @ self.classifier.T
        self._cache = dict(bt=(b, t), att_caches=att_caches, small_masks=small_masks, f_post=f_post)
        return f_pre, f_post, logits

    def backward(self, d_f_pre: np.ndarray, d_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Accumulate gradients for a combined loss with d(loss)/d(f_pre) and
        d(loss)/d(logits); returns name -> gradient matching named_params."""
        cache = self._cache
        b, t = cache["bt"]
        grads: dict[str, np.ndarray] = {}
        grads["classifier.weight"] = d_logits.T @ cache["f_post"]
        d_f_post = d_logits @ self.classifier
        d_pre_bn, d_gamma, d_beta = self.bn_feat.backward(d_f_post)
        grads["bn_feat.gamma"], grads["bn_feat.beta"] = d_gamma, d_beta
        d_f_pre = d_f_pre + d_pre_bn

        d_pooled = np.repeat(d_f_pre, t, axis=0) / t  # temporal mean, one row per frame
        d_x = agg.masked_avg_pool_backward(d_pooled, cache["small_masks"])

        for i in reversed(range(len(self.convs))):
            if self.att_params is not None and i == self.spec.attention_after_block:
                ci, hi, wi = d_x.shape[1:]
                d_x = d_x.reshape(b, t, ci, hi, wi)
                att_grads = None
                for bi in range(b):
                    d_vol = np.ascontiguousarray(np.moveaxis(d_x[bi], 0, 1))
                    d_in, g = att.cfaa_backward(d_vol, self.att_params, cache["att_caches"][bi])
                    d_x[bi] = np.moveaxis(d_in, 1, 0)
                    if att_grads is None:
                        att_grads = dict(g.named("attention"))
                    else:
                        for name, arr in g.named("attention"):
                            att_grads[name] += arr
                grads.update(att_grads)
                d_x = d_x.reshape(b * t, ci, hi, wi)
            d_x = self.relus[i].backward(d_x)
            d_x, d_g, d_b = self.bns[i].backward(d_x)
            grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = d_g, d_b
            d_x, d_w = self.convs[i].backward(d_x)
            grads[f"conv{i}.weight"] = d_w
        return grads


# ---------------------------------------------------------------------------
# training and retrieval


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    flip_records: list[list[bool]] = field(default_factory=list)  # per tracklet, per-frame flags


def _sample_clip(track: Tracklet, clip_len: int, rng: Rng, flip: bool, log: TrainLog | None):
    f = track.frames.shape[0]
    start = int(rng.integers(0, f - clip_len + 1)) if f > clip_len else 0
    frames = track.frames[start : start + clip_len]
    masks = track.masks[start : start + clip_len]
    if flip:  # synchronized: every frame of the clip flips
        frames, masks = frames[..., ::-1], masks[..., ::-1]
    if log is not None:
        log.flip_records.append([flip] * clip_len)
    return frames.copy(), masks.copy()


def train(spec: ToyModelSpec, dataset: SyntheticIdentityDataset, epochs: int, seed: int,
          lr: float = 0.05, momentum: float = 0.9, p_ids: int = 4, k_tracks: int = 2,
          margin: float = 0.3, decay_after: float = 0.75) -> tuple[ToyModel, TrainLog]:
    """SGD with momentum on cross-entropy + batch-hard triplet; deterministic per
    seed. The learning rate drops by 10x after decay_after of the epochs."""
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
        epoch_lr = lr * (0.1 if epochs > 1 and epoch >= decay_after * epochs else 1.0)
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
                    frames, masks = _sample_clip(tr, spec.clip_len, brng.child(20 + slot, j), flip, log)
                    batch.append((frames, masks))
                    labels.append(tr.identity)
            frames = np.stack([f for f, _ in batch])
            masks = np.stack([m for _, m in batch])
            labels = np.asarray(labels)

            f_pre, _, logits = model.forward(frames, masks, training=True)
            ce_loss, d_logits = agg.cross_entropy(logits, labels)
            if use_triplet:
                tri_loss, d_f_pre = agg.batch_hard_triplet(f_pre, labels, margin=margin)
            else:
                tri_loss, d_f_pre = 0.0, np.zeros_like(f_pre)
            grads = model.backward(d_f_pre, d_logits)
            if lr != 0.0:
                for name, param in model.named_params():
                    v = velocity[name]
                    v *= momentum
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
    n_clips = f // clip
    feats = []
    for c in range(n_clips):
        frames = track.frames[c * clip : (c + 1) * clip][None]
        masks = track.masks[c * clip : (c + 1) * clip][None]
        _, f_post, _ = model.forward(frames, masks, training=False)
        feats.append(f_post[0])
    return np.mean(feats, axis=0)


def retrieve(model: ToyModel, tracklets: list[Tracklet], query_camera: int = 0) -> ev.EvalDataset:
    """Features per tracklet, Euclidean query x gallery distances; queries are
    the tracklets under query_camera, gallery is everything else."""
    queries = [t for t in tracklets if t.camera == query_camera]
    gallery = [t for t in tracklets if t.camera != query_camera]
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
