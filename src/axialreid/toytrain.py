"""Desk-scale end-to-end demo: a small conv backbone with coarse-to-fine axial,
3D non-local or no attention after its first block, trained on a synthetic
video-identity dataset with the triplet + cross-entropy recipe, then evaluated
with the retrieval protocol.

Everything is seeded; a run is bitwise reproducible at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention as att
from . import aggregation as agg
from . import evaluate as ev
from .errors import ConfigurationError, DimensionError, NumericalError, ValidationError
from .tensor import Rng, check_finite

SGD_MOMENTUM = 0.9
BN_MOMENTUM = 0.1  # weight of the batch statistics in BatchNorm's running estimates
LR_DECAY_AFTER = 0.75  # fraction of the epochs after which the learning rate drops 10x
FRAME_HW = (32, 16)  # synthetic frame size; the drawn figure is 18 pixels tall
CLIP_LEN = 4  # frames per clip, in training, retrieval and the attention volume
P_IDS, K_TRACKS = 4, 2  # the default training batch: P identities x K tracklets, one clip each
FORWARD_CLIPS = P_IDS * K_TRACKS  # most clips per eval-mode forward: a training batch, whose GEMMs use one core

# ---------------------------------------------------------------------------
# layers for the toy backbone


class Layer:
    """forward(x, training) -> y caches what backward reads only when training,
    so an eval-mode forward keeps nothing; backward(dy) -> dx then stores the
    gradient of each parameter attribute p in PARAMS as d_p. named_params and
    named_grads yield them as ("<prefix>.p", array) pairs. The model's first
    layer, conv0, is asked for no dx: its input gradient is not formed."""

    PARAMS: tuple[str, ...] = ()

    def named_params(self, prefix: str):
        return ((f"{prefix}.{p}", getattr(self, p)) for p in self.PARAMS)

    def named_grads(self, prefix: str):
        return ((f"{prefix}.{p}", getattr(self, f"d_{p}")) for p in self.PARAMS)


class Conv2d(Layer):
    """3x3 convolution without bias, stride s, zero padding 1, on (B, C, H, W)
    maps, computed channels last: the input is padded into a (B, H+2, W+2, C)
    copy, so each tap's strided window, and each tap's add into d_x, moves
    rows of Wo*C elements rather than Wo. Each of the 9 taps is one stacked
    per-frame matmul, window (B, Ho*Wo, C) @ taps[di, dj] (C, O), from one
    contiguous (3, 3, C, O) copy of the weight per call, and the output is
    transposed back to (B, O, Ho, Wo) once. The frames are not folded into
    one larger GEMM: that wakes OpenBLAS's helper thread, and one GEMM per tap
    over all frames doubled a training epoch's CPU time for no wall time
    saved on a 2-vCPU host.

    Backward forms the tap's d_w as (g @ window).sum(0) and, unless asked
    not to (the model's first layer is), its d_x as g^T @ taps[di, dj].T,
    both on views. OpenBLAS's small-matrix kernels give other bits when
    handed the transposed problem: contiguous copies of g^T and of the
    (O, C) tap change conv0's d_x. So written, the bits equal those of the
    NCHW kernel this replaced on the model's three layer shapes only; on
    other shapes forward, d_w and d_x may differ in the last bits (at most
    1.2e-15 of the largest value over 400 random shapes)."""

    PARAMS = ("weight",)

    def __init__(self, c_in: int, c_out: int, stride: int, rng: Rng):
        self.weight = rng.uniform_init((c_out, c_in, 3, 3), c_in * 9)
        self.stride = stride
        self._cache = None

    def _taps(self, ho: int, wo: int):
        """(di, dj) and the index of that tap's strided (B, Ho, Wo, C) window
        in a padded (B, H+2, W+2, C) map, for each of the 9 taps."""
        s = self.stride
        return [((di, dj), (slice(None), slice(di, di + s * ho, s), slice(dj, dj + s * wo, s)))
                for di in range(3) for dj in range(3)]

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        b, c, h, w = x.shape
        s = self.stride
        xp = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
        xp[:, 1 : 1 + h, 1 : 1 + w] = x.transpose(0, 2, 3, 1)
        ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
        o = self.weight.shape[0]
        taps = np.ascontiguousarray(self.weight.transpose(2, 3, 1, 0))  # (3, 3, C, O)
        out = np.zeros((b, ho * wo, o))
        for tap, window in self._taps(ho, wo):
            out += xp[window].reshape(b, ho * wo, c) @ taps[tap]
        self._cache = (xp, x.shape, ho, wo) if training else None
        return np.ascontiguousarray(out.reshape(b, ho, wo, o).transpose(0, 3, 1, 2))

    def backward(self, dy: np.ndarray, want_dx: bool = True) -> np.ndarray | None:
        """d_x, or None when want_dx is False: the first layer's input
        gradient is the image's, which nothing reads, so the model skips its
        9 products and adds. d_weight is the same either way."""
        xp, (b, c, h, w), ho, wo = self._cache
        o = self.weight.shape[0]
        g = dy.reshape(b, o, ho * wo)
        d_w = self.d_weight = np.zeros_like(self.weight)
        if want_dx:
            g_t = g.transpose(0, 2, 1)  # (B, Ho*Wo, O) view
            d_xp = np.zeros_like(xp)
            taps = np.ascontiguousarray(self.weight.transpose(2, 3, 1, 0))  # (3, 3, C, O)
        for (di, dj), window in self._taps(ho, wo):
            d_w[:, :, di, dj] = (g @ xp[window].reshape(b, ho * wo, c)).sum(0)
            if want_dx:
                d_xp[window] += (g_t @ taps[di, dj].T).reshape(b, ho, wo, c)
        return np.ascontiguousarray(d_xp[:, 1 : 1 + h, 1 : 1 + w].transpose(0, 3, 1, 2)) if want_dx else None


class BatchNorm(Layer):
    """Batch normalization over (N, C) or (N, C, H, W) inputs: statistics per
    channel (axis 1), reduced over every other axis, with learned affine and
    running estimates. Training mode normalizes with batch statistics and
    updates the running estimates; eval mode uses the running estimates.
    The input is centred once, into the array that becomes xhat; in training
    the variance is the mean square of that centred array, as x.var forms it."""

    PARAMS = ("gamma", "beta")

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.eps = 1e-5
        self._cache = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        axes = (0, *range(2, x.ndim))
        col = (-1,) + (1,) * (x.ndim - 2)  # a per-channel vector against axis 1
        if training:
            mean = x.mean(axis=axes)
            xhat = x - mean.reshape(col)
            var = np.square(xhat).sum(axis=axes) / (x.size // x.shape[1])  # x.var's arithmetic
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:
            xhat = x - self.running_mean.reshape(col)
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv.reshape(col)
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


class AttentionLayer(Layer):
    """CF-AA or 3D non-local attention on (B*T, C, H, W) frame maps: each clip's
    T = cfg.axis_lengths[0] frames form one (C, T, H, W) volume, and the batch is
    one call of att.<op>_forward, looked up at each call. It zeroes the output
    projection w_o that the op's init draws, so that it starts as the identity."""

    def __init__(self, kind: str, cfg: att.AttentionConfig, rng: Rng):
        self._op = {"cfaa": "cfaa", "nonlocal3d": "nonlocal_3d"}[kind]
        self.cfg = cfg
        self.params = (att.init_cfaa_params if kind == "cfaa" else att.init_nonlocal_params)(cfg, rng)
        self.params["w_o"] = np.zeros_like(self.params["w_o"])
        self._cache = None

    def named_params(self, prefix: str):
        return ((f"{prefix}.{k}", v) for k, v in self.params.items())

    def named_grads(self, prefix: str):
        return ((f"{prefix}.{k}", v) for k, v in self.d_params.items())

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        t = self.cfg.axis_lengths[0]
        vols = x.reshape(x.shape[0] // t, t, *x.shape[1:]).transpose(0, 2, 1, 3, 4)  # (B, C, T, H, W)
        out, self._cache = getattr(att, f"{self._op}_forward")(vols, self.params, self.cfg)
        if not training:
            self._cache = None  # freed before the output's copy, as an eval-mode forward keeps nothing
        return out.transpose(0, 2, 1, 3, 4).reshape(x.shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        t = self.cfg.axis_lengths[0]
        d_vols = dy.reshape(dy.shape[0] // t, t, *dy.shape[1:]).transpose(0, 2, 1, 3, 4)
        d_in, self.d_params = getattr(att, f"{self._op}_backward")(d_vols, self.params, self._cache)
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
    seed: int = 0
    tracklets: list[Tracklet] = field(init=False)
    palette: np.ndarray | None = None

    def __post_init__(self):
        for name in ("num_ids", "tracklets_per_id", "frames_per_tracklet"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1, got {getattr(self, name)}")
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
        h, w = FRAME_HW
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
            y = min(max(base_y + int(frng.child(1).integers(-2, 3)), 0), h - 18)
            x = min(max(base_x + int(frng.child(2).integers(-2, 3)), 0), w - 7)
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
    num_classes: int = 20
    attention: tuple = ("cfaa", 4, 2)  # after block 0: ("cfaa", scales, heads), ("nonlocal3d",) or ("none",)

    def __post_init__(self):
        if not self.channels or len(self.channels) != len(self.strides):
            raise ConfigurationError(f"channels and strides must give the same number of blocks, at least one; "
                                     f"got {len(self.channels)} and {len(self.strides)}")
        match self.attention:
            case ("cfaa", int(), int()) | ("nonlocal3d",):
                self.attention_config()  # rejects scales and heads the widths do not divide
            case ("none",):
                pass
            case _:
                raise ConfigurationError(f"attention must be ('cfaa', scales, heads), ('nonlocal3d',) "
                                         f"or ('none',), got {self.attention!r}")

    def attention_config(self) -> att.AttentionConfig:
        h, w = (n // self.strides[0] for n in FRAME_HW)  # attention follows block 0
        c = self.channels[0]
        _, *cfaa = self.attention  # [scales, heads] for CF-AA, with relative encoding
        scales, heads = cfaa or (1, 1)
        return att.AttentionConfig(c_in=c, c_qk=c // 2, c_out=c, heads=heads, scales=scales,
                                   encoding="relative" if cfaa else "none", axis_lengths=(CLIP_LEN, h, w))


class ToyModel:
    """Backbone: (name, layer) pairs, 3x3 conv/BN/ReLU per block and the spec's
    attention after block 0. Head: masked pooling, temporal mean, bn_feat, classifier."""

    def __init__(self, spec: ToyModelSpec, rng: Rng):
        self.spec = spec
        self.layers: list[tuple[str, Layer]] = []
        for i, (c_prev, c, s) in enumerate(zip((3, *spec.channels), spec.channels, spec.strides)):
            self.layers += [(f"conv{i}", Conv2d(c_prev, c, s, rng.child(0, i))),
                            (f"bn{i}", BatchNorm(c)), (f"relu{i}", ReLU())]
            if i == 0 and (kind := spec.attention[0]) != "none":
                self.layers.append(("attention", AttentionLayer(kind, spec.attention_config(), rng.child(1))))
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
        if self.spec.attention[0] != "none" and t != CLIP_LEN:
            raise DimensionError(f"clips of T={t} frames, but attention runs on clip_len={CLIP_LEN}")
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
        for i in reversed(range(len(self.layers))):
            name, layer = self.layers[i]
            d_x = layer.backward(d_x) if i else layer.backward(d_x, want_dx=False)  # conv0: no image gradient
            grads.update(layer.named_grads(name))
        return grads


# ---------------------------------------------------------------------------
# training and retrieval


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)


def _sample_clip(track: Tracklet, rng: Rng, flip: bool):
    start = int(rng.integers(0, track.frames.shape[0] - CLIP_LEN + 1))
    frames = track.frames[start : start + CLIP_LEN]
    masks = track.masks[start : start + CLIP_LEN]
    if flip:  # synchronized: every frame of the clip flips
        frames, masks = frames[..., ::-1], masks[..., ::-1]
    return frames.copy(), masks.copy()


def _sgd_step(model: ToyModel, velocity: dict, frames: np.ndarray, masks: np.ndarray, labels: np.ndarray,
              lr: float) -> float:
    """One training-mode forward, backward and momentum update; returns the
    batch loss. Raises NumericalError on a non-finite loss or parameter."""
    f_pre, _, logits = model.forward(frames, masks, training=True)
    ce_loss, d_logits = agg.cross_entropy(logits, labels)
    tri_loss, d_f_pre = agg.batch_hard_triplet(f_pre, labels)
    loss = ce_loss + tri_loss
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss}")
    grads = model.backward(d_f_pre, d_logits)
    for name, param in model.named_params():
        v = velocity[name]
        v *= SGD_MOMENTUM
        v += grads[name]
        param -= lr * v
        check_finite(param, f"parameter {name}")
    return loss


def train(spec: ToyModelSpec, dataset: SyntheticIdentityDataset, epochs: int, seed: int,
          lr: float = 0.05, p_ids: int = P_IDS, k_tracks: int = K_TRACKS) -> tuple[ToyModel, TrainLog]:
    """SGD with momentum on cross-entropy + batch-hard triplet over p_ids x k_tracks
    batches; deterministic per seed. The learning rate drops 10x after LR_DECAY_AFTER.
    A batch whose loss or updated parameters are not finite raises NumericalError."""
    if p_ids < 2:
        raise ValidationError(f"p_ids must be at least 2 (a one-identity batch has no negatives), got {p_ids}")
    if dataset.num_ids < p_ids or dataset.tracklets_per_id < k_tracks:
        raise ValidationError(
            f"cannot build {p_ids}x{k_tracks} batches from {dataset.num_ids} ids "
            f"x {dataset.tracklets_per_id} tracklets"
        )
    if dataset.frames_per_tracklet < CLIP_LEN:
        raise ValidationError(f"tracklets of {dataset.frames_per_tracklet} frames are shorter than clip_len={CLIP_LEN}")
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
        epoch_lr = lr * (0.1 if epoch >= LR_DECAY_AFTER * epochs else 1.0)
        erng = rng.child(1, epoch)
        id_order = erng.child(0).permutation(dataset.num_ids)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, dataset.num_ids - p_ids + 1, p_ids):
            brng = erng.child(1 + n_batches)
            batch, labels = [], []
            for slot, ident in enumerate(id_order[start : start + p_ids]):
                tracks = by_id[int(ident)]
                picks = brng.child(slot).choice(len(tracks), k_tracks)
                for j, pick in enumerate(picks):
                    tr = tracks[int(pick)]
                    flip = bool(brng.child(10 + slot, j).uniform(0, 1) < 0.5)
                    frames, masks = _sample_clip(tr, brng.child(20 + slot, j), flip)
                    batch.append((frames, masks))
                    labels.append(tr.identity)
            frames = np.stack([f for f, _ in batch])
            masks = np.stack([m for _, m in batch])
            labels = np.asarray(labels)

            try:
                with np.errstate(over="ignore", invalid="ignore"):  # reported as a NumericalError instead
                    epoch_loss += _sgd_step(model, velocity, frames, masks, labels, epoch_lr)
            except NumericalError as exc:
                raise NumericalError(f"training diverged at epoch {epoch + 1}, batch {n_batches + 1}: {exc}") from None
            n_batches += 1
        log.epoch_losses.append(epoch_loss / n_batches)
    return model, log


def tracklet_features(model: ToyModel, tracks: list[Tracklet]) -> np.ndarray:
    """Clip-split-and-average representation (post-BN feature, eval mode) of
    each tracklet, (n, C), with the bits of the tracklet's own forward. Runs
    of tracklets with the same frame and mask shapes share a forward of at
    most FORWARD_CLIPS clips, and a longer tracklet runs alone. A failing run
    retries its tracklets one by one, so the error raised is the first bad
    tracklet's own."""

    def forward(run: list[Tracklet]) -> list[np.ndarray]:
        parts = []
        for tr in run:
            f = tr.frames.shape[0]
            if f < CLIP_LEN:
                raise ValidationError(f"tracklet {tr.tid} has {f} frames, fewer than clip_len={CLIP_LEN}")
            n = f // CLIP_LEN
            parts.append([a[: n * CLIP_LEN].reshape(n, CLIP_LEN, *a.shape[1:]) for a in (tr.frames, tr.masks)])
        frames, masks = (np.concatenate(arrays) for arrays in zip(*parts))
        with np.errstate(over="ignore", invalid="ignore"):  # reported as a NumericalError instead
            _, f_post, _ = model.forward(frames, masks, training=False)
        if not np.isfinite(f_post).all():
            raise NumericalError(f"tracklet {run[0].tid} has non-finite features")
        ends = np.cumsum([len(clips) for clips, _ in parts])
        return [f_post[start:end].mean(axis=0) for start, end in zip([0, *ends], ends)]

    runs: list[list[Tracklet]] = []
    for tr in tracks:
        last = runs[-1] if runs else []
        if (last and (tr.frames.shape[1:], tr.masks.shape[1:]) == (last[0].frames.shape[1:], last[0].masks.shape[1:])
                and sum(t.frames.shape[0] // CLIP_LEN for t in [*last, tr]) <= FORWARD_CLIPS):
            last.append(tr)
        else:
            runs.append([tr])
    feats = []
    for run in runs:
        try:
            feats += forward(run)
        except Exception:
            for tr in run:
                forward([tr])
            raise
    return np.stack(feats)


def retrieve(model: ToyModel, tracklets: list[Tracklet]) -> ev.EvalDataset:
    """Features per tracklet, Euclidean query x gallery distances; queries are
    the tracklets under camera 0, gallery is everything else."""
    queries = [t for t in tracklets if t.camera == 0]
    gallery = [t for t in tracklets if t.camera != 0]
    if not queries or not gallery:
        raise ValidationError("retrieval needs tracklets under at least two cameras")
    qf, gf = tracklet_features(model, queries), tracklet_features(model, gallery)
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
