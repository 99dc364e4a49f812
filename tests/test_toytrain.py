import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from axialreid import evaluate as ev
from axialreid import toytrain as tt
from axialreid.errors import ConfigurationError, DimensionError, ValidationError
from axialreid.gradcheck import fd_gradient, rel_error
from axialreid.tensor import Rng
from helpers import fresh_split


def small_dataset(seed=3, num_ids=4):
    return tt.SyntheticIdentityDataset(
        num_ids=num_ids, tracklets_per_id=4, frames_per_tracklet=8, seed=seed
    )


def small_spec(num_ids=4, use_attention=True):
    return tt.ToyModelSpec(channels=(8, 16, 16), num_classes=num_ids, use_attention=use_attention,
                           attention_scales=2, attention_heads=2)


class TestDataset:
    def test_generation_deterministic(self):
        a, b = small_dataset(5), small_dataset(5)
        for ta, tb in zip(a.tracklets, b.tracklets):
            assert np.array_equal(ta.frames, tb.frames)
            assert np.array_equal(ta.masks, tb.masks)

    def test_identity_and_camera_tags(self):
        ds = small_dataset()
        assert len(ds.tracklets) == 16
        for tr in ds.tracklets:
            assert 0 <= tr.identity < 4
            assert tr.camera in (0, 1)

    def test_masks_mark_zeroed_columns(self):
        ds = small_dataset(seed=11)
        padded = [t for t in ds.tracklets if (t.masks == 0).any()]
        assert padded, "expected some tracklets with padded columns"
        for tr in padded:
            by_channel = np.moveaxis(tr.frames, 1, 0)  # (3, F, H, W)
            assert np.all(by_channel[:, tr.masks == 0] == 0.0)

    def test_fresh_split_shares_palette(self):
        ds = small_dataset()
        other = fresh_split(ds, 123)
        assert np.array_equal(ds.palette, other.palette)
        assert not np.array_equal(ds.tracklets[0].frames, other.tracklets[0].frames)

    def test_palette_separation(self):
        ds = tt.SyntheticIdentityDataset(num_ids=20, seed=0)
        dists = [
            np.linalg.norm(ds.palette[i] - ds.palette[j])
            for i in range(20) for j in range(i + 1, 20)
        ]
        assert min(dists) > 0.15


class TestLayers:
    def test_conv_backward_matches_fd(self):
        rng = Rng(0)
        conv = tt.Conv2d(2, 3, 3, 2, rng.child(0))
        x = rng.child(1).normal((2, 2, 6, 4))
        g = rng.child(2).normal(conv.forward(x, training=False).shape)

        def loss():
            return float(np.sum(g * conv.forward(x, training=False)))

        conv.forward(x, training=True)
        d_x = conv.backward(g)
        d_w = conv.d_weight
        assert rel_error(d_x, fd_gradient(loss, x)) < 1e-6
        assert rel_error(d_w, fd_gradient(loss, conv.weight)) < 1e-6

    def test_model_backward_matches_fd_on_conv1(self):
        # end-to-end analytic gradient through attention, pooling, bn, losses
        from axialreid import aggregation as agg

        rng = Rng(2)
        ds = small_dataset()
        spec = small_spec()
        model = tt.ToyModel(spec, rng.child(0))
        frames = np.stack([t.frames[:4] for t in ds.tracklets[:4]])
        masks = np.stack([t.masks[:4] for t in ds.tracklets[:4]])
        labels = np.array([t.identity for t in ds.tracklets[:4]])

        def loss():
            f_pre, _, logits = model.forward(frames, masks, training=True)
            ce, _ = agg.cross_entropy(logits, labels)
            return ce

        f_pre, _, logits = model.forward(frames, masks, training=True)
        _, d_logits = agg.cross_entropy(logits, labels)
        grads = model.backward(np.zeros_like(f_pre), d_logits)
        num = fd_gradient(loss, dict(model.layers)["conv0"].weight, step=1e-5)
        assert rel_error(grads["conv0.weight"], num) < 1e-4

    def test_one_attention_call_per_batch(self, monkeypatch):
        from axialreid import aggregation as agg
        from axialreid import attention as att

        calls = []

        def recording(name):
            original = getattr(att, name)

            def wrapper(x, *args, **kwargs):
                calls.append((name, x.shape))
                return original(x, *args, **kwargs)
            return wrapper

        for name in ("cfaa_forward", "cfaa_backward"):
            monkeypatch.setattr(att, name, recording(name))
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(4).child(0))
        frames = np.stack([t.frames[:4] for t in ds.tracklets[:6]])
        masks = np.stack([t.masks[:4] for t in ds.tracklets[:6]])
        f_pre, _, logits = model.forward(frames, masks, training=True)
        model.backward(f_pre, agg.cross_entropy(logits, np.arange(6) % 4)[1])
        assert calls == [("cfaa_forward", (6, 8, 4, 16, 8)), ("cfaa_backward", (6, 8, 4, 16, 8))]

    def test_clip_length_other_than_clip_len_rejected(self):
        # B=4 clips of T=5 are 20 frames, which would regroup into 5 volumes of 4
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(4).child(0))
        frames = np.stack([t.frames[:5] for t in ds.tracklets[:4]])
        masks = np.stack([t.masks[:5] for t in ds.tracklets[:4]])
        for training in (True, False):
            with pytest.raises(DimensionError, match=r"T=5.*clip_len=4"):
                model.forward(frames, masks, training)

    def test_backward_after_eval_forward_rejected(self):
        from axialreid import aggregation as agg

        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(4).child(0))
        frames = np.stack([t.frames[:4] for t in ds.tracklets[:4]])
        masks = np.stack([t.masks[:4] for t in ds.tracklets[:4]])
        f_pre, _, logits = model.forward(frames, masks, training=True)
        model.forward(frames, masks, training=False)
        with pytest.raises(ConfigurationError, match="training-mode forward"):
            model.backward(np.zeros_like(f_pre), agg.cross_entropy(logits, np.arange(4))[1])


PROTOCOL_MODEL = tt.ToyModel(small_spec(), Rng(7).child(0))


class TestLayerProtocol:
    @pytest.mark.parametrize("name", [name for name, _ in PROTOCOL_MODEL.layers])
    def test_backward_returns_dx_and_grads_named_like_params(self, name):
        model = tt.ToyModel(small_spec(), Rng(7).child(0))
        frames = np.stack([t.frames[:4] for t in small_dataset().tracklets[:2]])
        x = frames.reshape(8, *frames.shape[2:])
        for layer_name, layer in model.layers:  # x becomes the named layer's input
            if layer_name == name:
                break
            x = layer.forward(x, training=True)
        y = layer.forward(x, training=True)
        dx = layer.backward(Rng(8).normal(y.shape))
        assert dx.shape == x.shape
        params, grads = dict(layer.named_params(name)), dict(layer.named_grads(name))
        assert list(grads) == list(params)
        for key, grad in grads.items():
            assert grad.shape == params[key].shape, key

    def test_parameter_names(self):
        names = [name for name, _ in PROTOCOL_MODEL.named_params()]
        assert names[:3] == ["conv0.weight", "bn0.gamma", "bn0.beta"]
        assert {"attention.scale0.aa_h.w_q", "attention.scale1.aa_t.r_v", "attention.w_o"} <= set(names)
        assert names[-3:] == ["bn_feat.gamma", "bn_feat.beta", "classifier.weight"]
        assert len(set(names)) == len(names)


def einsum_conv_forward(weight, stride, x):
    """Reference convolution: one einsum per kernel tap, no BLAS."""
    b, c, h, w = x.shape
    k, s, p = weight.shape[2], stride, weight.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    out = np.zeros((b, weight.shape[0], ho, wo))
    for di in range(k):
        for dj in range(k):
            sl = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s]
            out += np.einsum("oc,bchw->bohw", weight[:, :, di, dj], sl)
    return out


def einsum_conv_backward(weight, stride, x, grad):
    """Reference (d_x, d_w) for einsum_conv_forward."""
    k, s, p = weight.shape[2], stride, weight.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho, wo = grad.shape[2:]
    d_w = np.zeros_like(weight)
    d_xp = np.zeros_like(xp)
    for di in range(k):
        for dj in range(k):
            sl = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s]
            d_w[:, :, di, dj] = np.einsum("bohw,bchw->oc", grad, sl)
            d_xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s] += np.einsum(
                "oc,bohw->bchw", weight[:, :, di, dj], grad
            )
    return d_xp[:, :, p : p + x.shape[2], p : p + x.shape[3]], d_w


def scaled_error(a, ref):
    """max |a - ref| relative to the largest |ref|: the two summation orders
    differ by ~1e-16 of the array's scale, which is ~1e-11 elementwise where
    a sum cancels to nearly zero."""
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


# (c_in, c_out, kernel, stride, h, w): small odd/even cases, then the three
# convs of the default ToyModelSpec at its 32x16 frames
CONV_SHAPES = [
    (2, 3, 1, 1, 7, 5), (2, 3, 1, 2, 7, 5), (2, 3, 3, 1, 7, 5), (2, 3, 3, 2, 7, 5),
    (3, 4, 3, 2, 6, 4), (3, 32, 3, 2, 32, 16), (32, 64, 3, 2, 16, 8), (64, 64, 3, 1, 8, 4),
]


class TestConvOracle:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_einsum_reference(self, shape, batch):
        c_in, c_out, k, s, h, w = shape
        rng = Rng(31)
        conv = tt.Conv2d(c_in, c_out, k, s, rng.child(0))
        x = rng.child(1).normal((batch, c_in, h, w))
        out = conv.forward(x, training=True)
        ref = einsum_conv_forward(conv.weight, s, x)
        assert out.shape == ref.shape
        assert scaled_error(out, ref) < 1e-12
        g = rng.child(2).normal(out.shape)
        d_x, d_w = conv.backward(g), conv.d_weight
        ref_dx, ref_dw = einsum_conv_backward(conv.weight, s, x, g)
        assert d_x.shape == x.shape and d_w.shape == conv.weight.shape
        assert scaled_error(d_x, ref_dx) < 1e-12
        assert scaled_error(d_w, ref_dw) < 1e-12

    @pytest.mark.parametrize("shape", CONV_SHAPES[:4], ids=lambda s: "x".join(map(str, s)))
    def test_empty_batch_keeps_shape(self, shape):
        c_in, c_out, k, s, h, w = shape
        conv = tt.Conv2d(c_in, c_out, k, s, Rng(0))
        out = conv.forward(np.zeros((0, c_in, h, w)), training=True)
        assert out.shape == (0, c_out, (h - 1) // s + 1, (w - 1) // s + 1)


LAYOUTS = {"nc": (6, 4), "nchw": (3, 4, 4, 2)}


class TestBatchNorm:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_backward_matches_fd(self, layout):
        rng = Rng(8)
        shape = LAYOUTS[layout]
        c = shape[1]
        x = rng.child(0).normal(shape)
        g = rng.child(1).normal(shape)
        bn = tt.BatchNorm(c)
        bn.gamma = rng.child(2).uniform(0.5, 1.5, (c,))
        bn.beta = rng.child(3).normal((c,))
        bn.running_mean = rng.child(4).normal((c,))
        bn.running_var = rng.child(5).uniform(0.5, 2.0, (c,))
        stats = (bn.running_mean, bn.running_var)

        def loss():
            fresh = tt.BatchNorm(c)
            fresh.gamma, fresh.beta = bn.gamma, bn.beta
            fresh.running_mean, fresh.running_var = stats
            return float(np.sum(g * fresh.forward(x, training=True)))

        bn.forward(x, training=True)
        d_x = bn.backward(g)
        d_gamma, d_beta = bn.d_gamma, bn.d_beta
        assert rel_error(d_x, fd_gradient(loss, x)) < 1e-5
        assert rel_error(d_gamma, fd_gradient(loss, bn.gamma)) < 1e-5
        assert rel_error(d_beta, fd_gradient(loss, bn.beta)) < 1e-5

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_running_stats_converge_in_eval(self, layout):
        rng = Rng(9)
        shape = (32, 3) + LAYOUTS[layout][2:]
        bn = tt.BatchNorm(3, momentum=0.5)
        for i in range(50):
            bn.forward(rng.child(i).normal(shape) * 2.0 + 1.0, training=True)
        out = bn.forward(np.ones((1,) + shape[1:]), training=False)
        assert np.max(np.abs(out)) < 0.2


class TestTraining:
    def test_same_seed_identical_curves(self):
        ds = small_dataset()
        spec = small_spec()
        _, log1 = tt.train(spec, ds, epochs=2, seed=9, p_ids=2, k_tracks=2)
        _, log2 = tt.train(spec, ds, epochs=2, seed=9, p_ids=2, k_tracks=2)
        assert log1.epoch_losses == log2.epoch_losses

    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        ds = small_dataset()
        spec = small_spec()
        model, _ = tt.train(spec, ds, epochs=1, seed=4, lr=0.0, p_ids=2, k_tracks=2)
        reference = tt.ToyModel(spec, Rng(4).child(0))
        for (name, a), (_, b) in zip(model.named_params(), reference.named_params()):
            assert np.array_equal(a, b), name

    def test_loss_decreases_on_two_identity_run(self):
        ds = tt.SyntheticIdentityDataset(num_ids=2, tracklets_per_id=4, frames_per_tracklet=8, seed=6)
        spec = small_spec(num_ids=2)
        _, log = tt.train(spec, ds, epochs=5, seed=5, p_ids=2, k_tracks=2, lr=0.02)
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_single_identity_ce_only_descent_on_fixed_batch(self):
        # degenerate regime: a single-identity batch has no negatives, so only
        # cross-entropy applies; plain descent on one fixed batch is monotone
        from axialreid import aggregation as agg

        ds = tt.SyntheticIdentityDataset(num_ids=2, tracklets_per_id=4, frames_per_tracklet=8, seed=6)
        spec = small_spec(num_ids=2)
        model = tt.ToyModel(spec, Rng(3).child(0))
        one_id = [t for t in ds.tracklets if t.identity == 0][:2]
        frames = np.stack([t.frames[:4] for t in one_id])
        masks = np.stack([t.masks[:4] for t in one_id])
        labels = np.zeros(2, dtype=int)
        losses = []
        for _ in range(5):
            f_pre, _, logits = model.forward(frames, masks, training=True)
            loss, d_logits = agg.cross_entropy(logits, labels)
            grads = model.backward(np.zeros_like(f_pre), d_logits)
            for name, param in model.named_params():
                param -= 0.01 * grads[name]
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), losses

    def test_triplet_skipped_when_batches_hold_one_identity(self):
        ds = tt.SyntheticIdentityDataset(num_ids=2, tracklets_per_id=4, frames_per_tracklet=8, seed=6)
        spec = small_spec(num_ids=2)
        _, log = tt.train(spec, ds, epochs=2, seed=3, p_ids=1, k_tracks=2, lr=0.01)
        assert len(log.epoch_losses) == 2  # runs without a triplet error

    @pytest.mark.parametrize("flip", [False, True])
    def test_sampled_clip_is_source_clip_mirrored_when_flipped(self, flip):
        # a tracklet whose frames and masks are both asymmetric in W, so a missed flip shows
        track = next(t for t in small_dataset().tracklets if not np.array_equal(t.masks, t.masks[..., ::-1]))
        assert not np.array_equal(track.frames, track.frames[..., ::-1])
        clip_len, f = 4, track.frames.shape[0]
        starts = set()
        for seed in range(8):
            frames, masks = tt._sample_clip(track, clip_len, Rng(seed), flip)
            start = int(Rng(seed).integers(0, f - clip_len + 1))  # the draw _sample_clip makes
            starts.add(start)
            want_frames, want_masks = track.frames[start : start + clip_len], track.masks[start : start + clip_len]
            if flip:  # every frame of the clip, image and mask alike
                want_frames, want_masks = want_frames[..., ::-1], want_masks[..., ::-1]
            assert np.array_equal(frames, want_frames) and np.array_equal(masks, want_masks)
            assert not np.shares_memory(frames, track.frames) and not np.shares_memory(masks, track.masks)
        assert len(starts) > 1

    def test_infeasible_batch_structure_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValidationError):
            tt.train(small_spec(), ds, epochs=1, seed=0, p_ids=8, k_tracks=2)

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_tracklets_shorter_than_clip_rejected(self, use_attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=4, frames_per_tracklet=3, seed=3)
        with pytest.raises(ValidationError, match=r"\b3 frames.*clip_len=4"):
            tt.train(small_spec(use_attention=use_attention), ds, epochs=1, seed=0)


# Trains with and without CF-AA at the default channel widths, then prints one
# sha256 over the losses, every parameter and the retrieval distances.
TRAIN_DIGEST = """
import hashlib
from axialreid import toytrain as tt
from helpers import fresh_split
h = hashlib.sha256()
ds = tt.SyntheticIdentityDataset(num_ids=8, seed=3)
for use_attention in (True, False):
    spec = tt.ToyModelSpec(num_classes=8, use_attention=use_attention)
    model, log = tt.train(spec, ds, epochs=2, seed=11)
    h.update(repr(log.epoch_losses).encode())
    for _, param in model.named_params():
        h.update(param.tobytes())
    h.update(tt.retrieve(model, fresh_split(ds, 12).tracklets).distances.tobytes())
print(h.hexdigest())
"""


def test_training_bitwise_equal_across_blas_thread_counts():
    paths = [str(Path(tt.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen([sys.executable, "-c", TRAIN_DIGEST], env=env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        outputs = [run.communicate(timeout=300) for run in runs]
    finally:
        for run in runs:
            run.kill()  # no-op for a run that finished
    for run, (_, err) in zip(runs, outputs):
        assert run.returncode == 0, err
    one, two = (out.strip() for out, _ in outputs)
    assert len(one) == 64 and one == two


# One CF-AA training epoch at the default spec, timed after a warm-up epoch;
# prints process CPU seconds and wall seconds.
TRAIN_CPU_WALL = """
import time
from axialreid import toytrain as tt
ds = tt.SyntheticIdentityDataset(num_ids=8, seed=3)
spec = tt.ToyModelSpec(num_classes=8)
tt.train(spec, ds, epochs=1, seed=0)
wall, cpu = time.perf_counter(), time.process_time()
tt.train(spec, ds, epochs=1, seed=1)
print(time.process_time() - cpu, time.perf_counter() - wall)
"""


def test_training_keeps_blas_helper_threads_idle():
    # A kernel that hands OpenBLAS a large GEMM wakes its helper threads, whose
    # spin-wait burns CPU for no gain on this workload; at the default thread
    # count the process must use about one core.
    src = str(Path(tt.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", TRAIN_CPU_WALL], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    cpu, wall = map(float, run.stdout.split())
    assert cpu <= 1.3 * wall, f"process CPU {cpu:.2f} s for {wall:.2f} s of wall time"


class TestRetrieval:
    def test_identical_tracklet_under_other_camera_is_rank1(self):
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(0).child(0))
        base = ds.tracklets[0]
        clone = tt.Tracklet(identity=base.identity, camera=1 - base.camera, tid=999,
                            frames=base.frames.copy(), masks=base.masks.copy())
        dataset = tt.retrieve(model, [base, clone])
        res = ev.evaluate(dataset, "old")
        assert res.cmc_at(1) == 1.0

    def test_clip_average_equals_whole_average_for_framewise_model(self):
        # holds when the model has no cross-frame coupling (no attention)
        ds = small_dataset()
        model = tt.ToyModel(small_spec(use_attention=False), Rng(1).child(0))
        tr = ds.tracklets[0]  # 8 frames = 2 clips of clip_len 4
        clipped = tt.tracklet_feature(model, tr)
        _, whole, _ = model.forward(tr.frames[None], tr.masks[None], training=False)
        np.testing.assert_allclose(clipped, whole[0], atol=1e-10)

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_one_forward_per_tracklet_equals_clip_loop(self, use_attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=2, frames_per_tracklet=13, seed=6)
        model = tt.ToyModel(small_spec(use_attention=use_attention), Rng(5).child(0))
        if use_attention:  # a nonzero output projection, so attention shapes the feature
            attention = dict(model.layers)["attention"].params
            attention.w_o = Rng(6).normal(attention.w_o.shape)
        for tr in ds.tracklets:  # 3 clips of 4 frames; the 13th frame is dropped
            clips = [model.forward(tr.frames[c : c + 4][None], tr.masks[c : c + 4][None], training=False)[1][0]
                     for c in (0, 4, 8)]
            assert np.array_equal(tt.tracklet_feature(model, tr), np.mean(clips, axis=0))

    def test_eval_forward_retains_no_cache(self):
        # eval mode caches nothing; the layer caches of one tracklet_feature on
        # the default spec would come to 2.84 MiB
        track = tt.SyntheticIdentityDataset(num_ids=1, tracklets_per_id=1, seed=3).tracklets[0]
        model = tt.ToyModel(tt.ToyModelSpec(), Rng(0).child(0))
        gc.collect()
        tracemalloc.start()
        try:
            tt.tracklet_feature(model, track)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, f"{retained} bytes retained"

    def test_untrained_model_no_better_than_modest(self):
        # documented chance region: untrained retrieval stays far from 0.9
        ds = small_dataset(num_ids=4)
        levels = tt.chance_baseline(small_spec(), ds, seeds=range(3))
        assert all(0.0 <= r1 <= 0.8 for r1 in levels)

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_tracklet_shorter_than_clip_rejected(self, use_attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=4, frames_per_tracklet=3, seed=3)
        model = tt.ToyModel(small_spec(use_attention=use_attention), Rng(0).child(0))
        with pytest.raises(ValidationError, match=r"tracklet 0 has 3 frames.*clip_len=4"):
            tt.retrieve(model, ds.tracklets)

    def test_needs_two_cameras(self):
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(2).child(0))
        only_cam0 = [t for t in ds.tracklets if t.camera == 0]
        with pytest.raises(ValidationError):
            tt.retrieve(model, only_cam0)
