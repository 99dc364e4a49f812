import gc
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid import aggregation as agg
from axialreid import attention as att
from axialreid import evaluate as ev
from axialreid import toytrain as tt
from axialreid.errors import NumericalError, ValidationError
from axialreid.gradcheck import fd_gradient, rel_error
from axialreid.tensor import Rng
from helpers import (fresh_split, reference_batchnorm_forward, reference_conv_backward, reference_conv_forward,
                     reference_gather_offsets, reference_mask_downsample, reference_model_backward,
                     reference_scatter_offsets, reference_softmax, reference_softmax_backward,
                     reference_tracklet_feature)


def small_dataset(seed=3, num_ids=4):
    return tt.SyntheticIdentityDataset(
        num_ids=num_ids, tracklets_per_id=4, frames_per_tracklet=8, seed=seed
    )


CFAA, NONLOCAL, NONE = ("cfaa", 2, 2), ("nonlocal3d",), ("none",)
# every attention kind, as a parametrize argument named by the kind
ATTENTION_KINDS = pytest.mark.parametrize("attention", [CFAA, NONLOCAL, NONE], ids=lambda a: a[0])


def small_spec(num_ids=4, attention=CFAA):
    return tt.ToyModelSpec(channels=(8, 16, 16), num_classes=num_ids, attention=attention)


def eval_model(attention, seed=5):
    """An untrained small model; with attention, a nonzero output projection
    makes the attention module shape the feature."""
    model = tt.ToyModel(small_spec(attention=attention), Rng(seed).child(0))
    if attention != NONE:
        attention = dict(model.layers)["attention"].params
        attention["w_o"] = Rng(seed + 1).normal(attention["w_o"].shape)
    return model


def mixed_length_tracklets():
    """Four tracklets each of 4, 7, 8, 13 and 40 frames (1, 1, 2, 3 and 10
    clips of 4), under both cameras, with distinct tids."""
    tracks = []
    for n in (4, 7, 8, 13, 40):
        tracks += tt.SyntheticIdentityDataset(num_ids=2, tracklets_per_id=2, frames_per_tracklet=n, seed=n).tracklets
    for tid, tr in enumerate(tracks):
        tr.tid = tid
    return tracks


def reference_features(model, tracks):
    return np.stack([reference_tracklet_feature(model, tr) for tr in tracks])


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

    @pytest.mark.parametrize("field,value", [("num_ids", 0), ("tracklets_per_id", 0), ("tracklets_per_id", -2),
                                             ("frames_per_tracklet", 0), ("frames_per_tracklet", -1)])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be at least 1, got {value}"):
            tt.SyntheticIdentityDataset(**{"num_ids": 2, field: value})

    @pytest.mark.parametrize("palette, message", [
        (np.full((4, 1), 0.5), "palette must be a (4, 3) array of numbers, got a float64 array of shape (4, 1)"),
        (np.full((3, 3), 0.5), "palette must be a (4, 3) array of numbers, got a float64 array of shape (3, 3)"),
        ([[0.5] * 3] * 4, "palette must be a (4, 3) array of numbers, got list"),
        (np.full((4, 3), "red"), "palette must be a (4, 3) array of numbers, got a <U3 array of shape (4, 3)"),
        (np.where(np.eye(4, 3), np.nan, 0.5), "palette contains non-finite values"),
        (np.where(np.eye(4, 3), np.inf, 0.5), "palette contains non-finite values"),
    ], ids=["one-channel", "too-few-ids", "list", "strings", "nan", "inf"])
    def test_bad_palette_rejected(self, palette, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=1, frames_per_tracklet=1, palette=palette)

    def test_palette_separation(self):
        ds = tt.SyntheticIdentityDataset(num_ids=20, seed=0)
        dists = [
            np.linalg.norm(ds.palette[i] - ds.palette[j])
            for i in range(20) for j in range(i + 1, 20)
        ]
        assert min(dists) > 0.15

    def test_more_identities_than_lattice_points_get_new_colors(self):
        # the palette lattice has 27 points; identities 27-29 draw their colors
        ds = tt.SyntheticIdentityDataset(num_ids=30, tracklets_per_id=1, frames_per_tracklet=1, seed=0)
        assert ds.palette.shape == (30, 3)
        assert len({tuple(color) for color in ds.palette}) == 30
        assert {tr.identity for tr in ds.tracklets} == set(range(30))


class TestSpec:
    @pytest.mark.parametrize("channels, strides", [((32, 64, 64), (2, 2)), ((32,), (2, 2))])
    def test_channels_and_strides_of_different_lengths_rejected(self, channels, strides):
        # zip would build min(len(channels), len(strides)) blocks
        with pytest.raises(ValidationError, match=r"^channels and strides must give the same number of blocks, "
                                                     rf"at least one; got {len(channels)} and 2$"):
            tt.ToyModelSpec(channels=channels, strides=strides)

    def test_empty_channels_rejected(self):
        with pytest.raises(ValidationError, match=r"^channels and strides must .*; got 0 and 0$"):
            tt.ToyModelSpec(channels=(), strides=())

    @pytest.mark.parametrize("attention", [("cfaa",), ("cfaa", 4), ("cfaa", 4.0, 2), ("nonlocal",), ("none", 1),
                                           ("nonlocal3d", 1, 1), "cfaa", (), None])
    def test_unknown_attention_rejected(self, attention):
        with pytest.raises(ValidationError, match=r"^attention must be \('cfaa', scales, heads\), "
                                                     rf"\('nonlocal3d',\) or \('none',\), got {re.escape(repr(attention))}$"):
            tt.ToyModelSpec(attention=attention)

    def test_cfaa_scales_the_widths_do_not_divide_rejected(self):
        with pytest.raises(ValidationError, match=r"^c_in=32 not divisible by scales=3$"):
            tt.ToyModelSpec(attention=("cfaa", 3, 2))

    def test_attention_configs(self):
        want = dict(c_in=32, c_qk=16, c_out=32, axis_lengths=(4, 16, 8))
        assert tt.ToyModelSpec().attention_config() == att.AttentionConfig(
            heads=2, scales=4, encoding="relative", **want)
        assert tt.ToyModelSpec(attention=("nonlocal3d",)).attention_config() == att.AttentionConfig(**want)


class TestLayers:
    def test_model_backward_matches_fd_on_conv0(self):
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
        num = fd_gradient(loss, dict(model.layers)["conv0"].weight)
        assert rel_error(grads["conv0.weight"], num) < 1e-4

    @pytest.mark.parametrize("attention, init", [(CFAA, att.init_cfaa_params), (NONLOCAL, att.init_nonlocal_params)],
                             ids=["cfaa", "nonlocal3d"])
    def test_attention_layer_is_init_params_with_zero_output_projection(self, attention, init):
        cfg = small_spec(attention=attention).attention_config()
        layer, drawn = tt.AttentionLayer(attention[0], cfg, Rng(3)), init(cfg, Rng(3))
        assert not layer.params["w_o"].any() and drawn["w_o"].any()
        assert list(layer.params) == list(drawn)
        for name, a in layer.params.items():
            assert name == "w_o" or np.array_equal(a, drawn[name]), name

    @pytest.mark.parametrize("attention, ops", [(CFAA, ("cfaa_forward", "cfaa_backward")),
                                                (NONLOCAL, ("nonlocal_3d_forward", "nonlocal_3d_backward"))],
                             ids=["cfaa", "nonlocal3d"])
    def test_one_attention_call_per_batch(self, monkeypatch, attention, ops):
        from axialreid import aggregation as agg

        calls = []

        def recording(name):
            original = getattr(att, name)

            def wrapper(x, *args, **kwargs):
                calls.append((name, x.shape))
                return original(x, *args, **kwargs)
            return wrapper

        for name in ops:
            monkeypatch.setattr(att, name, recording(name))
        ds = small_dataset()
        model = tt.ToyModel(small_spec(attention=attention), Rng(4).child(0))
        frames = np.stack([t.frames[:4] for t in ds.tracklets[:6]])
        masks = np.stack([t.masks[:4] for t in ds.tracklets[:6]])
        f_pre, _, logits = model.forward(frames, masks, training=True)
        model.backward(f_pre, agg.cross_entropy(logits, np.arange(6) % 4)[1])
        assert calls == [(ops[0], (6, 8, 4, 16, 8)), (ops[1], (6, 8, 4, 16, 8))]

    def test_layer_looks_its_op_up_at_call_time(self, monkeypatch):
        # a profiler may wrap att.cfaa_forward after the model is built; the
        # wrapper reads cfg by keyword or as the third positional argument
        model = eval_model(CFAA)
        configs, original = [], att.cfaa_forward

        def counting(*args, **kwargs):
            configs.append(kwargs["cfg"] if "cfg" in kwargs else args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(att, "cfaa_forward", counting)
        tt.retrieve(model, small_dataset().tracklets)
        assert configs and all(cfg is dict(model.layers)["attention"].cfg for cfg in configs)

    def test_clip_length_other_than_clip_len_rejected(self):
        # B=4 clips of T=5 are 20 frames, which would regroup into 5 volumes of 4
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(4).child(0))
        frames = np.stack([t.frames[:5] for t in ds.tracklets[:4]])
        masks = np.stack([t.masks[:5] for t in ds.tracklets[:4]])
        for training in (True, False):
            with pytest.raises(ValidationError, match=r"T=5.*clip_len=4"):
                model.forward(frames, masks, training)

    def test_backward_after_eval_forward_rejected(self):
        from axialreid import aggregation as agg

        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(4).child(0))
        frames = np.stack([t.frames[:4] for t in ds.tracklets[:4]])
        masks = np.stack([t.masks[:4] for t in ds.tracklets[:4]])
        f_pre, _, logits = model.forward(frames, masks, training=True)
        model.forward(frames, masks, training=False)
        with pytest.raises(ValidationError, match="training-mode forward"):
            model.backward(np.zeros_like(f_pre), agg.cross_entropy(logits, np.arange(4))[1])


PROTOCOL_MODEL = tt.ToyModel(small_spec(), Rng(7).child(0))


class TestLayerProtocol:
    @pytest.mark.parametrize("attention, name", [(CFAA, name) for name, _ in PROTOCOL_MODEL.layers]
                             + [(NONLOCAL, "attention")],
                             ids=[name for name, _ in PROTOCOL_MODEL.layers] + ["nonlocal3d-attention"])
    def test_backward_returns_dx_and_grads_named_like_params(self, attention, name):
        model = tt.ToyModel(small_spec(attention=attention), Rng(7).child(0))
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

    def test_default_model_parameter_names_pinned(self):
        # the names the README lists and perfbench looks up (a name ending in .w_o), in order
        layer = ("w_q", "w_k", "w_v", "r_q", "r_k", "r_v")
        attention = [f"attention.scale{s}.{a}.{k}" for s in range(4) for a in ("aa_h", "aa_w", "aa_t") for k in layer]
        want = ["conv0.weight", "bn0.gamma", "bn0.beta", *attention, "attention.w_o",
                "conv1.weight", "bn1.gamma", "bn1.beta", "conv2.weight", "bn2.gamma", "bn2.beta",
                "bn_feat.gamma", "bn_feat.beta", "classifier.weight"]
        assert [name for name, _ in tt.ToyModel(tt.ToyModelSpec(), Rng(0)).named_params()] == want


def einsum_conv_forward(weight, s, x):
    """Reference 3x3 convolution: one einsum per kernel tap, no BLAS."""
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = (h - 1) // s + 1, (w - 1) // s + 1
    out = np.zeros((b, weight.shape[0], ho, wo))
    for di in range(3):
        for dj in range(3):
            sl = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s]
            out += np.einsum("oc,bchw->bohw", weight[:, :, di, dj], sl)
    return out


def einsum_conv_backward(weight, s, x, grad):
    """Reference (d_x, d_w) for einsum_conv_forward."""
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = grad.shape[2:]
    d_w = np.zeros_like(weight)
    d_xp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            sl = xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s]
            d_w[:, :, di, dj] = np.einsum("bohw,bchw->oc", grad, sl)
            d_xp[:, :, di : di + s * ho : s, dj : dj + s * wo : s] += np.einsum(
                "oc,bohw->bchw", weight[:, :, di, dj], grad
            )
    return d_xp[:, :, 1 : 1 + x.shape[2], 1 : 1 + x.shape[3]], d_w


def scaled_error(a, ref):
    """max |a - ref| relative to the largest |ref|: the two summation orders
    differ by ~1e-16 of the array's scale, which is ~1e-11 elementwise where
    a sum cancels to nearly zero."""
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


# (c_in, c_out, stride, h, w): small odd/even cases, then the three convs of
# the default ToyModelSpec at its 32x16 frames
CONV_SHAPES = [
    (2, 3, 1, 7, 5), (2, 3, 2, 7, 5), (3, 4, 2, 6, 4),
    (3, 32, 2, 32, 16), (32, 64, 2, 16, 8), (64, 64, 1, 8, 4),
]


def conv_id(shape):
    c_in, c_out, s, h, w = shape
    return f"{c_in}x{c_out}x3x{s}x{h}x{w}"  # the 3 names the kernel


class TestConvOracle:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=conv_id)
    def test_matches_einsum_reference(self, shape, batch):
        c_in, c_out, s, h, w = shape
        rng = Rng(31)
        conv = tt.Conv2d(c_in, c_out, s, rng.child(0))
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

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=conv_id)
    def test_bitwise_equal_to_strided_tap_reference(self, shape, batch):
        c_in, c_out, s, h, w = shape
        rng = Rng(37)
        conv, ref = (tt.Conv2d(c_in, c_out, s, rng.child(0)) for _ in range(2))
        x = rng.child(1).normal((batch, c_in, h, w))
        out = conv.forward(x, training=True)
        assert np.array_equal(out, reference_conv_forward(ref, x, training=True))
        g = rng.child(2).normal(out.shape)
        assert np.array_equal(conv.backward(g), reference_conv_backward(ref, g))
        assert np.array_equal(conv.d_weight, ref.d_weight)

    @pytest.mark.parametrize("shape", CONV_SHAPES[:2], ids=conv_id)
    def test_empty_batch_keeps_shape(self, shape):
        c_in, c_out, s, h, w = shape
        conv = tt.Conv2d(c_in, c_out, s, Rng(0))
        out = conv.forward(np.zeros((0, c_in, h, w)), training=True)
        assert out.shape == (0, c_out, (h - 1) // s + 1, (w - 1) // s + 1)


@st.composite
def conv_case(draw):
    """(c_in, c_out, stride, batch, h, w) over small and the model's channel counts."""
    channels = st.one_of(st.integers(1, 8), st.sampled_from([32, 64]))
    return (draw(channels), draw(channels), draw(st.integers(1, 2)), draw(st.integers(1, 5)),
            draw(st.integers(1, 12)), draw(st.integers(1, 12)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(conv_case())
def test_conv_matches_einsum_reference_on_random_shapes(case):
    # off the model's layer shapes the channels-last taps need not keep the
    # strided-tap kernel's bits, only the oracle's tolerance
    c_in, c_out, s, batch, h, w = case
    rng = Rng(41)
    conv = tt.Conv2d(c_in, c_out, s, rng.child(0))
    x = rng.child(1).normal((batch, c_in, h, w))
    out = conv.forward(x, training=True)
    assert scaled_error(out, einsum_conv_forward(conv.weight, s, x)) < 1e-12
    g = rng.child(2).normal(out.shape)
    ref_dx, ref_dw = einsum_conv_backward(conv.weight, s, x, g)
    assert scaled_error(conv.backward(g), ref_dx) < 1e-12
    assert scaled_error(conv.d_weight, ref_dw) < 1e-12


@pytest.mark.parametrize("hw", [(32, 16), (16, 8), (64, 32)], ids=lambda hw: "x".join(map(str, hw)))
def test_model_convs_bitwise_equal_to_strided_tap_reference(hw):
    # the default model's three convs, each at the input size the frames give it
    convs = [layer for _, layer in tt.ToyModel(tt.ToyModelSpec(), Rng(0)).layers if isinstance(layer, tt.Conv2d)]
    h, w = hw
    for i, layer in enumerate(convs):
        (c_out, c_in), s = layer.weight.shape[:2], layer.stride
        rng = Rng(43).child(i)
        conv, ref = (tt.Conv2d(c_in, c_out, s, rng.child(0)) for _ in range(2))
        xs = rng.child(1).normal((40, c_in, h, w))
        h, w = (h - 1) // s + 1, (w - 1) // s + 1
        gs = rng.child(2).normal((40, c_out, h, w))
        for batch in range(1, 41):
            x, g = xs[:batch], gs[:batch]
            out = conv.forward(x, training=True)
            assert np.array_equal(out, reference_conv_forward(ref, x, training=True)), (i, batch)
            assert np.array_equal(conv.backward(g), reference_conv_backward(ref, g)), (i, batch)
            assert np.array_equal(conv.d_weight, ref.d_weight), (i, batch)


LAYOUTS = {"nc": (6, 4), "nchw": (3, 4, 4, 2)}


class TestBatchNorm:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_running_stats_converge_in_eval(self, layout):
        rng = Rng(9)
        shape = (32, 3) + LAYOUTS[layout][2:]
        bn = tt.BatchNorm(3)
        for i in range(50):
            bn.forward(rng.child(i).normal(shape) * 2.0 + 1.0, training=True)
        out = bn.forward(np.ones((1,) + shape[1:]), training=False)
        assert np.max(np.abs(out)) < 0.2

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(shape=st.sampled_from([(6, 4), (3, 4, 4, 2), (32, 32, 16, 8), (8, 64, 4, 2), (1, 3, 1, 1)]),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           offset=st.sampled_from([0.0, 1.0, -1e3]))
    def test_forward_bitwise_equal_to_var_reference(self, shape, seed, scale, offset):
        # two training steps then an eval step, on the library's layer and on
        # the reference with the same gamma and beta: outputs, caches and
        # running statistics keep every bit
        rng = np.random.default_rng(seed)
        bn, ref = tt.BatchNorm(shape[1]), tt.BatchNorm(shape[1])
        bn.gamma = ref.gamma = rng.standard_normal(shape[1])
        bn.beta = ref.beta = rng.standard_normal(shape[1])
        for training in (True, True, False):
            x = offset + scale * rng.standard_normal(shape)
            assert np.array_equal(bn.forward(x, training), reference_batchnorm_forward(ref, x, training))
            for got, want in ((bn.running_mean, ref.running_mean), (bn.running_var, ref.running_var)):
                assert np.array_equal(got, want)
            if training:
                assert all(np.array_equal(a, b) for a, b in zip(bn._cache, ref._cache))


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

    def test_single_identity_batches_rejected(self):
        ds = tt.SyntheticIdentityDataset(num_ids=2, tracklets_per_id=4, frames_per_tracklet=8, seed=6)
        with pytest.raises(ValidationError, match=r"^p_ids must be at least 2, got 1$"):
            tt.train(small_spec(num_ids=2), ds, epochs=2, seed=3, p_ids=1, k_tracks=2, lr=0.01)

    @pytest.mark.parametrize("flip", [False, True])
    def test_sampled_clip_is_source_clip_mirrored_when_flipped(self, flip):
        # a tracklet whose frames and masks are both asymmetric in W, so a missed flip shows
        track = next(t for t in small_dataset().tracklets if not np.array_equal(t.masks, t.masks[..., ::-1]))
        assert not np.array_equal(track.frames, track.frames[..., ::-1])
        clip_len, f = tt.CLIP_LEN, track.frames.shape[0]
        starts = set()
        for seed in range(8):
            frames, masks = tt._sample_clip(track, Rng(seed), flip)
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

    def test_classifier_width_other_than_identity_count_rejected(self):
        with pytest.raises(ValidationError, match=r"^classifier width 5 != 4 identities$"):
            tt.train(small_spec(num_ids=5), small_dataset(), epochs=1, seed=0, p_ids=2, k_tracks=2)

    @ATTENTION_KINDS
    def test_tracklets_shorter_than_clip_rejected(self, attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=4, frames_per_tracklet=3, seed=3)
        with pytest.raises(ValidationError, match=r"\b3 frames.*clip_len=4"):
            tt.train(small_spec(attention=attention), ds, epochs=1, seed=0)

    @ATTENTION_KINDS
    def test_diverging_run_raises_naming_epoch_and_batch(self, attention):
        # one batch per epoch: the first step's parameters stay finite, and the
        # second batch's forward overflows; no RuntimeWarning escapes either
        spec = tt.ToyModelSpec(num_classes=4, attention=attention)
        with pytest.raises(NumericalError, match=r"^training diverged at epoch 2, batch 1: .*non-finite"):
            tt.train(spec, tt.SyntheticIdentityDataset(num_ids=4, seed=0), epochs=2, seed=0, lr=1e308)

    def test_non_finite_parameter_raises(self, monkeypatch):
        # the loss of the only batch is finite; its update is not: an infinite
        # learning rate is rejected up front, so the gradients overflow instead
        backward = tt.ToyModel.backward
        monkeypatch.setattr(tt.ToyModel, "backward",
                            lambda self, *a: {k: g * 1e300 for k, g in backward(self, *a).items()})
        spec = tt.ToyModelSpec(num_classes=4, attention=NONE)
        with pytest.raises(NumericalError, match=r"^training diverged at epoch 1, batch 1: parameter \S+ contains "):
            tt.train(spec, tt.SyntheticIdentityDataset(num_ids=4, seed=0), epochs=1, seed=0, lr=1e300)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=-1), "epochs must be at least 0, got -1"),
        (dict(lr=-0.05), "lr must be finite and non-negative, got -0.05"),
        (dict(lr=np.nan), "lr must be finite and non-negative, got nan"),
        (dict(lr=np.inf), "lr must be finite and non-negative, got inf"),
        (dict(k_tracks=1), "k_tracks must be at least 2, got 1"),
        (dict(k_tracks=0), "k_tracks must be at least 2, got 0"),
        (dict(k_tracks=-1), "k_tracks must be at least 2, got -1"),
    ])
    def test_bad_training_arguments_rejected_up_front(self, kwargs, message):
        # each one before a model is built or a batch is drawn
        args = dict(epochs=1, seed=0, lr=0.05, p_ids=2, k_tracks=2) | kwargs
        with pytest.raises(ValidationError, match=f"^{message}$"):
            tt.train(small_spec(), small_dataset(), **args)


# Trains with CF-AA, without attention and with non-local attention at the
# default channel widths, then prints one sha256 over the losses, every
# parameter and the retrieval distances.
TRAIN_DIGEST = """
import hashlib
from axialreid import toytrain as tt
from helpers import fresh_split
h = hashlib.sha256()
ds = tt.SyntheticIdentityDataset(num_ids=8, seed=3)
for attention in (tt.ToyModelSpec.attention, ("none",), ("nonlocal3d",)):
    spec = tt.ToyModelSpec(num_classes=8, attention=attention)
    model, log = tt.train(spec, ds, epochs=2, seed=11)
    h.update(repr(log.epoch_losses).encode())
    for _, param in model.named_params():
        h.update(param.tobytes())
    h.update(tt.retrieve(model, fresh_split(ds, 12).tracklets).distances.tobytes())
print(h.hexdigest())
"""
# its value at the default channel widths, 1 and 2 BLAS threads alike
TRAIN_DIGEST_VALUE = "8dc3fdc6a8a89a90c13fddb601df0dc4d6ce19d667a5e2a112a48afa600109ae"


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
    assert one == two == TRAIN_DIGEST_VALUE


def test_kernels_bitwise_equal_to_reference_kernels(monkeypatch):
    # one CF-AA epoch at the default channel widths plus retrieve, once on the
    # library's kernels and once on the references they replaced
    def digest():
        ds = small_dataset()
        model, log = tt.train(tt.ToyModelSpec(num_classes=ds.num_ids), ds, epochs=1, seed=5)
        h = hashlib.sha256(repr(log.epoch_losses).encode())
        for _, param in model.named_params():
            h.update(param.tobytes())
        h.update(tt.retrieve(model, ds.tracklets).distances.tobytes())
        return h.hexdigest()

    fast = digest()
    monkeypatch.setattr(tt, "tracklet_features", reference_features)
    monkeypatch.setattr(agg, "mask_downsample", reference_mask_downsample)
    monkeypatch.setattr(att, "_softmax", reference_softmax)
    monkeypatch.setattr(att, "_softmax_backward", reference_softmax_backward)
    monkeypatch.setattr(att, "_gather_offsets", reference_gather_offsets)
    monkeypatch.setattr(att, "_scatter_offsets", reference_scatter_offsets)
    monkeypatch.setattr(tt.Conv2d, "forward", reference_conv_forward)
    monkeypatch.setattr(tt.Conv2d, "backward", reference_conv_backward)
    monkeypatch.setattr(tt.BatchNorm, "forward", reference_batchnorm_forward)
    monkeypatch.setattr(tt.ToyModel, "backward", reference_model_backward)
    assert digest() == fast


def test_conv0_weight_gradient_equals_full_backward():
    # the model skips conv0's input gradient; its weight gradient keeps the bits
    # of the backward that forms it, and so does every other gradient
    ds = small_dataset()
    model = tt.ToyModel(tt.ToyModelSpec(num_classes=ds.num_ids), Rng(4).child(0))
    frames = np.stack([t.frames[:4] for t in ds.tracklets[:8]])
    masks = np.stack([t.masks[:4] for t in ds.tracklets[:8]])
    labels = np.array([t.identity for t in ds.tracklets[:8]])
    f_pre, _, logits = model.forward(frames, masks, training=True)
    _, d_logits = agg.cross_entropy(logits, labels)
    _, d_f_pre = agg.batch_hard_triplet(f_pre, labels)
    grads = model.backward(d_f_pre, d_logits)
    full = reference_model_backward(model, d_f_pre, d_logits)  # the layer caches are still the step's
    assert list(full) == list(grads)
    for name, grad in grads.items():
        assert np.array_equal(grad, full[name]), name
    assert dict(model.layers)["conv0"].backward(np.ones((32, 32, 16, 8)), want_dx=False) is None


# One CF-AA training epoch at the default spec, after a warm-up epoch, then one
# retrieve over the dataset (eval-mode conv and attention); each window runs 3
# times, and the script prints the process CPU seconds and wall seconds of the
# run with the least CPU time, one line per window.
TRAIN_CPU_WALL = """
import time
from axialreid import toytrain as tt
ds = tt.SyntheticIdentityDataset(num_ids=8, seed=3)
spec = tt.ToyModelSpec(num_classes=8)
model, _ = tt.train(spec, ds, epochs=1, seed=0)

def timed(run):
    wall, cpu = time.perf_counter(), time.process_time()
    run()
    return time.process_time() - cpu, time.perf_counter() - wall

for run in (lambda: tt.train(spec, ds, epochs=1, seed=1), lambda: tt.retrieve(model, ds.tracklets)):
    print(*min(timed(run) for _ in range(3)))
"""


def cpu_wall_windows(threads: str | None) -> list[tuple[float, float]]:
    """(CPU s, wall s) of TRAIN_CPU_WALL's two windows at OPENBLAS_NUM_THREADS
    = threads, or at the BLAS default when threads is None."""
    src = str(Path(tt.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run([sys.executable, "-c", TRAIN_CPU_WALL], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    windows = [tuple(map(float, line.split())) for line in run.stdout.splitlines()]
    assert len(windows) == 2, run.stdout
    return windows


def test_training_keeps_blas_helper_threads_idle():
    # A kernel that hands OpenBLAS a large GEMM wakes its helper threads. Their
    # spin-wait burns CPU for no gain on this workload, so at the default thread
    # count the process must use about one core. On a 2-vCPU host the threaded
    # path can also stall with CPU about equal to wall time, which the first
    # bound cannot see; the second holds the default thread count's CPU time
    # near that of one BLAS thread.
    default, one = cpu_wall_windows(None), cpu_wall_windows("1")
    for name, (cpu, wall), (cpu_one, _) in zip(("training", "retrieve"), default, one):
        assert cpu <= 1.3 * wall, f"{name}: process CPU {cpu:.2f} s for {wall:.2f} s of wall time"
        assert cpu <= 1.5 * cpu_one, f"{name}: process CPU {cpu:.2f} s, against {cpu_one:.2f} s at one BLAS thread"


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
        model = tt.ToyModel(small_spec(attention=NONE), Rng(1).child(0))
        tr = ds.tracklets[0]  # 8 frames = 2 clips of clip_len 4
        clipped = tt.tracklet_features(model, [tr])[0]
        _, whole, _ = model.forward(tr.frames[None], tr.masks[None], training=False)
        np.testing.assert_allclose(clipped, whole[0], atol=1e-10)

    @ATTENTION_KINDS
    def test_one_forward_per_tracklet_equals_clip_loop(self, attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=2, frames_per_tracklet=13, seed=6)
        model = eval_model(attention)
        # 3 clips of 4 frames per tracklet, the 13th frame dropped; two
        # tracklets share each forward
        want = [np.mean([model.forward(tr.frames[c : c + 4][None], tr.masks[c : c + 4][None], training=False)[1][0]
                         for c in (0, 4, 8)], axis=0) for tr in ds.tracklets]
        assert np.array_equal(tt.tracklet_features(model, ds.tracklets), np.stack(want))

    @ATTENTION_KINDS
    def test_features_bitwise_equal_to_per_tracklet_reference(self, attention):
        # runs of 1, 1, 2 and 3 clips fill forwards of up to FORWARD_CLIPS
        # clips; a 40-frame tracklet (10 clips) runs alone
        model = eval_model(attention)
        tracks = mixed_length_tracklets()
        assert np.array_equal(tt.tracklet_features(model, tracks), reference_features(model, tracks))
        order = Rng(3).permutation(len(tracks))  # other neighbours, other groups
        shuffled = [tracks[i] for i in order]
        assert np.array_equal(tt.tracklet_features(model, shuffled), reference_features(model, shuffled))

    def test_runs_fill_forwards_of_at_most_forward_clips(self, monkeypatch):
        model = eval_model(CFAA)
        clips, forward = [], model.forward

        def recording(frames, masks, training):
            clips.append(frames.shape[0])
            return forward(frames, masks, training)

        monkeypatch.setattr(model, "forward", recording)
        tt.tracklet_features(model, mixed_length_tracklets())
        # eight 1-clip tracklets, four of 2 clips, two runs of two 3-clip
        # tracklets, then each 10-clip tracklet alone
        assert tt.FORWARD_CLIPS == 8 and clips == [8, 8, 6, 6, 10, 10, 10, 10]

    def test_mixed_frame_sizes_bitwise_equal_to_reference(self):
        # without attention any frame size whose masks pool to the feature
        # map runs; a 16x8 tracklet never shares a forward with a 32x16 one
        model = eval_model(NONE)
        tracks = small_dataset().tracklets
        for tr in tracks[1::3]:
            tr.frames, tr.masks = tr.frames[..., ::2, ::2].copy(), tr.masks[..., ::2, ::2].copy()
        assert np.array_equal(tt.tracklet_features(model, tracks), reference_features(model, tracks))

    @ATTENTION_KINDS
    def test_permuting_tracklets_permutes_distances(self, attention):
        model = eval_model(attention)
        tracks = mixed_length_tracklets()
        base = tt.retrieve(model, tracks)
        shuffled = tt.retrieve(model, [tracks[i] for i in Rng(4).permutation(len(tracks))])
        rows, cols = ({m.tid: i for i, m in enumerate(side)} for side in (base.queries, base.gallery))
        picked = base.distances[np.ix_([rows[m.tid] for m in shuffled.queries], [cols[m.tid] for m in shuffled.gallery])]
        assert np.array_equal(shuffled.distances, picked)

    def test_short_tracklet_inside_a_group_named_as_alone(self):
        model = eval_model(CFAA)
        tracks = small_dataset().tracklets[:4]
        tracks[1].frames, tracks[1].masks = tracks[1].frames[:3], tracks[1].masks[:3]
        with pytest.raises(ValidationError) as want:
            reference_features(model, tracks)
        with pytest.raises(ValidationError, match=r"^tracklet 1 has 3 frames, fewer than clip_len=4$") as got:
            tt.tracklet_features(model, tracks)
        assert str(got.value) == str(want.value)

    def test_bad_mask_inside_a_group_reported_as_alone(self):
        # the frame index is the one within the failing tracklet, not within
        # the shared forward
        model = eval_model(NONE)
        tracks = small_dataset().tracklets[:4]
        tracks[2].masks[5, 0, 0] = 0.5
        with pytest.raises(ValidationError) as want:
            reference_features(model, tracks)
        with pytest.raises(ValidationError, match=r"^mask frame 5 ") as got:
            tt.tracklet_features(model, tracks)
        assert str(got.value) == str(want.value)

    def test_eval_forward_retains_no_cache(self):
        # eval mode caches nothing; the layer caches of one tracklet's
        # features on the default spec would come to 2.84 MiB
        track = tt.SyntheticIdentityDataset(num_ids=1, tracklets_per_id=1, seed=3).tracklets[0]
        model = tt.ToyModel(tt.ToyModelSpec(), Rng(0).child(0))
        gc.collect()
        tracemalloc.start()
        try:
            tt.tracklet_features(model, [track])
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

    @ATTENTION_KINDS
    def test_tracklet_shorter_than_clip_rejected(self, attention):
        ds = tt.SyntheticIdentityDataset(num_ids=4, tracklets_per_id=4, frames_per_tracklet=3, seed=3)
        model = tt.ToyModel(small_spec(attention=attention), Rng(0).child(0))
        with pytest.raises(ValidationError, match=r"tracklet 0 has 3 frames.*clip_len=4"):
            tt.retrieve(model, ds.tracklets)

    def test_non_finite_features_raise_naming_the_tracklet(self):
        model = eval_model(NONE)
        tracks = small_dataset().tracklets[:4]
        tracks[2].frames[1] = 1e308  # the first conv overflows
        with pytest.raises(NumericalError, match=r"^tracklet 2 has non-finite features$"):
            tt.tracklet_features(model, tracks)

    def test_needs_two_cameras(self):
        ds = small_dataset()
        model = tt.ToyModel(small_spec(), Rng(2).child(0))
        only_cam0 = [t for t in ds.tracklets if t.camera == 0]
        with pytest.raises(ValidationError):
            tt.retrieve(model, only_cam0)
