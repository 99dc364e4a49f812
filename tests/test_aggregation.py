import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid import aggregation as agg
from axialreid import toytrain as tt
from axialreid.errors import DimensionError, ValidationError
from axialreid.tensor import Rng
from helpers import reference_mask_downsample


class TestMaskDownsample:
    def test_all_valid_stays_valid(self):
        out = agg.mask_downsample(np.ones((2, 8, 4)), (4, 2))
        assert np.all(out == 1.0)

    def test_strict_majority_rule(self):
        m = np.zeros((1, 2, 2))
        m[0, 0, 0] = m[0, 0, 1] = m[0, 1, 0] = 1  # 3 of 4 valid
        assert agg.mask_downsample(m, (1, 1))[0, 0, 0] == 1.0
        m[0, 1, 0] = 0  # exactly half
        # 2 of 4 is not strictly more than half, but the all-zero frame fallback kicks in
        out = agg.mask_downsample(m, (1, 1))
        assert out[0, 0, 0] == 1.0

    def test_majority_without_fallback(self):
        m = np.zeros((1, 2, 4))
        m[0, :, :2] = 1  # left cell 4/4, right cell 0/4
        m[0, 0, 2] = 1  # right cell 1/4: minority
        out = agg.mask_downsample(m, (1, 2))
        assert out[0, 0, 0] == 1.0 and out[0, 0, 1] == 0.0
        m[0, 1, 2] = 1  # right cell 2/4: still not strictly > half
        assert agg.mask_downsample(m, (1, 2))[0, 0, 1] == 0.0
        m[0, 0, 3] = 1  # right cell 3/4
        assert agg.mask_downsample(m, (1, 2))[0, 0, 1] == 1.0

    def test_fully_padded_frame_falls_back_to_ones(self):
        m = np.zeros((2, 4, 4))
        m[1] = 1
        out = agg.mask_downsample(m, (2, 2))
        assert np.all(out[0] == 1.0) and np.all(out[1] == 1.0)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(DimensionError):
            agg.mask_downsample(np.ones((1, 6, 4)), (4, 2))

    @pytest.mark.parametrize("value", [np.nan, 0.5, 2.0])
    def test_value_other_than_zero_or_one_rejected(self, value):
        m = np.ones((4, 8, 4))
        m[3, 0, 0] = m[2, 5, 1] = value
        with pytest.raises(ValidationError, match=r"^mask frame 2 holds a value other than 0 or 1$"):
            agg.mask_downsample(m, (4, 2))

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(t=st.integers(1, 4), factors=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           cells=st.tuples(st.integers(1, 3), st.integers(1, 3)), density=st.floats(0.0, 1.0),
           dead=st.lists(st.booleans(), min_size=4, max_size=4), as_bool=st.booleans(), seed=st.integers(0, 2**16))
    def test_equals_reshape_sum_reference(self, t, factors, cells, density, dead, as_bool, seed):
        (fh, fw), (th, tw) = factors, cells
        m = np.random.default_rng(seed).random((t, th * fh, tw * fw)) < density
        m[np.array(dead[:t])] = False  # all-zero frames fall back to all ones
        m = m if as_bool else m.astype(np.float64)
        got, want = agg.mask_downsample(m, (th, tw)), reference_mask_downsample(m, (th, tw))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestMaskedAvgPool:
    def test_all_valid_is_plain_mean(self):
        rng = Rng(0)
        f = rng.normal((3, 4, 2, 2))
        out = agg.masked_avg_pool(f, np.ones((3, 2, 2)))
        np.testing.assert_allclose(out, f.mean(axis=(2, 3)), atol=1e-15)

    def test_single_valid_cell(self):
        f = Rng(1).normal((1, 3, 2, 2))
        m = np.zeros((1, 2, 2))
        m[0, 1, 0] = 1
        np.testing.assert_array_equal(agg.masked_avg_pool(f, m)[0], f[0, :, 1, 0])

    def test_invalid_cells_do_not_matter(self):
        rng = Rng(2)
        f = rng.child(0).normal((2, 3, 4, 4))
        m = (rng.child(1).uniform(0, 1, (2, 4, 4)) > 0.5).astype(float)
        m[:, 0, 0] = 1  # keep at least one valid cell
        base = agg.masked_avg_pool(f, m)
        f2 = f.copy()
        f2 += (1 - m[:, None]) * rng.child(2).normal(f.shape) * 100
        assert np.array_equal(agg.masked_avg_pool(f2, m), base)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            agg.masked_avg_pool(np.ones((2, 3, 4, 4)), np.ones((2, 4, 3)))


class TestAggregate:
    """The tracklet head of the toy model: f_pre is the temporal mean of the
    masked-pooled frame features, f_post = BN(f_pre). Without attention and in
    eval mode, frames do not interact, so a one-frame clip gives a frame's feature."""

    @staticmethod
    def model():
        spec = tt.ToyModelSpec(channels=(4, 6), strides=(2, 2), num_classes=2, attention=("none",))
        return tt.ToyModel(spec, Rng(0))

    @staticmethod
    def clip(seed, t=4):
        frames = Rng(seed).normal((1, t, 3, 8, 4))
        masks = np.ones((1, t, 8, 4))
        masks[:, :, :, 0] = 0.0  # a padded column
        return frames, masks

    def test_single_frame(self):
        model = self.model()
        frames, masks = self.clip(4, t=1)
        f_pre, _, _ = model.forward(frames, masks, training=False)
        x = frames[0]
        for _, layer in model.layers:
            x = layer.forward(x, training=False)
        expected = agg.masked_avg_pool(x, agg.mask_downsample(masks[0], x.shape[2:]))
        np.testing.assert_array_equal(f_pre, expected)

    def test_identical_frames(self):
        model = self.model()
        frames, masks = self.clip(5, t=1)
        one, _, _ = model.forward(frames, masks, training=False)
        tiled, _, _ = model.forward(np.repeat(frames, 4, axis=1), np.repeat(masks, 4, axis=1), training=False)
        np.testing.assert_allclose(tiled, one, atol=1e-15)

    def test_identity_bn_in_eval_mode(self):
        model = self.model()
        model.bn_feat.eps = 0.0  # unit scale, zero shift, running stats (0, 1)
        f_pre, f_post, _ = model.forward(*self.clip(6), training=False)
        np.testing.assert_array_equal(f_post, f_pre)

    def test_frame_order_invariance(self):
        model = self.model()
        frames, masks = self.clip(7, t=5)
        f_pre, _, _ = model.forward(frames, masks, training=False)
        rev, _, _ = model.forward(frames[:, ::-1], masks[:, ::-1], training=False)
        per_frame = [model.forward(frames[:, i : i + 1], masks[:, i : i + 1], training=False)[0] for i in range(5)]
        np.testing.assert_allclose(rev, f_pre, atol=1e-15)
        np.testing.assert_allclose(np.mean(per_frame, axis=0), f_pre, atol=1e-15)

    def test_empty_rejected(self):
        frames, masks = self.clip(8, t=1)
        with pytest.raises(DimensionError):
            self.model().forward(frames[:, :0], masks[:, :0], training=False)


class TestTriplet:
    def test_separated_clusters_zero_loss(self):
        feats = np.array([[0.0, 0], [0.1, 0], [10, 10], [10.1, 10]])
        labels = np.array([0, 0, 1, 1])
        loss, grad = agg.batch_hard_triplet(feats, labels)
        assert loss == 0.0
        assert not grad.any()

    def test_identical_features_loss_is_margin(self):
        feats = np.ones((4, 3))
        labels = np.array([0, 0, 1, 1])
        loss, _ = agg.batch_hard_triplet(feats, labels)
        assert loss == pytest.approx(0.3, abs=1e-15)

    def test_against_exhaustive_pair_oracle(self):
        rng = Rng(10)
        feats = rng.normal((8, 6))
        labels = np.repeat(np.arange(4), 2)
        loss, _ = agg.batch_hard_triplet(feats, labels)
        # oracle: exhaustive hardest-pair search with explicit loops
        total = 0.0
        for a in range(8):
            d_pos = max(
                np.linalg.norm(feats[a] - feats[j])
                for j in range(8) if j != a and labels[j] == labels[a]
            )
            d_neg = min(
                np.linalg.norm(feats[a] - feats[j])
                for j in range(8) if labels[j] != labels[a]
            )
            total += max(0.0, 0.3 + d_pos - d_neg)
        assert abs(loss - total / 8) < 1e-12

    def test_nonnegative_and_zero_iff_satisfied(self):
        rng = Rng(11)
        for trial in range(20):
            feats = rng.child(trial).normal((6, 4))
            labels = np.repeat(np.arange(3), 2)
            loss, _ = agg.batch_hard_triplet(feats, labels)
            assert loss >= 0.0
            margins_ok = True
            for a in range(6):
                d_pos = max(np.linalg.norm(feats[a] - feats[j]) for j in range(6) if j != a and labels[j] == labels[a])
                d_neg = min(np.linalg.norm(feats[a] - feats[j]) for j in range(6) if labels[j] != labels[a])
                if 0.3 + d_pos - d_neg > 0:
                    margins_ok = False
            assert (loss == 0.0) == margins_ok

    def test_singleton_identity_rejected(self):
        with pytest.raises(ValidationError):
            agg.batch_hard_triplet(np.ones((3, 2)), np.array([0, 0, 1]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = agg.cross_entropy(np.zeros((2, 7)), np.array([0, 3]))
        assert loss == pytest.approx(np.log(7), abs=1e-12)

    def test_confident_correct_logits(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        loss, _ = agg.cross_entropy(logits, np.array([2]))
        assert loss < 1e-9

    def test_gradient_rows_sum_to_zero(self):
        rng = Rng(12)
        logits = rng.child(0).normal((5, 9))
        labels = rng.child(1).integers(0, 9, (5,))
        _, grad = agg.cross_entropy(logits, labels)
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-15

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            agg.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
