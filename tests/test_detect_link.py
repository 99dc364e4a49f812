import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axialreid import detect_link as dl
from axialreid.errors import ValidationError
from axialreid.tensor import Rng
from helpers import reference_link_frame, reference_select_first_frame, resize_bilinear_oracle, write_candidate_file


def box(frame=0, b=(0, 0, 10, 20), conf=0.9, feat=(1.0, 0.0)):
    return dl.CandidateBox(frame=frame, box=b, confidence=conf, feature=np.array(feat))


class TestSelectFirstFrame:
    def test_single_candidate(self):
        c = box()
        assert dl.select_first_frame([c]) is c

    def test_max_area_wins(self):
        cands = [box(b=(0, 0, 10, 20)), box(b=(0, 0, 15, 30)), box(b=(0, 0, 10, 10))]
        assert dl.select_first_frame(cands) is cands[1]

    def test_tie_broken_by_confidence(self):
        cands = [box(b=(0, 0, 10, 20), conf=0.7), box(b=(5, 5, 10, 20), conf=0.9)]
        assert dl.select_first_frame(cands) is cands[1]

    def test_full_tie_keeps_lower_index(self):
        cands = [box(conf=0.9), box(conf=0.9)]
        assert dl.select_first_frame(cands) is cands[0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dl.select_first_frame([])


class TestLinkFrame:
    def test_ema_arithmetic(self):
        cands = [box(feat=(0.9, 0.1)), box(feat=(0.0, 1.0))]
        chosen, f_g = dl.link_frame(np.array([1.0, 0.0]), cands, alpha=0.9)
        assert chosen is cands[0]
        np.testing.assert_allclose(f_g, [0.99, 0.01], atol=1e-15)

    def test_single_candidate_always_chosen(self):
        far = box(feat=(-50.0, 80.0))
        chosen, _ = dl.link_frame(np.array([1.0, 0.0]), [far])
        assert chosen is far

    def test_no_candidates_rejected(self):
        with pytest.raises(ValidationError, match="^no candidates to link$"):
            dl.link_frame(np.array([1.0, 0.0]), [])

    def test_chosen_is_distance_optimal(self):
        rng = Rng(0)
        for trial in range(20):
            f_g = rng.child(trial, 0).normal((4,))
            cands = [box(feat=rng.child(trial, 1, i).normal((4,))) for i in range(5)]
            chosen, _ = dl.link_frame(f_g, cands)
            dmin = min(np.linalg.norm(c.feature - f_g) for c in cands)
            assert np.linalg.norm(chosen.feature - f_g) <= dmin

    def test_monte_carlo_two_identity_linking(self):
        # two interleaved identities with well-separated feature clusters:
        # the linked track must follow the identity of frame 1
        hits = 0
        for trial in range(100):
            rng = Rng(1000 + trial)
            a = dl.ScriptedIdentity(centroid=np.array([1.0, 0.0, 0.0]),
                                    boxes={f: (2, 2, 8, 20) for f in range(4)})
            b = dl.ScriptedIdentity(centroid=np.array([0.0, 1.0, 0.0]),
                                    boxes={f: (12, 2, 6, 18) for f in range(4)})
            cands, truth = dl.synthetic_detector([a, b], 4, rng, noise_scale=0.1)
            f_g = dl.select_first_frame(cands[0]).feature
            followed = True
            for f in range(1, 4):
                chosen, f_g = dl.link_frame(f_g, cands[f], alpha=0.9)
                followed &= truth[f][cands[f].index(chosen)] == 0
            hits += followed
        assert hits >= 99

    def test_convex_combination_weights(self):
        # f_g after n updates is a convex combination of {f_1, chosen f_2..n};
        # track the weights symbolically and compare
        rng = Rng(2)
        feats = [rng.child(i).normal((3,)) for i in range(5)]
        f_g = feats[0]
        weights = [1.0]
        for f in feats[1:]:
            chosen, f_g = dl.link_frame(f_g, [box(feat=f)], alpha=0.9)
            weights = [w * 0.9 for w in weights] + [0.1]
        assert abs(sum(weights) - 1.0) < 1e-12
        recon = sum(w * f for w, f in zip(weights, feats))
        np.testing.assert_allclose(f_g, recon, atol=1e-12)

    def test_alpha_range_validated(self):
        with pytest.raises(ValidationError, match=r"alpha 1\.5 outside \[0, 1\]"):
            dl.link_frame(np.zeros(2), [box()], alpha=1.5)

    def test_distance_and_confidence_tie(self):
        # a nearer candidate wins at any confidence; three at distance 1 go by confidence, then lower index
        f_g = np.array([1.0, 0.0])
        cands = [box(feat=(2.0, 0.0), conf=0.7), box(feat=(0.0, 0.0), conf=0.9),
                 box(feat=(1.0, 1.0), conf=0.9), box(feat=(1.0, 0.5), conf=0.1)]
        assert dl.link_frame(f_g, cands)[0] is cands[3]
        assert dl.link_frame(f_g, cands[:3])[0] is cands[1]
        assert dl.link_frame(f_g, cands[2:0:-1])[0] is cands[2]

    def test_feature_shape_mismatch_names_both_shapes(self):
        shapes = r"candidate feature shape \(3,\) differs from global feature shape \(2,\)"
        with pytest.raises(ValidationError, match=shapes):
            dl.link_frame(np.zeros(2), [box(), box(feat=(1.0, 0.0, 0.0))])
        frames = [Rng(4).child(f).uniform(0, 1, (3, 40, 30)) for f in range(2)]
        cands = [[box(frame=0)], [box(frame=1, feat=(1.0, 0.0, 0.0))]]
        with pytest.raises(ValidationError, match=r"^frame 1: candidate feature shape \(3,\)"):
            dl.process_tracklet(frames, cands)


# a small pool of attribute values, so that area, confidence and feature ties all occur
POOL_SIZES = ((2, 6), (3, 4), (4, 3), (6, 2), (2, 2), (4, 4))  # areas 12, 12, 12, 12, 4, 16
POOL_CONFS = (0.5, 0.9)
POOL_FEATS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 1.0))


@st.composite
def pooled_rows(draw):
    """2-6 frames of 1-6 fresh candidates each, every attribute drawn from the pools."""
    rows = []
    for f in range(draw(st.integers(2, 6))):
        picks = draw(st.lists(st.tuples(st.sampled_from(POOL_SIZES), st.sampled_from(POOL_CONFS),
                                        st.sampled_from(POOL_FEATS)), min_size=1, max_size=6))
        rows.append([dl.CandidateBox(f, (0, 0, w, h), c, np.array(v)) for (w, h), c, v in picks])
    return rows


class TestLinkerAgainstReference:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(rows=pooled_rows(), alpha=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_same_choices_and_same_global_feature_bytes(self, rows, alpha):
        first = dl.select_first_frame(rows[0])
        assert first is reference_select_first_frame(rows[0])
        f_g = ref_g = first.feature
        for row in rows[1:]:
            chosen, f_g = dl.link_frame(f_g, row, alpha)
            want, ref_g = reference_link_frame(ref_g, row, alpha)
            assert chosen is want
            assert f_g.dtype == ref_g.dtype and f_g.tobytes() == ref_g.tobytes()


class TestNormalizeCrop:
    def frame(self, h=100, w=100, seed=3):
        return Rng(seed).uniform(0.1, 1.0, (3, h, w))

    def test_two_to_one_box_pure_resize(self):
        f = self.frame(h=64, w=32)
        out = dl.normalize_crop(f, (0, 0, 32, 64))
        assert out.image.shape == (3, 256, 128)
        assert np.all(out.mask == 1.0)
        assert out.provenance["shift"] == "none"

    def test_slim_left_box_padded_on_left(self):
        f = self.frame(h=80, w=90)
        out = dl.normalize_crop(f, (1, 0, 16, 80))  # h/w = 5 > 3, center at x=9 (left third)
        assert out.provenance["shift"] == "right"
        cols = out.mask.any(axis=0)
        left_pad = int(np.argmax(cols))
        right_pad = len(cols) - int(np.argmax(cols[::-1])) - 1
        assert left_pad > 0
        assert left_pad > (len(cols) - 1 - right_pad)  # more padding on the left

    def test_slim_right_box_padded_on_right(self):
        f = self.frame(h=80, w=90)
        out = dl.normalize_crop(f, (73, 0, 16, 80))
        assert out.provenance["shift"] == "left"

    @pytest.mark.parametrize("slim_ratio", [float("nan"), 0.0, -1.0])
    def test_non_positive_or_nan_slim_ratio_rejected(self, slim_ratio):
        with pytest.raises(ValidationError, match=rf"^slim ratio {slim_ratio} must be positive$"):
            dl.normalize_crop(np.ones((3, 40, 90)), (0, 0, 8, 40), slim_ratio=slim_ratio)

    def test_infinite_slim_ratio_shifts_no_box(self):
        # an 8x40 box at the left edge of a 90-wide frame is slim at the default 3.0
        frame, b = np.ones((3, 40, 90)), (0, 0, 8, 40)
        assert dl.normalize_crop(frame, b).provenance["shift"] == "right"
        assert dl.normalize_crop(frame, b, slim_ratio=float("inf")).provenance["shift"] == "none"

    def test_mask_pixel_conservation(self):
        f = self.frame(h=50, w=60)
        out = dl.normalize_crop(f, (5, 5, 20, 40))
        rh, rw = out.provenance["resized"]
        assert int(out.mask.sum()) == rh * rw
        assert int((out.mask == 0).sum()) == 256 * 128 - rh * rw

    def test_padding_is_exactly_zero_where_masked(self):
        f = self.frame(h=50, w=60) + 1.0  # strictly positive content
        out = dl.normalize_crop(f, (5, 5, 20, 40))
        assert np.all(out.image[:, out.mask == 0] == 0.0)
        assert np.all(out.image[:, out.mask == 1] > 0.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValidationError):
            dl.normalize_crop(self.frame(), (99.9, 99.9, 0.05, 0.05))


extent = st.integers(1, 300)
same_or_extent = st.one_of(st.none(), extent)  # None: the input's extent (the copy branch)


class TestResizeAgainstOracle:
    """The separable resize, bit for bit against the 2-D gather it replaced."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(c=st.integers(1, 3), h=extent, w=extent, out_h=same_or_extent, out_w=same_or_extent,
           pad=st.tuples(*[st.integers(0, 3)] * 4), seed=st.integers(0, 2**16))
    @example(c=3, h=1, w=1, out_h=256, out_w=128, pad=(0, 0, 0, 0), seed=0)
    @example(c=3, h=300, w=300, out_h=1, out_w=1, pad=(1, 2, 3, 0), seed=1)
    @example(c=3, h=40, w=30, out_h=None, out_w=None, pad=(2, 2, 2, 2), seed=2)
    @example(c=3, h=1, w=300, out_h=256, out_w=None, pad=(0, 1, 0, 1), seed=3)
    def test_bitwise_equal_on_drawn_shapes(self, c, h, w, out_h, out_w, pad, seed):
        out_h, out_w = out_h or h, out_w or w
        top, left, bottom, right = pad
        frame = Rng(seed).uniform(-1.0, 1.0, (c, top + h + bottom, left + w + right))
        crop = frame[:, top : top + h, left : left + w]  # a view, non-contiguous when padded
        got = dl._resize_bilinear(crop, out_h, out_w)
        assert got.shape == (c, out_h, out_w)
        assert np.array_equal(got, resize_bilinear_oracle(crop, out_h, out_w))

    @pytest.mark.parametrize("b, shift", [((1, 0, 16, 80), "right"), ((73.4, 0, 16, 80), "left"),
                                          ((37, 0, 16, 80), "none"), ((20.6, 5.2, 40.3, 60.7), "none")],
                             ids=["slim-left", "slim-right", "slim-centred", "wide-centred"])
    def test_normalize_crop_matches_oracle(self, b, shift):
        frame = Rng(12).uniform(0.1, 1.0, (3, 80, 90))
        x0, y0 = round(b[0]), round(b[1])
        crop = frame[:, y0 : round(b[1] + b[3]), x0 : round(b[0] + b[2])]
        ch, cw = crop.shape[1:]
        scale = min(256 / ch, 128 / cw)
        rh, rw = min(max(round(ch * scale), 1), 256), min(max(round(cw * scale), 1), 128)
        oy, ox = (256 - rh) // 2, round((128 - rw) * {"right": 0.75, "left": 0.25, "none": 0.5}[shift])
        image, mask = np.zeros((3, 256, 128)), np.zeros((256, 128))
        image[:, oy : oy + rh, ox : ox + rw] = resize_bilinear_oracle(crop, rh, rw)
        mask[oy : oy + rh, ox : ox + rw] = 1.0
        out = dl.normalize_crop(frame, b)
        assert out.provenance["shift"] == shift
        assert np.array_equal(out.image, image) and np.array_equal(out.mask, mask)

    @pytest.mark.parametrize("hw", [(80, 90), (256, 128), (600, 20)])
    def test_passthrough_matches_oracle(self, hw):
        frame = Rng(13).uniform(0.1, 1.0, (3, *hw))
        out = dl._passthrough(frame)
        assert np.array_equal(out.image, resize_bilinear_oracle(frame, 256, 128))
        assert np.array_equal(out.mask, np.ones((256, 128)))


class TestProcessTracklet:
    def test_single_candidate_per_frame(self):
        rng = Rng(4)
        frames = [rng.child(i).uniform(0, 1, (3, 40, 30)) for i in range(3)]
        cands = [[box(frame=i, b=(2, 2, 10, 30), feat=(1.0, 0.0))] for i in range(3)]
        out = dl.process_tracklet(frames, cands)
        assert len(out) == 3
        for i, a in enumerate(out):
            assert a.provenance["frame"] == i
            assert a.provenance["candidate"] == 0

    def test_no_frames_rejected(self):
        with pytest.raises(ValidationError, match="^tracklet must have at least one frame$"):
            dl.process_tracklet([], [])

    def test_single_frame_uses_area_rule_only(self):
        f = Rng(5).uniform(0, 1, (3, 40, 30))
        cands = [[box(b=(0, 0, 5, 10), feat=(9.0, 9.0)), box(b=(0, 0, 10, 30), feat=(0.0, 0.0))]]
        out = dl.process_tracklet([f], cands)
        assert out[0].provenance["candidate"] == 1  # larger area, despite features

    def test_candidates_sharing_a_box_told_apart(self):
        # the second of two same-box, same-confidence candidates is the nearer one
        frames = [np.ones((3, 40, 30))] * 2
        twins = [box(frame=1, feat=(5.0, 5.0)), box(frame=1, feat=(1.0, 0.0))]
        out = dl.process_tracklet(frames, [[box()], twins])
        assert out[1].provenance["candidate"] == 1

    def test_occluder_scenario_follows_frame1_identity(self):
        # a second identity appears in frames 2-4 with LARGER boxes; linking by
        # feature keeps following the frame-1 identity
        rng = Rng(6)
        target = dl.ScriptedIdentity(centroid=np.array([1.0, 0.0]),
                                     boxes={f: (2, 2, 8, 24) for f in range(6)})
        occluder = dl.ScriptedIdentity(centroid=np.array([0.0, 1.0]),
                                       boxes={f: (10, 0, 14, 36) for f in (2, 3, 4)})
        cands, truth = dl.synthetic_detector([target, occluder], 6, rng, noise_scale=0.05)
        frames = [rng.child(100 + i).uniform(0, 1, (3, 40, 30)) for i in range(6)]
        out = dl.process_tracklet(frames, cands)
        assert len(out) == 6
        for f in range(6):
            chosen_idx = out[f].provenance["candidate"]
            assert truth[f][chosen_idx] == 0, f"frame {f} followed the occluder"
            assert out[f].provenance["rule"] == ("max-area" if f == 0 else "link")

    def test_no_detection_passthrough(self):
        rng = Rng(7)
        frames = [rng.child(i).uniform(0, 1, (3, 40, 30)) for i in range(3)]
        cands = [[box(frame=0, b=(2, 2, 10, 30))], [], [box(frame=2, b=(2, 2, 10, 30))]]
        out = dl.process_tracklet(frames, cands)
        assert len(out) == 3
        assert out[1].provenance.get("no_detection")
        assert out[1].provenance["candidate"] is None and "rule" not in out[1].provenance
        assert np.all(out[1].mask == 1.0)
        assert out[2].provenance["rule"] == "link"  # frame 0 already started the link

    def test_deterministic(self):
        rng = Rng(8)
        frames = [rng.child(i).uniform(0, 1, (3, 40, 30)) for i in range(4)]
        ident = dl.ScriptedIdentity(centroid=np.array([1.0, 2.0]), boxes={f: (2, 2, 10, 30) for f in range(4)})
        cands, _ = dl.synthetic_detector([ident], 4, Rng(9))
        a = dl.process_tracklet(frames, cands)
        b = dl.process_tracklet(frames, cands)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.image, fb.image)
            assert np.array_equal(fa.mask, fb.mask)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            dl.process_tracklet([np.ones((3, 4, 4))], [[], []])

    def test_crop_error_names_frame(self):
        frames = [Rng(10).child(i).uniform(0, 1, (3, 40, 30)) for i in range(3)]
        cands = [[box(frame=i, b=(100 if i == 2 else 2, 2, 8, 24))] for i in range(3)]
        with pytest.raises(ValidationError, match=r"^frame 2: box \(100, 2, 8, 24\) degenerate"):
            dl.process_tracklet(frames, cands)

    @pytest.mark.parametrize("shape", [(1, 40, 30), (40, 30)], ids=["one-channel", "two-axes"])
    @pytest.mark.parametrize("detected", [False, True], ids=["no-detection", "detection"])
    def test_frame_shape_checked_on_both_branches(self, shape, detected):
        frames = [np.ones((3, 40, 30)), np.ones(shape)]
        cands = [[box(b=(2, 2, 8, 24))], [box(frame=1, b=(2, 2, 8, 24))] if detected else []]
        with pytest.raises(ValidationError, match=rf"^frame 1: frame must be \(3, H, W\), got {re.escape(str(shape))}$"):
            dl.process_tracklet(frames, cands)

    @pytest.mark.parametrize("detected", [False, True], ids=["no-detection", "detection"])
    def test_zero_extent_frame_names_frame(self, detected):
        cands = [[], [box(frame=1, b=(0, 0, 2, 2))] if detected else []]
        with pytest.raises(ValidationError, match=r"^frame 1: frame has non-positive extent in shape \(3, 0, 4\)$"):
            dl.process_tracklet([np.zeros((3, 4, 4)), np.zeros((3, 0, 4))], cands)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("detected", [False, True], ids=["no-detection", "detection"])
    def test_non_finite_pixel_read_names_frame(self, detected, value):
        frames = [np.ones((3, 40, 30)), np.ones((3, 40, 30))]
        frames[1][2, 10, 5] = value  # inside the 8x24 box at (2, 2)
        cands = [[box(b=(2, 2, 8, 24))], [box(frame=1, b=(2, 2, 8, 24))] if detected else []]
        with pytest.raises(ValidationError, match=r"^frame 1: non-finite pixel values in the aligned region$"):
            dl.process_tracklet(frames, cands)

    def test_non_finite_pixel_outside_the_crop_not_read(self):
        frame = np.ones((3, 40, 30))
        frame[:, 35:, 20:] = np.nan
        out = dl.process_tracklet([frame], [[box(b=(2, 2, 8, 24))]])
        assert np.isfinite(out[0].image).all()

    @pytest.mark.parametrize("cands", [[[]], [[box(b=(0, 0, 2, 4))]]], ids=["no-detection", "detection"])
    def test_alpha_checked_before_any_frame(self, cands):
        with pytest.raises(ValidationError, match=r"^alpha 1.5 outside \[0, 1\]$"):
            dl.process_tracklet([np.ones((3, 4, 4))], cands, alpha=1.5)

    @pytest.mark.parametrize("slim_ratio", [float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("cands", [[[]], [[box(b=(0, 0, 8, 40))]]], ids=["no-detection", "detection"])
    def test_slim_ratio_checked_before_any_frame(self, cands, slim_ratio):
        with pytest.raises(ValidationError, match=rf"^slim ratio {slim_ratio} must be positive$"):
            dl.process_tracklet([np.ones((3, 40, 90))], cands, slim_ratio=slim_ratio)

    def test_infinite_slim_ratio_shifts_no_box(self):
        # an 8x40 box at the left edge of a 90-wide frame is slim at the default 3.0
        frames, cands = [np.ones((3, 40, 90))], [[box(b=(0, 0, 8, 40))]]
        assert dl.process_tracklet(frames, cands)[0].provenance["shift"] == "right"
        assert dl.process_tracklet(frames, cands, slim_ratio=float("inf"))[0].provenance["shift"] == "none"


@st.composite
def linked_scene(draw):
    """Per-frame candidate lists (some frames empty) whose choices no index
    tie-break decides: the first detected frame has distinct (area, confidence)
    pairs, and every later candidate sits at a distinct integer distance from
    the global feature that linking holds when it reaches that frame."""
    n_frames = draw(st.integers(1, 4))
    cands: list[list[dl.CandidateBox]] = []
    f_g = None
    for f in range(n_frames):
        n = draw(st.integers(0, 3))
        if not n:
            cands.append([])
            continue
        xy = draw(st.lists(st.tuples(st.integers(0, 18), st.integers(0, 18)), min_size=n, max_size=n))
        if f_g is None:
            whc = draw(st.lists(st.tuples(st.integers(2, 10), st.integers(2, 20), st.sampled_from([0.5, 0.7, 0.9])),
                                min_size=n, max_size=n, unique_by=lambda t: (t[0] * t[1], t[2])))
            feats = draw(st.lists(st.tuples(*[st.floats(-4, 4)] * 2), min_size=n, max_size=n))
            row = [dl.CandidateBox(f, (x, y, w, h), c, np.array(v)) for (x, y), (w, h, c), v in zip(xy, whc, feats)]
            f_g = dl.select_first_frame(row).feature
        else:
            radii = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True))
            axes = draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]), min_size=n, max_size=n))
            row = [dl.CandidateBox(f, (x, y, 6, 12), 0.9, f_g + r * np.array(a, dtype=float))
                   for (x, y), r, a in zip(xy, radii, axes)]
            f_g = dl.link_frame(f_g, row)[1]
        cands.append(row)
    return cands


class TestCandidateOrder:
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(scene=linked_scene(), data=st.data())
    def test_permuting_candidates_permutes_only_the_provenance(self, scene, data):
        frames = [Rng(14).child(f).uniform(0, 1, (3, 40, 30)) for f in range(len(scene))]
        perms = [data.draw(st.permutations(range(len(row)))) for row in scene]
        shuffled = [[row[j] for j in perm] for row, perm in zip(scene, perms)]
        base, moved = dl.process_tracklet(frames, scene), dl.process_tracklet(frames, shuffled)
        for a, b, perm in zip(base, moved, perms):
            assert np.array_equal(a.image, b.image) and np.array_equal(a.mask, b.mask)
            want = None if a.provenance["candidate"] is None else perm.index(a.provenance["candidate"])
            assert b.provenance["candidate"] == want


@st.composite
def quarter_pixel_box(draw, h: int, w: int):
    """An (x, y, w, h) box inside an h x w frame, at least a pixel wide and
    tall, with its edges on the quarter-pixel grid (half-integers included):
    there, adding an integer offset to an edge is exact in float64."""
    qx, qy = draw(st.integers(0, 4 * w - 4)), draw(st.integers(0, 4 * h - 4))
    return qx / 4, qy / 4, draw(st.integers(4, 4 * w - qx)) / 4, draw(st.integers(4, 4 * h - qy)) / 4


class TestTranslation:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_embedding_in_a_larger_canvas_shifts_only_the_provenance_box(self, data):
        # slim_ratio=inf: the slim shift compares the box centre with the
        # frame's thirds, which a larger canvas legitimately moves
        h, w = data.draw(st.integers(1, 24), label="H"), data.draw(st.integers(1, 24), label="W")
        oy, ox = data.draw(st.integers(0, 9), label="oy"), data.draw(st.integers(0, 9), label="ox")
        below, right = data.draw(st.integers(0, 5), label="below"), data.draw(st.integers(0, 5), label="right")
        frames, canvases, cands, moved = [], [], [], []
        for f in range(data.draw(st.integers(1, 3), label="frames")):
            frames.append(Rng(15).child(f).uniform(0, 1, (3, h, w)))
            canvases.append(np.zeros((3, oy + h + below, ox + w + right)))
            canvases[-1][:, oy : oy + h, ox : ox + w] = frames[-1]
            boxes = data.draw(st.lists(quarter_pixel_box(h, w), min_size=1, max_size=3), label=f"boxes {f}")
            feats = [Rng(16).child(f, i).normal((2,)) for i in range(len(boxes))]
            cands.append([dl.CandidateBox(f, b, 0.9, v) for b, v in zip(boxes, feats)])
            moved.append([dl.CandidateBox(f, (x + ox, y + oy, bw, bh), 0.9, v)
                          for (x, y, bw, bh), v in zip(boxes, feats)])
        base = dl.process_tracklet(frames, cands, slim_ratio=float("inf"))
        shifted = dl.process_tracklet(canvases, moved, slim_ratio=float("inf"))
        for a, b in zip(base, shifted):
            assert np.array_equal(a.image, b.image) and np.array_equal(a.mask, b.mask)
            x0, y0, x1, y1 = a.provenance["box"]
            assert b.provenance == {**a.provenance, "box": (x0 + ox, y0 + oy, x1 + ox, y1 + oy)}


class TestSyntheticDetector:
    def test_zero_noise_gives_centroids(self):
        ident = dl.ScriptedIdentity(centroid=np.array([3.0, 4.0]), boxes={0: (0, 0, 5, 5)})
        cands, _ = dl.synthetic_detector([ident], 1, Rng(0), noise_scale=0.0)
        np.testing.assert_array_equal(cands[0][0].feature, [3.0, 4.0])

    def test_same_seed_identical_stream(self):
        ident = dl.ScriptedIdentity(centroid=np.zeros(3), boxes={f: (0, 0, 5, 5) for f in range(3)})
        a, _ = dl.synthetic_detector([ident], 3, Rng(1))
        b, _ = dl.synthetic_detector([ident], 3, Rng(1))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa[0].feature, fb[0].feature)

    def test_boxes_match_script(self):
        boxes = {0: (1, 2, 3, 4), 2: (5, 6, 7, 8)}
        ident = dl.ScriptedIdentity(centroid=np.zeros(2), boxes=boxes)
        cands, truth = dl.synthetic_detector([ident], 3, Rng(2))
        assert cands[0][0].box == (1, 2, 3, 4)
        assert cands[1] == [] and truth[1] == []
        assert cands[2][0].box == (5, 6, 7, 8)


class TestCandidateFile:
    def test_roundtrip(self, tmp_path):
        rng = Rng(10)
        records = {
            5: [box(frame=0, feat=tuple(rng.child(0).normal((3,)))),
                box(frame=1, feat=tuple(rng.child(1).normal((3,))))],
            2: [box(frame=0, feat=tuple(rng.child(2).normal((3,))))],
        }
        p = tmp_path / "cands.tsv"
        write_candidate_file(p, records, dim=3)
        back = dl.read_candidate_file(p)
        assert set(back) == {2, 5}
        for tid in records:
            for a, b in zip(records[tid], back[tid]):
                assert a.frame == b.frame and a.box == b.box
                assert np.array_equal(a.feature, b.feature)

    def test_malformed_record_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("D=2\n1\t0\t0\t0\t5\t5\t0.9\t1.0\t2.0\n1\t1\tnope\t0\t5\t5\t0.9\t1.0\t2.0\n")
        with pytest.raises(ValidationError, match=":3:"):
            dl.read_candidate_file(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("1\t0\t0\t0\t5\t5\t0.9\t1.0\n")
        with pytest.raises(ValidationError, match=":1:"):
            dl.read_candidate_file(p)
