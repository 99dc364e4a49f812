import math
import re

import numpy as np
import pytest

from axialreid import attention as att
from axialreid import flops
from axialreid.errors import ValidationError
from axialreid.tensor import Rng
from helpers import count_oracle_multiplies, reference_module_ops

# the configs acceptance criterion 4 checks against the instrumented counter
CRITERION_4_CASES = [
    ("nonlocal3d", att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))),
    ("nonlocal3d", att.AttentionConfig(c_in=6, c_qk=4, c_out=6, axis_lengths=(3, 2, 4))),
    ("axial", att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 3, 2))),
    ("axial+sinusoidal", att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2,
                                             encoding="sinusoidal", axis_lengths=(2, 3, 2))),
    ("axial+relative", att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2,
                                           encoding="relative", axis_lengths=(3, 2, 2))),
    ("cfaa", att.AttentionConfig(c_in=8, c_qk=8, c_out=8, heads=2, scales=2,
                                 encoding="relative", axis_lengths=(2, 4, 3))),
    ("cfaa", att.AttentionConfig(c_in=12, c_qk=12, c_out=12, heads=1, scales=3,
                                 encoding="relative", axis_lengths=(2, 4, 4))),
]
# the criterion-4 configs all have c_in == c_out, which cannot tell a swapped w_o width
FULL_COUNT_CASES = CRITERION_4_CASES + [
    ("nonlocal3d", att.AttentionConfig(c_in=6, c_qk=2, c_out=4, axis_lengths=(2, 3, 2))),
    ("cfaa", att.AttentionConfig(c_in=8, c_qk=4, c_out=12, heads=1, scales=2,
                                 encoding="relative", axis_lengths=(2, 4, 2))),
]


def projection_multiplies(variant: str, cfg: att.AttentionConfig) -> int:
    """Projection multiplies read off the kernel's own parameters: every
    layer's w_q/w_k/w_v applied at each position of its scale (a CF-AA layer
    is named scale<s>.aa_<axis>.<key>, the non-local layer's keys are bare),
    and w_o at each of the T*H*W output positions."""
    init = att.init_nonlocal_params if variant == "nonlocal3d" else att.init_cfaa_params
    params = init(cfg, Rng(0))
    ops = math.prod(cfg.axis_lengths) * params["w_o"].size
    for name, w in params.items():
        prefix, _, key = name.rpartition(".")
        if key in ("w_q", "w_k", "w_v"):
            scale = int(prefix.split(".")[0].removeprefix("scale")) if prefix else 0
            ops += math.prod(cfg.scale_extents(scale)) * w.size
    return ops


class TestBackbone:
    def test_reference_total_within_5_percent(self):
        rep = flops.backbone_flops()
        assert rep.gflops == pytest.approx(flops.REFERENCE_COSTS["baseline"], rel=0.05)

    def test_linear_in_frames(self):
        one = flops.backbone_flops(frames=1)
        six = flops.backbone_flops(frames=6)
        assert six.total == 6 * one.total

    @pytest.mark.parametrize("frames", [0, -1])
    def test_frames_below_one_rejected(self, frames):
        with pytest.raises(ValidationError, match=f"frames must be at least 1, got {frames}"):
            flops.backbone_flops(frames=frames)

    def test_last_stride_validated(self):
        with pytest.raises(ValidationError):
            flops.backbone_flops(last_stride=3)


class TestReferenceRows:
    def test_all_rows_within_10_percent(self):
        rows = flops.table_rows()
        for name, rep in rows.items():
            tol = 0.05 if name == "baseline" else 0.10
            ref = flops.REFERENCE_COSTS[name]
            assert rep.gflops == pytest.approx(ref, rel=tol), f"{name}: {rep.gflops} vs {ref}"

    def test_nonlocal_and_axial_rows_are_exact_under_default_convention(self):
        rows = flops.table_rows()
        assert round(rows["nonlocal3d"].gflops, 3) == 17.213
        assert round(rows["axial"].gflops, 3) == 0.361

    def test_full_rows_leave_the_published_column(self):
        rows = flops.table_rows()
        assert rows["baseline"].full == rows["baseline"].total  # no attention: nothing to add
        for name in set(rows) - {"baseline"}:
            assert abs(rows[name].full_gflops / flops.REFERENCE_COSTS[name] - 1.0) > 0.10, name
        assert round(rows["nonlocal3d"].full_gflops, 3) == 29.293
        assert round(rows["cfaa4"].full_gflops, 3) == 6.278
        assert round(rows["axial+relative"].full_gflops, 3) == 29.028
        # under the full count single-scale axial sits under 1% below non-local
        assert 0.990 < rows["axial+relative"].full / rows["nonlocal3d"].full < 0.991

    @pytest.mark.parametrize("count", ["total", "full"])
    def test_scale_family_ordering_holds_under_both_counts(self, count):
        # single-scale axial is the S=1 member of the coarse-to-fine family
        rows = flops.table_rows()
        s1 = flops.attention_flops("cfaa", scales=1)
        order = [getattr(r, count) for r in (rows["cfaa4"], rows["cfaa2"], s1, rows["nonlocal3d"])]
        assert order == sorted(set(order)), order

    def test_table_ordering_under_default_convention(self):
        rows = flops.table_rows()
        assert (
            rows["cfaa4"].total < rows["cfaa2"].total
            < rows["axial"].total < rows["nonlocal3d"].total
        )

    def test_cfaa_scale1_equals_axial_relative(self):
        s1, axial = flops.attention_flops("cfaa", scales=1), flops.attention_flops("axial+relative")
        assert (s1.total, s1.full) == (axial.total, axial.full)

    @pytest.mark.parametrize("variant", flops.VARIANTS)
    @pytest.mark.parametrize("frames, message", [
        (0, "frames must be at least 1, got 0"), (-2, "frames must be at least 1, got -2"),
        (6.5, "frames must be an integer, got 6.5"), (6.0, "frames must be an integer, got 6.0"),
        ("6", "frames must be an integer, got '6'"), (None, "frames must be an integer, got None"),
    ])
    def test_bad_frames_rejected_as_the_backbone_rejects_them(self, variant, frames, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            flops.attention_flops(variant, frames=frames)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            flops.backbone_flops(frames=frames)

    def test_numpy_integer_counts_give_python_ints(self):
        # FlopReport's counts are exact Python ints whatever integer type comes in
        for rep, want in ((flops.attention_flops("cfaa", scales=np.int64(4), frames=np.int64(6)),
                           flops.attention_flops("cfaa", scales=4)),
                          (flops.backbone_flops(frames=np.int64(6)), flops.backbone_flops())):
            assert (rep.total, rep.full) == (want.total, want.full)
            assert type(rep.total) is int and type(rep.full) is int

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            flops.attention_flops("fancy")
        with pytest.raises(ValidationError, match="^unknown attention variant 'fancy'$"):
            flops.attention_contraction_count("fancy", CRITERION_4_CASES[0][1])

    @pytest.mark.parametrize("scales", [3, 8])
    def test_unsplittable_scale_counts_rejected(self, scales):
        # 3 does not divide 512 channels, 8 needs H, W >= 128
        with pytest.raises(ValidationError):
            flops.attention_flops("cfaa", scales=scales)

    @pytest.mark.parametrize("scales", [0, -1])
    def test_cfaa_scales_below_one_rejected(self, scales):
        with pytest.raises(ValidationError, match=f"^scales must be at least 1, got {scales}$"):
            flops.attention_flops("cfaa", scales=scales)

    @pytest.mark.parametrize("scales", [4.0, 1.0])
    def test_non_integer_scales_rejected(self, scales):
        with pytest.raises(ValidationError, match=f"^scales must be an integer, got {scales}$"):
            flops.attention_flops("cfaa", scales=scales)

    @pytest.mark.parametrize("variant", ["nonlocal3d", "axial", "axial+sinusoidal", "axial+relative"])
    @pytest.mark.parametrize("scales", [0, 4])
    def test_one_scale_variants_reject_other_scale_counts(self, variant, scales):
        with pytest.raises(ValidationError, match=f"^variant '{re.escape(variant)}' has one scale, got scales={scales}$"):
            flops.attention_flops(variant, scales=scales)


class TestLayerTable:
    """_module_ops prices the layers of attention.module_layers; the reference
    writes the same layers out without that table, so a table that drops a
    layer or mis-sizes its positions, keys or input width shows as a count
    mismatch."""

    @staticmethod
    def assert_counts_equal_reference(variant, cfg):
        # the published count, the full count and the contraction count
        for per_head, projections in ((False, False), (True, True), (True, False)):
            got = flops._module_ops(variant, cfg, per_head=per_head, projections=projections)
            assert got == reference_module_ops(variant, cfg, per_head, projections), (per_head, projections)

    @pytest.mark.parametrize("insertion", flops.INSERTIONS, ids=lambda ins: f"{ins[0]}x{ins[1]}x{ins[2]}")
    @pytest.mark.parametrize("frames", [1, 6, 8])
    @pytest.mark.parametrize("variant, scales", [*((v, 1) for v in flops.VARIANTS), ("cfaa", 2), ("cfaa", 4)])
    def test_insertion_configs_equal_reference(self, variant, scales, frames, insertion):
        # the configs attention_flops builds at each insertion point
        c, h, w, _ = insertion
        heads = 1 if variant == "nonlocal3d" else max(flops.TOTAL_HEADS // scales, 1)
        cfg = att.AttentionConfig(c, c // 2, c, heads, scales, flops._VARIANT_ENCODINGS[variant], (frames, h, w))
        self.assert_counts_equal_reference(variant, cfg)

    @pytest.mark.parametrize("variant, cfg", FULL_COUNT_CASES + [
        ("cfaa", att.AttentionConfig(c_in=6, c_qk=6, c_out=9, scales=3, encoding="relative", axis_lengths=(3, 5, 7))),
    ])
    def test_odd_widths_and_extents_equal_reference(self, variant, cfg):
        # c_in != c_out, and odd H, W that the pooled scales round up
        self.assert_counts_equal_reference(variant, cfg)


class TestModelTable:
    def test_totals_within_tolerance(self):
        reports = {r.name: r for r in flops.model_table()}
        assert reports["nonlocal"].gflops == pytest.approx(flops.REFERENCE_COSTS["nonlocal"], rel=0.05)
        assert reports["cfaa_net"].gflops == pytest.approx(flops.REFERENCE_COSTS["cfaa_net"], rel=0.05)

    def test_cfaa_net_delta_equals_attention_flops_exactly(self):
        reports = {r.name: r for r in flops.model_table()}
        cfaa = flops.attention_flops("cfaa", scales=4)
        assert reports["cfaa_net"].total - reports["baseline"].total == cfaa.total
        assert reports["cfaa_net"].full - reports["baseline"].full == cfaa.full


class TestKernelAgreement:
    """Analytic contraction counts equal instrumented kernel execution exactly."""

    def test_nonlocal_tiny(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
        analytic = flops.attention_contraction_count("nonlocal3d", cfg)
        assert analytic == 64 * 2 + 64 * 4  # (HWT)^2 c_qk scores + (HWT)^2 c_out values
        assert count_oracle_multiplies("nonlocal3d", cfg) == analytic

    def test_axial_tiny_matches_complexity_formula(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
        analytic = flops.attention_contraction_count("axial", cfg)
        h = w = t = 2
        score = (h * h * w * t + h * w * w * t + h * w * t * t) * cfg.c_qk
        value = (h * h * w * t + h * w * w * t + h * w * t * t) * cfg.c_out
        assert analytic == score + value
        assert count_oracle_multiplies("axial", cfg) == analytic

    def test_config_the_3d_kernel_rejects_is_not_priced(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, encoding="relative", axis_lengths=(2, 2, 2))
        with pytest.raises(ValidationError):
            flops.attention_contraction_count("nonlocal3d", cfg)

    @pytest.mark.parametrize("variant, scales, encoding", [
        ("axial", 4, "relative"), ("axial", 1, "relative"), ("axial+relative", 1, "none"),
        ("axial+sinusoidal", 2, "sinusoidal"), ("nonlocal3d", 2, "none"),
    ])
    def test_config_of_another_variant_is_not_priced(self, variant, scales, encoding):
        # at scales=4 with relative tables "axial" would price CF-AA4, and "axial+relative"
        # under no encoding plain axial
        cfg = att.AttentionConfig(c_in=8, c_qk=8, c_out=8, heads=1, scales=scales, encoding=encoding,
                                  axis_lengths=(2, 8, 8))
        want = (f"variant {variant!r} has one scale and encoding {flops._VARIANT_ENCODINGS[variant]!r}, "
                f"got scales={scales}, encoding={encoding!r}")
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            flops.attention_contraction_count(variant, cfg)

    def test_single_position_counts(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(1, 1, 1))
        nl = flops.attention_contraction_count("nonlocal3d", cfg)
        ax = flops.attention_contraction_count("axial", cfg)
        assert nl == cfg.c_qk + cfg.c_out
        assert ax == 3 * (cfg.c_qk + cfg.c_out)  # three singleton-axis layers
        assert count_oracle_multiplies("nonlocal3d", cfg) == nl
        assert count_oracle_multiplies("axial", cfg) == ax

    @pytest.mark.parametrize("variant,scales,heads,encoding", [
        ("axial", 1, 2, "none"),
        ("axial+sinusoidal", 1, 2, "sinusoidal"),
        ("axial+relative", 1, 2, "relative"),
        ("cfaa", 2, 1, "relative"),
        ("cfaa", 2, 2, "relative"),
    ])
    def test_all_variants_exact(self, variant, scales, heads, encoding):
        cfg = att.AttentionConfig(c_in=8, c_qk=4 * scales * heads, c_out=8, heads=heads,
                                  scales=scales, encoding=encoding, axis_lengths=(2, 4, 3))
        analytic = flops.attention_contraction_count(variant, cfg)
        measured = count_oracle_multiplies(variant, cfg, seed=3)
        assert measured == analytic


class TestFullCount:
    """The full count is the kernel's contractions plus its projections."""

    @pytest.mark.parametrize("variant, cfg", FULL_COUNT_CASES,
                             ids=[f"{v}-{'x'.join(map(str, c.axis_lengths))}" for v, c in FULL_COUNT_CASES])
    def test_projection_part_matches_parameter_shapes(self, variant, cfg):
        contractions = flops.attention_contraction_count(variant, cfg)
        assert contractions == count_oracle_multiplies(variant, cfg)
        full = flops._module_ops(variant, cfg, per_head=True, projections=True)
        assert full - contractions == projection_multiplies(variant, cfg)

    def test_attention_flops_sums_the_modules(self):
        # 2 modules at 512 channels on 32x16, 3 at 1024 on 16x8, 6 frames
        cfgs = [(2, att.AttentionConfig(512, 256, 512, 2, 4, "relative", (6, 32, 16))),
                (3, att.AttentionConfig(1024, 512, 1024, 2, 4, "relative", (6, 16, 8)))]
        full = sum(n * (flops.attention_contraction_count("cfaa", c) + projection_multiplies("cfaa", c))
                   for n, c in cfgs)
        assert flops.attention_flops("cfaa", scales=4).full == full


class TestReport:
    def test_report_lines_are_machine_readable(self):
        rep = flops.attention_flops("nonlocal3d")
        kv = dict(l.split("=", 1) for l in rep.lines())
        assert int(kv["total_flops"]) == rep.total
        assert int(kv["full_flops"]) == rep.full
        assert float(kv["full_gflops"]) == pytest.approx(rep.full / 1e9, abs=1e-6)
