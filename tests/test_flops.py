import numpy as np
import pytest

from axialreid import attention as att
from axialreid import flops
from axialreid.errors import ConfigurationError, ValidationError
from helpers import count_oracle_multiplies

DEFAULT = flops.CountingConvention()


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

    def test_scale_family_ordering_holds_under_every_convention(self):
        # single-scale axial is the S=1 member of the coarse-to-fine family
        for conv in flops.convention_grid():
            rows = flops.table_rows(conv)
            s1 = flops.attention_flops("cfaa", conv, scales=1)
            assert (
                rows["cfaa4"].total < rows["cfaa2"].total
                < s1.total < rows["nonlocal3d"].total
            ), conv.tag()

    def test_table_ordering_under_default_convention(self):
        rows = flops.table_rows()
        assert (
            rows["cfaa4"].total < rows["cfaa2"].total
            < rows["axial"].total < rows["nonlocal3d"].total
        )

    def test_cfaa_scale1_equals_axial_relative(self):
        for conv in (DEFAULT, flops.KERNEL_EXACT):
            assert flops.attention_flops("cfaa", conv, scales=1).total == \
                flops.attention_flops("axial+relative", conv).total

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            flops.attention_flops("fancy")

    @pytest.mark.parametrize("scales", [0, 3, 8])
    def test_unsplittable_scale_counts_rejected(self, scales):
        # 3 does not divide 512 channels, 8 needs H, W >= 128, 0 makes no groups
        with pytest.raises(ConfigurationError):
            flops.attention_flops("cfaa", scales=scales)


class TestModelTable:
    def test_totals_within_tolerance(self):
        reports = {r.name: r for r in flops.model_table()}
        assert reports["nonlocal"].gflops == pytest.approx(flops.REFERENCE_COSTS["nonlocal"], rel=0.05)
        assert reports["cfaa_net"].gflops == pytest.approx(flops.REFERENCE_COSTS["cfaa_net"], rel=0.05)

    def test_cfaa_net_delta_equals_attention_flops_exactly(self):
        reports = {r.name: r for r in flops.model_table()}
        delta = reports["cfaa_net"].total - reports["baseline"].total
        assert delta == flops.attention_flops("cfaa", scales=4).total


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
        with pytest.raises(ConfigurationError):
            flops.attention_contraction_count("nonlocal3d", cfg)

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


class TestCalibration:
    def test_default_convention_is_best_fit(self):
        ranked = flops.calibrate()
        best, best_err = ranked[0]
        assert best == DEFAULT
        assert best_err < 0.05

    def test_row_errors_reported_per_row(self):
        errs = flops.row_errors(DEFAULT)
        assert set(errs) == set(flops.table_rows())
        assert all(abs(e) < 0.10 for e in errs.values())

    def test_report_lines_are_machine_readable(self):
        rep = flops.backbone_flops()
        lines = rep.lines()
        assert any(l.startswith("total_flops=") for l in lines)
        kv = dict(l.split("=", 1) for l in lines)
        assert int(kv["total_flops"]) == rep.total
