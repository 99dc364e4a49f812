import builtins
import errno
import io
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from axialreid import cli
from axialreid import detect_link as dl
from axialreid import evaluate as ev
from axialreid.tensor import Rng, load_tensor, save_tensor
from eval_files import write_metadata_file
from helpers import write_candidate_file


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# full stdout of `bench --preset costs` and `bench --preset models`
PRESET_COSTS_TEXT = """\
cost column reproduction (published count, full count in the last column):
  baseline               24.320 GFLOPs  (reference 24.520, -0.82%)   full   24.320 GFLOPs
  nonlocal3d             17.213 GFLOPs  (reference 17.213, +0.00%)   full   29.293 GFLOPs
  axial                   0.361 GFLOPs  (reference 0.361, -0.01%)    full   28.547 GFLOPs
  axial+sinusoidal        0.376 GFLOPs  (reference 0.377, -0.26%)    full   28.547 GFLOPs
  axial+relative          0.421 GFLOPs  (reference 0.424, -0.68%)    full   29.028 GFLOPs
  cfaa2                   0.241 GFLOPs  (reference 0.245, -1.84%)    full   12.057 GFLOPs
  cfaa4                   0.123 GFLOPs  (reference 0.126, -2.40%)    full    6.278 GFLOPs
---
baseline_gflops=24.319623
baseline_full_gflops=24.319623
baseline_reference=24.52
nonlocal3d_gflops=17.213424
nonlocal3d_full_gflops=29.293019
nonlocal3d_reference=17.213
axial_gflops=0.360972
axial_full_gflops=28.546695
axial_reference=0.361
axial+sinusoidal_gflops=0.376013
axial+sinusoidal_full_gflops=28.546695
axial+sinusoidal_reference=0.377
axial+relative_gflops=0.421134
axial+relative_full_gflops=29.027992
axial+relative_reference=0.424
cfaa2_gflops=0.240501
cfaa2_full_gflops=12.057281
cfaa2_reference=0.245
cfaa4_gflops=0.122976
cfaa4_full_gflops=6.277885
cfaa4_reference=0.126
---
"""
PRESET_MODELS_TEXT = """\
full-model totals (published count, full count in the last column):
  baseline               24.320 GFLOPs  (reference 24.520, -0.82%)   full   24.320 GFLOPs
  nonlocal               41.533 GFLOPs  (reference 41.733, -0.48%)   full   53.613 GFLOPs
  cfaa_net               24.443 GFLOPs  (reference 24.646, -0.83%)   full   30.598 GFLOPs
---
baseline_gflops=24.319623
baseline_full_gflops=24.319623
nonlocal_gflops=41.533047
nonlocal_full_gflops=53.612642
cfaa_net_gflops=24.442599
cfaa_net_full_gflops=30.597509
---
"""


def kv_block(out: str) -> dict:
    inside, block = False, {}
    for line in out.splitlines():
        if line == "---":
            inside = not inside
            continue
        if inside and "=" in line:
            k, v = line.split("=", 1)
            block[k] = v
    return block


class TestBench:
    def test_cost_rows_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "bench", "--preset", "costs")
        assert code == 0
        kv = kv_block(out)
        for name, ref in (("baseline", 24.520), ("nonlocal3d", 17.213), ("cfaa4", 0.126)):
            got = float(kv[f"{name}_gflops"])
            tol = 0.05 if name == "baseline" else 0.10
            assert abs(got / ref - 1.0) < tol, name

    @pytest.mark.parametrize("argv, text", [
        (["--preset", "costs"], PRESET_COSTS_TEXT),
        (["--preset", "models"], PRESET_MODELS_TEXT),
    ], ids=["costs", "models"])
    def test_preset_text_unchanged(self, capsys, argv, text):
        assert run(capsys, "bench", *argv) == (0, text, "")

    def test_cfaa_scale1_equals_axial_relative(self, capsys):
        _, out1, _ = run(capsys, "bench", "--variant", "cfaa", "--scales", "1")
        _, out2, _ = run(capsys, "bench", "--variant", "axial+relative")
        for key in ("total_flops", "full_flops"):
            assert kv_block(out1)[key] == kv_block(out2)[key]

    def test_backbone_frames_linearity(self, capsys):
        _, out1, _ = run(capsys, "bench", "--variant", "backbone", "--frames", "1")
        _, out6, _ = run(capsys, "bench", "--variant", "backbone", "--frames", "6")
        assert 6 * int(kv_block(out1)["total_flops"]) == int(kv_block(out6)["total_flops"])

    @pytest.mark.parametrize("argv", [
        ["--preset", "costs"], ["--preset", "models"], ["--variant", "backbone"], ["--variant", "cfaa"],
    ], ids=["costs", "models", "backbone", "cfaa"])
    def test_every_mode_prints_both_counts(self, capsys, argv):
        code, out, _ = run(capsys, "bench", *argv)
        assert code == 0
        kv = kv_block(out)
        published = [k for k in kv if k.endswith("gflops") and not k.endswith("full_gflops")]
        assert published and all(k.replace("gflops", "full_gflops", 1) in kv for k in published)
        assert "convention" not in out
        rows = [line for line in out.splitlines() if line.rstrip().endswith("GFLOPs")]
        assert rows and all(line.count("GFLOPs") == 2 and " full " in line for line in rows)

    def test_bad_usage_exits_one(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 1
        assert "error:" in err

    # each flag is one the chosen mode does not read: the run would print what it prints without it
    @pytest.mark.parametrize("flag, argv", [
        ("--frames", ["--preset", "costs", "--frames", "4"]),
        ("--scales", ["--variant", "axial+relative", "--scales", "4"]),
        ("--scales", ["--variant", "backbone", "--scales", "2"]),
        ("--scales", ["--preset", "models", "--scales", "2"]),
        ("--frames", ["--preset", "models", "--frames", "8"]),
        ("--frames", ["--preset", "models", "--frames", "0"]),
        ("--last-stride", ["--variant", "cfaa", "--last-stride", "2"]),
        ("--last-stride", ["--preset", "models", "--last-stride", "1"]),
        ("--variant", ["--preset", "costs", "--variant", "cfaa"]),
        ("--variant", ["--preset", "models", "--variant", "backbone"]),
    ])
    def test_flag_without_effect_exits_one(self, capsys, flag, argv):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} has no effect with "), err

    @pytest.mark.parametrize("flag, value, argv", [
        ("--frames", "0", ["--variant", "backbone"]),
        ("--frames", "-2", ["--variant", "backbone"]),
        ("--frames", "0", ["--variant", "cfaa"]),
        ("--scales", "0", ["--variant", "cfaa"]),
        ("--scales", "-1", ["--variant", "cfaa"]),
    ])
    def test_integer_flag_below_minimum_exits_one(self, capsys, flag, value, argv):
        code, out, err = run(capsys, "bench", *argv, flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least 1, got {value}\n"


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "1")
        assert code == 0
        assert kv_block(out)["status"] == "PASS"

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "1", "--perturb-analytic")
        assert code == 1
        assert kv_block(out)["status"] == "FAIL"
        assert "worst offender" in out

    def test_same_seed_identical_reports(self, capsys):
        _, out1, _ = run(capsys, "gradcheck", "--seed", "7", "--trials", "1")
        _, out2, _ = run(capsys, "gradcheck", "--seed", "7", "--trials", "1")
        assert out1 == out2

    @pytest.mark.parametrize("flag, value, low", [("--trials", "0", 1), ("--trials", "-2", 1), ("--seed", "-1", 0)])
    def test_integer_flag_below_minimum_exits_one(self, capsys, flag, value, low):
        code, out, err = run(capsys, "gradcheck", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least {low}, got {value}\n"


@pytest.fixture
def align_fixture(tmp_path):
    rng = Rng(21)
    frames_dir = tmp_path / "frames"
    target = dl.ScriptedIdentity(centroid=np.array([1.0, 0.0]), boxes={f: (2, 2, 8, 24) for f in range(4)})
    occluder = dl.ScriptedIdentity(centroid=np.array([0.0, 1.0]), boxes={f: (12, 0, 14, 30) for f in (2, 3)})
    cands, truth = dl.synthetic_detector([target, occluder], 4, rng, noise_scale=0.05)
    records = {5: [c for row in cands for c in row]}
    cand_file = tmp_path / "cands.tsv"
    write_candidate_file(cand_file, records, dim=2)
    tdir = frames_dir / "5"
    tdir.mkdir(parents=True)
    for i in range(4):
        save_tensor(tdir / f"{i:04d}.aakt", rng.child(50 + i).uniform(0.1, 1.0, (3, 40, 30)))
    return cand_file, frames_dir, tmp_path / "out", truth


class TestAlign:
    def test_writes_aligned_tracklets(self, capsys, align_fixture):
        cand_file, frames_dir, out_dir, truth = align_fixture
        code, out, _ = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 0
        assert kv_block(out)["frames"] == "4"
        imgs = sorted((out_dir / "5").glob("image_*.aakt"))
        assert len(imgs) == 4
        assert load_tensor(imgs[0]).shape == (3, 256, 128)
        log = (out_dir / "5" / "provenance.log").read_text().splitlines()
        assert len(log) == 4

    def test_occluder_fixture_follows_frame1_identity(self, capsys, align_fixture):
        cand_file, frames_dir, out_dir, truth = align_fixture
        run(capsys, "align", "--candidates", str(cand_file),
            "--frames", str(frames_dir), "--out", str(out_dir))
        log = (out_dir / "5" / "provenance.log").read_text().splitlines()
        for f, line in enumerate(log):
            kv = dict(p.split("=") for p in line.split())
            assert truth[f][int(kv["candidate"])] == 0, line

    def test_rerun_bitwise_identical(self, capsys, align_fixture, tmp_path):
        cand_file, frames_dir, out_dir, _ = align_fixture
        run(capsys, "align", "--candidates", str(cand_file), "--frames", str(frames_dir), "--out", str(out_dir))
        second = tmp_path / "out2"
        run(capsys, "align", "--candidates", str(cand_file), "--frames", str(frames_dir), "--out", str(second))
        for a in sorted((out_dir / "5").glob("*.aakt")):
            b = second / "5" / a.name
            assert np.array_equal(load_tensor(a), load_tensor(b))

    # one bad field in frame 1's record (line 3): a NaN width or an Inf x would
    # crash the crop arithmetic, and a NaN feature would link on NaN distances
    @pytest.mark.parametrize("field, value", [(4, "nan"), (2, "inf"), (7, "nan")],
                             ids=["nan-width", "inf-x", "nan-feature"])
    def test_non_finite_candidate_exits_one(self, capsys, align_fixture, field, value):
        _, frames_dir, out_dir, _ = align_fixture
        records = []
        for f in range(4):
            fields = ["5", str(f), "2", "2", "8", "24", "0.9", "1.0", "0.0"]
            if f == 1:
                fields[field] = value
            records.append("\t".join(fields))
        cand_file = frames_dir.parent / "bad.tsv"
        cand_file.write_text("D=2\n" + "\n".join(records) + "\n")
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {cand_file}:3:"), err
        assert "non-finite" in err

    def test_non_finite_frame_exits_one(self, capsys, align_fixture):
        cand_file, frames_dir, out_dir, _ = align_fixture
        bad = frames_dir / "5" / "0002.aakt"
        pixels = load_tensor(bad)
        pixels[1, 10, 10] = np.nan
        save_tensor(bad, pixels)
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}:"), err
        assert not (out_dir / "5").exists()

    @staticmethod
    def two_tracklets(frames_dir, x6=2):
        """Tracklets 5 and 6 over the fixture's frames; frame 1 of tracklet 6 has box x ``x6``."""
        shutil.copytree(frames_dir / "5", frames_dir / "6")
        records = ["\t".join(map(str, (tid, f, x6 if (tid, f) == (6, 1) else 2, 2, 8, 24, 0.9, 1.0, 0.0)))
                   for tid in (5, 6) for f in range(4)]
        cand_file = frames_dir.parent / "two.tsv"
        cand_file.write_text("D=2\n" + "\n".join(records) + "\n")
        return cand_file

    def test_bad_frame_in_later_tracklet_writes_nothing(self, capsys, align_fixture):
        _, frames_dir, out_dir, _ = align_fixture
        cand_file = self.two_tracklets(frames_dir)
        bad = frames_dir / "6" / "0002.aakt"
        pixels = load_tensor(bad)
        pixels[0, 3, 4] = np.nan
        save_tensor(bad, pixels)
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}:"), err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_box_outside_frame_names_tracklet_and_frame(self, capsys, align_fixture):
        _, frames_dir, out_dir, _ = align_fixture
        cand_file = self.two_tracklets(frames_dir, x6=100)  # the frames are 30 pixels wide
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: tracklet 6: frame 1: box "), err
        assert "degenerate after clipping to 40x30" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("shape", [(1, 40, 30), (40, 30)], ids=["one-channel", "two-axes"])
    def test_bad_frame_shape_without_detection_exits_one(self, capsys, align_fixture, shape):
        # frame 1 has no candidate, so the no-detection path would read any shape
        _, frames_dir, out_dir, _ = align_fixture
        cand_file = frames_dir.parent / "first.tsv"
        cand_file.write_text("D=2\n5\t0\t2\t2\t8\t24\t0.9\t1.0\t0.0\n")
        save_tensor(frames_dir / "5" / "0001.aakt", np.ones(shape))
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert err == f"error: {frames_dir / '5' / '0001.aakt'}: frame must be (3, H, W), got {shape}\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_frame_without_candidate_logged_as_no_detection(self, capsys, align_fixture):
        _, frames_dir, out_dir, _ = align_fixture
        cand_file = frames_dir.parent / "sparse.tsv"
        cand_file.write_text("D=2\n5\t0\t2\t2\t8\t24\t0.9\t1.0\t0.0\n5\t2\t2\t2\t8\t24\t0.9\t1.0\t0.0\n")
        code, out, err = run(capsys, "align", "--candidates", str(cand_file),
                             "--frames", str(frames_dir), "--out", str(out_dir))
        assert (code, err) == (0, "") and kv_block(out)["frames"] == "4"
        assert (out_dir / "5" / "provenance.log").read_text() == (
            "frame=0 candidate=0 rule=max-area\nframe=1 no_detection=1\n"
            "frame=2 candidate=0 rule=link\nframe=3 no_detection=1\n")

    def test_tracklet_directory_without_frames_exits_one(self, capsys, align_fixture):
        cand_file, frames_dir, out_dir, _ = align_fixture
        for path in (frames_dir / "5").glob("*.aakt"):
            path.unlink()
        code, out, err = run(capsys, "align", "--candidates", str(cand_file),
                             "--frames", str(frames_dir), "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: {frames_dir / '5'} holds no frame containers\n"
        assert not out_dir.exists()

    def test_candidate_past_last_frame_names_tracklet(self, capsys, align_fixture):
        # a negative frame is rejected at parse time; the frame count is known only here
        _, frames_dir, out_dir, _ = align_fixture
        cand_file = frames_dir.parent / "late.tsv"
        cand_file.write_text("D=2\n5\t4\t2\t2\t8\t24\t0.9\t1.0\t0.0\n")  # the fixture has frames 0-3
        code, _, err = run(capsys, "align", "--candidates", str(cand_file),
                           "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1
        assert err == "error: tracklet 5: candidate frame 4 out of range\n"

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_non_positive_slim_ratio_exits_one(self, capsys, align_fixture, value):
        cand_file, frames_dir, out_dir, _ = align_fixture
        code, out, err = run(capsys, "align", "--candidates", str(cand_file), "--frames", str(frames_dir),
                             "--out", str(out_dir), "--slim-ratio", value)
        assert code == 1 and out == ""
        assert err == f"error: slim ratio {float(value)} must be positive\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("records", [True, False], ids=["records", "no-records"])
    def test_bad_alpha_rejected_before_any_tracklet(self, capsys, align_fixture, records):
        cand_file, frames_dir, out_dir, _ = align_fixture
        if not records:
            write_candidate_file(cand_file, {}, dim=2)
        code, out, err = run(capsys, "align", "--candidates", str(cand_file), "--frames", str(frames_dir),
                             "--out", str(out_dir), "--alpha", "5", "--slim-ratio", "-1")
        assert (code, out, err) == (1, "", "error: alpha 5.0 outside [0, 1]\n")
        assert not out_dir.exists()

    def test_zero_padding_frame_names_leaves_output_unchanged(self, capsys, tmp_path):
        # frames 0..10: by name 10.aakt sorts before 2.aakt, by number it follows 9.aakt
        rng = Rng(22)
        target = dl.ScriptedIdentity(centroid=np.array([1.0, 0.0]), boxes={f: (2, 2, 8, 24) for f in range(11)})
        cands, _ = dl.synthetic_detector([target], 11, rng, noise_scale=0.05)
        cand_file = tmp_path / "cands.tsv"
        write_candidate_file(cand_file, {5: [c for row in cands for c in row]}, dim=2)
        outputs = []
        for width in (1, 4):
            frames_dir = tmp_path / f"frames{width}"
            (frames_dir / "5").mkdir(parents=True)
            for i in range(11):
                pixels = rng.child(50 + i).uniform(0.1, 1.0, (3, 40, 30))
                save_tensor(frames_dir / "5" / f"{i:0{width}d}.aakt", pixels)
            out_dir = tmp_path / f"out{width}"
            code, _, _ = run(capsys, "align", "--candidates", str(cand_file),
                             "--frames", str(frames_dir), "--out", str(out_dir))
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted((out_dir / "5").iterdir())})
        assert len(outputs[0]) == 2 * 11 + 1 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("name, message", [
        ("frame1.aakt", "{dir}/frame1.aakt: frame container name is not a frame number"),
        ("-1.aakt", "{dir}/-1.aakt: frame container name is not a frame number"),
        ("0.aakt", "{dir}/0000.aakt: frame 0 repeats {dir}/0.aakt"),
        ("0004.aakt", "{dir}: frame 1 is missing, frames run to 4"),
    ], ids=["not-a-number", "negative", "repeat", "gap"])
    def test_misnumbered_frame_exits_one_naming_path(self, capsys, align_fixture, name, message):
        cand_file, frames_dir, out_dir, _ = align_fixture
        (frames_dir / "5" / "0001.aakt").rename(frames_dir / "5" / name)
        code, out, err = run(capsys, "align", "--candidates", str(cand_file),
                             "--frames", str(frames_dir), "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == "error: " + message.format(dir=frames_dir / "5") + "\n"
        assert not out_dir.exists()

    def test_malformed_candidates_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("D=2\n1\t0\tx\t0\t5\t5\t0.9\t1\t2\n")
        code, _, err = run(capsys, "align", "--candidates", str(bad),
                           "--frames", str(tmp_path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert ":2:" in err


@pytest.fixture
def eval_fixture(tmp_path):
    # the same-camera distractor-duplicate scenario plus a relabel case
    queries = [ev.TrackletMeta(tid=374, identity=374, camera=2),
               ev.TrackletMeta(tid=500, identity=142, camera=1)]
    gallery = [
        ev.TrackletMeta(tid=9000, identity=0, camera=2),
        ev.TrackletMeta(tid=410, identity=374, camera=1),
        ev.TrackletMeta(tid=411, identity=555, camera=1),
        ev.TrackletMeta(tid=7, identity=184, camera=2),
    ]
    distances = np.array([
        [0.10, 0.20, 0.30, 0.90],
        [0.80, 0.85, 0.70, 0.10],
    ])
    meta = tmp_path / "meta.tsv"
    write_metadata_file(meta, queries, gallery)
    dist_path = tmp_path / "dist.aakt"
    save_tensor(dist_path, distances)
    corr = tmp_path / "corr.txt"
    corr.write_text("VERSION 1\nRELABEL 7 142\nDUPDIST 374 9000\n")
    empty_corr = tmp_path / "empty.txt"
    empty_corr.write_text("# nothing yet\n")
    return meta, dist_path, corr, empty_corr


class TestEval:
    def test_old_protocol_metrics(self, capsys, eval_fixture):
        meta, dist, corr, _ = eval_fixture
        code, out, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                           "--corrections", str(corr), "--protocol", "old")
        assert code == 0
        kv = kv_block(out)
        # query 374: dup counted as a miss at rank 1 -> AP 0.5; query 500: relabeled 7 is rank-1 -> AP 1
        assert float(kv["mAP"]) == pytest.approx(0.75, abs=1e-9)

    def test_new_protocol_beats_old_on_dup_fixture(self, capsys, eval_fixture):
        meta, dist, corr, _ = eval_fixture
        _, out_old, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                            "--corrections", str(corr), "--protocol", "old")
        _, out_new, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                            "--corrections", str(corr), "--protocol", "new")
        assert float(kv_block(out_new)["mAP"]) > float(kv_block(out_old)["mAP"])

    def test_empty_corrections_same_as_omitting(self, capsys, eval_fixture):
        meta, dist, _, empty = eval_fixture
        _, out_a, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                          "--corrections", str(empty))
        _, out_b, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist))
        assert kv_block(out_a) == kv_block(out_b)

    def test_compare_prints_delta_report(self, capsys, eval_fixture):
        meta, dist, corr, _ = eval_fixture
        code, out, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                           "--corrections", str(corr), "--compare")
        assert code == 0
        kv = kv_block(out)
        assert float(kv["new_corrected.mAP"]) > float(kv["old_raw.mAP"])

    def test_shape_mismatch_names_extents(self, capsys, eval_fixture, tmp_path):
        meta, _, _, _ = eval_fixture
        bad = tmp_path / "bad.aakt"
        save_tensor(bad, np.ones((3, 3)))
        code, _, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(bad))
        assert code == 1
        assert "2 queries" in err and "4 gallery" in err

    def test_non_finite_distances_exit_one(self, capsys, eval_fixture, tmp_path):
        meta, dist, _, _ = eval_fixture
        distances = load_tensor(dist)
        distances[1, 2] = np.nan
        bad = tmp_path / "nan.aakt"
        save_tensor(bad, distances)
        code, out, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(bad))
        assert code == 1
        assert "mAP" not in out
        assert "(query 1, gallery 2)" in err

    @pytest.mark.parametrize("distances, message", [
        (np.ones((3, 3)), "distance matrix (3, 3) does not match 2 queries x 4 gallery"),
        (np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, np.nan, 0.8]]),
         "distance matrix holds 1 non-finite entries, first at (query 1, gallery 2): nan"),
    ], ids=["shape", "nan"])
    def test_distance_errors_name_the_file(self, capsys, eval_fixture, tmp_path, distances, message):
        meta, _, _, _ = eval_fixture
        bad = tmp_path / "bad.aakt"
        save_tensor(bad, distances)
        code, out, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(bad))
        assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")

    def test_repeated_gallery_tid_exits_one_with_line(self, capsys, eval_fixture):
        meta, dist, _, _ = eval_fixture
        meta.write_text(meta.read_text() + "gallery\t410\t374\t0\t-\n")
        code, out, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist))
        assert code == 1
        assert "mAP" not in out
        assert err.startswith("error: ") and "meta.tsv:7: gallery tid 410 repeats line 4" in err


    def test_protocol_defaults_to_old(self, capsys, eval_fixture):
        meta, dist, corr, _ = eval_fixture
        _, out_default, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist))
        _, out_old, _ = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist), "--protocol", "old")
        assert kv_block(out_default)["protocol"] == "old" and out_default == out_old

    @pytest.mark.parametrize("protocol", ["old", "new"])
    def test_protocol_with_compare_exits_one(self, capsys, eval_fixture, protocol):
        meta, dist, corr, _ = eval_fixture
        code, out, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist),
                             "--corrections", str(corr), "--compare", "--protocol", protocol)
        assert code == 1 and out == ""
        assert err == "error: --protocol has no effect with --compare\n"


def make_hostile(path, kind):
    """Put a hostile input of the given kind at path, in place of what is there,
    and return its path; "renamed" renames the frame container at path to a
    name that is not a frame number."""
    if kind == "renamed":
        return path.rename(path.with_name("frame1.aakt"))
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    if kind == "directory":
        path.mkdir()
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "dangling-symlink":
        path.symlink_to(path.with_name("missing"))
    else:  # "wrong-rank", a rank-1 container: the wrong rank for a frame or a distance matrix, and not text
        save_tensor(path, np.ones(4))
    return path


# flag -> (subcommand, the fixture path it names); "frame" is one frame container under --frames
HOSTILE_TARGETS = {
    "--candidates": ("align", "cands.tsv"), "--frames": ("align", "frames"), "--out": ("align", "out"),
    "frame": ("align", "frames/5/0001.aakt"),
    "--meta": ("eval", "meta.tsv"), "--distances": ("eval", "dist.aakt"), "--corrections": ("eval", "corr.txt"),
}
HOSTILE_KINDS = ("directory", "empty", "wrong-rank", "dangling-symlink")
HOSTILE_CASES = [(flag, kind) for flag in HOSTILE_TARGETS for kind in HOSTILE_KINDS]
VALID_HOSTILE = {("--out", "directory"), ("--corrections", "empty")}  # an existing --out; no corrections


def hostile_argv(command, tmp_path):
    """Every file flag of command, each naming its fixture path under tmp_path."""
    return [a for f, (cmd, path) in HOSTILE_TARGETS.items() if cmd == command and f != "frame"
            for a in (f, str(tmp_path / path))]


class TestHostileInputs:
    """Each file flag of align and eval given a directory, an empty file, a
    container of the wrong rank or a symlink to a missing file, a renamed
    frame container, and a file whose opening is denied: the run exits 0 or 1,
    and a failure is one `error:` line that names the hostile path (an
    escaping exception fails the test)."""

    @pytest.mark.parametrize("flag, kind", HOSTILE_CASES + [("frame", "renamed")])
    def test_exits_zero_or_one_with_one_error_line(self, capsys, align_fixture, eval_fixture, tmp_path, flag, kind):
        command, name = HOSTILE_TARGETS[flag]
        hostile = make_hostile(tmp_path / name, kind)
        code, out, err = run(capsys, command, *hostile_argv(command, tmp_path))
        assert "Traceback" not in err
        if (flag, kind) in VALID_HOSTILE:
            assert code == 0 and err == ""
            return
        assert code == 1 and "---" not in out
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert str(hostile) in err, err

    @pytest.mark.parametrize("command, name", [
        ("align", "cands.tsv"), ("align", "frames/5/0001.aakt"), ("align", "out/5/image_0002.aakt"),
        ("eval", "meta.tsv"), ("eval", "dist.aakt"), ("eval", "corr.txt"),
    ])
    def test_permission_denied_exits_one_naming_the_path(self, capsys, monkeypatch, align_fixture, eval_fixture,
                                                         tmp_path, command, name):
        # file modes do not stop root, so opening the path is made to fail instead;
        # Path.read_bytes opens through io.open, everything else through builtins.open
        denied = str(tmp_path / name)
        real_open = io.open

        def guarded_open(file, *args, **kwargs):
            if str(file) == denied:
                raise PermissionError(errno.EACCES, "Permission denied", denied)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded_open)
        monkeypatch.setattr(io, "open", guarded_open)
        code, out, err = run(capsys, command, *hostile_argv(command, tmp_path))
        assert code == 1 and "---" not in out and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert denied in err, err


class TestDemo:
    def test_tiny_demo_deterministic(self, capsys):
        argv = ["demo", "--ids", "4", "--epochs", "2", "--seed", "3", "--data-seed", "5"]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        kv = kv_block(out1)
        assert 0.0 <= float(kv["rank1"]) <= 1.0

    def test_zero_epochs_reports_chance(self, capsys):
        code, out, _ = run(capsys, "demo", "--ids", "4", "--epochs", "0",
                           "--seed", "3", "--data-seed", "5", "--chance-trials", "2")
        assert code == 0
        kv = kv_block(out)
        assert float(kv["rank1"]) <= 0.8
        assert "chance_rank1_mean" in kv

    @pytest.mark.parametrize("attention", ["nonlocal3d", "none"])
    @pytest.mark.parametrize("flag", ["--scales", "--heads"])
    def test_cfaa_flag_with_other_attention_exits_one(self, capsys, flag, attention):
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", "0", "--attention", attention, flag, "2")
        assert code == 1 and out == ""
        assert err == f"error: {flag} has no effect with --attention {attention}\n"

    @pytest.mark.parametrize("attention", ["cfaa", "nonlocal3d", "none"])
    def test_attention_kind_named_in_block(self, capsys, attention):
        code, out, _ = run(capsys, "demo", "--ids", "4", "--epochs", "1", "--attention", attention)
        assert code == 0
        assert kv_block(out)["attention"] == attention

    @pytest.mark.parametrize("flag, value, low", [
        ("--seed", "-1", 0), ("--data-seed", "-1", 0), ("--ids", "0", 4), ("--chance-trials", "-1", 0),
        ("--epochs", "-1", 0), ("--scales", "0", 1), ("--heads", "-1", 1),
    ])
    def test_integer_flag_below_minimum_exits_one(self, capsys, flag, value, low):
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", "0", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least {low}, got {value}\n"

    @pytest.mark.parametrize("epochs", ["0", "1"])
    def test_fewer_ids_than_one_training_batch_exits_one(self, capsys, epochs):
        # training draws 4 identities per batch, and builds no batch at --epochs 0
        # only after checking that it could
        code, out, err = run(capsys, "demo", "--ids", "3", "--epochs", epochs)
        assert code == 1 and out == ""
        assert err == "error: --ids must be at least 4, got 3\n"

    @pytest.mark.parametrize("value", ["0", "-0.05", "nan"])
    def test_non_positive_lr_exits_one(self, capsys, value):
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", "1", "--lr", value)
        assert code == 1 and out == ""
        assert err == f"error: --lr must be positive, got {float(value)}\n"

    def test_infinite_lr_exits_one(self, capsys):
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", "1", "--lr", "inf")
        assert code == 1 and out == ""
        assert err == "error: --lr must be finite, got inf\n"

    @pytest.mark.parametrize("attention", ["cfaa", "nonlocal3d", "none"])
    @pytest.mark.parametrize("epochs", ["1", "2"])
    def test_overflowing_lr_exits_one_with_one_error_line(self, capsys, attention, epochs):
        # one batch per epoch: the first update overflows nothing, so a 1-epoch
        # run fails in retrieval and a 2-epoch run in its second batch; neither
        # prints a numpy warning
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", epochs, "--lr", "1e308", "--attention", attention)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "non-finite" in err and len(err.splitlines()) == 1
        assert err.startswith("error: training diverged at epoch 2, batch 1: ") == (epochs == "2")

    def test_diverging_run_exits_one_without_traceback(self, capsys):
        code, _, err = run(capsys, "demo", "--ids", "4", "--epochs", "3", "--lr", "1e8")
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for word in ("bench", "gradcheck", "align", "eval", "demo"):
            assert word in out

    def test_subcommand_help_mentions_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--preset" in out and "--variant" in out
        assert "--calibrate" not in out and "--mac" not in out


class TestUsageErrors:
    """Argument-parsing errors are invalid input: exit 1, one error line naming the argument."""

    @pytest.mark.parametrize("argv, named", [
        (["bench", "--mac", "2"], "--mac"),
        (["bench", "--calibrate"], "--calibrate"),
        (["bench", "--include-projections", "--variant", "nonlocal3d"], "--include-projections"),
        (["demo", "--ids", "x"], "--ids"),
        (["bench", "--preset", "all"], "--preset"),
        (["bench", "--foo"], "--foo"),
        ([], "command"),
    ], ids=["bench-mac", "bench-calibrate", "bench-include-projections", "demo-ids-x",
            "bench-bad-preset", "bench-foo", "no-command"])
    def test_usage_error_exits_one(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err, err


def readme_bench_lines() -> list[list[str]]:
    """The argv of every `axialreid bench` line in the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in commands if line.startswith("axialreid bench")]


class TestReadme:
    def test_cli_block_lists_bench_lines(self):
        assert len(readme_bench_lines()) >= 3

    @pytest.mark.parametrize("argv", readme_bench_lines(), ids=" ".join)
    def test_readme_bench_line_runs(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), err
        assert out.endswith("---\n")
