import shutil

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

    def test_cfaa_scale1_equals_axial_relative(self, capsys):
        _, out1, _ = run(capsys, "bench", "--variant", "cfaa", "--scales", "1")
        _, out2, _ = run(capsys, "bench", "--variant", "axial+relative")
        assert kv_block(out1)["total_flops"] == kv_block(out2)["total_flops"]

    def test_backbone_frames_linearity(self, capsys):
        _, out1, _ = run(capsys, "bench", "--variant", "backbone", "--frames", "1")
        _, out6, _ = run(capsys, "bench", "--variant", "backbone", "--frames", "6")
        assert 6 * int(kv_block(out1)["total_flops"]) == int(kv_block(out6)["total_flops"])

    def test_calibrate(self, capsys):
        code, out, _ = run(capsys, "bench", "--calibrate")
        assert code == 0
        assert "best fit" in out

    def test_convention_flags_change_totals(self, capsys):
        _, out_def, _ = run(capsys, "bench", "--variant", "nonlocal3d")
        _, out_mac2, _ = run(capsys, "bench", "--variant", "nonlocal3d", "--mac", "2")
        _, out_proj, _ = run(capsys, "bench", "--variant", "nonlocal3d", "--include-projections")
        base = int(kv_block(out_def)["total_flops"])
        assert int(kv_block(out_mac2)["total_flops"]) == 2 * base
        assert int(kv_block(out_proj)["total_flops"]) > base

    def test_bad_usage_exits_one(self, capsys):
        code, _, err = run(capsys, "bench")
        assert code == 1
        assert "error:" in err

    # each flag is one the chosen mode does not read: the run would print what it prints without it
    @pytest.mark.parametrize("flag, argv", [
        ("--frames", ["--preset", "costs", "--frames", "4"]),
        ("--frames", ["--calibrate", "--frames", "6"]),
        ("--scales", ["--variant", "axial+relative", "--scales", "4"]),
        ("--scales", ["--variant", "backbone", "--scales", "2"]),
        ("--scales", ["--preset", "models", "--scales", "2"]),
        ("--last-stride", ["--variant", "cfaa", "--last-stride", "2"]),
        ("--last-stride", ["--preset", "models", "--last-stride", "1"]),
        ("--variant", ["--preset", "costs", "--variant", "cfaa"]),
        ("--variant", ["--preset", "models", "--variant", "backbone"]),
        ("--mac", ["--calibrate", "--mac", "2"]),
        ("--include-softmax", ["--calibrate", "--include-softmax"]),
        ("--include-bn-relu", ["--calibrate", "--include-bn-relu"]),
        ("--include-projections", ["--calibrate", "--include-projections"]),
        ("--positional", ["--calibrate", "--positional", "perhead"]),
    ])
    def test_flag_without_effect_exits_one(self, capsys, flag, argv):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} has no effect with "), err


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

    def test_repeated_gallery_tid_exits_one_with_line(self, capsys, eval_fixture):
        meta, dist, _, _ = eval_fixture
        meta.write_text(meta.read_text() + "gallery\t410\t374\t0\t-\n")
        code, out, err = run(capsys, "eval", "--meta", str(meta), "--distances", str(dist))
        assert code == 1
        assert "mAP" not in out
        assert err.startswith("error: ") and "meta.tsv:7: gallery tid 410 repeats line 4" in err


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

    @pytest.mark.parametrize("flag", ["--scales", "--heads"])
    def test_attention_flag_with_no_attention_exits_one(self, capsys, flag):
        code, out, err = run(capsys, "demo", "--ids", "4", "--epochs", "0", "--no-attention", flag, "2")
        assert code == 1 and out == ""
        assert err == f"error: {flag} has no effect with --no-attention\n"

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
        with pytest.raises(SystemExit):
            cli.main(["bench", "--help"])
        out = capsys.readouterr().out
        assert "--calibrate" in out and "--preset" in out
