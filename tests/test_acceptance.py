"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from axialreid import aggregation as agg
from axialreid import attention as att
from axialreid import detect_link as dl
from axialreid import evaluate as ev
from axialreid import flops
from axialreid import gradcheck as gc
from axialreid import toytrain as tt
from axialreid.tensor import Rng

from helpers import count_oracle_multiplies
from test_evaluate import brute_force_eval, distractor_duplicate_instance, random_instance


def report(n, elapsed, limit, detail=""):
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_flop_table_reproduction():
    t0 = time.time()
    rows = flops.table_rows()
    targets = {
        "baseline": (24.520, 0.05),
        "nonlocal3d": (17.213, 0.10),
        "axial": (0.361, 0.10),
        "axial+sinusoidal": (0.377, 0.10),
        "axial+relative": (0.424, 0.10),
        "cfaa2": (0.245, 0.10),
        "cfaa4": (0.126, 0.10),
    }
    errs = {}
    for name, (ref, tol) in targets.items():
        errs[name] = rows[name].gflops / ref - 1.0
        assert abs(errs[name]) < tol, f"{name}: {rows[name].gflops:.4f} vs {ref} ({errs[name]:+.2%})"
    # hard ordering requirement
    assert (rows["cfaa4"].total < rows["cfaa2"].total
            < rows["axial"].total < rows["nonlocal3d"].total)
    worst = max(errs, key=lambda k: abs(errs[k]))
    report(1, time.time() - t0, 1.0, f"worst row {worst} {errs[worst]:+.2%}")


def test_criterion_2_model_totals():
    t0 = time.time()
    reports = {r.name: r for r in flops.model_table()}
    for name, ref in (("nonlocal", 41.733), ("cfaa_net", 24.646)):
        got = reports[name].gflops
        assert abs(got / ref - 1.0) < 0.05, f"{name}: {got:.4f} vs {ref}"
    report(2, time.time() - t0, 1.0,
           f"nonlocal {reports['nonlocal'].gflops:.3f}, cfaa_net {reports['cfaa_net'].gflops:.3f}")


def test_criterion_3_gradient_checks():
    t0 = time.time()
    results = gc.run_gradient_checks(seeds=range(5))
    assert len(results) == 5 * len(gc.ALL_CHECKS)
    bad = [r for r in results if not r.passed]
    assert not bad, f"failed: {[(r.op, r.seed, r.worst_rel_err) for r in bad]}"
    worst = max(results, key=lambda r: r.worst_rel_err)
    report(3, time.time() - t0, 120.0, f"worst {worst.op} rel_err {worst.worst_rel_err:.2e}")


def test_criterion_4_kernel_model_agreement():
    t0 = time.time()
    cases = [
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
    for variant, cfg in cases:
        analytic = flops.attention_contraction_count(variant, cfg)
        measured = count_oracle_multiplies(variant, cfg, seed=1)
        assert measured == analytic, f"{variant} {cfg.axis_lengths}: {measured} != {analytic}"
    report(4, time.time() - t0, 10.0, f"{len(cases)} variant configs, integer-exact")


def test_criterion_5_evaluation_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for protocol in ("old", "new"):
        for with_corr in (False, True):
            for seed in range(100):
                dataset, corrections = random_instance(seed, with_corrections=with_corr)
                work = ev.apply_corrections(dataset, corrections) if with_corr else dataset
                try:
                    res = ev.evaluate(work, protocol)
                except Exception:
                    continue
                m_ap, cmc, excluded = brute_force_eval(work, protocol)
                assert abs(res.mAP - m_ap) < 1e-12
                assert np.max(np.abs(res.cmc - cmc)) < 1e-12
                assert res.excluded == excluded
                checked += 1
    assert checked >= 350
    report(5, time.time() - t0, 30.0, f"{checked} instances against brute force")


def test_criterion_6_protocol_revision_behavior():
    t0 = time.time()
    dataset, corrections = distractor_duplicate_instance()
    corrected = ev.apply_corrections(dataset, corrections)
    old = ev.evaluate(corrected, "old")
    new = ev.evaluate(corrected, "new")
    assert old.mAP == pytest.approx(0.5, abs=1e-12)  # hand-derived: positive at rank 2 of 2
    assert new.mAP == pytest.approx(1.0, abs=1e-12)  # duplicate ignored, positive at rank 1
    assert new.mAP > old.mAP
    report(6, time.time() - t0, 1.0, "AP 0.5 -> 1.0 under the revised protocol")


def test_criterion_7_linking_robustness():
    t0 = time.time()
    follows = 0
    for trial in range(100):
        rng = Rng(5000 + trial)
        target = dl.ScriptedIdentity(centroid=np.array([1.0, 0.0, 0.2]),
                                     boxes={f: (2, 2, 8, 22) for f in range(6)})
        occluder = dl.ScriptedIdentity(centroid=np.array([0.0, 1.0, 0.2]),
                                       boxes={f: (11, 0, 12, 34) for f in (2, 3, 4)})
        cands, truth = dl.synthetic_detector([target, occluder], 6, rng, noise_scale=0.1)
        chosen0 = dl.select_first_frame(cands[0])
        state = dl.LinkState(chosen0.feature.copy(), alpha=0.9)
        picked_feats = [chosen0.feature.copy()]
        followed = True
        for f in range(1, 6):
            chosen, state = dl.link_frame(state, cands[f])
            picked_feats.append(chosen.feature.copy())
            followed &= truth[f][cands[f].index(chosen)] == 0
        follows += followed
        # EMA convex-combination invariant, exact per trial
        weights = [1.0]
        for _ in picked_feats[1:]:
            weights = [w * 0.9 for w in weights] + [0.1]
        assert abs(sum(weights) - 1.0) < 1e-12
        recon = sum(w * f for w, f in zip(weights, picked_feats))
        assert np.max(np.abs(state.f_g - recon)) < 1e-12
    assert follows >= 99, f"linked track followed frame-1 identity in only {follows}/100 trials"
    report(7, time.time() - t0, 30.0, f"{follows}/100 trials followed, EMA invariant exact")


def test_criterion_8_masked_aggregation_invariance():
    t0 = time.time()
    rng = Rng(31)
    frames = [rng.child(i).uniform(0.1, 1.0, (3, 60, 40)) for i in range(4)]
    cands = [[dl.CandidateBox(frame=i, box=(2, 1, 9, 38), confidence=0.9,
                              feature=np.array([1.0, 0.0]))] for i in range(4)]
    aligned = dl.process_tracklet(frames, cands)
    images = np.stack([a.image for a in aligned])  # (T, 3, 256, 128)
    masks = np.stack([a.mask for a in aligned])
    assert (masks == 0).any(), "fixture must contain padded pixels"
    pooled = agg.masked_avg_pool(images, masks)
    f_pre = pooled.mean(axis=0)

    perturbed = images.copy()
    noise = rng.child(99).normal(images.shape, scale=50.0)
    perturbed += noise * (1.0 - masks[:, None])  # touch padded pixels only
    f_pre2 = agg.masked_avg_pool(perturbed, masks).mean(axis=0)
    assert np.array_equal(f_pre, f_pre2), "padded-pixel perturbation leaked into f_pre"
    report(8, time.time() - t0, 10.0, "f_pre delta exactly 0")


@pytest.mark.slow
def test_criterion_9_toy_end_to_end():
    t0 = time.time()
    dataset = tt.SyntheticIdentityDataset(num_ids=20, seed=7)
    seeds = (1, 2)

    chance = tt.chance_baseline(tt.ToyModelSpec(num_classes=20), dataset, seeds=range(3))
    print(f"  untrained chance rank-1 (Monte-Carlo over 3 seeds): "
          f"mean={np.mean(chance):.3f} range=[{min(chance):.3f}, {max(chance):.3f}]")

    att_r1, base_r1 = [], []
    for seed in seeds:
        spec = tt.ToyModelSpec(num_classes=20, attention=("cfaa", 4, 2))
        model, log = tt.train(spec, dataset, epochs=40, seed=seed, lr=0.05)
        drop = 1.0 - log.epoch_losses[-1] / log.epoch_losses[0]
        assert drop >= 0.5, f"seed {seed}: loss dropped only {drop:.0%}"
        res = ev.evaluate(tt.retrieve(model, dataset.tracklets), "old")
        att_r1.append(res.cmc_at(1))
        assert res.cmc_at(1) >= 0.9, f"seed {seed}: rank-1 {res.cmc_at(1):.3f} < 0.9"
        print(f"  cf-aa seed {seed}: loss {log.epoch_losses[0]:.2f} -> {log.epoch_losses[-1]:.2f} "
              f"({drop:.0%}), rank-1 {res.cmc_at(1):.3f}, mAP {res.mAP:.3f}")

        base = tt.ToyModelSpec(num_classes=20, attention=("none",))
        bmodel, _ = tt.train(base, dataset, epochs=40, seed=seed, lr=0.05)
        bres = ev.evaluate(tt.retrieve(bmodel, dataset.tracklets), "old")
        base_r1.append(bres.cmc_at(1))
        print(f"  baseline seed {seed}: rank-1 {bres.cmc_at(1):.3f}, mAP {bres.mAP:.3f}")

    assert np.mean(att_r1) >= np.mean(base_r1), (
        f"cf-aa mean rank-1 {np.mean(att_r1):.3f} < baseline {np.mean(base_r1):.3f}"
    )
    assert np.mean(att_r1) >= 0.9 > np.mean(chance) + 0.5
    report(9, time.time() - t0, 900.0,
           f"cf-aa rank-1 {np.mean(att_r1):.3f} >= baseline {np.mean(base_r1):.3f}, "
           f"chance {np.mean(chance):.3f}")


def test_criterion_10_non_reproducibility_statement():
    t0 = time.time()
    readme = Path(__file__).parents[1] / "README.md"
    text = " ".join(readme.read_text().split()).lower()
    assert "86.5" in text and "91.3" in text
    assert "not reproduced" in text.replace("*", "")
    print("  statement: the published MARS/DukeV accuracy figures (86.5 mAP / 91.3 rank-1) "
          "are NOT reproduced at desk scale; acceptance rests on criteria 1-9.")
    report(10, time.time() - t0, 1.0, "statement present in README")
