"""Self-tests of the benchmark's own code: the re-scorer, failure counting,
the span arithmetic and the run-time wrapping.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from axialreid import attention, evaluate, tensor  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_instance(seed: int):
    """Queries and gallery over 3 cameras with quantised distances (ties),
    distractors, an excluded query, ambiguity in the metadata and in
    corrections, relabels and DUPDIST pairs both under the query's camera and
    across cameras."""
    rng = np.random.default_rng(seed)
    nq, ng, ids = 12, 40, 8
    q_id = rng.integers(1, ids + 1, nq)
    g_id = np.concatenate([q_id, rng.integers(0, ids + 1, ng - nq)])  # every query has a positive
    q_cam, g_cam = rng.integers(0, 3, nq), rng.integers(0, 3, ng)
    # query 0's identity has one gallery tracklet, under the query's camera: excluded
    q_id[0] = g_id[0] = ids + 1
    g_cam[0] = q_cam[0]
    dist = np.round(rng.uniform(0.0, 1.0, (nq, ng)) * 5) / 5
    queries = [oracle.Track(i, int(q_id[i]), int(q_cam[i])) for i in range(nq)]
    gallery = []
    for j in range(ng):
        listed = frozenset({int(q_id[j % nq]) % ids + 1}) if j % 7 == 3 else frozenset()
        gallery.append(oracle.Track(100 + j, int(g_id[j]), int(g_cam[j]), listed - {int(g_id[j])}))
    relabels = {100 + j: int(rng.integers(0, ids + 1)) for j in (2, 15, 30)}
    ambiguities = {100 + j: {int(rng.integers(1, ids + 1))} for j in (5, 21)}
    ambiguities[1] = {int(q_id[2])}
    duplicates = []
    for qi in range(nq):
        for j in np.flatnonzero(g_id == 0)[:2]:
            duplicates.append((qi, 100 + int(j)))
            dist[qi, j] = 0.0
    return oracle.Instance(queries, gallery, dist), relabels, ambiguities, duplicates


def library_dataset(inst: oracle.Instance) -> evaluate.EvalDataset:
    def meta(t):
        return evaluate.TrackletMeta(tid=t.tid, identity=t.identity, camera=t.camera, ambiguous_ids=t.ambiguous)

    return evaluate.EvalDataset([meta(t) for t in inst.queries], [meta(t) for t in inst.gallery],
                                inst.distances.copy())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("protocol", ["old", "new"])
def test_scorer_agrees_with_evaluate(seed, protocol):
    inst, relabels, ambiguities, duplicates = small_instance(seed)
    corrections = evaluate.LabelCorrections(
        relabels=dict(relabels), ambiguities={t: set(a) for t, a in ambiguities.items()},
        duplicate_pairs={frozenset(p) for p in duplicates})
    fixed = evaluate.apply_corrections(library_dataset(inst), corrections)
    want = oracle.score(oracle.corrected(inst, relabels, ambiguities, duplicates), protocol, max_rank=10)
    assert oracle.compare(evaluate.evaluate(fixed, protocol, max_rank=10), want) == []
    assert oracle.compare(evaluate.evaluate(library_dataset(inst), "old", 10), oracle.score(inst, "old", 10)) == []


def test_instances_exercise_ties_ambiguity_duplicates_and_exclusion():
    seen = dict(excluded=0, dup_dropped=False, ambiguous_hit=False)
    for seed in range(8):
        inst, relabels, ambiguities, duplicates = small_instance(seed)
        fixed = oracle.corrected(inst, relabels, ambiguities, duplicates)
        assert len(np.unique(inst.distances)) < inst.distances.size // 10  # many ties
        old, new = oracle.score(fixed, "old"), oracle.score(fixed, "new")
        seen["excluded"] += old.excluded
        seen["dup_dropped"] |= old.per_query_ap != new.per_query_ap
        stripped = oracle.Instance([replace(q, ambiguous=frozenset()) for q in fixed.queries],
                                   [replace(g, ambiguous=frozenset()) for g in fixed.gallery],
                                   fixed.distances, fixed.duplicates)
        seen["ambiguous_hit"] |= oracle.score(stripped, "old").per_query_ap != old.per_query_ap
    assert seen["excluded"] > 0 and seen["dup_dropped"] and seen["ambiguous_hit"]


def perturbations(result):
    aps = list(result.per_query_ap)
    k = next(i for i, a in enumerate(aps) if a is not None)
    bumped = aps.copy()
    bumped[k] = aps[k] * (1 + 1e-9)
    dropped = aps.copy()
    dropped[k] = None
    cmc = result.cmc.copy()
    cmc[-1] = np.nextafter(cmc[-1], 0.0)
    yield "AP off by 1e-9", replace(result, per_query_ap=bumped)
    yield "query excluded", replace(result, per_query_ap=dropped, excluded=result.excluded + 1)
    yield "CMC one ulp low", replace(result, cmc=cmc)
    yield "excluded count", replace(result, excluded=result.excluded + 1)
    yield "mAP", replace(result, mAP=result.mAP + 1e-9)


def test_perturbed_result_is_a_failure():
    inst, *_ = small_instance(0)
    result = evaluate.evaluate(library_dataset(inst), "old")
    want = oracle.score(inst, "old")
    assert oracle.compare(result, want) == []
    for what, bad in perturbations(result):
        assert oracle.compare(bad, want), what


def test_tie_order_is_checked():
    # scoring ties in reverse gallery order must not pass for the library's order
    inst, *_ = small_instance(1)
    flipped = oracle.Instance(inst.queries, inst.gallery[::-1], inst.distances[:, ::-1].copy())
    result = evaluate.evaluate(library_dataset(flipped), "old")
    assert oracle.compare(result, oracle.score(flipped, "old")) == []
    assert oracle.compare(result, oracle.score(inst, "old")) != []


def test_repeated_seed_with_another_loss_is_a_failure():
    wl, st = workloads.TrainCfaa(), dict(losses={})
    assert wl.check(st, 0, (4, [1.25])) == ([], {})
    assert wl.check(st, 1, (5, [0.5])) == ([], {})
    assert wl.check(st, 2, (4, [1.25])) == ([], {})
    assert wl.check(st, 3, (4, [np.nextafter(1.25, 2.0)]))[0]
    assert wl.check(st, 4, (6, [float("nan")]))[0]


class Scripted:
    """Op 1 raises, op 2 returns a wrong answer, the rest are right."""

    def op(self, st, i):
        if i == 1:
            raise RuntimeError("boom")
        return 3, (i, i * i + (i == 2))

    def check(self, st, i, output):
        k, square = output
        return ([] if square == k * k else [f"op {i}: {square} != {k}^2"]), {"seen": 1}


def test_failed_and_raising_ops_are_counted(monkeypatch):
    wall, cpu = itertools.count(0.0, 1.0), itertools.count(0.0, 0.25)  # advance per read
    monkeypatch.setattr(run, "time", SimpleNamespace(perf_counter=lambda: next(wall),
                                                     process_time=lambda: next(cpu)))
    refs = itertools.cycle([0.1, 0.3])  # reference runs alternate around each op: mean 0.2 s
    phase = run.run_phase(Scripted(), None, seconds=5.0, reference=lambda: next(refs))
    assert len(phase["ops"]) == 5 and phase["busy"] == 5.0 and phase["cpu_busy"] == 1.25
    assert [bool(o["failures"]) for o in phase["ops"]] == [False, True, True, False, False]
    assert "boom" in phase["ops"][1]["failures"][0]
    assert [o["items"] for o in phase["ops"]] == [3, 0, 3, 3, 3]
    assert [o["ref_s"] for o in phase["ops"]] == [[0.1, 0.3], [0.3, 0.1]] * 2 + [[0.1, 0.3]]
    # CPU seconds scaled by REF_SECONDS over the mean of the two reference runs
    assert [o["cal_s"] for o in phase["ops"]] == pytest.approx([0.25 * calibrate.REF_SECONDS / 0.2] * 5)
    assert phase["items_per_s"] == 12 / 5.0
    assert phase["items_per_cal_s"] == pytest.approx(12 / phase["cal_busy"])
    assert phase["counts"] == {"seen": 4}


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_on_hand_built_trees():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: the union covers [1, 5]
        span("leaf", 1.5, 2.5, 1),  # counts against a, not against root
        span("c", 7.0, 12.0, 0),  # runs past root's end: only [7, 10] counts
        span("root", 20.0, 21.0),
        span("outside", 30.0, 31.0, op=None),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 3.0, 1.0, 5.0, 1.0, 1.0])
    totals = spans.layer_totals(tree)
    assert totals["root"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert "outside" not in totals
    assert spans.top_level_seconds(tree) == pytest.approx(11.0)
    assert spans.covered(0.0, 4.0, [(3.0, 9.0), (-1.0, 1.0), (0.5, 2.0)]) == pytest.approx(3.0)
    assert spans.covered(0.0, 4.0, []) == 0.0


def test_install_wraps_every_binding_and_restores():
    originals = (tensor.avg_pool_2d, attention.cfaa_forward, attention._axial_core_forward,
                 tensor.Rng.__dict__["child"])
    assert attention.avg_pool_2d is tensor.avg_pool_2d
    cfg = attention.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=1, scales=2, axis_lengths=(2, 4, 4))
    params = attention.init_cfaa_params(cfg, tensor.Rng(0))
    x = tensor.Rng(1).normal((4, 2, 4, 4))
    tracer = spans.Tracer()
    try:
        names = tracer.install(hooks=run.counting_hooks())
        assert "tensor.avg_pool_2d" in names and "tensor.Rng.child" in names
        assert not any(n.split(".")[-1].startswith("_") for n in names)
        assert "attention.count_multiplies" not in names
        assert attention.avg_pool_2d is tensor.avg_pool_2d is not originals[0]
        assert attention._axial_core_forward is originals[2]
        tracer.op = 0
        attention.cfaa_forward(x, params, cfg)
    finally:
        tracer.uninstall()
    assert (tensor.avg_pool_2d, attention.cfaa_forward, attention._axial_core_forward,
            tensor.Rng.__dict__["child"]) == originals
    assert attention.avg_pool_2d is tensor.avg_pool_2d
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["tensor.avg_pool_2d"]][3] == by_name["attention.cfaa_forward"]
    work = tracer.work["attention.cfaa_forward"]
    assert work["multiplies"] == work["predicted"] > 0
