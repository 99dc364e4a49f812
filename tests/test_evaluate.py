import copy
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid import evaluate as ev
from axialreid.errors import DimensionError, ValidationError
from axialreid.tensor import Rng, save_tensor
from eval_files import write_metadata_file
from helpers import rank_oracle


def brute_force_eval(dataset, protocol, max_rank=50):
    """Independent reference: (mAP, CMC, excluded count) of ``brute_force_scores``."""
    aps, cmc, excluded = brute_force_scores(dataset, protocol, max_rank)
    return float(np.mean([a for a in aps if a is not None])), cmc, excluded


def brute_force_scores(dataset, protocol, max_rank=50):
    """Independent reference: per query, sort (distance, index) pairs, filter,
    enumerate precision by hand. Returns (per-query AP or None, CMC, excluded count)."""
    aps, cmc_rows = [], []
    excluded = 0
    max_rank = min(max_rank, len(dataset.gallery))
    for qi, q in enumerate(dataset.queries):
        pairs = sorted((dataset.distances[qi, gi], gi) for gi in range(len(dataset.gallery)))
        kept = []
        for _, gi in pairs:
            g = dataset.gallery[gi]
            same_cam_same_id = g.camera == q.camera and g.identity == q.identity
            dup = (
                protocol == "new"
                and g.camera == q.camera
                and g.identity == ev.DISTRACTOR_ID
                and frozenset((q.tid, g.tid)) in dataset.duplicate_pairs
            )
            if not (same_cam_same_id or dup):
                kept.append(g)
        flags = [
            g.identity == q.identity or g.identity in q.ambiguous_ids or q.identity in g.ambiguous_ids
            for g in kept
        ]
        if not any(flags):
            excluded += 1
            aps.append(None)
            continue
        correct_seen, precs = 0, []
        first_hit = None
        for rank, flag in enumerate(flags):
            if flag:
                correct_seen += 1
                precs.append(correct_seen / (rank + 1))
                if first_hit is None:
                    first_hit = rank
        aps.append(sum(precs) / len(precs))
        row = np.zeros(max_rank)
        if first_hit < max_rank:
            row[first_hit:] = 1.0
        cmc_rows.append(row)
    cmc = np.mean(cmc_rows, axis=0)
    return aps, cmc, excluded


def random_instance(seed, nq=None, ng=None, with_corrections=False):
    rng = Rng(seed)
    nq = nq or int(rng.child(0).integers(1, 11))
    ng = ng or int(rng.child(1).integers(5, 31))
    n_ids = int(rng.child(2).integers(2, 6))
    queries = [
        ev.TrackletMeta(tid=100 + i, identity=1 + int(rng.child(3, i).integers(0, n_ids)),
                        camera=int(rng.child(4, i).integers(0, 3)))
        for i in range(nq)
    ]
    gallery = []
    for j in range(ng):
        ident = int(rng.child(5, j).integers(0, n_ids + 1))  # 0 = distractor
        gallery.append(ev.TrackletMeta(tid=200 + j, identity=ident,
                                       camera=int(rng.child(6, j).integers(0, 3))))
    dist = rng.child(7).uniform(0.0, 1.0, (nq, ng))
    dataset = ev.EvalDataset(queries=queries, gallery=gallery, distances=dist)
    corrections = ev.LabelCorrections()
    if with_corrections:
        for j in range(ng):
            r = rng.child(8, j).uniform(0, 1)
            if r < 0.15:
                corrections.relabels[200 + j] = 1 + int(rng.child(9, j).integers(0, n_ids))
            elif r < 0.25:
                corrections.ambiguities.setdefault(200 + j, set()).add(1 + int(rng.child(10, j).integers(0, n_ids)))
        for i in range(nq):
            if rng.child(11, i).uniform(0, 1) < 0.3:
                j = int(rng.child(12, i).integers(0, ng))
                if gallery[j].identity == 0:
                    corrections.duplicate_pairs.add(frozenset((queries[i].tid, gallery[j].tid)))
    return dataset, corrections


def distractor_duplicate_instance():
    """One query; rank-1 gallery entry is a same-camera distractor duplicate of
    the query tracklet, the true cross-camera match sits at rank 2."""
    q = ev.TrackletMeta(tid=374, identity=374, camera=2)
    gallery = [
        ev.TrackletMeta(tid=9000, identity=0, camera=2),     # duplicate in distractor class
        ev.TrackletMeta(tid=410, identity=374, camera=1),    # true match
        ev.TrackletMeta(tid=411, identity=555, camera=1),    # negative
    ]
    dist = np.array([[0.10, 0.20, 0.30]])
    dataset = ev.EvalDataset(queries=[q], gallery=gallery, distances=dist)
    corrections = ev.LabelCorrections(duplicate_pairs={frozenset((374, 9000))})
    return dataset, corrections


def tied_instance(seed, nq=9):
    """Distances on a 0.25 grid (many ties); ambiguity in query and gallery
    metadata and in AMBIG records on both roles; relabels; DUPDIST pairs under
    the query's camera, across cameras and naming a tid in neither list; and a
    query whose only positive shares its camera, so it is always excluded."""
    rng = np.random.default_rng(seed)
    ng, n_ids = 16, 4
    queries = [
        ev.TrackletMeta(tid=i, identity=1 + i % n_ids, camera=int(rng.integers(0, 2)),
                        ambiguous_ids=frozenset({1 + (i + 1) % n_ids}) if i % 4 == 1 else frozenset())
        for i in range(nq - 1)
    ]
    queries.append(ev.TrackletMeta(tid=nq - 1, identity=n_ids + 1, camera=0))
    gallery = [ev.TrackletMeta(tid=1000 + j, identity=1 + j, camera=2) for j in range(n_ids)]
    gallery.append(ev.TrackletMeta(tid=1000 + n_ids, identity=n_ids + 1, camera=0))
    for j in range(n_ids + 1, ng):
        ident = int(rng.integers(0, n_ids + 1))  # 0 = distractor
        listed = frozenset({1 + j % n_ids}) - {ident} if j % 5 == 0 else frozenset()
        gallery.append(ev.TrackletMeta(tid=1000 + j, identity=ident, camera=int(rng.integers(0, 3)),
                                       ambiguous_ids=listed))
    dist = rng.integers(0, 5, (nq, ng)) * 0.25
    corrections = ev.LabelCorrections(
        relabels={1000 + n_ids + 2: int(rng.integers(0, n_ids + 1))},
        ambiguities={2: {n_ids}, 1000 + n_ids + 3: {int(rng.integers(1, n_ids + 1))}},
        duplicate_pairs={frozenset((0, 12345))},
    )
    distractors = [j for j, g in enumerate(gallery) if g.identity == 0]
    for i in range(nq):
        for j in rng.permutation(distractors)[:2]:
            corrections.duplicate_pairs.add(frozenset((queries[i].tid, gallery[j].tid)))
            dist[i, j] = 0.0
    dataset = ev.EvalDataset(queries=queries, gallery=gallery, distances=dist)
    return dataset, corrections


def duke_shape_instance(seed=6):
    """702 queries x 2636 gallery over 8 cameras, the DukeMTMC-VideoReID test shape."""
    rng = np.random.default_rng(seed)
    nq, ng, n_cams = 702, 2636, 8
    queries = [ev.TrackletMeta(tid=i, identity=1 + i, camera=int(c))
               for i, c in enumerate(rng.integers(0, n_cams, nq))]
    g_id = np.concatenate([np.arange(1, nq + 1), rng.integers(0, nq + 1, ng - nq)])
    gallery = [ev.TrackletMeta(tid=nq + j, identity=int(g), camera=int(c))
               for j, (g, c) in enumerate(zip(g_id, rng.integers(0, n_cams, ng)))]
    dist = np.round(rng.uniform(0.0, 2.0, (nq, ng)) / 0.05) * 0.05
    distractors = np.flatnonzero(g_id == 0)
    corrections = ev.LabelCorrections(
        relabels={nq + int(j): int(rng.integers(0, nq + 1)) for j in rng.choice(ng, 50, replace=False)},
        ambiguities={int(i): {int(i) % nq + 2} for i in rng.choice(nq - 1, 40, replace=False)},
        duplicate_pairs={frozenset((int(i), nq + int(rng.choice(distractors)))) for i in range(0, nq, 10)},
    )
    return ev.EvalDataset(queries=queries, gallery=gallery, distances=dist), corrections


def dense_match_instance(seed=6):
    """The Duke test shape with every query and gallery entry identity 1 over 8
    cameras: each row is all hits but for its same-camera drops."""
    rng = np.random.default_rng(seed)
    nq, ng, n_cams = 702, 2636, 8
    queries = [ev.TrackletMeta(tid=i, identity=1, camera=int(c)) for i, c in enumerate(rng.integers(0, n_cams, nq))]
    gallery = [ev.TrackletMeta(tid=nq + j, identity=1, camera=int(c))
               for j, c in enumerate(rng.integers(0, n_cams, ng))]
    dist = np.round(rng.uniform(0.0, 2.0, (nq, ng)) / 0.05) * 0.05
    return ev.EvalDataset(queries=queries, gallery=gallery, distances=dist)


class TestApplyCorrections:
    def test_empty_corrections_no_change(self):
        dataset, _ = random_instance(0)
        out = ev.apply_corrections(dataset, ev.LabelCorrections())
        assert out.queries == dataset.queries
        assert out.gallery == dataset.gallery
        assert np.array_equal(out.distances, dataset.distances)

    def test_relabel_applied_to_gallery_meta(self):
        # two tracklets of one person labeled as different identities: relabel one
        dataset = ev.EvalDataset(
            queries=[ev.TrackletMeta(tid=1, identity=142, camera=0)],
            gallery=[ev.TrackletMeta(tid=7, identity=184, camera=1)],
            distances=np.array([[0.5]]),
        )
        out = ev.apply_corrections(dataset, ev.LabelCorrections(relabels={7: 142}))
        assert out.gallery[0].identity == 142
        assert dataset.gallery[0].identity == 184  # original untouched

    def test_ambiguity_attached(self):
        dataset = ev.EvalDataset(
            queries=[ev.TrackletMeta(tid=1, identity=318, camera=0)],
            gallery=[ev.TrackletMeta(tid=3, identity=318, camera=1)],
            distances=np.array([[0.5]]),
        )
        out = ev.apply_corrections(dataset, ev.LabelCorrections(ambiguities={3: {322}}))
        assert out.gallery[0].ambiguous_ids == frozenset({322})

    def test_only_tracklets_with_a_record_are_rebuilt(self):
        dataset, corrections = duke_shape_instance()
        out = ev.apply_corrections(dataset, corrections)
        listed = corrections.relabels.keys() | corrections.ambiguities.keys()
        for before, after in zip(dataset.queries + dataset.gallery, out.queries + out.gallery):
            assert (after is before) == (before.tid not in listed), before.tid
        assert 0 < sum(m.tid in listed for m in dataset.gallery) < len(dataset.gallery)

    def test_conflicting_corrections_listed(self):
        c = ev.LabelCorrections(relabels={5: 9}, ambiguities={5: {9}})
        with pytest.raises(ValidationError, match="5"):
            c.validate()


class TestEvaluate:
    def test_ap_arithmetic(self):
        # positives at ranks 1 and 3 -> AP = (1/1 + 2/3) / 2
        q = ev.TrackletMeta(tid=1, identity=5, camera=0)
        gallery = [
            ev.TrackletMeta(tid=10, identity=5, camera=1),
            ev.TrackletMeta(tid=11, identity=6, camera=1),
            ev.TrackletMeta(tid=12, identity=5, camera=2),
        ]
        dataset = ev.EvalDataset([q], gallery, np.array([[0.1, 0.2, 0.3]]))
        res = ev.evaluate(dataset, "old")
        assert res.mAP == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert res.cmc_at(1) == 1.0

    def test_distractor_duplicate_old_vs_new_protocol(self):
        dataset, corrections = distractor_duplicate_instance()
        corrected = ev.apply_corrections(dataset, corrections)
        old = ev.evaluate(corrected, "old")
        new = ev.evaluate(corrected, "new")
        assert old.mAP == pytest.approx(0.5, abs=1e-12)
        assert new.mAP == pytest.approx(1.0, abs=1e-12)
        assert old.cmc_at(1) == 0.0 and new.cmc_at(1) == 1.0

    @pytest.mark.parametrize("protocol", ["old", "new"])
    @pytest.mark.parametrize("with_corr", [False, True])
    def test_matches_brute_force_on_random_instances(self, protocol, with_corr):
        for seed in range(100):
            dataset, corrections = random_instance(seed, with_corrections=with_corr)
            work = ev.apply_corrections(dataset, corrections) if with_corr else dataset
            try:
                res = ev.evaluate(work, protocol)
            except ValidationError:
                with pytest.raises(Exception):
                    brute_force_eval(work, protocol)  # oracle also finds no scorable query
                continue
            m_ap, cmc, excluded = brute_force_eval(work, protocol)
            assert abs(res.mAP - m_ap) < 1e-12, seed
            assert np.max(np.abs(res.cmc - cmc)) < 1e-12, seed
            assert res.excluded == excluded, seed

    def test_gallery_permutation_invariance(self):
        dataset, _ = random_instance(7)
        res = ev.evaluate(dataset, "old")
        perm = Rng(8).permutation(len(dataset.gallery))
        shuffled = ev.EvalDataset(
            queries=dataset.queries,
            gallery=[dataset.gallery[i] for i in perm],
            distances=dataset.distances[:, perm],
        )
        res2 = ev.evaluate(shuffled, "old")
        assert res.mAP == pytest.approx(res2.mAP, abs=1e-15)
        np.testing.assert_allclose(res.cmc, res2.cmc, atol=1e-15)

    def test_adding_ignored_entry_changes_nothing(self):
        dataset, _ = random_instance(9)
        q0 = dataset.queries[0]
        extra = ev.TrackletMeta(tid=999, identity=q0.identity, camera=q0.camera)
        bigger = ev.EvalDataset(
            queries=[q0],
            gallery=dataset.gallery + [extra],
            distances=np.concatenate([dataset.distances[:1], [[0.0]]], axis=1),
        )
        base = ev.evaluate(ev.EvalDataset([q0], dataset.gallery, dataset.distances[:1]), "old")
        res = ev.evaluate(bigger, "old")
        assert res.mAP == pytest.approx(base.mAP, abs=1e-15)

    def test_ambiguity_symmetric_in_effect(self):
        q = ev.TrackletMeta(tid=1, identity=318, camera=0, ambiguous_ids=frozenset({322}))
        g = ev.TrackletMeta(tid=2, identity=322, camera=1)
        d1 = ev.EvalDataset([q], [g], np.array([[0.5]]))
        q2 = ev.TrackletMeta(tid=1, identity=318, camera=0)
        g2 = ev.TrackletMeta(tid=2, identity=322, camera=1, ambiguous_ids=frozenset({318}))
        d2 = ev.EvalDataset([q2], [g2], np.array([[0.5]]))
        assert ev.evaluate(d1, "old").mAP == ev.evaluate(d2, "old").mAP == 1.0

    def test_metrics_in_unit_interval_and_cmc_monotone(self):
        for seed in range(20):
            dataset, corrections = random_instance(300 + seed, with_corrections=True)
            work = ev.apply_corrections(dataset, corrections)
            try:
                res = ev.evaluate(work, "new")
            except ValidationError:
                continue
            assert 0.0 <= res.mAP <= 1.0
            assert np.all(res.cmc >= 0.0) and np.all(res.cmc <= 1.0)
            assert np.all(np.diff(res.cmc) >= 0.0)

    def test_unknown_protocol(self):
        dataset, _ = random_instance(1)
        with pytest.raises(ValidationError):
            ev.evaluate(dataset, "v2")

    def test_distance_matrix_shape_checked(self):
        with pytest.raises(DimensionError):
            ev.EvalDataset(
                queries=[ev.TrackletMeta(tid=1, identity=1, camera=0)],
                gallery=[ev.TrackletMeta(tid=2, identity=1, camera=1)],
                distances=np.ones((2, 1)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distance_rejected_with_its_index(self, bad):
        distances = np.ones((2, 3))
        distances[1, 2] = bad
        distances[1, 0] = bad
        with pytest.raises(ValidationError, match=r"\(query 1, gallery 0\)"):
            ev.EvalDataset(
                queries=[ev.TrackletMeta(tid=1, identity=1, camera=0), ev.TrackletMeta(tid=2, identity=2, camera=0)],
                gallery=[ev.TrackletMeta(tid=3 + i, identity=1 + i, camera=1) for i in range(3)],
                distances=distances,
            )


def second_rank_hit_instance():
    """One query, two cross-camera gallery entries; the hit ranks second, so
    CMC(1) = 0 and CMC(2) = 1."""
    return ev.EvalDataset(
        queries=[ev.TrackletMeta(tid=1, identity=5, camera=0)],
        gallery=[ev.TrackletMeta(tid=2, identity=6, camera=1), ev.TrackletMeta(tid=3, identity=5, camera=1)],
        distances=np.array([[0.1, 0.2]]),
    )


class TestRankRange:
    @pytest.mark.parametrize("max_rank", [0, -1])
    def test_max_rank_below_one_rejected(self, max_rank):
        dataset = second_rank_hit_instance()
        with pytest.raises(ValidationError, match=f"max_rank must be at least 1, got {max_rank}"):
            ev.evaluate(dataset, "old", max_rank)

    @pytest.mark.parametrize("max_rank", [0, -1])
    def test_max_rank_checked_before_ranking(self, max_rank, monkeypatch):
        def no_ranking(distances):
            raise AssertionError("ranked before max_rank was checked")

        monkeypatch.setattr(ev, "_rank", no_ranking)
        dataset = second_rank_hit_instance()
        with pytest.raises(ValidationError, match=f"max_rank must be at least 1, got {max_rank}"):
            ev.evaluate(dataset, "old", max_rank)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cmc_at_below_one_rejected(self, k):
        res = ev.evaluate(second_rank_hit_instance(), "old")
        with pytest.raises(ValidationError, match=rf"CMC rank {k} is not among the curve's ranks 1\.\.2"):
            res.cmc_at(k)

    def test_cmc_at_past_a_curve_cut_short_rejected(self):
        res = ev.evaluate(second_rank_hit_instance(), "old", max_rank=1)
        assert res.cmc_at(1) == 0.0
        with pytest.raises(ValidationError, match=r"CMC rank 2 is not among the curve's ranks 1\.\.1"):
            res.cmc_at(2)

    def test_cmc_at_past_a_curve_over_the_whole_gallery_reads_its_last_entry(self):
        res = ev.evaluate(second_rank_hit_instance(), "old")
        assert len(res.cmc) == 2
        assert (res.cmc_at(1), res.cmc_at(2), res.cmc_at(10)) == (0.0, 1.0, 1.0)


class TestAgainstOracle:
    @pytest.mark.parametrize("protocol", ["old", "new"])
    @pytest.mark.parametrize("seed, nq", [(s, 9) for s in range(12)] + [(0, 300), (1, 300)])
    def test_per_query_ap_cmc_and_exclusions_match_brute_force(self, seed, nq, protocol):
        # 300 queries span several blocks of query rows
        dataset, corrections = tied_instance(seed, nq)
        ng = len(dataset.gallery)
        for work in (dataset, ev.apply_corrections(dataset, corrections)):
            for max_rank in (1, 5, ng, ng + 7):
                res = ev.evaluate(work, protocol, max_rank)
                aps, cmc, excluded = brute_force_scores(work, protocol, max_rank)
                assert [a is None for a in res.per_query_ap] == [a is None for a in aps]
                assert all(abs(a - b) <= 1e-12 for a, b in zip(res.per_query_ap, aps) if a is not None)
                assert res.excluded == excluded
                assert res.cmc.shape == (min(max_rank, ng),) and np.array_equal(res.cmc, cmc)

    def test_tied_instances_exercise_every_rule(self):
        seen = dict(excluded=True, dup_dropped=False, ambiguity_hit=False, ties=True)
        for seed in range(12):
            dataset, corrections = tied_instance(seed)
            work = ev.apply_corrections(dataset, corrections)
            old, new = ev.evaluate(work, "old"), ev.evaluate(work, "new")
            stripped = ev.EvalDataset(
                [replace(q, ambiguous_ids=frozenset()) for q in work.queries],
                [replace(g, ambiguous_ids=frozenset()) for g in work.gallery],
                work.distances, work.duplicate_pairs)
            seen["excluded"] &= old.per_query_ap[-1] is None and new.per_query_ap[-1] is None
            seen["dup_dropped"] |= old.per_query_ap != new.per_query_ap
            seen["ambiguity_hit"] |= ev.evaluate(stripped, "old").per_query_ap != old.per_query_ap
            seen["ties"] &= len(np.unique(work.distances)) <= 5
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(6))
    def test_delta_report_bitwise_equals_three_evaluations(self, seed):
        dataset, corrections = tied_instance(seed)
        report = ev.protocol_delta_report(dataset, corrections)
        corrected = ev.apply_corrections(dataset, corrections)
        for got, want in ((report.old_raw, ev.evaluate(dataset, "old")),
                          (report.old_corrected, ev.evaluate(corrected, "old")),
                          (report.new_corrected, ev.evaluate(corrected, "new"))):
            assert got.per_query_ap == want.per_query_ap
            assert got.mAP == want.mAP and got.excluded == want.excluded
            assert np.array_equal(got.cmc, want.cmc)


@st.composite
def drawn_instance(draw):
    """Few identities and cameras on a 0.5 grid of distances, so ties, excluded
    queries (every positive under the query's camera) and same-camera distractor
    duplicates are common; ambiguity sets on both sides; DUPDIST pairs within
    and across cameras, in either order, some naming a tid in neither list.
    Hypothesis draws the sizes and a seed; the seed draws the rest."""
    nq, ng = draw(st.integers(1, 10)), draw(st.integers(1, 14))
    n_ids, n_cams = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def metas(n, first_tid):
        out = []
        for i in range(n):
            ident = int(rng.integers(0, n_ids + 1))  # 0 = distractor
            amb = {int(a) for a in rng.integers(0, n_ids + 2, rng.integers(0, 3))} - {ident}
            out.append(ev.TrackletMeta(tid=first_tid + i, identity=ident, camera=int(rng.integers(0, n_cams)),
                                       ambiguous_ids=frozenset(amb)))
        return out

    queries, gallery = metas(nq, 0), metas(ng, 1000)
    tids = [m.tid for m in queries + gallery] + [99999]
    pairs = {frozenset(p) for p in rng.choice(tids, (rng.integers(0, 7), 2)).tolist() if p[0] != p[1]}
    dist = rng.integers(0, 4, (nq, ng)) * 0.5
    return ev.EvalDataset(queries, gallery, dist, duplicate_pairs=pairs)


class TestDrawnAgainstOracle:
    """``evaluate`` against ``brute_force_scores`` on drawn instances, at the
    tolerances of TestAgainstOracle: AP within 1e-12, CMC and exclusions exact."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS), extra_rank=st.integers(0, 5),
           data=st.data())
    def test_matches_brute_force(self, dataset, protocol, extra_rank, data):
        ng = len(dataset.gallery)
        max_rank = data.draw(st.integers(1, ng + extra_rank))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's mean over no scored query
            aps, cmc, excluded = brute_force_scores(dataset, protocol, max_rank)
        if excluded == len(aps):
            with pytest.raises(ValidationError, match="every query lost all its positives"):
                ev.evaluate(dataset, protocol, max_rank)
            return
        res = ev.evaluate(dataset, protocol, max_rank)
        assert [a is None for a in res.per_query_ap] == [a is None for a in aps]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(res.per_query_ap, aps) if a is not None)
        assert res.excluded == excluded
        assert res.cmc.shape == (min(max_rank, ng),) and np.array_equal(res.cmc, cmc)


@st.composite
def distance_matrix(draw):
    """Row counts on both sides of ``_BLOCK``, 1-300 columns, and values that
    are continuous, quantised to a few levels (heavy ties) or a mix of the two
    by row; negative values, and -0.0 next to 0.0."""
    nq = draw(st.one_of(st.integers(1, 4), st.integers(ev._BLOCK - 1, ev._BLOCK + 1), st.just(2 * ev._BLOCK + 3)))
    ng = draw(st.integers(1, 300))
    levels = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 1.0, (nq, ng))
    tied = rng.random(nq) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    values[tied] = rng.integers(-(levels // 2), levels - levels // 2, (tied.sum(), ng)) * 0.25
    return np.where(values == 0.0, rng.choice([-0.0, 0.0], (nq, ng)), values)


class TestRankAgainstOracle:
    """``_rank`` (quicksort, then ties put back in gallery order) against the
    stable argsort, bitwise."""

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(distances=distance_matrix())
    def test_matches_stable_argsort(self, distances):
        assert np.array_equal(ev._rank(distances), rank_oracle(distances))

    # the key run * ng + index is int32 up to ng = 46340 and int64 from 46341;
    # at 70000 an int32 key would wrap
    @pytest.mark.parametrize("ng", [46340, 46341, 70000])
    def test_wide_row_with_ties(self, ng):
        rng = np.random.default_rng(ng)
        distances = rng.normal(0.0, 1.0, (1, ng))
        distances[0, ::997] = distances[0, 5]  # a long run of ties amid distinct values
        distances[0, rng.integers(0, ng, 9)] = -0.0
        distances[0, rng.integers(0, ng, 9)] = 0.0
        assert np.array_equal(ev._rank(distances), rank_oracle(distances))


def outcome(dataset, protocol, max_rank=50):
    """Everything ``evaluate`` reports, or the message of the ValidationError it raises."""
    try:
        res = ev.evaluate(dataset, protocol, max_rank)
    except ValidationError as exc:
        return str(exc)
    return res.mAP, res.cmc.tolist(), res.per_query_ap, res.excluded


class TestMetamorphic:
    """Relations that hold without an oracle: changes to the input that must
    leave mAP, per-query AP, CMC and the excluded count exactly as they were."""

    SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

    @SETTINGS
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS),
           transform=st.sampled_from([np.exp, np.arctan, lambda d: d**3, lambda d: 3.0 * d - 2.0]))
    def test_strictly_increasing_transform(self, dataset, protocol, transform):
        moved = replace(dataset, distances=transform(dataset.distances))
        assert outcome(moved, protocol) == outcome(dataset, protocol)

    @SETTINGS
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS), data=st.data())
    def test_query_permutation(self, dataset, protocol, data):
        perm = data.draw(st.permutations(range(len(dataset.queries))))
        moved = replace(dataset, queries=[dataset.queries[i] for i in perm], distances=dataset.distances[perm])
        want, got = outcome(dataset, protocol), outcome(moved, protocol)
        if isinstance(want, str):
            assert got == want
            return
        m_ap, cmc, aps, excluded = got
        assert cmc == want[1] and aps == [want[2][i] for i in perm] and excluded == want[3]
        assert m_ap == pytest.approx(want[0], rel=0, abs=1e-15)  # the mean sums the APs in another order

    @SETTINGS
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS))
    def test_block_size(self, dataset, protocol):
        want = outcome(dataset, protocol)
        for block in (1, 7, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ev, "_BLOCK", block)
                assert outcome(dataset, protocol) == want, block

    @SETTINGS
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS), data=st.data())
    def test_gallery_permutation_when_untied(self, dataset, protocol, data):
        nq, ng = dataset.distances.shape
        untied = np.argsort(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((nq, ng)), axis=1)
        dataset = replace(dataset, distances=untied * 0.5)
        perm = data.draw(st.permutations(range(ng)))
        moved = replace(dataset, gallery=[dataset.gallery[j] for j in perm], distances=dataset.distances[:, perm])
        assert outcome(moved, protocol) == outcome(dataset, protocol)

    @SETTINGS
    @given(dataset=drawn_instance(), protocol=st.sampled_from(ev.PROTOCOLS), data=st.data())
    def test_added_entry_under_the_querys_identity_and_camera(self, dataset, protocol, data):
        q = data.draw(st.sampled_from(dataset.queries))
        rows = [i for i, m in enumerate(dataset.queries) if (m.identity, m.camera) == (q.identity, q.camera)]
        base = replace(dataset, queries=[dataset.queries[i] for i in rows], distances=dataset.distances[rows])
        at = data.draw(st.integers(0, len(dataset.gallery)))
        column = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                                             min_size=len(rows), max_size=len(rows))))
        extra = ev.TrackletMeta(tid=5000, identity=q.identity, camera=q.camera)
        bigger = replace(base, gallery=base.gallery[:at] + [extra] + base.gallery[at:],
                         distances=np.insert(base.distances, at, column, axis=1))
        ng = len(base.gallery)  # the CMC has min(max_rank, |G|) entries
        assert outcome(bigger, protocol, ng) == outcome(base, protocol, ng)


class TestDuplicateTids:
    @pytest.mark.parametrize("role", ["query", "gallery"])
    def test_repeated_tid_in_one_role_rejected_with_both_indices(self, role):
        metas = [ev.TrackletMeta(tid=t, identity=1, camera=0) for t in (7, 8, 7)]
        other = [ev.TrackletMeta(tid=9, identity=1, camera=1)]
        queries, gallery = (metas, other) if role == "query" else (other, metas)
        with pytest.raises(ValidationError, match=f"{role} list repeats tid 7 at indices 0 and 2"):
            ev.EvalDataset(queries, gallery, np.ones((len(queries), len(gallery))))

    def test_same_tid_in_both_roles_accepted(self):
        meta = ev.TrackletMeta(tid=7, identity=1, camera=0)
        ev.EvalDataset([meta], [meta], np.ones((1, 1)))

    def test_metadata_file_names_the_repeated_line(self, tmp_path):
        p = tmp_path / "meta.tsv"
        p.write_text("query\t1\t5\t0\t-\ngallery\t1\t5\t1\t-\n# note\ngallery\t2\t6\t1\ngallery\t1\t6\t0\t-\n")
        with pytest.raises(ValidationError, match=r"meta.tsv:5: gallery tid 1 repeats line 2"):
            ev.read_metadata_file(p)


class TestMemory:
    def test_corrected_distances_are_a_read_only_view(self):
        dataset, corrections = tied_instance(0)
        before = copy.deepcopy(dataset)
        out = ev.apply_corrections(dataset, corrections)
        assert not out.distances.flags.writeable
        assert np.shares_memory(out.distances, dataset.distances)
        with pytest.raises(ValueError):
            out.distances[0, 0] = 1.0
        assert dataset.distances.flags.writeable
        assert np.array_equal(dataset.distances, before.distances)
        assert dataset.queries == before.queries and dataset.gallery == before.gallery
        assert dataset.duplicate_pairs == before.duplicate_pairs

    def test_delta_report_peak_memory_near_one_ranking(self):
        # one (Q, G) int32 ranking plus per-block temporaries; a corrected
        # copy of the matrix on top of the ranking reads about 3x
        dataset, corrections = duke_shape_instance()
        tracemalloc.start()
        try:
            report = ev.protocol_delta_report(dataset, corrections)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.old_raw.excluded < len(dataset.queries)
        assert peak <= 2.2 * dataset.distances.nbytes, peak / dataset.distances.nbytes


    def test_delta_report_peak_memory_when_every_entry_matches(self):
        # each block's hits fill its rows instead of a few entries per row
        dataset = dense_match_instance()
        tracemalloc.start()
        try:
            report = ev.protocol_delta_report(dataset, ev.LabelCorrections())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.old_raw.excluded < len(dataset.queries)
        assert peak <= 2.2 * dataset.distances.nbytes, peak / dataset.distances.nbytes


class TestDeltaReport:
    def test_zero_deltas_without_corrections(self):
        dataset, _ = random_instance(11)
        report = ev.protocol_delta_report(dataset, ev.LabelCorrections())
        assert report.old_raw.mAP == report.old_corrected.mAP
        # new protocol without duplicate markers == old protocol
        assert report.new_corrected.mAP == report.old_corrected.mAP

    def test_distractor_duplicate_positive_delta(self):
        dataset, corrections = distractor_duplicate_instance()
        report = ev.protocol_delta_report(dataset, corrections)
        deltas = report.per_query_deltas()
        assert deltas[0] == pytest.approx(0.5, abs=1e-12)

    def test_deltas_antisymmetric(self):
        dataset, corrections = distractor_duplicate_instance()
        report = ev.protocol_delta_report(dataset, corrections)
        a = np.array(report.per_query_deltas())
        swapped = [
            (b or 0.0) - (n or 0.0)
            for n, b in zip(report.new_corrected.per_query_ap, report.old_raw.per_query_ap)
        ]
        np.testing.assert_allclose(a, -np.array(swapped), atol=1e-15)


class TestFiles:
    def test_metadata_roundtrip(self, tmp_path):
        dataset, _ = random_instance(13)
        p = tmp_path / "meta.tsv"
        write_metadata_file(p, dataset.queries, dataset.gallery)
        q, g = ev.read_metadata_file(p)
        assert q == dataset.queries and g == dataset.gallery

    def test_corrections_parsing(self, tmp_path):
        p = tmp_path / "corr.txt"
        p.write_text("# revision history kept append-only\nVERSION 2\nRELABEL 7 142\nAMBIG 3 322\nDUPDIST 374 9000\n")
        c = ev.read_corrections_file(p)
        assert c.version == 2
        assert c.relabels == {7: 142}
        assert c.ambiguities == {3: {322}}
        assert c.duplicate_pairs == {frozenset((374, 9000))}

    def test_conflicting_relabel_rejected(self, tmp_path):
        p = tmp_path / "corr.txt"
        p.write_text("RELABEL 7 142\nRELABEL 7 9\n")
        with pytest.raises(ValidationError, match="7"):
            ev.read_corrections_file(p)

    def test_load_dataset_checks_extents(self, tmp_path):
        dataset, _ = random_instance(14)
        write_metadata_file(tmp_path / "meta.tsv", dataset.queries, dataset.gallery)
        save_tensor(tmp_path / "dist.aakt", np.ones((1, 1)))
        with pytest.raises(DimensionError, match="queries"):
            ev.load_eval_dataset(tmp_path / "meta.tsv", tmp_path / "dist.aakt")

    @pytest.mark.parametrize("role", ["query", "gallery"])
    def test_load_dataset_rejects_metadata_without_a_role(self, tmp_path, role):
        dataset, _ = random_instance(14)
        kept = {"query": dataset.queries, "gallery": dataset.gallery}
        kept[role] = []
        write_metadata_file(tmp_path / "meta.tsv", kept["query"], kept["gallery"])
        save_tensor(tmp_path / "dist.aakt", np.ones((1, 1)))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / 'meta.tsv'))}: metadata needs"):
            ev.load_eval_dataset(tmp_path / "meta.tsv", tmp_path / "dist.aakt")
