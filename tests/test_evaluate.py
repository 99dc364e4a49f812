import numpy as np
import pytest

from axialreid import evaluate as ev
from axialreid.errors import DimensionError, ValidationError
from axialreid.tensor import Rng, save_tensor


def brute_force_eval(dataset, protocol, max_rank=50):
    """Independent reference: per query, sort (distance, index) pairs, filter,
    enumerate precision by hand."""
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
    m_ap = float(np.mean([a for a in aps if a is not None]))
    cmc = np.mean(cmc_rows, axis=0)
    return m_ap, cmc, excluded


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
        ev.write_metadata_file(p, dataset.queries, dataset.gallery)
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
        ev.write_metadata_file(tmp_path / "meta.tsv", dataset.queries, dataset.gallery)
        save_tensor(tmp_path / "dist.aakt", np.ones((1, 1)))
        with pytest.raises(DimensionError, match="queries"):
            ev.load_eval_dataset(tmp_path / "meta.tsv", tmp_path / "dist.aakt")
