"""The benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one op
through the library's public calls in ``op`` (the timed part), and checks the
op's output in ``check`` with code that shares nothing with the code under
test. ``op`` returns ``(items, output)``; ``check`` returns a list of failure
messages and a dict of counts the runner sums per phase.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from axialreid import aggregation, detect_link, evaluate, tensor, toytrain

import oracle


class TrainCfaa:
    """One CF-AA training epoch: 5 PxK batches of 8 clips, forward, backward, SGD."""

    item = "clip"
    NUM_IDS, P_IDS, K_TRACKS = 20, 4, 2

    def setup(self, seed: int, workdir: Path):
        return dict(seed=seed, losses={},
                    dataset=toytrain.SyntheticIdentityDataset(num_ids=self.NUM_IDS, seed=seed))

    def op(self, st, i: int):
        # two op seeds alternate, so every run repeats a seed
        seed = 2 * st["seed"] + i % 2
        _, log = toytrain.train(toytrain.ToyModelSpec(num_classes=self.NUM_IDS), st["dataset"],
                                epochs=1, seed=seed, p_ids=self.P_IDS, k_tracks=self.K_TRACKS)
        clips = (self.NUM_IDS // self.P_IDS) * self.P_IDS * self.K_TRACKS
        return clips, (seed, [float(x) for x in log.epoch_losses])

    def check(self, st, i: int, output):
        seed, losses = output
        failures = []
        if len(losses) != 1 or not all(math.isfinite(x) for x in losses):
            failures.append(f"op {i}: epoch losses {losses} are not one finite value")
        first = st["losses"].setdefault(seed, losses)
        if [x.hex() for x in first] != [x.hex() for x in losses]:
            failures.append(f"op {i}: seed {seed} gave loss {losses}, earlier {first}")
        return failures, {}


@dataclass
class Scene:
    """One tracklet to align: pool frames, detector candidates, and which
    scripted actor is the target."""

    identity: int
    camera: int
    tid: int
    frame_ids: list[int]
    candidates: list
    truth: list[list[int]]
    target: int


class AlignRetrieve:
    """Inference over 80 tracklets: align, reduce 8x, retrieve, evaluate."""

    item = "tracklet"
    IDS, PER_ID, FRAMES, POOL, FEATURE_DIM = 20, 4, 8, 12, 32
    FRAME_H, FRAME_W = 270, 480
    REDUCE = 8  # 256x128 aligned crops -> the 32x16 frames the model takes

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        pool = rng.uniform(0.0, 1.0, (self.POOL, 3, self.FRAME_H, self.FRAME_W))
        # orthonormal centroids: every two identities are sqrt(2) apart, far
        # beyond the detector's feature noise, so linking has one right answer
        basis, _ = np.linalg.qr(rng.normal(size=(self.FEATURE_DIM, self.FEATURE_DIM)))
        centroids = basis[: self.IDS]
        scenes = []
        for ident in range(self.IDS):
            for k in range(self.PER_ID):
                tid = len(scenes)
                target, distractor = self._actors(rng, centroids[ident],
                                                  centroids[(ident + 1 + k) % self.IDS])
                script = [target, distractor] if rng.uniform() < 0.5 else [distractor, target]
                cands, truth = detect_link.synthetic_detector(script, self.FRAMES, tensor.Rng(seed).child(tid))
                scenes.append(Scene(ident, k % 2, tid, rng.integers(0, self.POOL, self.FRAMES).tolist(),
                                    cands, truth, 0 if script[0] is target else 1))
        data = toytrain.SyntheticIdentityDataset(num_ids=self.IDS, seed=seed)
        model, _ = toytrain.train(toytrain.ToyModelSpec(num_classes=self.IDS), data, epochs=1, seed=seed)
        w_o = [p for name, p in model.named_params() if name.endswith(".w_o")]
        if not w_o or not all(np.any(p) for p in w_o):
            raise RuntimeError("the warm start left CF-AA's output projection at zero")
        return dict(pool=pool, scenes=scenes, model=model, first=None)

    def _actors(self, rng, target_centroid, other_centroid):
        """A target walking across the frame and a distractor crossing its
        path: smaller than the target in frame 0 (so the largest-box rule
        picks the target), larger from the middle of the tracklet on."""
        fh, fw = self.FRAME_H, self.FRAME_W
        w = rng.uniform(30.0, 64.0)
        h = w * rng.uniform(2.2, 3.9)  # some boxes are slim (h/w > 3)
        x0, y = rng.uniform(0.0, fw - w), rng.uniform(0.0, fh - h)
        vx = rng.uniform(-15.0, 15.0)
        side = 1.0 if x0 < fw / 2 else -1.0
        target, distractor = {}, {}
        for f in range(self.FRAMES):
            x = float(np.clip(x0 + vx * f, 0.0, fw - w))
            target[f] = (x, float(y), float(w), float(h))
            grow = 0.7 + 0.6 * f / (self.FRAMES - 1)
            dw, dh = w * grow, min(h * grow, fh - 2.0)
            dx = float(np.clip(x + side * (120.0 - 35.0 * f), 0.0, fw - dw))
            dy = float(np.clip(y + 10.0, 0.0, fh - dh))
            distractor[f] = (dx, dy, float(dw), float(dh))
        return (detect_link.ScriptedIdentity(centroid=target_centroid, boxes=target),
                detect_link.ScriptedIdentity(centroid=other_centroid, boxes=distractor, confidence=0.95))

    def op(self, st, i: int):
        tracklets, chosen = [], []
        for sc in st["scenes"]:
            aligned = detect_link.process_tracklet([st["pool"][j] for j in sc.frame_ids], sc.candidates)
            images = np.stack([a.image for a in aligned], axis=1)  # (3, T, 256, 128)
            masks = np.stack([a.mask for a in aligned])  # (T, 256, 128)
            small = tensor.avg_pool_2d(images, self.REDUCE)
            small_masks = aggregation.mask_downsample(masks, small.shape[2:])
            tracklets.append(toytrain.Tracklet(identity=sc.identity, camera=sc.camera, tid=sc.tid,
                                               frames=np.ascontiguousarray(small.transpose(1, 0, 2, 3)),
                                               masks=small_masks))
            chosen.append([a.provenance.get("candidate") for a in aligned])
        dataset = toytrain.retrieve(st["model"], tracklets)
        return len(st["scenes"]), (dataset, evaluate.evaluate(dataset, "old"), chosen)

    def check(self, st, i: int, output):
        dataset, result, chosen = output
        failures = []
        hits = linked = 0
        for sc, picks in zip(st["scenes"], chosen):
            for f, c in enumerate(picks):
                if c is not None:
                    linked += 1
                    hits += sc.truth[f][c] == sc.target
        if linked == 0 or hits != linked:
            failures.append(f"op {i}: {hits} of {linked} frames linked to the scripted target")
        dist = np.asarray(dataset.distances)
        if not np.all(np.isfinite(dist)):
            failures.append(f"op {i}: non-finite feature distances")
        else:
            failures += oracle.compare(result, oracle.score(oracle.from_eval_dataset(dataset), "old"),
                                       f"op {i} evaluate")
        if st["first"] is None:
            st["first"] = dist
        elif not np.array_equal(st["first"], dist):
            failures.append(f"op {i}: distances differ from op 0 on identical inputs")
        return failures, {"link_hits": hits, "frames_linked": linked}


class EvalProtocols:
    """``axialreid eval --compare`` through its library calls, at the
    DukeMTMC-VideoReID test shape (702 queries x 2636 gallery, 8 cameras)."""

    item = "pair"
    QUERIES, GALLERY, DISTRACTORS, CAMERAS = 702, 2636, 408, 8
    STEP = 0.05  # distance quantum: coarse enough that many distances tie

    def setup(self, seed: int, workdir: Path):
        inst, relabels, ambiguities, duplicates = self._instance(np.random.default_rng([seed, 3]))
        workdir.mkdir(parents=True, exist_ok=True)
        paths = dict(meta=workdir / "meta.tsv", dist=workdir / "dist.aakt", corr=workdir / "corr.txt")
        rows = [("query", t) for t in inst.queries] + [("gallery", t) for t in inst.gallery]
        paths["meta"].write_text("".join(
            f"{role}\t{t.tid}\t{t.identity}\t{t.camera}\t{','.join(map(str, sorted(t.ambiguous))) or '-'}\n"
            for role, t in rows))
        with open(paths["dist"], "wb") as f:  # AAKT container, version 1, rank 2
            f.write(b"AAKT" + struct.pack("<II2Q", 1, 2, *inst.distances.shape))
            f.write(inst.distances.astype("<f8").tobytes())
        records = ["# synthetic corrections", "VERSION 1"]
        records += [f"RELABEL {tid} {new}" for tid, new in relabels.items()]
        records += [f"AMBIG {tid} {a}" for tid, ids in ambiguities.items() for a in sorted(ids)]
        records += [f"DUPDIST {a} {b}" for a, b in duplicates]
        paths["corr"].write_text("\n".join(records) + "\n")
        return dict(paths=paths, raw=inst,
                    fixed=oracle.corrected(inst, relabels, ambiguities, duplicates), expected=None)

    def _instance(self, rng):
        nq, ng, ndis, ncam = self.QUERIES, self.GALLERY, self.DISTRACTORS, self.CAMERAS
        q_id = np.arange(1, nq + 1)
        q_cam = rng.integers(0, ncam, nq)
        real = ng - ndis
        g_id = np.concatenate([np.repeat(q_id, 2), rng.integers(1, nq + 1, real - 2 * nq), np.zeros(ndis, int)])
        g_id = rng.permutation(g_id)
        g_cam = rng.integers(0, ncam, ng)
        g_tid = nq + np.arange(ng)
        same = q_id[:, None] == g_id[None, :]
        dist = np.where(same, rng.normal(0.9, 0.35, (nq, ng)), rng.normal(1.6, 0.35, (nq, ng)))
        dist = np.round(np.abs(dist) / self.STEP) * self.STEP

        # DUPDIST: near-copies of a query among same-camera distractors, plus
        # pairs across cameras, which the new protocol must leave in place
        duplicates = []
        for qi in rng.choice(nq, 70, replace=False):
            pool = np.flatnonzero((g_id == 0) & ((g_cam == q_cam[qi]) == (len(duplicates) < 60)))
            gi = int(rng.choice(pool))
            dist[qi, gi] = self.STEP
            duplicates.append((int(qi), int(g_tid[gi])))
        # RELABEL real->real, distractor->real, real->distractor; AMBIG on
        # other gallery and query tracklets; metadata ambiguity on a few more
        order = rng.permutation(ng)
        real_idx = [int(i) for i in order if g_id[i] != 0]
        dis_idx = [int(i) for i in order if g_id[i] == 0]
        relabels = {int(g_tid[i]): int(rng.integers(1, nq + 1)) for i in real_idx[:40] + dis_idx[:15]}
        relabels.update({int(g_tid[i]): 0 for i in real_idx[40:50]})
        ambiguities: dict[int, set[int]] = {}
        for i in real_idx[50:90]:
            ambiguities[int(g_tid[i])] = {self._other(rng, int(g_id[i]))}
        for qi in rng.choice(nq, 15, replace=False):
            ambiguities[int(qi)] = {self._other(rng, int(q_id[qi]))}
        listed = {int(i): frozenset({self._other(rng, int(g_id[i]))}) for i in real_idx[90:100]}
        for qi, _ in duplicates[:5]:  # a duplicate pair whose query is also ambiguous
            ambiguities.setdefault(qi, set()).add(self._other(rng, int(q_id[qi])))

        queries = [oracle.Track(int(i), int(q_id[i]), int(q_cam[i])) for i in range(nq)]
        gallery = [oracle.Track(int(g_tid[i]), int(g_id[i]), int(g_cam[i]), listed.get(i, frozenset()))
                   for i in range(ng)]
        return oracle.Instance(queries, gallery, dist), relabels, ambiguities, duplicates

    def _other(self, rng, identity: int) -> int:
        while True:
            other = int(rng.integers(1, self.QUERIES + 1))
            if other != identity:
                return other

    def op(self, st, i: int):
        paths = st["paths"]
        dataset, corrections = evaluate.load_eval_dataset(paths["meta"], paths["dist"], paths["corr"])
        report = evaluate.protocol_delta_report(dataset, corrections)
        return 3 * self.QUERIES * self.GALLERY, report

    def check(self, st, i: int, report):
        if st["expected"] is None:  # the inputs are the same for every op
            st["expected"] = (oracle.score(st["raw"], "old"), oracle.score(st["fixed"], "old"),
                              oracle.score(st["fixed"], "new"))
        failures = []
        for label, got, want in zip(("old_raw", "old_corrected", "new_corrected"),
                                    (report.old_raw, report.old_corrected, report.new_corrected),
                                    st["expected"]):
            failures += oracle.compare(got, want, f"op {i} {label}")
        return failures, {}


WORKLOADS = {"train_cfaa": TrainCfaa(), "align_retrieve": AlignRetrieve(), "eval_protocols": EvalProtocols()}
