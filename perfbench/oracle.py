"""Independent re-scorer for the benchmark's output checks.

It shares no code with ``axialreid.evaluate``: the instance is plain data,
label corrections are applied here, and each query is ranked on its own by
(distance, gallery index), so ties keep gallery order. Rules scored:

* a gallery entry with the query's identity under the query's camera is
  dropped; under the ``new`` protocol so is a same-camera distractor
  (identity 0) that a DUPDIST record pairs with the query;
* an entry matches when the identities agree or either side lists the other's
  identity as ambiguous;
* a query with no match left is excluded from mAP and CMC.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

DISTRACTOR = 0
# AP is a mean of precisions; this scorer and the library sum them in
# different orders, so APs agree to rounding, not bit for bit.
AP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Track:
    tid: int
    identity: int
    camera: int
    ambiguous: frozenset = frozenset()


@dataclass
class Instance:
    queries: list[Track]
    gallery: list[Track]
    distances: np.ndarray  # (queries, gallery)
    duplicates: set = field(default_factory=set)  # frozenset({tid_a, tid_b})


@dataclass
class Scores:
    per_query_ap: list  # float, or None for an excluded query
    cmc: np.ndarray
    excluded: int
    mAP: float


def corrected(inst: Instance, relabels: dict, ambiguities: dict, duplicates) -> Instance:
    """Apply RELABEL, AMBIG and DUPDIST records to a copy of inst."""

    def fix(t: Track) -> Track:
        identity = relabels.get(t.tid, t.identity)
        ambiguous = (set(t.ambiguous) | set(ambiguities.get(t.tid, ()))) - {identity}
        return Track(t.tid, identity, t.camera, frozenset(ambiguous))

    return Instance([fix(t) for t in inst.queries], [fix(t) for t in inst.gallery],
                    inst.distances, set(inst.duplicates) | {frozenset(p) for p in duplicates})


def from_eval_dataset(dataset) -> Instance:
    """Read an ``EvalDataset``'s fields into plain data."""

    def track(m):
        return Track(int(m.tid), int(m.identity), int(m.camera), frozenset(m.ambiguous_ids))

    return Instance([track(m) for m in dataset.queries], [track(m) for m in dataset.gallery],
                    np.asarray(dataset.distances), set(dataset.duplicate_pairs))


def score(inst: Instance, protocol: str, max_rank: int = 50) -> Scores:
    """Score every query of inst under protocol "old" or "new"."""
    ng = len(inst.gallery)
    max_rank = min(max_rank, ng)
    g_id = np.array([g.identity for g in inst.gallery])
    g_cam = np.array([g.camera for g in inst.gallery])
    g_tid = np.array([g.tid for g in inst.gallery])
    listed_by: dict[int, list[int]] = defaultdict(list)  # identity -> gallery entries listing it
    for gi, g in enumerate(inst.gallery):
        for a in g.ambiguous:
            listed_by[a].append(gi)
    partners: dict[int, set[int]] = defaultdict(set)
    for pair in inst.duplicates:
        a, b = tuple(pair)
        partners[a].add(b)
        partners[b].add(a)
    index = np.arange(ng)

    aps: list = []
    first_hits: list[int] = []
    for qi, q in enumerate(inst.queries):
        order = np.lexsort((index, inst.distances[qi]))
        same_cam = g_cam == q.camera
        dropped = same_cam & (g_id == q.identity)
        if protocol == "new":
            dropped |= same_cam & (g_id == DISTRACTOR) & np.isin(g_tid, list(partners[q.tid]))
        match = (g_id == q.identity) | np.isin(g_id, list(q.ambiguous))
        match[listed_by[q.identity]] = True
        hits = np.flatnonzero(match[order][~dropped[order]])
        if hits.size == 0:
            aps.append(None)
            continue
        aps.append(math.fsum((k + 1) / (h + 1) for k, h in enumerate(hits.tolist())) / hits.size)
        first_hits.append(int(hits[0]))
    included = len(first_hits)
    counts = np.zeros(max_rank)
    for first in first_hits:
        if first < max_rank:
            counts[first:] += 1.0
    kept = [a for a in aps if a is not None]
    return Scores(aps, counts / max(included, 1), len(aps) - included,
                  math.fsum(kept) / len(kept) if kept else float("nan"))


def compare(result, expected: Scores, label: str = "") -> list[str]:
    """Differences between a library ``EvalResult`` and the re-scored values."""
    out = []
    got = list(result.per_query_ap)
    if len(got) != len(expected.per_query_ap):
        return [f"{label}: {len(got)} per-query APs, expected {len(expected.per_query_ap)}"]
    for qi, (a, b) in enumerate(zip(got, expected.per_query_ap)):
        if (a is None) != (b is None):
            out.append(f"{label}: query {qi} excluded={a is None}, expected {b is None}")
        elif a is not None and not abs(a - b) <= AP_TOLERANCE:
            out.append(f"{label}: query {qi} AP {a!r}, expected {b!r}")
    if result.excluded != expected.excluded:
        out.append(f"{label}: excluded {result.excluded}, expected {expected.excluded}")
    cmc = np.asarray(result.cmc)
    if cmc.shape != expected.cmc.shape or not np.array_equal(cmc, expected.cmc):
        out.append(f"{label}: CMC differs from the re-scored curve")
    if not abs(result.mAP - expected.mAP) <= AP_TOLERANCE:
        out.append(f"{label}: mAP {result.mAP!r}, expected {expected.mAP!r}")
    return out
