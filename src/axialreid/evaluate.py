"""CMC / mAP evaluation with label corrections and the revised ignore rules.

Protocols:

* ``old``: a gallery entry is removed from a query's ranking iff it carries the
  same identity under the same camera.
* ``new``: additionally removes gallery distractors (identity 0) explicitly
  marked as duplicates of the query's tracklet, when under the same camera.

A gallery entry counts as correct iff its identity equals the query identity
or lies in either side's ambiguity set. Queries with no remaining positive are
excluded from the mAP / CMC denominators and reported.

The ranking is an int32 (Q, G) array: per block of query rows a quicksort
argsort, the sorted values read through it in one flat gather, and, where a row
holds ties, a sort of the integer key ``run * |G| + index`` over its numbered
runs of equal values, so ties keep gallery order.
Scoring works on the same blocks: match and drop masks from identity and camera
arrays, with ambiguity sets and DUPDIST pairs set as sparse (query, gallery)
exceptions, are packed into one byte per entry and gathered into rank order
once. A hit's rank among kept entries is its position less the drops before it
in its row. ``protocol_delta_report`` ranks once for its three evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .tensor import as_int, as_tensor, load_tensor, read_text_lines

DISTRACTOR_ID = 0
PROTOCOLS = ("old", "new")


@dataclass(frozen=True)
class TrackletMeta:
    tid: int
    identity: int
    camera: int
    ambiguous_ids: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.identity < 0:
            raise ValidationError(f"tracklet {self.tid}: negative identity {self.identity}")
        if self.identity in self.ambiguous_ids:
            raise ValidationError(f"tracklet {self.tid}: primary identity in its own ambiguity set")


@dataclass
class LabelCorrections:
    relabels: dict[int, int] = field(default_factory=dict)
    ambiguities: dict[int, set[int]] = field(default_factory=dict)
    duplicate_pairs: set[frozenset[int]] = field(default_factory=set)
    version: int | None = None

    def conflicts(self, tid: int) -> list[str]:
        """What is wrong with tracklet tid's relabel, if it has one."""
        new_id = self.relabels.get(tid)
        out = []
        if new_id is not None and new_id < 0:
            out.append(f"RELABEL {tid} -> invalid identity {new_id}")
        if new_id in self.ambiguities.get(tid, ()):
            out.append(f"tracklet {tid}: relabel target {new_id} also in its ambiguity set")
        return out

    def validate(self):
        conflicts = [c for tid in self.relabels for c in self.conflicts(tid)]
        for pair in self.duplicate_pairs:
            if len(pair) != 2:
                conflicts.append(f"DUPDIST pair {sorted(pair)} is not two distinct tracklets")
        if conflicts:
            raise ValidationError("conflicting corrections: " + "; ".join(conflicts))


@dataclass
class EvalDataset:
    queries: list[TrackletMeta]
    gallery: list[TrackletMeta]
    distances: np.ndarray  # (|Q|, |G|), smaller = more similar
    duplicate_pairs: set[frozenset[int]] = field(default_factory=set)

    def __post_init__(self):
        self.distances = as_tensor(self.distances, "distances")
        if self.distances.shape != (len(self.queries), len(self.gallery)):
            raise ValidationError(
                f"distance matrix {self.distances.shape} does not match "
                f"{len(self.queries)} queries x {len(self.gallery)} gallery"
            )
        if not np.isfinite(self.distances).all():
            bad = np.argwhere(~np.isfinite(self.distances))
            qi, gi = bad[0]
            raise ValidationError(
                f"distance matrix holds {len(bad)} non-finite entries, first at "
                f"(query {qi}, gallery {gi}): {self.distances[qi, gi]}"
            )
        for role, metas in (("query", self.queries), ("gallery", self.gallery)):
            seen: dict[int, int] = {}
            for i, m in enumerate(metas):
                if m.tid in seen:
                    raise ValidationError(f"{role} list repeats tid {m.tid} at indices {seen[m.tid]} and {i}")
                seen[m.tid] = i


def apply_corrections(dataset: EvalDataset, corrections: LabelCorrections) -> EvalDataset:
    """Pure: returns a corrected dataset (relabels applied, ambiguity sets
    attached, duplicate markers carried on the dataset). Its distances are a
    read-only view of ``dataset.distances``, not a copy: both rank the same
    matrix, and a second (Q, G) matrix would double the memory of a delta
    report."""
    corrections.validate()

    def fix(meta: TrackletMeta) -> TrackletMeta:
        if meta.tid not in corrections.relabels and meta.tid not in corrections.ambiguities:
            return meta  # frozen, and equal to what replace would build
        identity = corrections.relabels.get(meta.tid, meta.identity)
        ambiguous = meta.ambiguous_ids.union(corrections.ambiguities.get(meta.tid, ())) - {identity}
        return replace(meta, identity=identity, ambiguous_ids=ambiguous)

    distances = dataset.distances.view()
    distances.flags.writeable = False
    return EvalDataset(
        queries=[fix(m) for m in dataset.queries],
        gallery=[fix(m) for m in dataset.gallery],
        distances=distances,
        duplicate_pairs=set(dataset.duplicate_pairs) | set(corrections.duplicate_pairs),
    )


@dataclass
class EvalResult:
    mAP: float
    cmc: np.ndarray  # cmc[k-1] = CMC(k)
    per_query_ap: list[float | None]  # None = excluded
    excluded: int
    gallery_size: int  # a CMC this long covers every rank

    def cmc_at(self, k: int) -> float:
        """CMC(k); past the end of a curve that covers the whole gallery, its last entry."""
        k = as_int(k, "CMC rank", -np.inf)  # the range check below names the curve's ranks
        if k < 1 or (k > len(self.cmc) and len(self.cmc) < self.gallery_size):
            raise ValidationError(f"CMC rank {k} is not among the curve's ranks 1..{len(self.cmc)}")
        return float(self.cmc[min(k, len(self.cmc)) - 1])


def evaluate(dataset: EvalDataset, protocol: str = "old", max_rank: int = 50) -> EvalResult:
    """Rank the gallery per query, drop ignored entries, score AP and CMC."""
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    max_rank = as_int(max_rank, "max_rank", 1)  # before any ranking work
    return _score(dataset, protocol, max_rank, _rank(dataset.distances))


_BLOCK = 128  # query rows scored together; bounds the (rows, |G|) temporaries


def _rank(distances: np.ndarray) -> np.ndarray:
    """Each row's gallery indices by ascending distance, ties in gallery order, as int32."""
    nq, ng = distances.shape
    key_type = np.int32 if ng * ng < 2**31 else np.int64  # keys reach ng * ng - 1
    order = np.empty((nq, ng), dtype=np.int32)
    for start in range(0, nq, _BLOCK):
        block = distances[start:start + _BLOCK]
        index = np.argsort(block, axis=1)  # quicksort: ties in any order
        values = np.take(block, index + np.arange(len(block))[:, None] * ng)  # np.sort's values, one gather
        new_run = values[:, 1:] != values[:, :-1]
        if not new_run.all():  # sorting run * ng + index puts each run of ties back in gallery order
            run = np.zeros(values.shape, dtype=key_type)
            np.cumsum(new_run, axis=1, out=run[:, 1:])
            run *= ng
            index = np.sort(run + index.astype(key_type), axis=1) - run  # runs stay in place
        order[start:start + _BLOCK] = index
    return order


def _expand(rows: np.ndarray, keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (row, j) with ids[j] == key, for each (row, key) pair."""
    by_id = np.argsort(ids, kind="stable")
    lo = np.searchsorted(ids[by_id], keys, "left")
    n = np.searchsorted(ids[by_id], keys, "right") - lo
    start = np.cumsum(n) - n
    return np.repeat(rows, n), by_id[np.arange(n.sum()) + np.repeat(lo - start, n)]


def _ambiguity_pairs(metas: list[TrackletMeta], other_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) where entry j of the other side has an identity in metas[i]'s ambiguity set."""
    listed = [(i, a) for i, m in enumerate(metas) for a in m.ambiguous_ids]
    rows, keys = np.array(listed, dtype=np.int64).reshape(-1, 2).T
    return _expand(rows, keys, other_ids)


def _by_query(qi: np.ndarray, gi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(qi, kind="stable")
    return qi[order], gi[order]


def _mark(mask: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], start: int) -> None:
    """Set the pairs whose query lies in rows [start, start + len(mask))."""
    qi, gi = pairs
    lo, hi = np.searchsorted(qi, [start, start + len(mask)])
    mask[qi[lo:hi] - start, gi[lo:hi]] = True


def _score(dataset: EvalDataset, protocol: str, max_rank: int, order: np.ndarray) -> EvalResult:
    """``evaluate`` on a precomputed ranking ``order`` of ``dataset.distances``;
    the caller has checked ``max_rank``."""
    nq, ng = dataset.distances.shape
    max_rank = min(max_rank, ng)
    q_id = np.array([m.identity for m in dataset.queries])
    q_cam = np.array([m.camera for m in dataset.queries])
    g_id = np.array([m.identity for m in dataset.gallery])
    g_cam = np.array([m.camera for m in dataset.gallery])

    q_side = _ambiguity_pairs(dataset.queries, g_id)
    g_side = _ambiguity_pairs(dataset.gallery, q_id)[::-1]
    also_match = _by_query(*(np.concatenate(side) for side in zip(q_side, g_side)))
    dup = []
    if protocol == "new":
        q_at = {m.tid: i for i, m in enumerate(dataset.queries)}
        g_at = {m.tid: j for j, m in enumerate(dataset.gallery)}
        for a, b in map(tuple, dataset.duplicate_pairs):
            dup += [(q_at[x], g_at[y]) for x, y in ((a, b), (b, a)) if x in q_at and y in g_at]
    qi, gi = np.array(dup, dtype=np.int64).reshape(-1, 2).T
    keep = (q_cam[qi] == g_cam[gi]) & (g_id[gi] == DISTRACTOR_ID)
    also_drop = _by_query(qi[keep], gi[keep])

    aps: list[float | None] = [None] * nq
    firsts = []
    for start in range(0, nq, _BLOCK):
        rows = slice(start, start + _BLOCK)
        match = q_id[rows, None] == g_id
        dropped = match & (q_cam[rows, None] == g_cam)
        _mark(match, also_match, start)
        _mark(dropped, also_drop, start)
        row_start = np.arange(len(match)) * ng  # flat index of each row's first entry
        flags = np.take(match | dropped.view(np.uint8) << 1, order[rows] + row_start[:, None])
        hits, drops = np.flatnonzero(flags == 1), np.flatnonzero(flags >= 2)  # flat, in rank order
        row = hits // ng
        kept_before = row_start - np.searchsorted(drops, row_start)  # kept entries in earlier rows
        ranks = hits + 1 - np.searchsorted(drops, hits) - kept_before[row]  # 1-based rank among kept entries
        per_row = np.bincount(row, minlength=len(match))
        scored = np.flatnonzero(per_row)
        if not len(scored):
            continue
        bounds = np.cumsum(per_row[scored]) - per_row[scored]
        n_hit = np.arange(1, len(hits) + 1) - np.repeat(bounds, per_row[scored])
        ap = np.add.reduceat(n_hit / ranks, bounds) / per_row[scored]
        for q, a in zip((scored + start).tolist(), ap.tolist()):
            aps[q] = a
        firsts.append(ranks[bounds] - 1)
    if not firsts:
        raise ValidationError("every query lost all its positives under this protocol")
    firsts = np.concatenate(firsts)
    m_ap = float(np.mean([a for a in aps if a is not None]))
    cmc = np.cumsum(np.bincount(firsts[firsts < max_rank], minlength=max_rank)) / len(firsts)
    return EvalResult(mAP=m_ap, cmc=cmc, per_query_ap=aps, excluded=nq - len(firsts), gallery_size=ng)


@dataclass
class DeltaReport:
    """mAP/CMC under (old, uncorrected), (old, corrected), (new, corrected)."""

    old_raw: EvalResult
    old_corrected: EvalResult
    new_corrected: EvalResult

    def per_query_deltas(self) -> list[float]:
        """AP delta (new corrected - old uncorrected) per query; excluded queries score 0."""
        out = []
        for a, b in zip(self.old_raw.per_query_ap, self.new_corrected.per_query_ap):
            out.append((b or 0.0) - (a or 0.0))
        return out

    def lines(self) -> list[str]:
        rows = [("old_raw", self.old_raw), ("old_corrected", self.old_corrected), ("new_corrected", self.new_corrected)]
        out = []
        for name, res in rows:
            out.append(f"{name}.mAP={res.mAP:.6f}")
            out.append(f"{name}.rank1={res.cmc_at(1):.6f}")
            out.append(f"{name}.excluded={res.excluded}")
        for qi, d in enumerate(self.per_query_deltas()):
            if d != 0.0:
                out.append(f"query{qi}.ap_delta={d:+.6f}")
        return out


def protocol_delta_report(dataset: EvalDataset, corrections: LabelCorrections) -> DeltaReport:
    """The old protocol before and after the corrections, and the new one after, with CMC to rank 50."""
    corrected = apply_corrections(dataset, corrections)
    order = _rank(dataset.distances)  # the corrected dataset ranks the same matrix
    return DeltaReport(
        old_raw=_score(dataset, "old", 50, order),
        old_corrected=_score(corrected, "old", 50, order),
        new_corrected=_score(corrected, "new", 50, order),
    )


# ---------------------------------------------------------------------------
# file formats


def read_metadata_file(path) -> tuple[list[TrackletMeta], list[TrackletMeta]]:
    """One line per tracklet: role(query|gallery), tid, identity, camera,
    comma-separated ambiguous ids ('-' or omitted when none). Tab separated.
    A tid appears at most once per role."""
    queries, gallery = [], []
    first_line: dict[tuple[str, int], int] = {}
    for lineno, line in enumerate(read_text_lines(path), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (4, 5):
            raise ValidationError(f"{path}:{lineno}: expected 4 or 5 fields, got {len(parts)}")
        role = parts[0]
        if role not in ("query", "gallery"):
            raise ValidationError(f"{path}:{lineno}: bad role {role!r}")
        try:
            tid, identity, camera = int(parts[1]), int(parts[2]), int(parts[3])
            ambiguous = frozenset(
                int(v) for v in parts[4].split(",") if v.strip()
            ) if len(parts) == 5 and parts[4] != "-" else frozenset()
            meta = TrackletMeta(tid=tid, identity=identity, camera=camera, ambiguous_ids=ambiguous)
        except ValueError as exc:  # a ValidationError from TrackletMeta included
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if (role, tid) in first_line:
            raise ValidationError(f"{path}:{lineno}: {role} tid {tid} repeats line {first_line[role, tid]}")
        first_line[role, tid] = lineno
        (queries if role == "query" else gallery).append(meta)
    return queries, gallery


def read_corrections_file(path) -> LabelCorrections:
    """Records: RELABEL old_tid new_id | AMBIG tid id | DUPDIST tid_a tid_b.
    Lines starting with # are comments; 'VERSION n' records a revision number."""
    out = LabelCorrections()
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0].upper()
        try:
            if kind == "VERSION" and len(parts) == 2:
                out.version = int(parts[1])
            elif kind == "RELABEL" and len(parts) == 3:
                tid, new_id = int(parts[1]), int(parts[2])
                if tid in out.relabels and out.relabels[tid] != new_id:
                    raise ValidationError(f"tracklet {tid} relabeled to both {out.relabels[tid]} and {new_id}")
                out.relabels[tid] = new_id
            elif kind == "AMBIG" and len(parts) == 3:
                tid = int(parts[1])
                out.ambiguities.setdefault(tid, set()).add(int(parts[2]))
            elif kind == "DUPDIST" and len(parts) == 3:
                a, b = int(parts[1]), int(parts[2])
                if a == b:
                    raise ValidationError("DUPDIST pair must name two tracklets")
                out.duplicate_pairs.add(frozenset((a, b)))
            else:
                raise ValidationError(f"unrecognized record {line!r}")
            if kind in ("RELABEL", "AMBIG") and (conflicts := out.conflicts(tid)):
                raise ValidationError("; ".join(conflicts))
        except ValueError as exc:  # the ValidationErrors above included
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return out


def load_eval_dataset(meta_path, distances_path, corrections_path=None) -> tuple[EvalDataset, LabelCorrections | None]:
    queries, gallery = read_metadata_file(meta_path)
    if not queries or not gallery:
        raise ValidationError(f"{meta_path}: metadata needs a query and a gallery line, "
                              f"got {len(queries)} queries and {len(gallery)} gallery")
    distances = load_tensor(distances_path)
    try:
        dataset = EvalDataset(queries=queries, gallery=gallery, distances=distances)
    except ValidationError as exc:
        raise ValidationError(f"{distances_path}: {exc}") from None
    corrections = read_corrections_file(corrections_path) if corrections_path else None
    return dataset, corrections
