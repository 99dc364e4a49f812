"""CMC / mAP evaluation with label corrections and the revised ignore rules.

Protocols:

* ``old``: a gallery entry is removed from a query's ranking iff it carries the
  same identity under the same camera.
* ``new``: additionally removes gallery distractors (identity 0) explicitly
  marked as duplicates of the query's tracklet, when under the same camera.

A gallery entry counts as correct iff its identity equals the query identity
or lies in either side's ambiguity set. Queries with no remaining positive are
excluded from the mAP / CMC denominators and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError
from .tensor import as_tensor, load_tensor

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

    def validate(self):
        conflicts = []
        for tid, new_id in self.relabels.items():
            if new_id < 0:
                conflicts.append(f"RELABEL {tid} -> invalid identity {new_id}")
            if new_id in self.ambiguities.get(tid, ()):
                conflicts.append(f"tracklet {tid}: relabel target {new_id} also in its ambiguity set")
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
            raise DimensionError(
                f"distance matrix {self.distances.shape} does not match "
                f"{len(self.queries)} queries x {len(self.gallery)} gallery"
            )
        bad = np.argwhere(~np.isfinite(self.distances))
        if len(bad):
            qi, gi = bad[0]
            raise ValidationError(
                f"distance matrix holds {len(bad)} non-finite entries, first at "
                f"(query {qi}, gallery {gi}): {self.distances[qi, gi]}"
            )


def apply_corrections(dataset: EvalDataset, corrections: LabelCorrections) -> EvalDataset:
    """Pure: returns a corrected copy (relabels applied, ambiguity sets attached,
    duplicate markers carried on the dataset)."""
    corrections.validate()

    def fix(meta: TrackletMeta) -> TrackletMeta:
        identity = corrections.relabels.get(meta.tid, meta.identity)
        extra = corrections.ambiguities.get(meta.tid, set())
        ambiguous = (meta.ambiguous_ids | set(extra)) - {identity}
        return replace(meta, identity=identity, ambiguous_ids=frozenset(ambiguous))

    return EvalDataset(
        queries=[fix(m) for m in dataset.queries],
        gallery=[fix(m) for m in dataset.gallery],
        distances=dataset.distances.copy(),
        duplicate_pairs=set(dataset.duplicate_pairs) | set(corrections.duplicate_pairs),
    )


def _is_ignored(q: TrackletMeta, g: TrackletMeta, protocol: str, dup_pairs) -> bool:
    if g.camera == q.camera and g.identity == q.identity:
        return True
    if protocol == "new" and g.camera == q.camera and g.identity == DISTRACTOR_ID:
        return frozenset((q.tid, g.tid)) in dup_pairs
    return False


def _is_match(q: TrackletMeta, g: TrackletMeta) -> bool:
    return g.identity == q.identity or g.identity in q.ambiguous_ids or q.identity in g.ambiguous_ids


@dataclass
class EvalResult:
    mAP: float
    cmc: np.ndarray  # cmc[k-1] = CMC(k)
    per_query_ap: list[float | None]  # None = excluded
    excluded: int

    def cmc_at(self, k: int) -> float:
        return float(self.cmc[min(k, len(self.cmc)) - 1])


def evaluate(dataset: EvalDataset, protocol: str = "old", max_rank: int = 50) -> EvalResult:
    """Rank the gallery per query, drop ignored entries, score AP and CMC."""
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    nq, ng = dataset.distances.shape
    max_rank = min(max_rank, ng)
    order = np.argsort(dataset.distances, axis=1, kind="stable")  # ties keep gallery index order

    aps: list[float | None] = []
    cmc_sum = np.zeros(max_rank)
    included = 0
    for qi, q in enumerate(dataset.queries):
        ranked = [dataset.gallery[gi] for gi in order[qi]]
        kept = [g for g in ranked if not _is_ignored(q, g, protocol, dataset.duplicate_pairs)]
        matches = np.array([_is_match(q, g) for g in kept], dtype=bool)
        if not matches.any():
            aps.append(None)
            continue
        included += 1
        hits = np.flatnonzero(matches)
        precisions = (np.arange(len(hits)) + 1.0) / (hits + 1.0)
        aps.append(float(precisions.mean()))
        first = hits[0]
        if first < max_rank:
            cmc_sum[first:] += 1.0
    if included == 0:
        raise ValidationError("every query lost all its positives under this protocol")
    m_ap = float(np.mean([a for a in aps if a is not None]))
    return EvalResult(mAP=m_ap, cmc=cmc_sum / included, per_query_ap=aps, excluded=nq - included)


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


def protocol_delta_report(dataset: EvalDataset, corrections: LabelCorrections, max_rank: int = 50) -> DeltaReport:
    corrected = apply_corrections(dataset, corrections)
    return DeltaReport(
        old_raw=evaluate(dataset, "old", max_rank),
        old_corrected=evaluate(corrected, "old", max_rank),
        new_corrected=evaluate(corrected, "new", max_rank),
    )


# ---------------------------------------------------------------------------
# file formats


def read_metadata_file(path) -> tuple[list[TrackletMeta], list[TrackletMeta]]:
    """One line per tracklet: role(query|gallery), tid, identity, camera,
    comma-separated ambiguous ids ('-' or omitted when none). Tab separated."""
    queries, gallery = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        meta = TrackletMeta(tid=tid, identity=identity, camera=camera, ambiguous_ids=ambiguous)
        (queries if role == "query" else gallery).append(meta)
    return queries, gallery


def write_metadata_file(path, queries, gallery) -> None:
    lines = []
    for role, metas in (("query", queries), ("gallery", gallery)):
        for m in metas:
            amb = ",".join(str(i) for i in sorted(m.ambiguous_ids)) or "-"
            lines.append(f"{role}\t{m.tid}\t{m.identity}\t{m.camera}\t{amb}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_corrections_file(path) -> LabelCorrections:
    """Records: RELABEL old_tid new_id | AMBIG tid id | DUPDIST tid_a tid_b.
    Lines starting with # are comments; 'VERSION n' records a revision number."""
    out = LabelCorrections()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
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
                    raise ValidationError(
                        f"{path}:{lineno}: tracklet {tid} relabeled to both {out.relabels[tid]} and {new_id}"
                    )
                out.relabels[tid] = new_id
            elif kind == "AMBIG" and len(parts) == 3:
                out.ambiguities.setdefault(int(parts[1]), set()).add(int(parts[2]))
            elif kind == "DUPDIST" and len(parts) == 3:
                a, b = int(parts[1]), int(parts[2])
                if a == b:
                    raise ValidationError(f"{path}:{lineno}: DUPDIST pair must name two tracklets")
                out.duplicate_pairs.add(frozenset((a, b)))
            else:
                raise ValidationError(f"{path}:{lineno}: unrecognized record {line!r}")
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    out.validate()
    return out


def load_eval_dataset(meta_path, distances_path, corrections_path=None) -> tuple[EvalDataset, LabelCorrections | None]:
    queries, gallery = read_metadata_file(meta_path)
    distances = load_tensor(distances_path)
    if distances.ndim != 2 or distances.shape != (len(queries), len(gallery)):
        raise DimensionError(
            f"distance matrix {distances.shape} does not match metadata "
            f"({len(queries)} queries x {len(gallery)} gallery)"
        )
    dataset = EvalDataset(queries=queries, gallery=gallery, distances=distances)
    corrections = read_corrections_file(corrections_path) if corrections_path else None
    return dataset, corrections
