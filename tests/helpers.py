"""Fixture builders for the toy dataset and the candidate file format.

The library and the CLI only read candidate files; tests write them here."""

from pathlib import Path

from axialreid import detect_link as dl
from axialreid import toytrain as tt
from axialreid.errors import ValidationError


def fresh_split(dataset: tt.SyntheticIdentityDataset, seed: int) -> tt.SyntheticIdentityDataset:
    """New tracklets of the same identities (same palette, new seed)."""
    return tt.SyntheticIdentityDataset(
        num_ids=dataset.num_ids,
        tracklets_per_id=dataset.tracklets_per_id,
        frames_per_tracklet=dataset.frames_per_tracklet,
        hw=dataset.hw,
        seed=seed,
        palette=dataset.palette,
    )


def write_candidate_file(path, records: dict[int, list[dl.CandidateBox]], dim: int) -> None:
    """The candidate file ``detect_link.read_candidate_file`` reads; records maps
    tracklet id -> candidate list (any frame order)."""
    lines = [f"D={dim}"]
    for tid in sorted(records):
        for c in sorted(records[tid], key=lambda c: c.frame):
            if c.feature.shape != (dim,):
                raise ValidationError(f"tracklet {tid}: feature dim {c.feature.shape} != {dim}")
            x, y, w, h = (float(v) for v in c.box)
            feat = "\t".join(repr(float(v)) for v in c.feature)
            lines.append(f"{tid}\t{c.frame}\t{x!r}\t{y!r}\t{w!r}\t{h!r}\t{float(c.confidence)!r}\t{feat}")
    Path(path).write_text("\n".join(lines) + "\n")
