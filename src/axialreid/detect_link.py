"""Re-detect-and-link tracklet alignment.

The object detector and identity feature extractor are external: candidates
arrive as (box, confidence, feature) records per frame, either from the
candidate file format below or from the synthetic detector used in tests.
Linking picks the first-frame candidate by area, then follows the identity
across frames by nearest feature to an exponentially averaged global feature
(DeepSORT's appearance association). That global feature is the linker's only
state: a plain array that ``link_frame`` takes and returns updated.
Chosen crops are shift/resize/padded to 256x128 with a validity mask marking
real versus padded pixels.

Candidate file: first line ``D=<feature dim>``; one record per line after
that: tracklet id, frame index, x, y, w, h, confidence, then D feature
floats, tab-separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .tensor import Rng, as_tensor, read_text_lines

TARGET_H, TARGET_W = 256, 128
DEFAULT_ALPHA = 0.9
DEFAULT_SLIM_RATIO = 3.0


@dataclass(eq=False)  # candidates are told apart by identity: two may share a box
class CandidateBox:
    frame: int
    box: tuple[float, float, float, float]  # x, y, w, h in pixels
    confidence: float
    feature: np.ndarray

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.float64)
        if not (np.isfinite([*self.box, self.confidence]).all() and np.isfinite(self.feature).all()):
            raise ValidationError(
                f"non-finite box {self.box}, confidence {self.confidence} or feature in frame {self.frame}"
            )
        if self.frame < 0:
            raise ValidationError(f"negative frame index {self.frame}")
        x, y, w, h = self.box
        if w <= 0 or h <= 0:
            raise ValidationError(f"degenerate box {self.box} in frame {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def area(self) -> float:
        return self.box[2] * self.box[3]


@dataclass
class AlignedFrame:
    image: np.ndarray  # (3, 256, 128)
    mask: np.ndarray  # (256, 128), 1 = real pixel
    provenance: dict = field(default_factory=dict)


def select_first_frame(candidates: list[CandidateBox]) -> CandidateBox:
    """Largest-area candidate; ties broken by confidence, then lower index."""
    if not candidates:
        raise ValidationError("no candidates in the first frame")
    return max(candidates, key=lambda c: (c.area, c.confidence))


def check_align_options(alpha: float = DEFAULT_ALPHA, slim_ratio: float = DEFAULT_SLIM_RATIO) -> None:
    """Reject an EMA weight alpha outside [0, 1] or a slim ratio that is not positive."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha {alpha} outside [0, 1]")
    if not slim_ratio > 0:  # nan included; inf shifts no box
        raise ValidationError(f"slim ratio {slim_ratio} must be positive")


def link_frame(f_g: np.ndarray, candidates: list[CandidateBox],
               alpha: float = DEFAULT_ALPHA) -> tuple[CandidateBox, np.ndarray]:
    """Choose the candidate nearest (Euclidean) to the global feature f_g, ties
    broken by higher confidence, then lower index; return it and the
    EMA-updated global feature alpha * f_g + (1 - alpha) * chosen.feature."""
    check_align_options(alpha=alpha)
    if not candidates:
        raise ValidationError("no candidates to link")
    for c in candidates:
        if c.feature.shape != f_g.shape:
            raise ValidationError(
                f"candidate feature shape {c.feature.shape} differs from global feature shape {f_g.shape}")
    chosen = min(candidates, key=lambda c: (np.linalg.norm(c.feature - f_g), -c.confidence))
    return chosen, alpha * f_g + (1.0 - alpha) * chosen.feature


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of (C, H, W), align-corners-false: W pass, then H pass, bitwise equal to the 2-D gather.
    Every pixel it reads reaches the output, so a NaN or Inf among them raises ValidationError."""
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        out = img.copy()
    else:
        ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
        xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
        y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
        x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        x1 = np.minimum(x0 + 1, w - 1)
        wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
        wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
        cols = np.take(img, x0, axis=2)  # W pass: (C, H, out_w)
        cols *= 1 - wx
        cols += np.take(img, x1, axis=2) * wx
        out = np.take(cols, y0, axis=1)  # H pass: (C, out_h, out_w)
        out *= 1 - wy
        out += np.take(cols, y1, axis=1) * wy
    if not np.isfinite(out).all():
        raise ValidationError("non-finite pixel values in the aligned region")
    return out


def _check_frame(frame) -> np.ndarray:
    frame = as_tensor(frame, "frame")
    if frame.ndim != 3 or frame.shape[0] != 3:
        raise ValidationError(f"frame must be (3, H, W), got {frame.shape}")
    return frame


def normalize_crop(frame: np.ndarray, box, slim_ratio: float = DEFAULT_SLIM_RATIO) -> AlignedFrame:
    """Crop the box, aspect-preserving resize into 256x128, zero-pad the rest.
    Box edges round half up, so shifting the box by whole pixels shifts the crop
    by as many.

    Slim boxes (h/w > slim_ratio) whose center sits in the left (right) third
    of the source frame are anchored right (left) of center, so the padding
    lands on the side the content came from.
    """
    frame = _check_frame(frame)
    check_align_options(slim_ratio=slim_ratio)
    fh, fw = frame.shape[1:]
    x, y, w, h = box
    x0, y0 = max(math.floor(x + 0.5), 0), max(math.floor(y + 0.5), 0)
    x1, y1 = min(math.floor(x + w + 0.5), fw), min(math.floor(y + h + 0.5), fh)
    if x1 - x0 < 1 or y1 - y0 < 1:
        raise ValidationError(f"box {box} degenerate after clipping to {fh}x{fw}")
    crop = frame[:, y0:y1, x0:x1]
    ch, cw = crop.shape[1:]

    scale = min(TARGET_H / ch, TARGET_W / cw)
    rh, rw = max(int(round(ch * scale)), 1), max(int(round(cw * scale)), 1)
    rh, rw = min(rh, TARGET_H), min(rw, TARGET_W)
    resized = _resize_bilinear(crop, rh, rw)

    anchor = 0.5
    shift = "none"
    center_x = (x0 + x1) / 2.0
    if ch / cw > slim_ratio:
        if center_x < fw / 3.0:
            anchor, shift = 0.75, "right"
        elif center_x > 2.0 * fw / 3.0:
            anchor, shift = 0.25, "left"
    off_y = (TARGET_H - rh) // 2
    off_x = int(round((TARGET_W - rw) * anchor))

    image = np.zeros((3, TARGET_H, TARGET_W), dtype=np.float64)
    mask = np.zeros((TARGET_H, TARGET_W), dtype=np.float64)
    image[:, off_y : off_y + rh, off_x : off_x + rw] = resized
    mask[off_y : off_y + rh, off_x : off_x + rw] = 1.0
    prov = dict(shift=shift, scale=scale, offset=(off_y, off_x), resized=(rh, rw), box=(x0, y0, x1, y1))
    return AlignedFrame(image=image, mask=mask, provenance=prov)


def _passthrough(frame: np.ndarray) -> AlignedFrame:
    """No-detection fallback: stretch the whole (3, H, W) frame to target size, all-valid mask."""
    image = _resize_bilinear(frame, TARGET_H, TARGET_W)
    mask = np.ones((TARGET_H, TARGET_W), dtype=np.float64)
    return AlignedFrame(image=image, mask=mask, provenance=dict(shift="none", no_detection=True))


def process_tracklet(
    frames: list[np.ndarray],
    candidates_per_frame: list[list[CandidateBox]],
    alpha: float = DEFAULT_ALPHA,
    slim_ratio: float = DEFAULT_SLIM_RATIO,
) -> list[AlignedFrame]:
    """Align a tracklet: returns exactly one AlignedFrame per input frame, whose provenance
    names the frame and either the chosen candidate and its rule (max-area, link) or no_detection.

    Frame shapes are checked, and so are the pixels the bilinear resize reads
    from the chosen crop, or from the whole frame when it has no detection: a
    NaN or Inf among them raises ValidationError naming the frame. A pixel the
    resize does not read (outside the crop, or between the samples of a
    shrinking resize) is not checked."""
    if len(frames) < 1:
        raise ValidationError("tracklet must have at least one frame")
    if len(frames) != len(candidates_per_frame):
        raise ValidationError(f"{len(frames)} frames but {len(candidates_per_frame)} candidate lists")
    check_align_options(alpha, slim_ratio)  # before the loop, so that its error names no frame
    out: list[AlignedFrame] = []
    f_g: np.ndarray | None = None  # the exponentially averaged global feature, once a frame has candidates
    for i, (frame, cands) in enumerate(zip(frames, candidates_per_frame)):
        try:
            frame = _check_frame(frame)  # on both branches: the passthrough reads any shape
            if not cands:
                aligned = _passthrough(frame)
                aligned.provenance.update(frame=i, candidate=None)
            else:
                if f_g is None:
                    chosen, rule = select_first_frame(cands), "max-area"
                    f_g = chosen.feature
                else:
                    (chosen, f_g), rule = link_frame(f_g, cands, alpha), "link"
                aligned = normalize_crop(frame, chosen.box, slim_ratio)
                aligned.provenance.update(frame=i, candidate=cands.index(chosen), rule=rule, n_candidates=len(cands))
        except ValidationError as exc:
            raise ValidationError(f"frame {i}: {exc}") from None
        out.append(aligned)
    return out


# ---------------------------------------------------------------------------
# synthetic detector for tests and fixtures


@dataclass
class ScriptedIdentity:
    """One scripted actor: a feature centroid and a per-frame box trajectory."""

    centroid: np.ndarray
    boxes: dict[int, tuple[float, float, float, float]]  # frame -> box
    confidence: float = 0.9


def synthetic_detector(script: list[ScriptedIdentity], num_frames: int, rng: Rng,
                       noise_scale: float = 0.05):
    """Emit per-frame candidate lists from a scene script.

    Features are centroid plus seeded Gaussian noise; returns
    (candidates_per_frame, truth) where truth[frame] lists the scripted
    identity index of each emitted candidate.
    """
    candidates: list[list[CandidateBox]] = []
    truth: list[list[int]] = []
    for f in range(num_frames):
        row: list[CandidateBox] = []
        who: list[int] = []
        for ident_idx, ident in enumerate(script):
            if f not in ident.boxes:
                continue
            noise = rng.child(f, ident_idx).normal(ident.centroid.shape, scale=noise_scale)
            row.append(CandidateBox(frame=f, box=ident.boxes[f], confidence=ident.confidence,
                                    feature=np.asarray(ident.centroid, dtype=np.float64) + noise))
            who.append(ident_idx)
        candidates.append(row)
        truth.append(who)
    return candidates, truth


# ---------------------------------------------------------------------------
# candidate file input


def read_candidate_file(path) -> dict[int, list[CandidateBox]]:
    """Parse a candidate file; raises ValidationError with the offending line number."""
    lines = read_text_lines(path)
    if not lines or not lines[0].startswith("D="):
        raise ValidationError(f"{path}:1: expected header 'D=<dim>'")
    try:
        dim = int(lines[0][2:])
    except ValueError:
        raise ValidationError(f"{path}:1: bad feature dim {lines[0][2:]!r}") from None
    if dim < 0:
        raise ValidationError(f"{path}:1: negative feature dim {dim}")
    out: dict[int, list[CandidateBox]] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 7 + dim:
            raise ValidationError(f"{path}:{lineno}: expected {7 + dim} fields, got {len(parts)}")
        try:
            tid, frame = int(parts[0]), int(parts[1])
            x, y, w, h, conf = (float(v) for v in parts[2:7])
            feature = np.array([float(v) for v in parts[7:]], dtype=np.float64)
            cand = CandidateBox(frame=frame, box=(x, y, w, h), confidence=conf, feature=feature)
        except ValueError as exc:  # a ValidationError from CandidateBox included
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        out.setdefault(tid, []).append(cand)
    return out
