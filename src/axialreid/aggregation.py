"""Mask-aware feature aggregation and the two training losses.

Per-frame feature maps are pooled over valid (non-padded) pixels only; the
model averages them over time and batch-normalizes the result. Training uses
batch-hard triplet loss on the pre-BN feature and cross-entropy on the
classifier output.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError
from .tensor import as_tensor

TRIPLET_MARGIN = 0.3  # the batch-hard recipe's margin (Hermans et al., arXiv 1703.07737)


def mask_downsample(mask, target_hw: tuple[int, int]) -> np.ndarray:
    """Downsample a (T, H, W) 0/1 validity mask to (T, H', W').

    An output cell is valid iff strictly more than half of its covered input
    pixels are valid. A frame whose downsampled mask is all zero falls back to
    all ones (so later pooling never divides by zero). A value other than 0
    or 1, NaN included, raises ValidationError naming its frame. The counts are
    exact integers, so strided adds of rows, then of columns, give their bits.
    """
    mask = np.asarray(mask)
    if mask.ndim != 3 or not mask.size:
        raise DimensionError(f"mask must be a non-empty (T, H, W) array, got shape {mask.shape}")
    t, h, w = mask.shape
    th, tw = target_hw
    if th > h or tw > w or h % th or w % tw:
        raise DimensionError(f"target {target_hw} is not an integer pooling of ({h}, {w})")
    bad = ((mask != 0) & (mask != 1)).reshape(t, -1).any(axis=1)
    if bad.any():
        raise ValidationError(f"mask frame {int(bad.argmax())} holds a value other than 0 or 1")
    fh, fw = h // th, w // tw
    rows = sum((mask[:, i::fh] for i in range(1, fh)), mask[:, ::fh].astype(np.float64))
    counts = sum((rows[:, :, j::fw] for j in range(1, fw)), rows[:, :, ::fw])
    out = (counts > fh * fw / 2.0).astype(np.float64)
    dead = out.reshape(t, -1).sum(axis=1) == 0
    out[dead] = 1.0
    return out


def masked_avg_pool(features, mask) -> np.ndarray:
    """Per-frame mean of feature vectors at valid cells: (T, C, H, W) x (T, H, W) -> (T, C)."""
    features = as_tensor(features, "features")
    mask = np.asarray(mask, dtype=np.float64)
    if features.ndim != 4 or mask.ndim != 3:
        raise DimensionError(f"expected (T, C, H, W) features and (T, H, W) mask, got {features.shape} and {mask.shape}")
    if features.shape[0] != mask.shape[0] or features.shape[2:] != mask.shape[1:]:
        raise DimensionError(f"features {features.shape} and mask {mask.shape} extents differ")
    counts = mask.sum(axis=(1, 2))
    if np.any(counts == 0):
        raise ValidationError("mask has a fully invalid frame; apply mask_downsample fallback first")
    summed = np.einsum("tchw,thw->tc", features, mask)
    return summed / counts[:, None]


def masked_avg_pool_backward(grad, mask) -> np.ndarray:
    """Gradient of masked_avg_pool w.r.t. features: (T, C) -> (T, C, H, W)."""
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=(1, 2))
    return np.einsum("tc,thw->tchw", grad / counts[:, None], mask)


def validate_pk_labels(labels: np.ndarray) -> tuple[int, int]:
    """Check the P identities x K instances batch structure; returns (P, K)."""
    labels = np.asarray(labels)
    ids, counts = np.unique(labels, return_counts=True)
    if np.any(counts < 2):
        bad = ids[counts < 2].tolist()
        raise ValidationError(f"identities {bad} have no positive pair in the batch")
    if len(set(counts.tolist())) != 1:
        raise ValidationError(f"batch is not P x K: instance counts {dict(zip(ids.tolist(), counts.tolist()))}")
    return len(ids), int(counts[0])


def batch_hard_triplet(features, labels):
    """Batch-hard triplet loss with Euclidean distances.

    Per anchor: max(0, TRIPLET_MARGIN + hardest-positive distance -
    hardest-negative distance), averaged over anchors. Returns (loss, d_features).
    """
    features = as_tensor(features, "features")
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DimensionError(f"features {features.shape} vs labels {labels.shape}")
    validate_pk_labels(labels)
    b = features.shape[0]
    diff = features[:, None, :] - features[None, :, :]
    sq = np.einsum("ijc,ijc->ij", diff, diff)
    dist = np.sqrt(np.maximum(sq, 0.0))
    same = labels[:, None] == labels[None, :]
    eye = np.eye(b, dtype=bool)

    loss = 0.0
    grad = np.zeros_like(features)
    for a in range(b):
        pos_mask = same[a] & ~eye[a]
        neg_mask = ~same[a]
        pos_idx = int(np.flatnonzero(pos_mask)[np.argmax(dist[a][pos_mask])])
        neg_idx = int(np.flatnonzero(neg_mask)[np.argmin(dist[a][neg_mask])])
        hinge = TRIPLET_MARGIN + dist[a, pos_idx] - dist[a, neg_idx]
        if hinge > 0:
            loss += hinge
            dp = max(dist[a, pos_idx], 1e-12)
            dn = max(dist[a, neg_idx], 1e-12)
            gp = (features[a] - features[pos_idx]) / dp
            gn = (features[a] - features[neg_idx]) / dn
            grad[a] += gp - gn
            grad[pos_idx] -= gp
            grad[neg_idx] += gn
    return loss / b, grad / b


def cross_entropy(logits, labels):
    """Mean negative log softmax probability of the true class.

    Returns (loss, d_logits); gradient rows are softmax - onehot over batch size.
    """
    logits = as_tensor(logits, "logits")
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise DimensionError(f"logits {logits.shape} vs labels {labels.shape}")
    b, n = logits.shape
    if np.any(labels < 0) or np.any(labels >= n):
        raise ValidationError(f"labels out of range [0, {n})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    loge = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -loge[np.arange(b), labels].mean()
    grad = np.exp(loge)
    grad[np.arange(b), labels] -= 1.0
    return float(loss), grad / b
