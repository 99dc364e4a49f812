"""Axial-attention kernels with analytic gradients, an exact FLOP cost model,
tracklet re-detect/link alignment, and revised re-id evaluation tooling."""

from .attention import (
    AttentionConfig,
    cfaa_forward,
    nonlocal_3d_forward,
    sinusoidal_encode,
)
from .evaluate import EvalDataset, LabelCorrections, TrackletMeta
from .flops import attention_flops, backbone_flops, model_table
from .tensor import Rng, load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "EvalDataset",
    "LabelCorrections",
    "Rng",
    "TrackletMeta",
    "attention_flops",
    "backbone_flops",
    "cfaa_forward",
    "load_tensor",
    "model_table",
    "nonlocal_3d_forward",
    "save_tensor",
    "sinusoidal_encode",
]
