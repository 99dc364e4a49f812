"""Axial-attention kernels with analytic gradients, an exact FLOP cost model,
tracklet re-detect/link alignment, and revised re-id evaluation tooling."""
