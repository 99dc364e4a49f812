"""Central finite-difference verification of the analytic backward passes.

Every row builds its inputs from ``Rng(seed)`` and returns (op label,
tensors, forward, backward): the tensors that the finite differences perturb
in place, by name; ``forward()``, which runs the op on them; and
``backward(g)``, which returns the analytic gradient of sum(g * forward())
for every tensor by name. ``check`` draws g, shaped like the output, from
child 2 of the seed's stream, so a row draws only from children 0 and 1. A
loss is a row whose forward() is a scalar.

The rows:
  conv2d, batchnorm, relu, cfaa, cfaa1, nonlocal_3d
      toytrain layers through the layer protocol (forward(x, training=True),
      backward, named_params, named_grads). The attention rows are
      AttentionLayers with a non-zero w_o: cfaa is CF-AA at 2 scales over 2
      clips, cfaa1 CF-AA at one scale (one axial block) on one clip, both
      with the encoding rotating with the seed, and nonlocal_3d the 3D
      self-attention on one clip
  masked_avg_pool                the head's masked pooling
  triplet, cross_entropy         the two training losses
What stays under tests: the whole ToyModel backward (as a row it takes 1-2 s
per seed even on a 500-parameter spec) and the canonical 2x3x4x2 case of
the axial core on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import aggregation as agg
from . import toytrain as tt
from .tensor import Rng

FD_STEP = 1e-5
REL_TOL = 1e-4


@dataclass
class CheckResult:
    op: str
    seed: int
    worst_param: str
    worst_rel_err: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err < REL_TOL


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, 1e-3)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise, with step FD_STEP."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = f()
        flat[i] = orig - FD_STEP
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * FD_STEP)
    return g


def _layer(op: str, layer: tt.Layer, x: np.ndarray):
    """A toytrain layer on input x, through the layer protocol; its parameters
    are named under the op label without the bracketed variant."""
    prefix = op.partition("[")[0]

    def backward(g):
        return {"x": layer.backward(g), **dict(layer.named_grads(prefix))}

    return op, {"x": x, **dict(layer.named_params(prefix))}, lambda: layer.forward(x, training=True), backward


def _conv2d(rng: Rng):
    stride = 1 + rng.seed % 2
    return _layer(f"conv2d[s{stride}]", tt.Conv2d(2, 3, stride, rng.child(0)), rng.child(1).normal((2, 2, 6, 4)))


def _batchnorm(rng: Rng):
    shape = (6, 4) if rng.seed % 2 else (3, 4, 4, 2)
    bn = tt.BatchNorm(4)
    bn.gamma = rng.child(0).uniform(0.5, 1.5, (4,))
    bn.beta = rng.child(0, 1).normal((4,))
    return _layer(f"batchnorm[{len(shape)}d]", bn, rng.child(1).normal(shape))


def _attention(op: str, kind: str, cfg: att.AttentionConfig, clips: int, rng: Rng):
    """An AttentionLayer over clips clips, with a non-zero w_o: the zero one the
    layer starts with would hide the attention branch."""
    layer = tt.AttentionLayer(kind, cfg, rng.child(0))
    layer.params["w_o"] = rng.child(0, 1).uniform_init(layer.params["w_o"].shape, cfg.c_out)
    t, h, w = cfg.axis_lengths
    return _layer(op, layer, rng.child(1).normal((clips * t, cfg.c_in, h, w)))


def _cfaa(rng: Rng):
    encoding = att.ENCODINGS[rng.seed % 3]
    cfg = att.AttentionConfig(c_in=4, c_qk=8, c_out=4, heads=2, scales=2, encoding=encoding, axis_lengths=(2, 4, 2))
    return _attention(f"cfaa[{encoding}]", "cfaa", cfg, 2, rng)


def _cfaa1(rng: Rng):
    encoding = att.ENCODINGS[rng.seed % 3]
    cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=1, encoding=encoding, axis_lengths=(2, 3, 2))
    return _attention(f"cfaa1[{encoding}]", "cfaa", cfg, 1, rng)


def _nonlocal(rng: Rng):
    cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(2, 2, 2))
    return _attention("nonlocal_3d", "nonlocal3d", cfg, 1, rng)


def _masked_avg_pool(rng: Rng):
    f = rng.child(0).normal((2, 3, 2, 2))
    m = (rng.child(1).uniform(0, 1, (2, 2, 2)) < 0.7).astype(np.float64)
    m[:, 0, 0] = 1.0  # no fully invalid frame
    return ("masked_avg_pool", {"x": f}, lambda: agg.masked_avg_pool(f, m),
            lambda g: {"x": agg.masked_avg_pool_backward(g, m)})


def _triplet(rng: Rng):
    feats = rng.child(0).normal((8, 5))
    labels = np.repeat(np.arange(4), 2)
    return ("triplet", {"x": feats}, lambda: agg.batch_hard_triplet(feats, labels)[0],
            lambda g: {"x": g * agg.batch_hard_triplet(feats, labels)[1]})


def _cross_entropy(rng: Rng):
    logits = rng.child(0).normal((6, 5))
    labels = rng.child(1).integers(0, 5, (6,))
    return ("cross_entropy", {"x": logits}, lambda: agg.cross_entropy(logits, labels)[0],
            lambda g: {"x": g * agg.cross_entropy(logits, labels)[1]})


# name -> row: Rng -> (op label, tensors, forward, backward)
ALL_CHECKS = {
    "conv2d": _conv2d,
    "batchnorm": _batchnorm,
    "relu": lambda rng: _layer("relu", tt.ReLU(), rng.child(0).normal((2, 3, 4, 2))),
    "masked_avg_pool": _masked_avg_pool,
    "cfaa": _cfaa,
    "cfaa1": _cfaa1,
    "nonlocal_3d": _nonlocal,
    "triplet": _triplet,
    "cross_entropy": _cross_entropy,
}


def check(name: str, seed: int, perturb: bool = False) -> CheckResult:
    """Compare backward(g) of a registered row against the finite differences
    of sum(g * forward()) for every tensor; ``perturb`` corrupts the analytic side."""
    rng = Rng(seed)
    op, tensors, forward, backward = ALL_CHECKS[name](rng)
    g = rng.child(2).normal(np.shape(forward()))
    analytic = backward(g)
    worst_name, worst = "", 0.0
    for pname, arr in tensors.items():
        a = analytic[pname]
        if perturb:
            a = a + 1e-2 * (np.abs(a).max() + 1.0)
        err = rel_error(a, fd_gradient(lambda: float(np.sum(g * forward())), arr))
        if err > worst:
            worst_name, worst = pname, err
    return CheckResult(op=op, seed=seed, worst_param=worst_name, worst_rel_err=worst)


def run_gradient_checks(seeds=range(5), perturb: bool = False) -> list[CheckResult]:
    """Run every registered check on every seed; returns all results."""
    return [check(name, int(seed), perturb) for name in ALL_CHECKS for seed in seeds]
