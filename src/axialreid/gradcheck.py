"""Central finite-difference verification of the analytic backward passes.

Each registered op builds its inputs from a seed and hands one comparison a
scalar probe and the analytic gradient of every tensor the probe reads. For
attention ops the probe is sum(g * f(x, params)) for a fixed random upstream
g, so its analytic gradient is exactly what backward(g, params, cache)
returns; for losses the probe is the loss itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import aggregation as agg
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


def fd_gradient(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def _attention_case(forward, backward, params, x: np.ndarray, g: np.ndarray):
    """Probe sum(g * forward(x)) of an attention op; ``forward(want_cache)``
    runs the op on x and params, which the finite differences perturb in place."""
    _, cache = forward(True)
    d_x, grads = backward(g, params, cache)
    tensors = {"x": x, **dict(params.named())}
    analytic = {"x": d_x, **dict(grads.named())}
    return tensors, lambda: float(np.sum(g * forward(False))), analytic


def _nonlocal(rng: Rng):
    cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(2, 2, 2))
    params = att.init_nonlocal_params(cfg, rng.child(0))
    x = rng.child(1).normal((cfg.c_in, *cfg.axis_lengths))
    return "nonlocal_3d", _attention_case(
        lambda want_cache: att.nonlocal_3d_forward(x, params, cfg, want_cache),
        att.nonlocal_3d_backward, params, x, rng.child(2).normal(x.shape))


def _axial(rng: Rng, encoding: str):
    cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, encoding=encoding, axis_lengths=(2, 3, 2))
    axis = ("H", "W", "T")[rng.seed % 3]
    params = att.init_axial_layer(cfg, cfg.c_in, dict(T=2, H=3, W=2)[axis], rng.child(0))
    x = rng.child(1).normal((cfg.c_in, *cfg.axis_lengths))
    return f"axial[{encoding}]", _attention_case(
        lambda want_cache: att.axial_forward(x, params, axis, cfg, want_cache),
        att.axial_backward, params, x, rng.child(2).normal((cfg.c_out, *cfg.axis_lengths)))


def _cfaa(rng: Rng):
    cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=1, scales=2, encoding="relative", axis_lengths=(2, 4, 2))
    params = att.init_cfaa_params(cfg, rng.child(0))
    x = rng.child(1).normal((cfg.c_in, *cfg.axis_lengths))
    return "cfaa", _attention_case(
        lambda want_cache: att.cfaa_forward(x, params, cfg, want_cache),
        att.cfaa_backward, params, x, rng.child(2).normal(x.shape))


def _loss_case(loss, x: np.ndarray):
    """Probe the loss itself; ``loss()`` returns (value, d_x) on the current x."""
    return {"x": x}, lambda: loss()[0], {"x": loss()[1]}


def _triplet(rng: Rng):
    feats = rng.child(0).normal((8, 5))
    labels = np.repeat(np.arange(4), 2)
    return "triplet", _loss_case(lambda: agg.batch_hard_triplet(feats, labels, margin=0.3), feats)


def _cross_entropy(rng: Rng):
    logits = rng.child(0).normal((6, 5))
    labels = rng.child(1).integers(0, 5, (6,))
    return "cross_entropy", _loss_case(lambda: agg.cross_entropy(logits, labels), logits)


# name -> builder: Rng -> (op label, (tensors, probe, analytic gradients))
ALL_CHECKS = {
    "nonlocal_3d": _nonlocal,
    "axial": lambda rng: _axial(rng, "sinusoidal" if rng.seed % 2 else "none"),
    "axial_ps": lambda rng: _axial(rng, "relative"),
    "cfaa": _cfaa,
    "triplet": _triplet,
    "cross_entropy": _cross_entropy,
}


def check(name: str, seed: int, perturb: bool = False) -> CheckResult:
    """Compare the analytic gradients of a registered op against finite
    differences for every tensor; ``perturb`` corrupts the analytic side."""
    op, (tensors, probe, analytic) = ALL_CHECKS[name](Rng(seed))
    worst_name, worst = "", 0.0
    for pname, arr in tensors.items():
        a = analytic[pname]
        if perturb:
            a = a + 1e-2 * (np.abs(a).max() + 1.0)
        err = rel_error(a, fd_gradient(probe, arr))
        if err > worst:
            worst_name, worst = pname, err
    return CheckResult(op=op, seed=seed, worst_param=worst_name, worst_rel_err=worst)


def run_gradient_checks(seeds=range(5), perturb: bool = False) -> list[CheckResult]:
    """Run every registered check on every seed; returns all results."""
    return [check(name, int(seed), perturb) for name in ALL_CHECKS for seed in seeds]
