"""Each argument rule is written once: ``tensor.as_int`` for every count, seed
and key, and ``cli._mode_flags`` for a flag that a command's mode does not read;
every error the package raises is one of two classes; and the package root
binds no name, so that each is imported from its own module."""

import ast
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import axialreid
from axialreid import attention as att
from axialreid import cli, flops
from axialreid import evaluate as ev
from axialreid import gradcheck as gc
from axialreid import toytrain as tt
from axialreid.errors import ValidationError
from axialreid.tensor import (Rng, as_int, avg_pool_2d, avg_pool_2d_adjoint, upsample_nearest_2d,
                               upsample_nearest_2d_adjoint)

SRC = Path(axialreid.__file__).parent
SPEC = tt.ToyModelSpec(channels=(8, 16, 16), num_classes=2, attention=("none",))
CONFIG = dict(c_in=4, c_qk=4, c_out=4, heads=1, scales=1, axis_lengths=(2, 4, 4))
# one query, two gallery entries: a CMC of two ranks
EVAL = ev.EvalDataset(queries=[ev.TrackletMeta(tid=1, identity=5, camera=0)],
                      gallery=[ev.TrackletMeta(tid=2, identity=6, camera=1),
                               ev.TrackletMeta(tid=3, identity=5, camera=1)],
                      distances=np.array([[0.1, 0.2]]))


def dataset(**counts):
    return tt.SyntheticIdentityDataset(**dict(num_ids=2, tracklets_per_id=2, frames_per_tracklet=4, seed=0) | counts)


def train(**args):
    return tt.train(SPEC, dataset(), **dict(epochs=1, seed=0, p_ids=2, k_tracks=2) | args)


# site -> (call with the value, name in the message, lowest value, a valid value)
SITES = {
    "Rng-seed": (Rng, "seed", 0, 3),
    "avg_pool_2d-factor": (lambda v: avg_pool_2d(np.ones((4, 4)), v), "pooling factor", 1, 2),
    "avg_pool_2d_adjoint-factor": (lambda v: avg_pool_2d_adjoint(np.ones((2, 2)), v, (4, 4)), "pooling factor", 1, 2),
    "upsample_nearest_2d-factor": (lambda v: upsample_nearest_2d(np.ones((4, 4)), v, (8, 8)),
                                   "upsampling factor", 1, 2),
    "upsample_nearest_2d_adjoint-factor": (lambda v: upsample_nearest_2d_adjoint(np.ones((8, 8)), v, (4, 4)),
                                           "upsampling factor", 1, 2),
    "Rng.child-key": (lambda v: Rng(0).child(1, v), "child key", 0, 3),
    "backbone_flops-frames": (lambda v: flops.backbone_flops(frames=v), "frames", 1, 6),
    "backbone_flops-last_stride": (lambda v: flops.backbone_flops(last_stride=v), "last_stride", 1, 2),
    "attention_flops-scales": (lambda v: flops.attention_flops("cfaa", scales=v), "scales", 1, 2),
    "attention_flops-frames": (lambda v: flops.attention_flops("axial", frames=v), "frames", 1, 6),
    "AttentionConfig-heads": (lambda v: att.AttentionConfig(**CONFIG | dict(heads=v)), "heads", 1, 1),
    "AttentionConfig-W": (lambda v: att.AttentionConfig(**CONFIG | dict(axis_lengths=(2, 4, v))),
                          "axis length W", 1, 4),
    "cli-trials": (lambda v: cli._check_minimums(Namespace(trials=v), trials=1), "--trials", 1, 5),
    "train-epochs": (lambda v: train(epochs=v), "epochs", 0, 1),
    "train-p_ids": (lambda v: train(p_ids=v), "p_ids", 2, 2),
    "train-k_tracks": (lambda v: train(k_tracks=v), "k_tracks", 2, 2),
    "train-seed": (lambda v: train(seed=v), "seed", 0, 0),
    "dataset-num_ids": (lambda v: dataset(num_ids=v), "num_ids", 1, 2),
    "dataset-tracklets_per_id": (lambda v: dataset(tracklets_per_id=v), "tracklets_per_id", 1, 2),
    "dataset-frames_per_tracklet": (lambda v: dataset(frames_per_tracklet=v), "frames_per_tracklet", 1, 4),
    "dataset-seed": (lambda v: dataset(seed=v), "seed", 0, 0),
    "evaluate-max_rank": (lambda v: ev.evaluate(EVAL, "old", v), "max_rank", 1, 1),
    "cmc_at-k": (lambda v: ev.evaluate(EVAL, "old").cmc_at(v), "CMC rank", 1, 2),
    "run_gradient_checks-seeds": (lambda v: gc.run_gradient_checks(seeds=[v]), "seed", 0, 0),
    "chance_baseline-seeds": (lambda v: tt.chance_baseline(SPEC, dataset(), seeds=[v]), "seed", 0, 3),
}
# the range checks of last_stride and cmc_at name every value they accept
BELOW = {"backbone_flops-last_stride": "last_stride must be 1 or 2, got 0",
         "cmc_at-k": "CMC rank 0 is not among the curve's ranks 1..2"}


@pytest.mark.parametrize("site", list(SITES))
@pytest.mark.parametrize("value", [1.9, -0.5, "2"], ids=["float", "negative-float", "str"])
def test_non_integer_rejected(site, value):
    call, name, _, _ = SITES[site]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("site", list(SITES))
def test_value_below_the_lowest_rejected(site):
    call, name, low, _ = SITES[site]
    with pytest.raises(ValidationError) as info:
        call(low - 1)
    assert str(info.value) == BELOW.get(site, f"{name} must be at least {low}, got {low - 1}")


@pytest.mark.parametrize("site", list(SITES))
def test_numpy_integer_accepted(site):
    call, _, _, valid = SITES[site]
    call(np.int64(valid))


def test_as_int_returns_a_python_int():
    n = as_int(np.uint64(2**63), "count", 1)
    assert type(n) is int and n == 2**63


class _IndexCalls(ast.NodeVisitor):
    """The enclosing function of each use of operator.index in a module."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "operator":
            self.found.append("from operator import")


def test_operator_index_runs_only_in_as_int():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _IndexCalls()
        visitor.visit(ast.parse(path.read_text()))
        found += [f"{path.stem}.{scope}" for scope in visitor.found]
    assert found == ["tensor.as_int"]


def test_one_has_no_effect_message():
    counts = {path.name: path.read_text().count("has no effect with") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}


def _raised_name(node):
    """The class a raise statement names, or None for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc and (exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))


def test_two_error_classes():
    errors = ast.parse((SRC / "errors.py").read_text())
    assert [node.name for node in errors.body if isinstance(node, ast.ClassDef)] == ["ValidationError", "NumericalError"]
    raised = {f"{path.stem}:{node.lineno}": _raised_name(node) for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)}
    assert {site: name for site, name in raised.items() if name not in ("ValidationError", "NumericalError", None)} == {}


def test_package_root_holds_only_its_docstring():
    # every name is imported from its own module (axialreid.attention, ...):
    # a re-export at the root would bind it a second time
    root = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(root) and len(root.body) == 1
