import sys

import numpy as np
import pytest

import test_toytrain
from axialreid import aggregation as agg
from axialreid import attention as att
from axialreid import gradcheck as gc
from axialreid import toytrain as tt
from axialreid.errors import ConfigurationError
from axialreid.tensor import Rng

SEEDS = range(5)


# bounds tighter than gc.REL_TOL for rows whose finite differences carry little truncation error
TIGHT_BOUNDS = {"conv2d": 1e-6, "masked_avg_pool": 1e-6, "cross_entropy": 1e-6, "batchnorm": 1e-5}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(gc.ALL_CHECKS))
def test_row_matches_finite_differences(name, seed):
    res = gc.check(name, seed)
    bound = TIGHT_BOUNDS.get(name, gc.REL_TOL)
    assert res.worst_rel_err < bound, f"{res.op} seed {seed}: {res.worst_param} err {res.worst_rel_err:.2e} >= {bound}"


# analytic backward passes that no row reaches -> the test that checks them against finite differences
COVERED_BY_TEST = {tt.ToyModel.backward: test_toytrain.TestLayers.test_model_backward_matches_fd_on_conv0}


def test_every_backward_has_a_row_or_a_test():
    targets = [cls.backward for cls in tt.Layer.__subclasses__()] + [tt.ToyModel.backward] + [
        getattr(mod, n) for mod in (att, agg) for n in dir(mod) if n.endswith("_backward") and not n.startswith("_")]
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(record)
    try:
        for row in gc.ALL_CHECKS.values():
            _, _, forward, backward = row(Rng(0))
            backward(np.ones(np.shape(forward())))
    finally:
        sys.setprofile(None)
    missing = [f.__qualname__ for f in targets if f.__code__ not in reached and f not in COVERED_BY_TEST]
    assert not missing, f"no gradcheck row or listed test covers {missing}"


def test_fd_on_2x3x4x2_input_all_parameters():
    # the canonical finite-difference case: one relative axial layer of the core
    # along H on a 2-channel 3x4x2 volume, step 1e-5
    rng = Rng(42)
    cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, encoding="relative", axis_lengths=(3, 4, 2))
    params = att.init_axial_layer(cfg, 2, 4, rng.child(0))
    x = rng.child(1).normal((2, 3, 4, 2))
    g = rng.child(2).normal((2, 3, 4, 2))

    def loss():
        return float(np.sum(g * att._axial_core_forward(x, params, "H", 1, "relative")[0]))

    _, cache = att._axial_core_forward(x, params, "H", 1, "relative")
    d_x, grads = att._axial_core_backward(g, params, cache)
    for name, analytic in [("x", d_x), *grads.items()]:
        target = x if name == "x" else params[name]
        err = gc.rel_error(analytic, gc.fd_gradient(loss, target))
        assert err < 1e-4, f"{name}: {err:.2e}"


def test_zero_upstream_gives_zero_bundle():
    rng = Rng(0)
    cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2,
                              encoding="relative", axis_lengths=(2, 4, 2))
    params = att.init_cfaa_params(cfg, rng.child(0))
    x = rng.child(1).normal((4, 2, 4, 2))
    _, cache = att.cfaa_forward(x, params, cfg)
    d_x, grads = att.cfaa_backward(np.zeros_like(x), params, cache)
    assert not d_x.any()
    for g in grads.values():
        assert not g.any()


def test_frozen_zero_projection_passes_upstream_through():
    # residual path only: with w_o = 0 the input gradient equals the upstream
    # gradient plus the (zero-projected) attention branch contribution of 0
    rng = Rng(1)
    cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
    params = att.init_cfaa_params(cfg, rng.child(0))
    params["w_o"] = np.zeros_like(params["w_o"])
    x = rng.child(1).normal((4, 2, 2, 2))
    g = rng.child(2).normal(x.shape)
    _, cache = att.cfaa_forward(x, params, cfg)
    d_x, _ = att.cfaa_backward(g, params, cache)
    np.testing.assert_array_equal(d_x, g)


def test_upstream_shape_mismatch_rejected():
    rng = Rng(2)
    cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(2, 2, 2))
    params = att.init_nonlocal_params(cfg, rng.child(0))
    x = rng.child(1).normal((3, 2, 2, 2))
    _, cache = att.nonlocal_3d_forward(x, params, cfg)
    with pytest.raises(Exception, match="shape"):
        att.nonlocal_3d_backward(np.zeros((3, 2, 2, 3)), params, cache)


@pytest.mark.parametrize("name", list(gc.ALL_CHECKS))
def test_fault_injection_is_caught(name):
    assert not gc.check(name, 0, perturb=True).passed


def attention_cases():
    """op -> ((out, cache) of a valid forward, backward, params) for the two attention ops."""
    rng = Rng(3)
    x = rng.child(0).normal((4, 2, 4, 2))
    cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2, encoding="relative", axis_lengths=(2, 4, 2))
    cfaa = att.init_cfaa_params(cfg, rng.child(1))
    nl_cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 4, 2))
    nl = att.init_nonlocal_params(nl_cfg, rng.child(3))
    return {
        "cfaa": (att.cfaa_forward(x, cfaa, cfg), att.cfaa_backward, cfaa),
        "nonlocal3d": (att.nonlocal_3d_forward(x, nl, nl_cfg), att.nonlocal_3d_backward, nl),
    }


def test_attention_backwards_share_one_signature():
    # every attention backward is (d_out, params, cache) -> (d_x, gradients named like params)
    for (out, cache), backward, params in attention_cases().values():
        d_x, grads = backward(np.ones_like(out), params, cache)
        assert d_x.shape == (4, 2, 4, 2) and list(grads) == list(params)
        assert all(grads[n].shape == p.shape for n, p in params.items())


# per op, a name its forward checked, left out of the params its backward gets
DROPPED = {"cfaa": "scale1.aa_t.r_v", "nonlocal3d": "w_o"}


@pytest.mark.parametrize("op", list(DROPPED))
def test_backward_rejects_a_name_the_forward_did_not_check(op):
    (out, cache), backward, params = attention_cases()[op]
    with pytest.raises(ConfigurationError, match=r"unknown parameter 'bias'"):
        backward(np.ones_like(out), {**params, "bias": np.zeros(4)}, cache)


@pytest.mark.parametrize("op", list(DROPPED))
def test_backward_rejects_a_missing_name_the_forward_checked(op):
    (out, cache), backward, params = attention_cases()[op]
    short = {k: v for k, v in params.items() if k != DROPPED[op]}
    with pytest.raises(ConfigurationError, match=rf"\b{DROPPED[op]}\b"):
        backward(np.ones_like(out), short, cache)
