import hashlib
import inspect
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid import attention as att
from axialreid.errors import ValidationError
from axialreid.tensor import Rng
from helpers import (reference_gather_offsets, reference_nonlocal_params, reference_scatter_offsets,
                     reference_softmax, reference_softmax_backward)


def softmax_1d(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def nonlocal_oracle(x, params):
    """Brute force: loop over every output position, attend to every position."""
    c, t, h, w = x.shape
    positions = [(a, b, d) for a in range(t) for b in range(h) for d in range(w)]
    q = {p: params["w_q"] @ x[:, p[0], p[1], p[2]] for p in positions}
    k = {p: params["w_k"] @ x[:, p[0], p[1], p[2]] for p in positions}
    v = {p: params["w_v"] @ x[:, p[0], p[1], p[2]] for p in positions}
    out = np.zeros_like(x)
    for o in positions:
        logits = np.array([q[o] @ k[p] for p in positions])
        attn = softmax_1d(logits)
        y = sum(attn[i] * v[p] for i, p in enumerate(positions))
        out[:, o[0], o[1], o[2]] = x[:, o[0], o[1], o[2]] + params["w_o"] @ y
    return out


def dense_line_attention_oracle(line, w_q, w_k, w_v, r_q=None, r_k=None, r_v=None):
    """Single-head attention over one line of column vectors (c, L), via loops."""
    length = line.shape[1]
    q = [w_q @ line[:, i] for i in range(length)]
    k = [w_k @ line[:, i] for i in range(length)]
    v = [w_v @ line[:, i] for i in range(length)]
    out = np.zeros((w_v.shape[0], length))
    for i in range(length):
        logits = np.empty(length)
        for j in range(length):
            logits[j] = q[i] @ k[j]
            if r_q is not None:
                off = j - i + length - 1
                logits[j] += q[i] @ r_q[off] + k[j] @ r_k[off]
        attn = softmax_1d(logits)
        acc = np.zeros(w_v.shape[0])
        for j in range(length):
            vj = v[j].copy()
            if r_v is not None:
                vj += r_v[j - i + length - 1]
            acc += attn[j] * vj
        out[:, i] = acc
    return out


def scatter_offsets_oracle(grad_full, length):
    """Loop form of the offset-table adjoint: row j - i + L - 1 sums grad_full[i, j]."""
    out = np.zeros((2 * length - 1, grad_full.shape[-1]))
    for i in range(length):
        for j in range(length):
            out[j - i + length - 1] += grad_full[i, j]
    return out


ORACLE_AXIS = {"T": 1, "H": 2, "W": 3}


def einsum_core_forward(x, p, axis, heads, encoding):
    """Reference axial core on one (c_x, T, H, W) volume: the einsum kernel the
    matmul core replaced, with (heads, d, b, L) operands."""
    ax = ORACLE_AXIS[axis]
    c_x, ext = x.shape[0], x.shape
    length = ext[ax]
    xl = np.moveaxis(x, ax, -1).reshape(c_x, -1, length)
    b = xl.shape[1]
    cqk, cout = p["w_q"].shape[0], p["w_v"].shape[0]
    dq, dv = cqk // heads, cout // heads
    q = np.einsum("ac,cbl->abl", p["w_q"], xl).reshape(heads, dq, b, length)
    k = np.einsum("ac,cbl->abl", p["w_k"], xl).reshape(heads, dq, b, length)
    v = np.einsum("ac,cbl->abl", p["w_v"], xl).reshape(heads, dv, b, length)
    if encoding == "sinusoidal":
        enc = att.sinusoidal_encode(length, dq).T
        q = q + enc[None, :, None, :]
        k = k + enc[None, :, None, :]
    logits = np.einsum("mdbi,mdbj->mbij", q, k)
    rq = rk = rv = None
    if encoding == "relative":
        rq, rk, rv = (att._gather_offsets(p[t], length) for t in ("r_q", "r_k", "r_v"))
        logits = logits + np.einsum("mdbi,ijd->mbij", q, rq) + np.einsum("mdbj,ijd->mbij", k, rk)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    y = np.einsum("mbij,mdbj->mdbi", attn, v)
    if encoding == "relative":
        y = y + np.einsum("mbij,ijd->mdbi", attn, rv)
    out = y.reshape(cout, b, length)
    out = np.moveaxis(out.reshape([cout] + [ext[i] for i in range(1, 4) if i != ax] + [length]), -1, ax)
    cache = dict(xl=xl, q=q, k=k, v=v, attn=attn, rq=rq, rk=rk, rv=rv, axis=ax, length=length, b=b, heads=heads, ext=ext)
    return np.ascontiguousarray(out), cache


def einsum_core_backward(d_out, p, cache):
    """Backward of einsum_core_forward: (d_x, gradients named like p)."""
    ax, length, b, heads, ext = cache["axis"], cache["length"], cache["b"], cache["heads"], cache["ext"]
    xl, q, k, v, attn = cache["xl"], cache["q"], cache["k"], cache["v"], cache["attn"]
    rq, rk, rv = cache["rq"], cache["rk"], cache["rv"]
    cqk, cout, dv = p["w_q"].shape[0], p["w_v"].shape[0], v.shape[1]
    dy = np.moveaxis(d_out, ax, -1).reshape(cout, b, length).reshape(heads, dv, b, length)
    d_attn = np.einsum("mebi,mebj->mbij", dy, v)
    if rv is not None:
        d_attn = d_attn + np.einsum("mebi,ije->mbij", dy, rv)
    d_v = np.einsum("mbij,mebi->mebj", attn, dy)
    d_logits = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
    d_q = np.einsum("mbij,mdbj->mdbi", d_logits, k)
    d_k = np.einsum("mbij,mdbi->mdbj", d_logits, q)
    tables = {}
    if rq is not None:
        d_q = d_q + np.einsum("mbij,ijd->mdbi", d_logits, rq)
        d_k = d_k + np.einsum("mbij,ijd->mdbj", d_logits, rk)
        tables["r_q"] = att._scatter_offsets(np.einsum("mbij,mdbi->ijd", d_logits, q), length)
        tables["r_k"] = att._scatter_offsets(np.einsum("mbij,mdbj->ijd", d_logits, k), length)
        tables["r_v"] = att._scatter_offsets(np.einsum("mbij,mebi->ije", attn, dy), length)
    d_q, d_k, d_v = d_q.reshape(cqk, b, length), d_k.reshape(cqk, b, length), d_v.reshape(cout, b, length)
    grads = {n: np.einsum("abl,cbl->ac", d, xl) for n, d in (("w_q", d_q), ("w_k", d_k), ("w_v", d_v))}
    grads.update(tables)
    d_xl = sum(np.einsum("ac,abl->cbl", p[n], d) for n, d in (("w_q", d_q), ("w_k", d_k), ("w_v", d_v)))
    d_x = np.moveaxis(d_xl.reshape([xl.shape[0]] + [ext[i] for i in range(1, 4) if i != ax] + [length]), -1, ax)
    return np.ascontiguousarray(d_x), grads


def axial_out(x, params, axis, cfg):
    """One axial layer on x through the core, with cfg's heads and encoding."""
    return att._axial_core_forward(x, params, axis, cfg.heads, cfg.encoding)[0]


def scaled_error(a, ref):
    """max |a - ref| relative to the largest |ref| (0 when both are all zero):
    the matmul and einsum summation orders differ by ~1e-16 of the scale."""
    top = np.max(np.abs(ref))
    return float(np.max(np.abs(a - ref)) / top) if top else float(np.max(np.abs(a)))


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            att.AttentionConfig(c_in=6, c_qk=4, c_out=6, heads=1, scales=4, axis_lengths=(2, 8, 8))
        with pytest.raises(ValidationError):
            att.AttentionConfig(c_in=4, c_qk=3, c_out=4, heads=2, axis_lengths=(2, 2, 2))

    def test_min_spatial_extent_per_scale(self):
        with pytest.raises(ValidationError):
            att.AttentionConfig(c_in=6, c_qk=6, c_out=6, scales=3, axis_lengths=(2, 4, 3))
        att.AttentionConfig(c_in=6, c_qk=6, c_out=6, scales=3, axis_lengths=(2, 4, 4))

    @pytest.mark.parametrize("field, value, message", [
        ("scales", 2.0, "scales must be an integer, got 2.0"),
        ("heads", np.float64(1.0), "heads must be an integer, got np.float64(1.0)"),
        ("c_in", "4", "c_in must be an integer, got '4'"),
        ("c_qk", 0, "c_qk must be at least 1, got 0"),
        ("c_out", -4, "c_out must be at least 1, got -4"),
        ("axis_lengths", (2, 4.0, 4), "axis length H must be an integer, got 4.0"),
        ("axis_lengths", (2, 0, 4), "axis length H must be at least 1, got 0"),
        ("axis_lengths", (2, 4), "axis_lengths must hold 3 entries (T, H, W), got (2, 4)"),
        ("axis_lengths", (2, 4, 4, 1), "axis_lengths must hold 3 entries (T, H, W), got (2, 4, 4, 1)"),
        ("axis_lengths", 4, "axis_lengths must hold 3 entries (T, H, W), got 4"),
    ])
    def test_bad_count_rejected_naming_the_field(self, field, value, message):
        fields = dict(c_in=4, c_qk=4, c_out=4, heads=1, scales=1, axis_lengths=(2, 4, 4)) | {field: value}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            att.AttentionConfig(**fields)

    def test_numpy_integer_counts_accepted(self):
        cfg = att.AttentionConfig(c_in=np.int64(4), c_qk=4, c_out=4, scales=np.int32(2), axis_lengths=(2, np.int64(4), 4))
        assert cfg.scale_extents(1) == (2, 2, 2)

    def test_unknown_encoding(self):
        with pytest.raises(ValidationError):
            att.AttentionConfig(c_in=2, c_qk=2, c_out=2, encoding="learned", axis_lengths=(1, 1, 1))

    def test_odd_per_head_width_rejected_with_sinusoidal(self):
        # c_qk 4 over 2 scales and 2 heads leaves 1 q/k channel per head, too few for sin/cos pairs
        with pytest.raises(ValidationError, match="even per-head q/k width, got 1"):
            att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2, encoding="sinusoidal", axis_lengths=(2, 4, 2))
        att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2, encoding="relative", axis_lengths=(2, 4, 2))


class TestSinusoidal:
    def test_position_zero_pattern(self):
        table = att.sinusoidal_encode(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=0)

    def test_positions_distinct(self):
        table = att.sinusoidal_encode(5, 8)
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(table[i], table[j])

    def test_deterministic(self):
        assert np.array_equal(att.sinusoidal_encode(7, 10), att.sinusoidal_encode(7, 10))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValidationError):
            att.sinusoidal_encode(4, 5)


class TestNonlocal3d:
    def cfg(self, t=2, h=2, w=2):
        return att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(t, h, w))

    def test_single_position(self):
        cfg = self.cfg(1, 1, 1)
        params = att.init_nonlocal_params(cfg, Rng(0))
        x = Rng(1).normal((3, 1, 1, 1))
        out, _ = att.nonlocal_3d_forward(x, params, cfg)
        expected = x[:, 0, 0, 0] + params["w_o"] @ (params["w_v"] @ x[:, 0, 0, 0])
        np.testing.assert_allclose(out[:, 0, 0, 0], expected, atol=1e-15)

    def test_permutation_equivariance(self):
        cfg = self.cfg()
        params = att.init_nonlocal_params(cfg, Rng(2))
        x = Rng(3).normal((3, 2, 2, 2))
        perm = Rng(4).permutation(8)
        xp = x.reshape(3, 8)[:, perm].reshape(x.shape)
        out = att.nonlocal_3d_forward(x, params, cfg)[0].reshape(3, 8)
        outp = att.nonlocal_3d_forward(xp, params, cfg)[0].reshape(3, 8)
        np.testing.assert_allclose(outp, out[:, perm], atol=1e-12)

    def test_against_pairwise_oracle(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 2, 2))
        params = att.init_nonlocal_params(cfg, Rng(5))
        x = Rng(6).normal((2, 2, 2, 2))
        out, _ = att.nonlocal_3d_forward(x, params, cfg)
        assert np.max(np.abs(out - nonlocal_oracle(x, params))) < 1e-12

    @pytest.mark.parametrize("c_in, c_qk, c_out, extents, seed", [
        (3, 2, 3, (2, 2, 2), 0), (32, 16, 32, (4, 16, 8), 7), (4, 6, 2, (1, 3, 5), 11), (2, 2, 2, (1, 1, 1), 3),
    ])
    def test_init_is_one_axial_layer_plus_output_projection(self, c_in, c_qk, c_out, extents, seed):
        # the draw of each projection from its own child stream, bit for bit
        cfg = att.AttentionConfig(c_in=c_in, c_qk=c_qk, c_out=c_out, axis_lengths=extents)
        params, want = att.init_nonlocal_params(cfg, Rng(seed)), reference_nonlocal_params(cfg, Rng(seed))
        assert list(params) == list(want)
        for name, a in params.items():
            assert a.shape == want[name].shape and np.array_equal(a, want[name]), name

    def test_multihead_rejected(self):
        # at init, and at forward with params drawn for a one-head config
        one_head = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, axis_lengths=(1, 1, 1))
        cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, axis_lengths=(1, 1, 1))
        with pytest.raises(ValidationError, match="single head"):
            att.init_nonlocal_params(cfg, Rng(0))
        with pytest.raises(ValidationError, match="single head"):
            att.nonlocal_3d_forward(np.ones((4, 1, 1, 1)), att.init_nonlocal_params(one_head, Rng(0)), cfg)

    def test_shape_mismatch(self):
        cfg = self.cfg()
        params = att.init_nonlocal_params(cfg, Rng(0))
        with pytest.raises(ValidationError):
            att.nonlocal_3d_forward(np.ones((3, 2, 2, 3)), params, cfg)


class TestModuleLayers:
    def test_tables_written_out(self):
        # c_in != c_out, and odd H that scale 1 rounds up
        cfg = att.AttentionConfig(c_in=6, c_qk=6, c_out=4, scales=2, axis_lengths=(3, 5, 4))
        assert att.module_layers("cfaa", cfg) == [
            (1, [("scale0.aa_h.", "H", 3, 5), ("scale0.aa_w.", "W", 2, 4), ("scale0.aa_t.", "T", 2, 3)]),
            (2, [("scale1.aa_h.", "H", 3, 3), ("scale1.aa_w.", "W", 2, 2), ("scale1.aa_t.", "T", 2, 3)]),
        ]
        nl_cfg = att.AttentionConfig(c_in=6, c_qk=2, c_out=4, axis_lengths=(3, 5, 4))
        assert att.module_layers("nonlocal3d", nl_cfg) == [(1, [("", "THW", 6, 60)])]

    def test_unknown_kind_rejected(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2)
        with pytest.raises(ValidationError, match="^unknown attention module 'axial', expected 'nonlocal3d' or 'cfaa'$"):
            att.module_layers("axial", cfg)


class TestAxial:
    def test_singleton_axis_equals_value_projection(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=4, axis_lengths=(1, 2, 2))
        params = att.init_axial_layer(cfg, 3, 1, Rng(0))
        x = Rng(1).normal((3, 1, 2, 2))
        out = axial_out(x, params, "T", cfg)
        expected = np.einsum("oc,cthw->othw", params["w_v"], x)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_lines_are_independent_batches(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(3, 4, 2))
        params = att.init_axial_layer(cfg, 2, 4, Rng(2))
        x = Rng(3).normal((2, 3, 4, 2))
        out = axial_out(x, params, "H", cfg)
        perm_t, perm_w = Rng(4).permutation(3), Rng(5).permutation(2)
        xp = x[:, perm_t][:, :, :, perm_w]
        outp = axial_out(xp, params, "H", cfg)
        np.testing.assert_allclose(outp, out[:, perm_t][:, :, :, perm_w], atol=1e-13)

    def test_against_dense_line_oracle(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(1, 3, 1))
        params = att.init_axial_layer(cfg, 3, 3, Rng(6))
        x = Rng(7).normal((3, 1, 3, 1))
        out = axial_out(x, params, "H", cfg)
        oracle = dense_line_attention_oracle(x[:, 0, :, 0], params["w_q"], params["w_k"], params["w_v"])
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    def test_unknown_axis(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 2, 2))
        params = att.init_axial_layer(cfg, 2, 2, Rng(0))
        with pytest.raises(ValidationError, match="axis"):
            axial_out(np.ones((2, 2, 2, 2)), params, "Z", cfg)

    def test_off_axis_perturbation_stays_local(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(3, 2, 3))
        params = att.init_axial_layer(cfg, 2, 2, Rng(8))
        x = Rng(9).normal((2, 3, 2, 3))
        base = axial_out(x, params, "H", cfg)
        x2 = x.copy()
        x2[:, 1, :, 2] += 1.0
        out2 = axial_out(x2, params, "H", cfg)
        changed = np.any(np.abs(out2 - base) > 1e-14, axis=(0, 2))
        expected = np.zeros((3, 3), dtype=bool)
        expected[1, 2] = True
        assert np.array_equal(changed, expected)

    def test_attention_lines_normalized(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2,
                                  encoding="relative", axis_lengths=(2, 4, 2))
        params = att.init_cfaa_params(cfg, Rng(20))
        x = Rng(21).normal((4, 2, 4, 2))
        _, cache = att.cfaa_forward(x, params, cfg)
        for sc in cache["scale_caches"]:
            for layer_cache in sc["chain"]:
                sums = layer_cache["attn"].sum(axis=-1)
                assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_single_head_config_equals_direct_computation(self):
        # heads=1 goes through the same multi-head path; the result must be
        # bitwise what the head-sliced computation produces
        cfg1 = att.AttentionConfig(c_in=4, c_qk=2, c_out=2, heads=1, axis_lengths=(1, 3, 1))
        params = att.init_axial_layer(cfg1, 4, 3, Rng(22))
        x = Rng(23).normal((4, 1, 3, 1))
        out = axial_out(x, params, "H", cfg1)
        oracle = dense_line_attention_oracle(x[:, 0, :, 0], params["w_q"], params["w_k"], params["w_v"])
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    def test_forward_is_pure(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
        params = att.init_nonlocal_params(cfg, Rng(24))
        x = Rng(25).normal((4, 2, 2, 2))
        x_copy = x.copy()
        a, _ = att.nonlocal_3d_forward(x, params, cfg)
        b, _ = att.nonlocal_3d_forward(x, params, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(x, x_copy)

    def test_multihead_concat_structure(self):
        # concatenating per-head outputs computed with sliced projections
        # reproduces the multi-head result exactly
        cfg2 = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, axis_lengths=(1, 3, 1))
        params = att.init_axial_layer(cfg2, 4, 3, Rng(10))
        x = Rng(11).normal((4, 1, 3, 1))
        out = axial_out(x, params, "H", cfg2)
        cfg1 = att.AttentionConfig(c_in=4, c_qk=2, c_out=2, heads=1, axis_lengths=(1, 3, 1))
        pieces = []
        for m in range(2):
            sub = {name: w[2 * m : 2 * m + 2] for name, w in params.items()}
            pieces.append(axial_out(x, sub, "H", cfg1))
        np.testing.assert_array_equal(out, np.concatenate(pieces, axis=0))


class TestAxialPositionSensitive:
    def make(self, length=2, heads=1, seed=0):
        cfg = att.AttentionConfig(
            c_in=3, c_qk=2 * heads, c_out=2 * heads, heads=heads,
            encoding="relative", axis_lengths=(1, length, 1),
        )
        params = att.init_axial_layer(cfg, 3, length, Rng(seed))
        return cfg, params

    def test_zero_tables_match_plain_axial_bitwise(self):
        cfg, params = self.make(length=3, seed=1)
        for tab in ("r_q", "r_k", "r_v"):
            params[tab] = np.zeros_like(params[tab])
        x = Rng(2).normal((3, 1, 3, 1))
        out_ps = axial_out(x, params, "H", cfg)
        cfg_plain = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, axis_lengths=(1, 3, 1))
        plain = {name: params[name] for name in ("w_q", "w_k", "w_v")}
        out_plain = axial_out(x, plain, "H", cfg_plain)
        assert np.array_equal(out_ps, out_plain)

    def test_singleton_axis_zero_tables(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, encoding="relative", axis_lengths=(1, 2, 1))
        params = att.init_axial_layer(cfg, 3, 2, Rng(3))
        params["r_q"] = np.zeros((1, 2))
        params["r_k"] = np.zeros((1, 2))
        params["r_v"] = np.zeros((1, 2))
        cfg1 = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, encoding="relative", axis_lengths=(1, 1, 1))
        x = Rng(4).normal((3, 1, 1, 1))
        out = axial_out(x, params, "W", cfg1)
        np.testing.assert_allclose(out[:, 0, 0, 0], params["w_v"] @ x[:, 0, 0, 0], atol=1e-15)

    def test_length2_line_against_expanded_oracle(self):
        cfg, params = self.make(length=2, seed=5)
        x = Rng(6).normal((3, 1, 2, 1))
        out = axial_out(x, params, "H", cfg)
        oracle = dense_line_attention_oracle(
            x[:, 0, :, 0], *(params[n] for n in ("w_q", "w_k", "w_v", "r_q", "r_k", "r_v"))
        )
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    @pytest.mark.parametrize("length", range(1, 17))
    def test_scatter_matches_loop_oracle_and_is_gather_adjoint(self, length):
        rng = Rng(13 + length)
        grad_full = rng.child(0).normal((length, length, 3))
        scattered = att._scatter_offsets(grad_full, length)
        assert np.array_equal(scattered, scatter_offsets_oracle(grad_full, length))
        table = rng.child(1).normal((2 * length - 1, 3))
        np.testing.assert_allclose(np.sum(att._gather_offsets(table, length) * grad_full),
                                   np.sum(table * scattered), rtol=1e-12)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(length=st.integers(1, 24), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    def test_scatter_matches_loop_oracle_property(self, length, width, seed, scale):
        # np.add.at adds the (i, j) entries of one offset row in the loop's i-major order
        grad_full = scale * np.random.default_rng(seed).standard_normal((length, length, width))
        scattered = att._scatter_offsets(grad_full, length)
        assert np.array_equal(scattered, scatter_offsets_oracle(grad_full, length))
        assert np.array_equal(scattered, reference_scatter_offsets(grad_full, length))

    @pytest.mark.parametrize("length", range(1, 17))
    def test_gather_is_read_only_view_equal_to_fancy_index_copy(self, length):
        table = Rng(30 + length).normal((2 * length - 1, 3))
        view = att._gather_offsets(table, length)
        assert np.array_equal(view, reference_gather_offsets(table, length))
        assert np.shares_memory(view, table) and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1.0

    def test_translation_equivariance_with_periodic_tables(self):
        # test-only construction: tables made periodic (offset d == d - L) so a
        # circular shift of the line circularly shifts the output
        length = 4
        cfg, params = self.make(length=length, seed=9)
        for tab in (params["r_q"], params["r_k"], params["r_v"]):
            for delta in range(1, length):
                tab[delta + length - 1] = tab[delta - 1]
        x = Rng(10).normal((3, 1, length, 1))
        out = axial_out(x, params, "H", cfg)
        rolled = axial_out(np.roll(x, 1, axis=2), params, "H", cfg)
        np.testing.assert_allclose(rolled, np.roll(out, 1, axis=2), atol=1e-12)


class TestSoftmax:
    """The row softmax inside the kernels, read back from the forward cache."""

    @staticmethod
    def line_attention(values, w_qk=1.0):
        # one channel, one head, one H line: logits[i, j] = w_qk^2 * values[i] * values[j]
        cfg = att.AttentionConfig(c_in=1, c_qk=1, c_out=1, axis_lengths=(1, len(values), 1))
        params = {"w_q": np.array([[w_qk]]), "w_k": np.array([[w_qk]]), "w_v": np.array([[1.0]])}
        x = np.asarray(values, dtype=np.float64).reshape(1, 1, -1, 1)
        out, cache = att._axial_core_forward(x, params, "H", cfg.heads, cfg.encoding)
        return out, cache["attn"][0, 0]  # (L, L) rows over keys

    def test_uniform_logits(self):
        _, attn = self.line_attention([0.3, -1.2, 2.0], w_qk=0.0)
        np.testing.assert_allclose(attn, np.full((3, 3), 1 / 3), rtol=0, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out, attn = self.line_attention([1000.0, 1000.0])  # logits 1e6 everywhere
        np.testing.assert_allclose(attn, np.full((2, 2), 0.5), rtol=0, atol=0)
        assert np.all(np.isfinite(out))

    def test_exp_normalize_oracle_extended_precision(self):
        _, attn = self.line_attention([1.0, 2.0, 3.0])
        e = np.exp(np.asarray([1.0, 2.0, 3.0], dtype=np.longdouble))  # row 0: logits 1, 2, 3
        np.testing.assert_allclose(attn[0], (e / e.sum()).astype(np.float64), rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = Rng(11)
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 13, 3))
        params = att.init_axial_layer(cfg, 2, 13, rng.child(0))
        x = rng.child(1).uniform(-30.0, 30.0, (2, 2, 13, 3))  # logits up to ~1e3
        _, cache = att._axial_core_forward(x, params, "H", cfg.heads, cfg.encoding)
        _, nl_cache = att.nonlocal_3d_forward(x, att.init_nonlocal_params(cfg, rng.child(2)), cfg)
        for attn in (cache["attn"], nl_cache["scale_caches"][0]["chain"][0]["attn"]):
            assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_row_max_reference(self, data):
        # (heads, b, L, L) logits with b on both sides of L (CF-AA lines have
        # b >= L, the 3D self-attention line b = 1); values drawn from a small
        # pool tie, and the pool reaches 1e300 and can hold 0.0 next to -0.0
        length = data.draw(st.integers(1, 40), label="L")
        few_lines = length > 1 and data.draw(st.booleans(), label="b < L")
        lines = data.draw(st.integers(1, length - 1) if few_lines else st.integers(length, length + 3), label="b")
        heads = data.draw(st.integers(1, 2), label="heads")
        pool = data.draw(st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=6), label="pool")
        if data.draw(st.booleans(), label="signed zeros"):
            pool += [0.0, -0.0]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (heads, lines, length, length)
        scale = data.draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]), label="scale")
        logits = np.where(rng.random(shape) < data.draw(st.floats(0.0, 1.0), label="pool fraction"),
                          rng.choice(np.array(pool), shape), scale * rng.standard_normal(shape))
        ref = reference_softmax(logits)
        assert np.array_equal(att._softmax(logits.copy()), ref)

    @staticmethod
    def spread(rng, shape, zeros):
        """Values of both signs with magnitudes spread over 1e-3..1e3; a fraction
        zeros of them are 0.0 or -0.0."""
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        return np.where(rng.random(shape) < zeros, np.copysign(0.0, x), x)

    @pytest.mark.parametrize("length", range(1, 33))
    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(lines=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.3]))
    def test_row_sum_bitwise_equal_to_reduction(self, length, lines, seed, zeros):
        # compared as bit patterns, so a +0.0 for -0.0 counts as a difference;
        # the first line holds rows of -0.0 only, the second of signed zeros only
        x = self.spread(np.random.default_rng(seed), (2, lines + 2, length, length), zeros)
        x[0, 0] = -0.0
        x[0, 1] = np.copysign(0.0, x[0, 1])
        got, want = att._row_sum(x), x.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(length=st.integers(1, 24), lines=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           zeros=st.sampled_from([0.0, 0.3]))
    def test_backward_bitwise_equal_to_out_of_place_reference(self, length, lines, seed, zeros):
        rng = np.random.default_rng(seed)
        attn = reference_softmax(rng.standard_normal((2, lines, length, length)))
        d_attn = self.spread(rng, attn.shape, zeros)
        want = reference_softmax_backward(attn, d_attn)
        got = att._softmax_backward(attn, d_attn.copy())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty_axis_rejected(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(1, 1, 1))
        params = att.init_cfaa_params(cfg, Rng(0))
        with pytest.raises(ValidationError):
            att.cfaa_forward(np.empty((2, 1, 0, 1)), params, cfg)


class TestCfaa:
    def cfg(self, c_in=8, scales=2, heads=1, t=2, h=8, w=4, encoding="relative"):
        return att.AttentionConfig(
            c_in=c_in, c_qk=c_in // 2, c_out=c_in, heads=heads, scales=scales,
            encoding=encoding, axis_lengths=(t, h, w),
        )

    def test_internal_split_shapes(self):
        cfg = att.AttentionConfig(c_in=256, c_qk=128, c_out=256, heads=4, scales=2,
                                  encoding="relative", axis_lengths=(6, 32, 16))
        params = att.init_cfaa_params(cfg, Rng(0))
        x = Rng(1).normal((256, 6, 32, 16))
        _, cache = att.cfaa_forward(x, params, cfg)
        # each scale attends over half the channels at its pooled size: xp holds one row per position
        for sc, (h, w) in zip(cache["scale_caches"], [(32, 16), (16, 8)]):
            assert sc["pooled_hw"] == (h, w)
            assert sc["chain"][0]["xp"].shape == (6 * h * w, 128)

    def test_scale1_equals_three_axis_composition(self):
        cfg = self.cfg(scales=1)
        params = att.init_cfaa_params(cfg, Rng(2))
        x = Rng(3).normal((8, 2, 8, 4))
        out, _ = att.cfaa_forward(x, params, cfg)
        h = x
        for name, axis in (("aa_h", "H"), ("aa_w", "W"), ("aa_t", "T")):
            layer = {k: params[f"scale0.{name}.{k}"] for k in att._LAYER_KEYS[cfg.encoding]}
            h, _ = att._axial_core_forward(h, layer, axis, cfg.heads, cfg.encoding)
        expected = x + np.einsum("co,othw->cthw", params["w_o"], h)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_zero_output_projection_is_identity(self):
        cfg = self.cfg()
        params = att.init_cfaa_params(cfg, Rng(4))
        params["w_o"] = np.zeros_like(params["w_o"])
        x = Rng(5).normal((8, 2, 8, 4))
        assert np.array_equal(att.cfaa_forward(x, params, cfg)[0], x)

    def test_shape_preserved_on_random_configs(self):
        for trial in range(5):
            rng = Rng(100 + trial)
            scales = [1, 2, 2, 4, 1][trial]
            heads = [1, 2, 1, 1, 2][trial]
            c_in = 4 * scales * heads
            t = int(rng.child(0).integers(1, 4))
            h = int(rng.child(1).integers(2 ** (scales - 1), 12))
            w = int(rng.child(2).integers(2 ** (scales - 1), 12))
            cfg = att.AttentionConfig(c_in=c_in, c_qk=c_in, c_out=c_in, heads=heads,
                                      scales=scales, encoding="relative", axis_lengths=(t, h, w))
            params = att.init_cfaa_params(cfg, rng.child(3))
            x = rng.child(4).normal((c_in, t, h, w))
            assert att.cfaa_forward(x, params, cfg)[0].shape == x.shape

    def test_param_scale_count_validated(self):
        # a missing scale is named by its first parameter, an extra one by its first
        cfg = self.cfg(scales=2)
        params = att.init_cfaa_params(cfg, Rng(6))
        params = {name: p for name, p in params.items() if not name.startswith("scale1.")}
        with pytest.raises(ValidationError, match=r"^missing parameter 'scale1\.aa_h\.w_q'$"):
            att.cfaa_forward(np.ones((8, 2, 8, 4)), params, cfg)
        with pytest.raises(ValidationError, match=r"^unknown parameter 'scale1\.aa_h\.w_q'$"):
            att.cfaa_forward(np.ones((8, 2, 8, 4)), att.init_cfaa_params(cfg, Rng(6)), self.cfg(scales=1))


# op -> (config, params for it, forward(x, params, cfg)); every config draws relative tables where it
# can, and CF-AA's runs two heads
PARAM_OPS = {
    "cfaa1": (att.AttentionConfig(c_in=2, c_qk=2, c_out=2, encoding="relative", axis_lengths=(2, 4, 2)),
              lambda cfg: att.init_cfaa_params(cfg, Rng(0)), att.cfaa_forward),
    "nonlocal_3d": (att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 4, 2)),
                    lambda cfg: att.init_nonlocal_params(cfg, Rng(0)), att.nonlocal_3d_forward),
    "cfaa": (att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2, encoding="relative",
                                 axis_lengths=(2, 4, 2)),
             lambda cfg: att.init_cfaa_params(cfg, Rng(0)), att.cfaa_forward),
}
BACKWARD = {att.cfaa_forward: att.cfaa_backward, att.nonlocal_3d_forward: att.nonlocal_3d_backward}


class TestParamNames:
    """Every op takes its parameters as a name -> array dict with exactly the
    names and shapes the init function draws, and names any other or missing
    one and any array of another shape."""

    @pytest.mark.parametrize("op", list(PARAM_OPS))
    def test_each_missing_name_rejected_by_name(self, op):
        cfg, init, forward = PARAM_OPS[op]
        params, x = init(cfg), np.ones((cfg.c_in, *cfg.axis_lengths))
        forward(x, params, cfg)
        for name in params:
            table = name.rpartition(".")[2] in ("r_q", "r_k", "r_v")
            want = f"relative encoding requires table {name}" if table else f"missing parameter '{name}'"
            with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                forward(x, {k: v for k, v in params.items() if k != name}, cfg)

    @pytest.mark.parametrize("grow", [(1, 0), (0, 1)], ids=["one-row-more", "one-column-more"])
    @pytest.mark.parametrize("op", list(PARAM_OPS))
    def test_each_misshapen_parameter_rejected_by_name(self, op, grow):
        # a row more on w_q/w_k/w_v breaks the head split (CF-AA's per-scale width 2
        # at heads=2), a column more the input channels, a row more on r_* the table length
        cfg, init, forward = PARAM_OPS[op]
        params, x = init(cfg), Rng(1).normal((cfg.c_in, *cfg.axis_lengths))
        out, cache = forward(x, params, cfg)
        for name, good in params.items():
            bad = {**params, name: np.zeros((good.shape[0] + grow[0], good.shape[1] + grow[1]))}
            want = f"^{re.escape(f'parameter {name!r} has shape {bad[name].shape}, expected {good.shape}')}$"
            with pytest.raises(ValidationError, match=want):
                forward(x, bad, cfg)
            with pytest.raises(ValidationError, match=want):
                BACKWARD[forward](np.ones_like(out), bad, cache)

    @pytest.mark.parametrize("extra", ["w_x", "bias", "scale0.aa_h.w_o", "scale0.aa_x.w_q"])
    @pytest.mark.parametrize("op", list(PARAM_OPS))
    def test_unknown_name_rejected_by_name(self, op, extra):
        cfg, init, forward = PARAM_OPS[op]
        params = {**init(cfg), extra: np.zeros((1, 1))}
        with pytest.raises(ValidationError, match=f"^unknown parameter '{re.escape(extra)}'$"):
            forward(np.ones((cfg.c_in, *cfg.axis_lengths)), params, cfg)

    @pytest.mark.parametrize("encoding", ["none", "sinusoidal"])
    @pytest.mark.parametrize("op", list(PARAM_OPS))
    def test_tables_without_relative_encoding_rejected(self, op, encoding):
        cfg, init, forward = PARAM_OPS[op]
        params = init(cfg)
        if op == "nonlocal_3d":  # the 3D op runs with no encoding only, and draws no tables
            params["r_k"], encoding = np.zeros((1, 1)), "none"
        cfg = att.AttentionConfig(c_in=cfg.c_in, c_qk=2 * cfg.scales, c_out=cfg.c_out, scales=cfg.scales,
                                  encoding=encoding, axis_lengths=cfg.axis_lengths)
        with pytest.raises(ValidationError, match=f"^relative tables r_q/r_k/r_v need encoding 'relative', "
                                                     f"got '{encoding}'$"):
            forward(np.ones((cfg.c_in, *cfg.axis_lengths)), params, cfg)


def batch_case(encoding, scales, heads, seed):
    """A CF-AA config with 3x5x7 volumes (larger H, W where the scales need it)."""
    c = 4 * scales * heads
    hw = (max(5, 2 ** (scales - 1)), max(7, 2 ** (scales - 1)))
    cfg = att.AttentionConfig(c_in=c, c_qk=c, c_out=c, heads=heads, scales=scales,
                              encoding=encoding, axis_lengths=(3, *hw))
    rng = Rng(seed)
    return cfg, att.init_cfaa_params(cfg, rng.child(0)), rng


BATCH_CASES = [(e, s, h) for e in att.ENCODINGS for s in (1, 2, 4) for h in (1, 2)]


class TestBatchedMatmulCore:
    """The batched matmul core and CF-AA against the einsum core they replaced,
    run one volume at a time."""

    @pytest.mark.parametrize("axis", att.AXES)
    @pytest.mark.parametrize("encoding,heads", [(e, h) for e in att.ENCODINGS for h in (1, 2)])
    def test_core_matches_einsum_oracle_per_volume(self, encoding, heads, axis):
        cfg, _, rng = batch_case(encoding, 1, heads, 40 + heads)
        x = rng.child(1).normal((5, 3, *cfg.axis_lengths))  # (c_x, N, T, H, W)
        length = dict(zip(att.AXES, cfg.axis_lengths))[axis]
        p = att.init_axial_layer(cfg, 5, length, rng.child(2))
        out, cache = att._axial_core_forward(x, p, axis, heads, encoding)
        d_out = rng.child(3).normal(out.shape)
        d_x, grads = att._axial_core_backward(d_out, p, cache)
        want_grads = None
        for n in range(x.shape[1]):
            ref, ref_cache = einsum_core_forward(x[:, n], p, axis, heads, encoding)
            ref_dx, ref_grads = einsum_core_backward(d_out[:, n], p, ref_cache)
            assert scaled_error(out[:, n], ref) < 1e-12
            assert scaled_error(d_x[:, n], ref_dx) < 1e-12
            want_grads = ref_grads if want_grads is None else {k: want_grads[k] + v for k, v in ref_grads.items()}
        assert list(grads) == list(p)
        for name, g in grads.items():
            assert scaled_error(g, want_grads[name]) < 1e-12, name

    @pytest.mark.parametrize("encoding,scales,heads", BATCH_CASES)
    def test_batched_cfaa_matches_per_volume_oracle_loop(self, encoding, scales, heads, monkeypatch):
        for n in (1, 3, 8):
            cfg, params, rng = batch_case(encoding, scales, heads, 10 * n + scales)
            x = rng.child(1).normal((n, cfg.c_in, *cfg.axis_lengths))
            g = rng.child(2).normal(x.shape)
            out, cache = att.cfaa_forward(x, params, cfg)
            d_x, grads = att.cfaa_backward(g, params, cache)
            with monkeypatch.context() as mp:
                mp.setattr(att, "_axial_core_forward", einsum_core_forward)
                mp.setattr(att, "_axial_core_backward", einsum_core_backward)
                refs = []
                for i in range(n):
                    ref, ref_cache = att.cfaa_forward(x[i], params, cfg)
                    refs.append((ref, *att.cfaa_backward(g[i], params, ref_cache)))
            assert scaled_error(out, np.stack([r[0] for r in refs])) < 1e-12
            assert scaled_error(d_x, np.stack([r[1] for r in refs])) < 1e-12
            for name, grad in grads.items():
                want = sum(r[2][name] for r in refs)
                assert scaled_error(grad, want) < 1e-12, (n, name)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_batched_cfaa_matches_per_volume_oracle_loop_property(self, data):
        scales = data.draw(st.integers(1, 3), label="scales")
        heads = data.draw(st.integers(1, 2), label="heads")
        encoding = data.draw(st.sampled_from(att.ENCODINGS), label="encoding")
        n = data.draw(st.integers(1, 4), label="N")
        t = data.draw(st.integers(1, 3), label="T")
        h, w = (data.draw(st.integers(2 ** (scales - 1), 9), label=axis) for axis in "HW")
        c = 2 * scales * heads * data.draw(st.integers(1, 2), label="width")  # even q/k width per head
        cfg = att.AttentionConfig(c_in=c, c_qk=c, c_out=c, heads=heads, scales=scales, encoding=encoding,
                                  axis_lengths=(t, h, w))
        rng = Rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = att.init_cfaa_params(cfg, rng.child(0))
        x = rng.child(1).normal((n, c, t, h, w))
        g = rng.child(2).normal(x.shape)
        out, cache = att.cfaa_forward(x, params, cfg)
        d_x, grads = att.cfaa_backward(g, params, cache)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(att, "_axial_core_forward", einsum_core_forward)
            mp.setattr(att, "_axial_core_backward", einsum_core_backward)
            refs = []
            for i in range(n):
                ref, ref_cache = att.cfaa_forward(x[i], params, cfg)
                refs.append((ref, *att.cfaa_backward(g[i], params, ref_cache)))
        assert scaled_error(out, np.stack([r[0] for r in refs])) < 1e-12
        assert scaled_error(d_x, np.stack([r[1] for r in refs])) < 1e-12
        assert list(grads) == list(params)
        for name, grad in grads.items():
            assert scaled_error(grad, sum(r[2][name] for r in refs)) < 1e-12, name

    @pytest.mark.parametrize("shape", [(8, 4, 16, 8), (3, 2, 3, 5)])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_batched_nonlocal_matches_per_volume_loop(self, n, shape):
        # forward and d_x keep the bits of one volume at a time; the weight
        # gradients sum over the volumes in another order
        from axialreid import flops

        cfg = att.AttentionConfig(c_in=shape[0], c_qk=2, c_out=shape[0], axis_lengths=shape[1:])
        rng = Rng(50 + n)
        params = att.init_nonlocal_params(cfg, rng.child(0))
        x = rng.child(1).normal((n, *shape))
        g = rng.child(2).normal(x.shape)
        with att.count_multiplies() as counter:
            out, cache = att.nonlocal_3d_forward(x, params, cfg)
        d_x, grads = att.nonlocal_3d_backward(g, params, cache)
        refs = []
        for i in range(n):
            ref, ref_cache = att.nonlocal_3d_forward(x[i], params, cfg)
            refs.append((ref, *att.nonlocal_3d_backward(g[i], params, ref_cache)))
        assert np.array_equal(out, np.stack([r[0] for r in refs]))
        assert np.array_equal(d_x, np.stack([r[1] for r in refs]))
        assert list(grads) == list(params)
        for name, grad in grads.items():
            assert scaled_error(grad, sum(r[2][name] for r in refs)) < 1e-12, name
        assert counter.total == n * flops.attention_contraction_count("nonlocal3d", cfg)

    @pytest.mark.parametrize("encoding", att.ENCODINGS)
    def test_multiplies_count_every_volume(self, encoding):
        from axialreid import flops

        for n in (1, 2, 5):
            cfg, params, rng = batch_case(encoding, 2, 2, n)
            x = rng.child(1).normal((n, cfg.c_in, *cfg.axis_lengths))
            with att.count_multiplies() as counter:
                att.cfaa_forward(x, params, cfg)
            assert counter.total == n * flops.attention_contraction_count("cfaa", cfg)

    def test_batch_with_wrong_volume_shape_rejected(self):
        cfg, params, _ = batch_case("relative", 2, 1, 0)
        t, h, w = cfg.axis_lengths
        for shape in ((2, cfg.c_in, t, h, w + 1), (2, cfg.c_in + 1, t, h, w), (1, 2, cfg.c_in, t, h, w)):
            with pytest.raises(ValidationError):
                att.cfaa_forward(np.ones(shape), params, cfg)
        # 3D self-attention takes a batch as well, of volumes of the config's shape
        nl_cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
        nl_params = att.init_nonlocal_params(nl_cfg, Rng(0))
        assert att.nonlocal_3d_forward(np.ones((2, 4, 2, 2, 2)), nl_params, nl_cfg)[0].shape == (2, 4, 2, 2, 2)
        for shape in ((2, 4, 2, 2, 3), (2, 5, 2, 2, 2), (1, 2, 4, 2, 2, 2)):
            with pytest.raises(ValidationError):
                att.nonlocal_3d_forward(np.ones(shape), nl_params, nl_cfg)

    def test_batched_upstream_shape_mismatch_rejected(self):
        cfg, params, rng = batch_case("relative", 2, 1, 1)
        x = rng.child(1).normal((3, cfg.c_in, *cfg.axis_lengths))
        _, cache = att.cfaa_forward(x, params, cfg)
        for shape in ((2, *x.shape[1:]), x.shape[1:]):
            with pytest.raises(ValidationError, match="shape"):
                att.cfaa_backward(np.ones(shape), params, cache)


def test_nested_count_blocks_count_their_own_multiplies():
    # an inner block's multiplies count in it only, and a numpy head count
    # still gives int totals
    from axialreid import flops

    cfg, params, rng = batch_case("relative", 2, 2, 60)
    cfg = replace(cfg, heads=np.int64(cfg.heads))
    x = rng.child(1).normal((cfg.c_in, *cfg.axis_lengths))
    per_call = flops.attention_contraction_count("cfaa", cfg)
    with att.count_multiplies() as outer:
        att.cfaa_forward(x, params, cfg)
        with att.count_multiplies() as inner:
            att.cfaa_forward(x, params, cfg)
        att.cfaa_forward(x, params, cfg)
    att.cfaa_forward(x, params, cfg)  # outside every block: counted in none
    assert (outer.total, inner.total) == (2 * per_call, per_call)
    assert type(outer.total) is int and type(inner.total) is int


def test_public_names_bind_distinct_functions():
    # a span tracer wraps each function object once, under the first name bound
    # to it: an alias such as nonlocal_3d_backward = cfaa_backward would book
    # one op's spans under the other's name
    names = {}
    for name, obj in vars(att).items():
        if not name.startswith("_") and inspect.isfunction(obj):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []
    ops = {"cfaa_forward", "cfaa_backward", "nonlocal_3d_forward", "nonlocal_3d_backward"}
    assert ops <= {name for group in names.values() for name in group}


# case -> (config, input shape); each pins one SHA-256 below
DIGEST_CASES = {
    "nonlocal_batch": (att.AttentionConfig(c_in=32, c_qk=16, c_out=32, axis_lengths=(4, 16, 8)), (2, 32, 4, 16, 8)),
    "nonlocal_c_in_ne_c_out": (att.AttentionConfig(c_in=3, c_qk=2, c_out=5, axis_lengths=(2, 3, 4)), (3, 2, 3, 4)),
    "cfaa_s4_relative": (att.AttentionConfig(c_in=32, c_qk=16, c_out=32, heads=2, scales=4, encoding="relative",
                                             axis_lengths=(4, 16, 8)), (2, 32, 4, 16, 8)),
    "cfaa_s2_sinusoidal": (att.AttentionConfig(c_in=8, c_qk=8, c_out=8, heads=2, scales=2, encoding="sinusoidal",
                                               axis_lengths=(2, 4, 6)), (8, 2, 4, 6)),
}
DIGESTS = {
    "nonlocal_batch": "62a047f578ab37adb601c0d12e68d29d5a8c3f30facad427233ad68ac3150352",
    "nonlocal_c_in_ne_c_out": "98f14273f3dc6175d65e2b012b23c127d21e10cb11106ad0479f99e54a023eca",
    "cfaa_s4_relative": "d2e3ad79128a414bd5c131c6156342ef59471faf2cf0d3242a04a8240f6189dc",
    "cfaa_s2_sinusoidal": "c8e19137e4f7450e0ac3561c955254965f371f4e479ce9fb499a926f0833225d",
}


@pytest.mark.parametrize("case", list(DIGEST_CASES))
def test_module_bits_pinned(case):
    # one SHA-256 over the output, the input gradient, every parameter
    # gradient (name and bits, in order) and the multiply count of the forward
    cfg, shape = DIGEST_CASES[case]
    kind = case.partition("_")[0]
    init, forward, backward = ((att.init_nonlocal_params, att.nonlocal_3d_forward, att.nonlocal_3d_backward)
                               if kind == "nonlocal" else (att.init_cfaa_params, att.cfaa_forward, att.cfaa_backward))
    rng = Rng(2024)
    params = init(cfg, rng.child(0))
    x = rng.child(1).normal(shape)
    with att.count_multiplies() as counter:
        out, cache = forward(x, params, cfg)
    d_x, grads = backward(rng.child(2).normal(shape), params, cache)
    h = hashlib.sha256(out.tobytes())
    h.update(d_x.tobytes())
    for name, grad in grads.items():
        h.update(name.encode())
        h.update(grad.tobytes())
    h.update(str(counter.total).encode())
    assert h.hexdigest() == DIGESTS[case]
