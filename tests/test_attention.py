import numpy as np
import pytest

from axialreid import attention as att
from axialreid.errors import ConfigurationError, DimensionError
from axialreid.tensor import Rng


def softmax_1d(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def nonlocal_oracle(x, params):
    """Brute force: loop over every output position, attend to every position."""
    c, t, h, w = x.shape
    positions = [(a, b, d) for a in range(t) for b in range(h) for d in range(w)]
    q = {p: params.w_q @ x[:, p[0], p[1], p[2]] for p in positions}
    k = {p: params.w_k @ x[:, p[0], p[1], p[2]] for p in positions}
    v = {p: params.w_v @ x[:, p[0], p[1], p[2]] for p in positions}
    out = np.zeros_like(x)
    for o in positions:
        logits = np.array([q[o] @ k[p] for p in positions])
        attn = softmax_1d(logits)
        y = sum(attn[i] * v[p] for i, p in enumerate(positions))
        out[:, o[0], o[1], o[2]] = x[:, o[0], o[1], o[2]] + params.w_o @ y
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


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            att.AttentionConfig(c_in=6, c_qk=4, c_out=6, heads=1, scales=4, axis_lengths=(2, 8, 8))
        with pytest.raises(ConfigurationError):
            att.AttentionConfig(c_in=4, c_qk=3, c_out=4, heads=2, axis_lengths=(2, 2, 2))

    def test_min_spatial_extent_per_scale(self):
        with pytest.raises(ConfigurationError):
            att.AttentionConfig(c_in=6, c_qk=6, c_out=6, scales=3, axis_lengths=(2, 4, 3))
        att.AttentionConfig(c_in=6, c_qk=6, c_out=6, scales=3, axis_lengths=(2, 4, 4))

    def test_unknown_encoding(self):
        with pytest.raises(ConfigurationError):
            att.AttentionConfig(c_in=2, c_qk=2, c_out=2, encoding="learned", axis_lengths=(1, 1, 1))


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
        with pytest.raises(DimensionError):
            att.sinusoidal_encode(4, 5)


class TestNonlocal3d:
    def cfg(self, t=2, h=2, w=2):
        return att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(t, h, w))

    def test_single_position(self):
        cfg = self.cfg(1, 1, 1)
        params = att.init_nonlocal_params(cfg, Rng(0))
        x = Rng(1).normal((3, 1, 1, 1))
        out = att.nonlocal_3d_forward(x, params, cfg)
        expected = x[:, 0, 0, 0] + params.w_o @ (params.w_v @ x[:, 0, 0, 0])
        np.testing.assert_allclose(out[:, 0, 0, 0], expected, atol=1e-15)

    def test_permutation_equivariance(self):
        cfg = self.cfg()
        params = att.init_nonlocal_params(cfg, Rng(2))
        x = Rng(3).normal((3, 2, 2, 2))
        perm = Rng(4).permutation(8)
        xp = x.reshape(3, 8)[:, perm].reshape(x.shape)
        out = att.nonlocal_3d_forward(x, params, cfg).reshape(3, 8)
        outp = att.nonlocal_3d_forward(xp, params, cfg).reshape(3, 8)
        np.testing.assert_allclose(outp, out[:, perm], atol=1e-12)

    def test_against_pairwise_oracle(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 2, 2))
        params = att.init_nonlocal_params(cfg, Rng(5))
        x = Rng(6).normal((2, 2, 2, 2))
        out = att.nonlocal_3d_forward(x, params, cfg)
        assert np.max(np.abs(out - nonlocal_oracle(x, params))) < 1e-12

    def test_multihead_rejected(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, axis_lengths=(1, 1, 1))
        params = att.init_nonlocal_params(cfg, Rng(0))
        with pytest.raises(ConfigurationError):
            att.nonlocal_3d_forward(np.ones((4, 1, 1, 1)), params, cfg)

    def test_shape_mismatch(self):
        cfg = self.cfg()
        params = att.init_nonlocal_params(cfg, Rng(0))
        with pytest.raises(DimensionError):
            att.nonlocal_3d_forward(np.ones((3, 2, 2, 3)), params, cfg)


class TestAxial:
    def test_singleton_axis_equals_value_projection(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=4, axis_lengths=(1, 2, 2))
        params = att.init_axial_layer(cfg, 3, 1, Rng(0))
        x = Rng(1).normal((3, 1, 2, 2))
        out = att.axial_forward(x, params, "T", cfg)
        expected = np.einsum("oc,cthw->othw", params.w_v, x)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_lines_are_independent_batches(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(3, 4, 2))
        params = att.init_axial_layer(cfg, 2, 4, Rng(2))
        x = Rng(3).normal((2, 3, 4, 2))
        out = att.axial_forward(x, params, "H", cfg)
        perm_t, perm_w = Rng(4).permutation(3), Rng(5).permutation(2)
        xp = x[:, perm_t][:, :, :, perm_w]
        outp = att.axial_forward(xp, params, "H", cfg)
        np.testing.assert_allclose(outp, out[:, perm_t][:, :, :, perm_w], atol=1e-13)

    def test_against_dense_line_oracle(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=3, axis_lengths=(1, 3, 1))
        params = att.init_axial_layer(cfg, 3, 3, Rng(6))
        x = Rng(7).normal((3, 1, 3, 1))
        out = att.axial_forward(x, params, "H", cfg)
        oracle = dense_line_attention_oracle(x[:, 0, :, 0], params.w_q, params.w_k, params.w_v)
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    def test_unknown_axis(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(2, 2, 2))
        params = att.init_axial_layer(cfg, 2, 2, Rng(0))
        with pytest.raises(DimensionError, match="axis"):
            att.axial_forward(np.ones((2, 2, 2, 2)), params, "Z", cfg)

    def test_off_axis_perturbation_stays_local(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(3, 2, 3))
        params = att.init_axial_layer(cfg, 2, 2, Rng(8))
        x = Rng(9).normal((2, 3, 2, 3))
        base = att.axial_forward(x, params, "H", cfg)
        x2 = x.copy()
        x2[:, 1, :, 2] += 1.0
        out2 = att.axial_forward(x2, params, "H", cfg)
        changed = np.any(np.abs(out2 - base) > 1e-14, axis=(0, 2))
        expected = np.zeros((3, 3), dtype=bool)
        expected[1, 2] = True
        assert np.array_equal(changed, expected)

    def test_attention_lines_normalized(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2,
                                  encoding="relative", axis_lengths=(2, 4, 2))
        params = att.init_cfaa_params(cfg, Rng(20))
        x = Rng(21).normal((4, 2, 4, 2))
        _, cache = att.cfaa_forward(x, params, cfg, want_cache=True)
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
        out = att.axial_forward(x, params, "H", cfg1)
        oracle = dense_line_attention_oracle(x[:, 0, :, 0], params.w_q, params.w_k, params.w_v)
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    def test_forward_is_pure(self):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(2, 2, 2))
        params = att.init_nonlocal_params(cfg, Rng(24))
        x = Rng(25).normal((4, 2, 2, 2))
        x_copy = x.copy()
        a = att.nonlocal_3d_forward(x, params, cfg)
        b = att.nonlocal_3d_forward(x, params, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(x, x_copy)

    def test_multihead_concat_structure(self):
        # concatenating per-head outputs computed with sliced projections
        # reproduces the multi-head result exactly
        cfg2 = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, axis_lengths=(1, 3, 1))
        params = att.init_axial_layer(cfg2, 4, 3, Rng(10))
        x = Rng(11).normal((4, 1, 3, 1))
        out = att.axial_forward(x, params, "H", cfg2)
        cfg1 = att.AttentionConfig(c_in=4, c_qk=2, c_out=2, heads=1, axis_lengths=(1, 3, 1))
        pieces = []
        for m in range(2):
            sub = att.AxialLayerParams(
                w_q=params.w_q[2 * m : 2 * m + 2],
                w_k=params.w_k[2 * m : 2 * m + 2],
                w_v=params.w_v[2 * m : 2 * m + 2],
            )
            pieces.append(att.axial_forward(x, sub, "H", cfg1))
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
            setattr(params, tab, np.zeros_like(getattr(params, tab)))
        x = Rng(2).normal((3, 1, 3, 1))
        out_ps = att.axial_forward(x, params, "H", cfg)
        cfg_plain = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, axis_lengths=(1, 3, 1))
        plain = att.AxialLayerParams(params.w_q, params.w_k, params.w_v)
        out_plain = att.axial_forward(x, plain, "H", cfg_plain)
        assert np.array_equal(out_ps, out_plain)

    def test_singleton_axis_zero_tables(self):
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, encoding="relative", axis_lengths=(1, 2, 1))
        params = att.init_axial_layer(cfg, 3, 2, Rng(3))
        params.r_q = np.zeros((1, 2))
        params.r_k = np.zeros((1, 2))
        params.r_v = np.zeros((1, 2))
        cfg1 = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, encoding="relative", axis_lengths=(1, 1, 1))
        x = Rng(4).normal((3, 1, 1, 1))
        out = att.axial_forward(x, params, "W", cfg1)
        np.testing.assert_allclose(out[:, 0, 0, 0], params.w_v @ x[:, 0, 0, 0], atol=1e-15)

    def test_length2_line_against_expanded_oracle(self):
        cfg, params = self.make(length=2, seed=5)
        x = Rng(6).normal((3, 1, 2, 1))
        out = att.axial_forward(x, params, "H", cfg)
        oracle = dense_line_attention_oracle(
            x[:, 0, :, 0], params.w_q, params.w_k, params.w_v, params.r_q, params.r_k, params.r_v
        )
        assert np.max(np.abs(out[:, 0, :, 0] - oracle)) < 1e-12

    def test_wrong_table_length_rejected(self):
        cfg, params = self.make(length=3, seed=7)
        params.r_q = params.r_q[:-1]
        x = Rng(8).normal((3, 1, 3, 1))
        with pytest.raises(ConfigurationError, match="r_q"):
            att.axial_forward(x, params, "H", cfg)

    @pytest.mark.parametrize("encoding", ["none", "sinusoidal"])
    def test_tables_without_relative_encoding_rejected(self, encoding):
        _, params = self.make(length=3, seed=11)
        cfg = att.AttentionConfig(c_in=3, c_qk=2, c_out=2, encoding=encoding, axis_lengths=(1, 3, 1))
        with pytest.raises(ConfigurationError, match="relative"):
            att.axial_forward(Rng(12).normal((3, 1, 3, 1)), params, "H", cfg)

    @pytest.mark.parametrize("length", range(1, 17))
    def test_scatter_matches_loop_oracle_and_is_gather_adjoint(self, length):
        rng = Rng(13 + length)
        grad_full = rng.child(0).normal((length, length, 3))
        scattered = att._scatter_offsets(grad_full, length)
        assert np.array_equal(scattered, scatter_offsets_oracle(grad_full, length))
        table = rng.child(1).normal((2 * length - 1, 3))
        np.testing.assert_allclose(np.sum(att._gather_offsets(table, length) * grad_full),
                                   np.sum(table * scattered), rtol=1e-12)

    def test_translation_equivariance_with_periodic_tables(self):
        # test-only construction: tables made periodic (offset d == d - L) so a
        # circular shift of the line circularly shifts the output
        length = 4
        cfg, params = self.make(length=length, seed=9)
        for tab in (params.r_q, params.r_k, params.r_v):
            for delta in range(1, length):
                tab[delta + length - 1] = tab[delta - 1]
        x = Rng(10).normal((3, 1, length, 1))
        out = att.axial_forward(x, params, "H", cfg)
        rolled = att.axial_forward(np.roll(x, 1, axis=2), params, "H", cfg)
        np.testing.assert_allclose(rolled, np.roll(out, 1, axis=2), atol=1e-12)


class TestSoftmax:
    """The row softmax inside the kernels, read back from the forward cache."""

    @staticmethod
    def line_attention(values, w_qk=1.0):
        # one channel, one head, one H line: logits[i, j] = w_qk^2 * values[i] * values[j]
        cfg = att.AttentionConfig(c_in=1, c_qk=1, c_out=1, axis_lengths=(1, len(values), 1))
        params = att.AxialLayerParams(w_q=np.array([[w_qk]]), w_k=np.array([[w_qk]]), w_v=np.array([[1.0]]))
        x = np.asarray(values, dtype=np.float64).reshape(1, 1, -1, 1)
        out, cache = att.axial_forward(x, params, "H", cfg, want_cache=True)
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
        _, cache = att.axial_forward(x, params, "H", cfg, want_cache=True)
        _, nl_cache = att.nonlocal_3d_forward(x, att.init_nonlocal_params(cfg, rng.child(2)), cfg, want_cache=True)
        for attn in (cache["attn"], nl_cache["attn"]):
            assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-12

    def test_empty_axis_rejected(self):
        cfg = att.AttentionConfig(c_in=2, c_qk=2, c_out=2, axis_lengths=(1, 1, 1))
        params = att.init_axial_layer(cfg, 2, 1, Rng(0))
        with pytest.raises(DimensionError):
            att.axial_forward(np.empty((2, 1, 0, 1)), params, "H", cfg)


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
        _, cache = att.cfaa_forward(x, params, cfg, want_cache=True)
        assert cache["scale_caches"][0]["extents"] == (128, 6, 32, 16)
        assert cache["scale_caches"][1]["extents"] == (128, 6, 16, 8)

    def test_scale1_equals_three_axis_composition(self):
        cfg = self.cfg(scales=1)
        params = att.init_cfaa_params(cfg, Rng(2))
        x = Rng(3).normal((8, 2, 8, 4))
        out = att.cfaa_forward(x, params, cfg)
        sp = params.scales[0]
        h1, _ = att._axial_core_forward(x, sp.aa_h, "H", cfg.heads, cfg.encoding)
        h2, _ = att._axial_core_forward(h1, sp.aa_w, "W", cfg.heads, cfg.encoding)
        h3, _ = att._axial_core_forward(h2, sp.aa_t, "T", cfg.heads, cfg.encoding)
        expected = x + np.einsum("co,othw->cthw", params.w_o, h3)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_zero_output_projection_is_identity(self):
        cfg = self.cfg()
        params = att.init_cfaa_params(cfg, Rng(4))
        params.w_o = np.zeros_like(params.w_o)
        x = Rng(5).normal((8, 2, 8, 4))
        assert np.array_equal(att.cfaa_forward(x, params, cfg), x)

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
            assert att.cfaa_forward(x, params, cfg).shape == x.shape

    def test_param_scale_count_validated(self):
        cfg = self.cfg(scales=2)
        params = att.init_cfaa_params(cfg, Rng(6))
        params.scales = params.scales[:1]
        with pytest.raises(ConfigurationError):
            att.cfaa_forward(np.ones((8, 2, 8, 4)), params, cfg)


class TestCheckpoint:
    def test_roundtrip_preserves_names_and_values(self, tmp_path):
        cfg = att.AttentionConfig(c_in=4, c_qk=4, c_out=4, heads=2, scales=2,
                                  encoding="relative", axis_lengths=(2, 4, 2))
        params = att.init_cfaa_params(cfg, Rng(7))
        named = list(params.named())
        att.save_params(tmp_path / "ckpt", named)
        loaded = att.load_params(tmp_path / "ckpt")
        assert list(loaded.keys()) == [n for n, _ in named]
        for name, value in named:
            assert np.array_equal(loaded[name], value)

    def test_manifest_order_stable(self, tmp_path):
        cfg = att.AttentionConfig(c_in=4, c_qk=2, c_out=4, axis_lengths=(1, 2, 2))
        p = att.init_nonlocal_params(cfg, Rng(8))
        att.save_params(tmp_path / "a", p.named())
        att.save_params(tmp_path / "b", p.named())
        assert (tmp_path / "a" / "manifest.txt").read_text() == (tmp_path / "b" / "manifest.txt").read_text()
