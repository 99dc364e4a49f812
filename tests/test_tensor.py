import numpy as np
import pytest

from axialreid.errors import DimensionError, ValidationError
from axialreid.tensor import (
    Rng,
    avg_pool_2d,
    avg_pool_2d_adjoint,
    load_tensor,
    save_tensor,
    upsample_nearest_2d,
    upsample_nearest_2d_adjoint,
)


class TestPooling:
    def test_constant_preserved(self):
        x = np.full((2, 3, 4, 4), 2.5)
        assert np.all(avg_pool_2d(x, 2) == 2.5)

    def test_hand_arithmetic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert avg_pool_2d(x, 2).reshape(()) == 2.5

    def test_factor_one_identity(self):
        x = Rng(0).normal((2, 2, 3, 5))
        assert np.array_equal(avg_pool_2d(x, 1), x)
        assert np.array_equal(upsample_nearest_2d(x, 1), x)

    def test_factor_zero_rejected(self):
        with pytest.raises(DimensionError):
            avg_pool_2d(np.ones((1, 1, 2, 2)), 0)
        with pytest.raises(DimensionError):
            upsample_nearest_2d(np.ones((1, 1, 2, 2)), 0)

    def test_partial_edge_windows(self):
        x = np.arange(6, dtype=np.float64).reshape(1, 1, 2, 3)
        out = avg_pool_2d(x, 2)
        assert out.shape == (1, 1, 1, 2)
        np.testing.assert_allclose(out.ravel(), [(0 + 1 + 3 + 4) / 4, (2 + 5) / 2])

    def test_upsample_replication(self):
        out = upsample_nearest_2d(np.array([[5.0]]).reshape(1, 1, 1, 1), 2)
        assert out.reshape(2, 2).tolist() == [[5, 5], [5, 5]]

    def test_down_up_constant_roundtrip(self):
        x = np.full((3, 2, 6, 4), -1.25)
        up = upsample_nearest_2d(avg_pool_2d(x, 2), 2, target_hw=(6, 4))
        assert np.array_equal(up, x)

    def test_upsample_crop_to_odd_target(self):
        x = Rng(5).normal((1, 1, 3, 2))
        out = upsample_nearest_2d(x, 2, target_hw=(5, 3))
        assert out.shape == (1, 1, 5, 3)
        assert out[0, 0, 4, 2] == x[0, 0, 2, 1]

    def test_pool_adjoint_matches_fd(self):
        rng = Rng(9)
        x = rng.child(0).normal((1, 1, 5, 3))
        g = rng.child(1).normal((1, 1, 3, 2))
        adj = avg_pool_2d_adjoint(g, 2, (5, 3))
        # <g, pool(x)> gradient wrt x, via linearity: adjoint columns
        for idx in np.ndindex(x.shape):
            e = np.zeros_like(x)
            e[idx] = 1.0
            fd = np.sum(g * avg_pool_2d(e, 2))
            assert abs(adj[idx] - fd) < 1e-12

    def test_upsample_adjoint_matches_fd(self):
        rng = Rng(10)
        x_shape = (1, 1, 3, 2)
        g = rng.normal((1, 1, 5, 3))
        adj = upsample_nearest_2d_adjoint(g, 2, (3, 2))
        for idx in np.ndindex(x_shape):
            e = np.zeros(x_shape)
            e[idx] = 1.0
            fd = np.sum(g * upsample_nearest_2d(e, 2, target_hw=(5, 3)))
            assert abs(adj[idx] - fd) < 1e-12


def loop_avg_pool_2d_adjoint(grad, factor, in_hw):
    """Reference adjoint: one window at a time."""
    h, w = in_hw
    c, t, ho, wo = grad.shape
    out = np.zeros((c, t, h, w))
    for i in range(ho):
        for j in range(wo):
            hs = slice(i * factor, min((i + 1) * factor, h))
            ws = slice(j * factor, min((j + 1) * factor, w))
            n = (hs.stop - hs.start) * (ws.stop - ws.start)
            out[:, :, hs, ws] += grad[:, :, i, j][:, :, None, None] / n
    return out


def loop_upsample_nearest_2d_adjoint(grad, factor, in_hw):
    """Reference adjoint: one output cell at a time."""
    h, w = in_hw
    c, t, gh, gw = grad.shape
    out = np.zeros((c, t, h, w))
    for i in range(gh):
        for j in range(gw):
            out[:, :, i // factor, j // factor] += grad[:, :, i, j]
    return out


ADJOINT_CASES = [(f, hw) for f in (1, 2, 3, 4, 8) for hw in ((16, 8), (7, 5), (9, 13), (3, 2))]


class TestPoolingAdjointOracle:
    @pytest.mark.parametrize("factor,hw", ADJOINT_CASES)
    def test_avg_pool_adjoint_bitwise_equals_loop(self, factor, hw):
        h, w = hw
        g = Rng(factor).normal((3, 2, -(-h // factor), -(-w // factor)))
        out = avg_pool_2d_adjoint(g, factor, hw)
        assert out.shape == (3, 2, h, w) and out.flags.c_contiguous
        assert np.array_equal(out, loop_avg_pool_2d_adjoint(g, factor, hw))

    @pytest.mark.parametrize("factor,hw", ADJOINT_CASES)
    def test_upsample_adjoint_matches_loop(self, factor, hw):
        # the fine grid may be cropped below h * factor, as cfaa does for odd
        # sizes, down to the smallest grid that still reaches every coarse cell
        h, w = hw
        for target in ((h * factor, w * factor), ((h - 1) * factor + 1, (w - 1) * factor + 1)):
            g = Rng(10 + factor).normal((3, 2, *target))
            out = upsample_nearest_2d_adjoint(g, factor, hw)
            assert out.shape == (3, 2, h, w)
            np.testing.assert_allclose(out, loop_upsample_nearest_2d_adjoint(g, factor, hw), rtol=1e-14, atol=1e-14)


    def test_mismatched_grad_extents_rejected(self):
        with pytest.raises(DimensionError):
            avg_pool_2d_adjoint(np.ones((1, 1, 2, 2)), 2, (8, 8))
        with pytest.raises(DimensionError):
            upsample_nearest_2d_adjoint(np.ones((1, 1, 3, 2)), 2, (1, 1))


class TestRng:
    def test_same_seed_identical_streams(self):
        a = Rng(42).uniform_init((4, 4), 16)
        b = Rng(42).uniform_init((4, 4), 16)
        assert np.array_equal(a, b)

    def test_children_independent_of_sibling_draws(self):
        r1 = Rng(1)
        _ = r1.child(0).normal((10,))
        a = r1.child(1).normal((3,))
        b = Rng(1).child(1).normal((3,))
        assert np.array_equal(a, b)

    def test_init_bound(self):
        draws = Rng(2).uniform_init((1000,), 4)
        assert np.max(np.abs(draws)) <= 0.5


class TestContainer:
    def test_roundtrip(self, tmp_path):
        x = Rng(3).normal((2, 3, 4))
        p = tmp_path / "t.aakt"
        save_tensor(p, x)
        assert np.array_equal(load_tensor(p), x)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.aakt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError, match="magic"):
            load_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.aakt"
        save_tensor(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="payload"):
            load_tensor(p)
