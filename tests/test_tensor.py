import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid.errors import DimensionError, ValidationError
from axialreid.tensor import (
    MAGIC,
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


def loop_avg_pool_2d(x, factor):
    """Reference pooling: one output cell at a time, the mean of its window."""
    c, t, h, w = x.shape
    ho, wo = -(-h // factor), -(-w // factor)
    out = np.empty((c, t, ho, wo))
    for i in range(ho):
        for j in range(wo):
            win = x[:, :, i * factor : min((i + 1) * factor, h), j * factor : min((j + 1) * factor, w)]
            out[:, :, i, j] = win.mean(axis=(2, 3))
    return out


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
    def test_avg_pool_matches_loop(self, factor, hw):
        # reduceat sums each window in another order than the loop's mean
        x = Rng(20 + factor).normal((3, 2, *hw))
        out = avg_pool_2d(x, factor)
        ref = loop_avg_pool_2d(x, factor)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3, 2)])
    def test_any_leading_shape_pools_the_trailing_two_axes(self, lead):
        rng = Rng(30 + len(lead))
        x = rng.child(0).normal((*lead, 7, 5))
        flat = x.reshape(1, -1, 7, 5)  # the same data as one (C, T, H, W) tensor
        pooled = avg_pool_2d(x, 2)
        assert pooled.shape == (*lead, 4, 3)
        assert np.array_equal(pooled.reshape(1, -1, 4, 3), avg_pool_2d(flat, 2))
        g = rng.child(1).normal(pooled.shape)
        assert np.array_equal(avg_pool_2d_adjoint(g, 2, (7, 5)).reshape(flat.shape),
                              avg_pool_2d_adjoint(g.reshape(1, -1, 4, 3), 2, (7, 5)))
        up = upsample_nearest_2d(x, 2, target_hw=(13, 9))
        assert up.shape == (*lead, 13, 9)
        assert np.array_equal(up.reshape(1, -1, 13, 9), upsample_nearest_2d(flat, 2, target_hw=(13, 9)))
        g = rng.child(2).normal(up.shape)
        assert np.array_equal(upsample_nearest_2d_adjoint(g, 2, (7, 5)).reshape(flat.shape),
                              upsample_nearest_2d_adjoint(g.reshape(1, -1, 13, 9), 2, (7, 5)))

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            Rng(-1)


class TestContainer:
    def test_roundtrip(self, tmp_path):
        x = Rng(3).normal((2, 3, 4))
        p = tmp_path / "t.aakt"
        save_tensor(p, x)
        assert np.array_equal(load_tensor(p), x)

    def test_rank0_roundtrip_keeps_shape(self, tmp_path):
        p = tmp_path / "t.aakt"
        save_tensor(p, np.float64(2.5))
        assert p.read_bytes() == b"AAKT" + struct.pack("<II", 1, 0) + struct.pack("<d", 2.5)
        x = load_tensor(p)
        assert x.shape == () and x == 2.5 and x.flags.c_contiguous and x.flags.writeable

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

    def test_peak_memory_is_one_payload(self, tmp_path):
        # Duke-shape distances (702 x 2636); reading the file and copying the
        # payload out of it reads 3x
        x = np.random.default_rng(0).uniform(0.0, 2.0, (702, 2636))
        p = tmp_path / "dist.aakt"
        save_tensor(p, x)
        tracemalloc.start()
        try:
            y = load_tensor(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(y, x)
        assert peak <= 1.25 * x.nbytes, peak / x.nbytes


@st.composite
def container(draw):
    """The bytes of a valid container of rank 0-3, written from the format's
    description, not by save_tensor."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    values = draw(st.lists(st.floats(allow_nan=False, width=64), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    header = MAGIC + struct.pack(f"<II{len(shape)}Q", 1, len(shape), *shape)
    return header + np.array(values, dtype="<f8").tobytes()


def load_or_reject(path):
    """load_tensor's array, checked to write back to the same bytes, or None
    when it raises ValidationError; any other exception escapes."""
    try:
        x = load_tensor(path)
    except ValidationError:
        return None
    assert x.dtype == np.float64 and x.flags.c_contiguous and x.flags.writeable and x.flags.owndata
    blob = path.read_bytes()
    save_tensor(path, x)
    assert path.read_bytes() == blob
    return x


class TestContainerRobustness:
    """Truncated, padded and rewritten containers load to what their bytes say
    or raise ValidationError; nothing else escapes the reader."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(blob=container(), extra=st.binary(min_size=1, max_size=16), magic=st.binary(min_size=4, max_size=4),
           version=st.integers(0, 2**32 - 1), rank=st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1)),
           extents=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**63)), min_size=3, max_size=3))
    def test_every_cut_and_rewrite(self, tmp_path_factory, blob, extra, magic, version, rank, extents):
        p = tmp_path_factory.mktemp("aakt") / "t.aakt"
        p.write_bytes(blob)
        assert load_or_reject(p) is not None
        for cut in range(len(blob)):
            p.write_bytes(blob[:cut])
            assert load_or_reject(p) is None, cut
        p.write_bytes(blob + extra)
        assert load_or_reject(p) is None
        p.write_bytes(magic + blob[4:])
        assert (load_or_reject(p) is None) == (magic != MAGIC)
        p.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        assert (load_or_reject(p) is None) == (version != 1)
        p.write_bytes(blob[:8] + struct.pack("<I", rank) + blob[12:])
        load_or_reject(p)
        old_rank = struct.unpack_from("<I", blob, 8)[0]
        p.write_bytes(blob[:12] + struct.pack(f"<{old_rank}Q", *extents[:old_rank]) + blob[12 + 8 * old_rank:])
        load_or_reject(p)
