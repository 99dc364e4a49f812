"""Attention kernels over (C, T, H, W) feature maps.

Three ops, each with a forward pass and an analytic backward pass; every
backward takes ``(d_out, params, cache)`` and returns ``(d_x, grads)`` with
grads in the params container's type. All three run on one attention core
(one softmax, one analytic backward, one place that counts multiplies and
checks the logits):

* axial attention: attention restricted to 1-D lines along one axis (height,
  width or time); all other coordinates are independent batch items. With
  ``encoding="relative"`` it is position-sensitive: learned relative
  positional embeddings add q^T r^q and k^T r^k logit terms and a value-side
  r^v term. A layer carries relative tables if and only if the encoding is
  ``"relative"``.
* 3D self-attention: the axial core along one line that holds all T*H*W
  positions (single head, no positional encoding), then output projection
  and residual add.
* coarse-to-fine module: the input is split into S channel groups, group s is
  average-pooled by 2^(s-1), passed through height/width/time axial attention
  in sequence, upsampled, concatenated, projected back to C_in and added to
  the input.

Projections are per-position linear maps (1x1x1 convolutions) without bias.
All math is float64 numpy; multiply counts of the score/value contractions can
be instrumented via ``count_multiplies`` for cost-model cross-checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, ValidationError
from .tensor import Rng, as_tensor, check_finite
from .tensor import avg_pool_2d, avg_pool_2d_adjoint, load_tensor, save_tensor
from .tensor import upsample_nearest_2d, upsample_nearest_2d_adjoint

AXES = ("T", "H", "W")
ENCODINGS = ("none", "sinusoidal", "relative")

# ---------------------------------------------------------------------------
# multiply instrumentation


class MultiplyCounter:
    def __init__(self):
        self.total = 0

    def add(self, n: int):
        self.total += int(n)


_ACTIVE_COUNTER: MultiplyCounter | None = None


@contextmanager
def count_multiplies():
    """Count scalar multiplies in attention score/value contractions executed
    inside the block. Projections and softmax are not counted."""
    global _ACTIVE_COUNTER
    prev = _ACTIVE_COUNTER
    counter = MultiplyCounter()
    _ACTIVE_COUNTER = counter
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER = prev


def _count(n: int):
    if _ACTIVE_COUNTER is not None:
        _ACTIVE_COUNTER.add(n)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AttentionConfig:
    """Hyperparameters of one attention module.

    c_qk / c_out are totals across scales; per scale they divide by ``scales``
    and per head by ``heads`` (heads counted per scale).
    """

    c_in: int
    c_qk: int
    c_out: int
    heads: int = 1
    scales: int = 1
    encoding: str = "none"
    axis_lengths: tuple[int, int, int] = (1, 1, 1)  # (T, H, W)

    def __post_init__(self):
        t, h, w = self.axis_lengths
        if min(self.c_in, self.c_qk, self.c_out, self.heads, self.scales, t, h, w) < 1:
            raise ConfigurationError(f"non-positive field in {self}")
        if self.encoding not in ENCODINGS:
            raise ConfigurationError(f"unknown encoding {self.encoding!r}")
        for name in ("c_in", "c_qk", "c_out"):
            if getattr(self, name) % self.scales:
                raise ConfigurationError(f"{name}={getattr(self, name)} not divisible by scales={self.scales}")
        if (self.c_qk // self.scales) % self.heads or (self.c_out // self.scales) % self.heads:
            raise ConfigurationError(
                f"per-scale c_qk={self.c_qk // self.scales} / c_out={self.c_out // self.scales} "
                f"not divisible by heads={self.heads}"
            )
        min_hw = 2 ** (self.scales - 1)
        if h < min_hw or w < min_hw:
            raise ConfigurationError(f"H={h}, W={w} must each be >= {min_hw} for scales={self.scales}")

    @staticmethod
    def default(c_in: int, axis_lengths, heads: int = 1, scales: int = 1, encoding: str = "none") -> "AttentionConfig":
        # q/k width = c_in/2, value/output width = c_in (see flops model notes)
        return AttentionConfig(c_in, c_in // 2, c_in, heads, scales, encoding, tuple(axis_lengths))

    def scale_extents(self, s: int) -> tuple[int, int, int]:
        """(T, H_s, W_s) for scale index s (0-based), ceiling division."""
        t, h, w = self.axis_lengths
        f = 2**s
        return (t, -(-h // f), -(-w // f))


def sinusoidal_encode(axis_length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position table of shape (axis_length, dim); dim must be even.

    Position p, slot 2i holds sin(p / 10000^(2i/dim)), slot 2i+1 the cosine.
    """
    if dim < 2 or dim % 2:
        raise DimensionError(f"sinusoidal encoding dim must be even and positive, got {dim}")
    if axis_length < 1:
        raise DimensionError(f"axis_length must be >= 1, got {axis_length}")
    pos = np.arange(axis_length, dtype=np.float64)[:, None]
    inv = 10000.0 ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    table = np.empty((axis_length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(pos * inv)
    table[:, 1::2] = np.cos(pos * inv)
    return table


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class AxialLayerParams:
    """One axial attention layer: projections plus optional relative tables.

    Relative tables hold one vector per offset -(L-1)..L-1 (2L-1 rows) with
    per-head width c_qk/heads (r_q, r_k) or c_out/heads (r_v), shared across heads.
    """

    w_q: np.ndarray  # (c_qk, c_x)
    w_k: np.ndarray  # (c_qk, c_x)
    w_v: np.ndarray  # (c_out, c_x)
    r_q: np.ndarray | None = None  # (2L-1, c_qk/heads)
    r_k: np.ndarray | None = None
    r_v: np.ndarray | None = None  # (2L-1, c_out/heads)

    def named(self, prefix: str = "axial"):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                yield f"{prefix}.{f.name}", v


@dataclass
class NonlocalParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray  # (c_in, c_out)

    def named(self, prefix: str = "nonlocal"):
        for f in fields(self):
            yield f"{prefix}.{f.name}", getattr(self, f.name)


@dataclass
class ScaleParams:
    """Per-scale parameters of the coarse-to-fine module: one axial layer per axis,
    applied in H, W, T order."""

    aa_h: AxialLayerParams
    aa_w: AxialLayerParams
    aa_t: AxialLayerParams

    def named(self, prefix: str):
        for axis in ("aa_h", "aa_w", "aa_t"):
            yield from getattr(self, axis).named(f"{prefix}.{axis}")


@dataclass
class CfaaParams:
    scales: list[ScaleParams]
    w_o: np.ndarray  # (c_in, c_out)

    def named(self, prefix: str = "cfaa"):
        for s, sp in enumerate(self.scales):
            yield from sp.named(f"{prefix}.scale{s}")
        yield f"{prefix}.w_o", self.w_o


def init_axial_layer(cfg: AttentionConfig, c_x: int, axis_len: int, rng: Rng) -> AxialLayerParams:
    cqk = cfg.c_qk // cfg.scales
    cout = cfg.c_out // cfg.scales
    p = AxialLayerParams(
        w_q=rng.child(0).uniform_init((cqk, c_x), c_x),
        w_k=rng.child(1).uniform_init((cqk, c_x), c_x),
        w_v=rng.child(2).uniform_init((cout, c_x), c_x),
    )
    if cfg.encoding == "relative":
        dq = cqk // cfg.heads
        dv = cout // cfg.heads
        n = 2 * axis_len - 1
        p.r_q = rng.child(3).uniform_init((n, dq), dq)
        p.r_k = rng.child(4).uniform_init((n, dq), dq)
        p.r_v = rng.child(5).uniform_init((n, dv), dv)
    return p


def init_nonlocal_params(cfg: AttentionConfig, rng: Rng) -> NonlocalParams:
    return NonlocalParams(
        w_q=rng.child(0).uniform_init((cfg.c_qk, cfg.c_in), cfg.c_in),
        w_k=rng.child(1).uniform_init((cfg.c_qk, cfg.c_in), cfg.c_in),
        w_v=rng.child(2).uniform_init((cfg.c_out, cfg.c_in), cfg.c_in),
        w_o=rng.child(3).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out),
    )


def init_cfaa_params(cfg: AttentionConfig, rng: Rng, zero_output_proj: bool = False) -> CfaaParams:
    """zero_output_proj starts the module as an identity (the usual trick when
    inserting an attention residual into a network trained from scratch)."""
    per_in = cfg.c_in // cfg.scales
    per_out = cfg.c_out // cfg.scales
    scales = []
    for s in range(cfg.scales):
        t, hs, ws = cfg.scale_extents(s)
        srng = rng.child(10 + s)
        scales.append(
            ScaleParams(
                aa_h=init_axial_layer(cfg, per_in, hs, srng.child(0)),
                aa_w=init_axial_layer(cfg, per_out, ws, srng.child(1)),
                aa_t=init_axial_layer(cfg, per_out, t, srng.child(2)),
            )
        )
    if zero_output_proj:
        w_o = np.zeros((cfg.c_in, cfg.c_out))
    else:
        w_o = rng.child(9).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out)
    return CfaaParams(scales, w_o)


# ---------------------------------------------------------------------------
# axial attention engine

_AXIS_INDEX = {"T": 1, "H": 2, "W": 3}


def _offset_index(length: int) -> np.ndarray:
    """(L, L) map from a query/key pair [i, j] to the row j - i + L - 1 of a
    (2L-1, d) offset table."""
    return np.arange(length)[None, :] - np.arange(length)[:, None] + length - 1


def _gather_offsets(table: np.ndarray, length: int) -> np.ndarray:
    """(2L-1, d) offset table -> (L, L, d) with entry [i, j] = table[j - i + L - 1]."""
    return table[_offset_index(length)]


def _scatter_offsets(grad_full: np.ndarray, length: int) -> np.ndarray:
    """Adjoint of _gather_offsets: sum (L, L, d) gradients over constant j - i."""
    out = np.zeros((2 * length - 1, grad_full.shape[-1]), dtype=np.float64)
    np.add.at(out, _offset_index(length), grad_full)
    return out


def _axial_core_forward(x: np.ndarray, p: AxialLayerParams, axis: str, heads: int, encoding: str):
    """Single-layer axial attention on x (c_x, T, H, W); returns (out, cache).

    out has c_out channels and the same (T, H, W) extents.
    """
    if axis not in _AXIS_INDEX:
        raise DimensionError(f"unknown axis {axis!r}, expected one of {AXES}")
    c_x = x.shape[0]
    if p.w_q.shape[1] != c_x:
        raise DimensionError(f"projection expects {p.w_q.shape[1]} channels, input has {c_x}")
    cqk, cout = p.w_q.shape[0], p.w_v.shape[0]
    if cqk % heads or cout % heads:
        raise DimensionError(f"c_qk={cqk}, c_out={cout} must divide heads={heads}")
    if encoding != "relative" and any(t is not None for t in (p.r_q, p.r_k, p.r_v)):
        raise ConfigurationError(f"relative tables r_q/r_k/r_v need encoding 'relative', got {encoding!r}")
    ax = _AXIS_INDEX[axis]
    ext = x.shape
    length = ext[ax]
    xl = np.moveaxis(x, ax, -1).reshape(c_x, -1, length)  # (c_x, B, L) after channel-first reshape
    # moveaxis keeps channel axis 0; collapse the two off-axes into B
    b = xl.shape[1]

    q = np.einsum("ac,cbl->abl", p.w_q, xl)
    k = np.einsum("ac,cbl->abl", p.w_k, xl)
    v = np.einsum("ac,cbl->abl", p.w_v, xl)
    dq, dv = cqk // heads, cout // heads
    q = q.reshape(heads, dq, b, length)
    k = k.reshape(heads, dq, b, length)
    v = v.reshape(heads, dv, b, length)

    enc = None
    if encoding == "sinusoidal":
        enc = sinusoidal_encode(length, dq).T  # (dq, L), shared across heads
        q = q + enc[None, :, None, :]
        k = k + enc[None, :, None, :]

    logits = np.einsum("mdbi,mdbj->mbij", q, k)
    _count(heads * b * length * length * dq)

    rq = rk = rv = None
    if encoding == "relative":
        for name, tab, want in (("r_q", p.r_q, dq), ("r_k", p.r_k, dq), ("r_v", p.r_v, dv)):
            if tab is None:
                raise ConfigurationError(f"relative encoding requires table {name}")
            if tab.shape != (2 * length - 1, want):
                raise ConfigurationError(
                    f"{name} has shape {tab.shape}, expected {(2 * length - 1, want)} for axis length {length}"
                )
        rq = _gather_offsets(p.r_q, length)  # (L, L, dq)
        rk = _gather_offsets(p.r_k, length)
        rv = _gather_offsets(p.r_v, length)  # (L, L, dv)
        logits = logits + np.einsum("mdbi,ijd->mbij", q, rq)
        _count(heads * b * length * length * dq)
        logits = logits + np.einsum("mdbj,ijd->mbij", k, rk)
        _count(heads * b * length * length * dq)

    check_finite(logits, "attention logits")
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    attn = e / e.sum(axis=-1, keepdims=True)

    y = np.einsum("mbij,mdbj->mdbi", attn, v)
    _count(heads * b * length * length * dv)
    if encoding == "relative":
        y = y + np.einsum("mbij,ijd->mdbi", attn, rv)
        _count(heads * b * length * length * dv)

    out = y.reshape(cout, b, length)
    out = np.moveaxis(out.reshape([cout] + [ext[i] for i in range(1, 4) if i != ax] + [length]), -1, ax)
    cache = dict(xl=xl, q=q, k=k, v=v, attn=attn, rq=rq, rk=rk, rv=rv, axis=ax, length=length, b=b, heads=heads, encoding=encoding, ext=ext)
    return check_finite(np.ascontiguousarray(out), "axial attention output"), cache


def _axial_core_backward(d_out: np.ndarray, p: AxialLayerParams, cache: dict):
    """Backward of _axial_core_forward. Returns (d_x, grads: AxialLayerParams)."""
    ax, length, b, heads = cache["axis"], cache["length"], cache["b"], cache["heads"]
    xl, q, k, v, attn = cache["xl"], cache["q"], cache["k"], cache["v"], cache["attn"]
    rq, rk, rv = cache["rq"], cache["rk"], cache["rv"]
    ext = cache["ext"]
    cout = p.w_v.shape[0]
    dv = v.shape[1]

    dy = np.moveaxis(d_out, ax, -1).reshape(cout, b, length).reshape(heads, dv, b, length)

    d_attn = np.einsum("mebi,mebj->mbij", dy, v)
    if rv is not None:
        d_attn = d_attn + np.einsum("mebi,ije->mbij", dy, rv)
    d_v = np.einsum("mbij,mebi->mebj", attn, dy)
    d_rv_full = np.einsum("mbij,mebi->ije", attn, dy) if rv is not None else None

    # softmax backward per (m, b, i) row
    inner = (attn * d_attn).sum(axis=-1, keepdims=True)
    d_logits = attn * (d_attn - inner)

    d_q = np.einsum("mbij,mdbj->mdbi", d_logits, k)
    d_k = np.einsum("mbij,mdbi->mdbj", d_logits, q)
    d_rq_full = d_rk_full = None
    if rq is not None:
        d_q = d_q + np.einsum("mbij,ijd->mdbi", d_logits, rq)
        d_k = d_k + np.einsum("mbij,ijd->mdbj", d_logits, rk)
        d_rq_full = np.einsum("mbij,mdbi->ijd", d_logits, q)
        d_rk_full = np.einsum("mbij,mdbj->ijd", d_logits, k)

    # sinusoidal encodings are constants: d_q/d_k pass through unchanged
    cqk = p.w_q.shape[0]
    d_q = d_q.reshape(cqk, b, length)
    d_k = d_k.reshape(cqk, b, length)
    d_v2 = d_v.reshape(cout, b, length)

    d_wq = np.einsum("abl,cbl->ac", d_q, xl)
    d_wk = np.einsum("abl,cbl->ac", d_k, xl)
    d_wv = np.einsum("abl,cbl->ac", d_v2, xl)
    d_xl = (
        np.einsum("ac,abl->cbl", p.w_q, d_q)
        + np.einsum("ac,abl->cbl", p.w_k, d_k)
        + np.einsum("ac,abl->cbl", p.w_v, d_v2)
    )

    c_x = xl.shape[0]
    d_x = np.moveaxis(d_xl.reshape([c_x] + [ext[i] for i in range(1, 4) if i != ax] + [length]), -1, ax)

    grads = AxialLayerParams(w_q=d_wq, w_k=d_wk, w_v=d_wv)
    if rq is not None:
        grads.r_q = _scatter_offsets(d_rq_full, length)
        grads.r_k = _scatter_offsets(d_rk_full, length)
        grads.r_v = _scatter_offsets(d_rv_full, length)
    return np.ascontiguousarray(d_x), grads


# ---------------------------------------------------------------------------
# public forward/backward ops


def axial_forward(x, params: AxialLayerParams, axis: str, cfg: AttentionConfig, want_cache: bool = False):
    """Axial attention along one axis with cfg.encoding (none, sinusoidal or
    relative); returns the concatenated multi-head output stream (c_out channels)."""
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    out, cache = _axial_core_forward(x, params, axis, cfg.heads, cfg.encoding)
    return (out, cache) if want_cache else out


def axial_backward(d_out, params: AxialLayerParams, cache: dict):
    d_out = as_tensor(d_out, "upstream gradient")
    if d_out.shape[0] != params.w_v.shape[0] or d_out.shape[1:] != cache["ext"][1:]:
        raise DimensionError(f"upstream gradient shape {d_out.shape} does not match forward output")
    return _axial_core_backward(d_out, params, cache)


def _residual_forward(x: np.ndarray, z: np.ndarray, w_o: np.ndarray, what: str):
    """x + w_o z: project the attention output z (c_out channels) back to x's
    channels and add the input. Returns (out, cache)."""
    out = check_finite(x + (w_o @ z.reshape(w_o.shape[1], -1)).reshape(x.shape), what)
    return out, dict(z=z, shape=x.shape)


def _residual_backward(d_out, w_o: np.ndarray, cache: dict):
    """Backward of _residual_forward. Returns (d_out, d_z, d_w_o); the residual
    path's input gradient is d_out itself."""
    d_out = as_tensor(d_out, "upstream gradient")
    if d_out.shape != cache["shape"]:
        raise DimensionError(f"upstream gradient shape {d_out.shape} != forward shape {cache['shape']}")
    z, d_flat = cache["z"], d_out.reshape(d_out.shape[0], -1)
    return d_out, (w_o.T @ d_flat).reshape(z.shape), d_flat @ z.reshape(z.shape[0], -1).T


def nonlocal_3d_forward(x, params: NonlocalParams, cfg: AttentionConfig, want_cache: bool = False):
    """3D self-attention: the axial core along one line through all T*H*W
    positions, then output projection and residual add."""
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    if cfg.heads != 1 or cfg.encoding != "none" or cfg.scales != 1:
        raise ConfigurationError("3D self-attention uses a single head, no encoding, one scale")
    line = AxialLayerParams(params.w_q, params.w_k, params.w_v)
    y, core_cache = _axial_core_forward(x.reshape(x.shape[0], 1, 1, -1), line, "W", 1, "none")
    out, cache = _residual_forward(x, y, params.w_o, "3D attention output")
    return (out, {**core_cache, **cache}) if want_cache else out


def nonlocal_3d_backward(d_out, params: NonlocalParams, cache: dict):
    """Returns (d_x, NonlocalParams gradients)."""
    d_out, d_y, d_wo = _residual_backward(d_out, params.w_o, cache)
    line = AxialLayerParams(params.w_q, params.w_k, params.w_v)
    d_line, g = _axial_core_backward(d_y, line, cache)
    return d_line.reshape(d_out.shape) + d_out, NonlocalParams(g.w_q, g.w_k, g.w_v, d_wo)


def _chain_forward(x, sp: ScaleParams, cfg: AttentionConfig):
    """AA^H then AA^W then AA^T on x; returns (out, caches)."""
    h_out, c_h = _axial_core_forward(x, sp.aa_h, "H", cfg.heads, cfg.encoding)
    w_out, c_w = _axial_core_forward(h_out, sp.aa_w, "W", cfg.heads, cfg.encoding)
    t_out, c_t = _axial_core_forward(w_out, sp.aa_t, "T", cfg.heads, cfg.encoding)
    return t_out, (c_h, c_w, c_t)


def _chain_backward(d_out, sp: ScaleParams, caches):
    c_h, c_w, c_t = caches
    d_w, g_t = _axial_core_backward(d_out, sp.aa_t, c_t)
    d_h, g_w = _axial_core_backward(d_w, sp.aa_w, c_w)
    d_x, g_h = _axial_core_backward(d_h, sp.aa_h, c_h)
    return d_x, ScaleParams(aa_h=g_h, aa_w=g_w, aa_t=g_t)


def cfaa_forward(x, params: CfaaParams, cfg: AttentionConfig, want_cache: bool = False):
    """Coarse-to-fine module: channel split, per-scale pooled axial attention
    (H, W, T in sequence), upsample, concat, project to C_in, residual add."""
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    if len(params.scales) != cfg.scales:
        raise ConfigurationError(f"params carry {len(params.scales)} scales, config says {cfg.scales}")
    c, t, h, w = x.shape
    per_in = c // cfg.scales
    outs, caches = [], []
    for s in range(cfg.scales):
        group = x[s * per_in : (s + 1) * per_in]
        factor = 2**s
        pooled = avg_pool_2d(group, factor)
        chained, chain_cache = _chain_forward(pooled, params.scales[s], cfg)
        up = upsample_nearest_2d(chained, factor, target_hw=(h, w))
        outs.append(up)
        caches.append(dict(chain=chain_cache, factor=factor, pooled_hw=pooled.shape[2:], extents=pooled.shape))
    z = np.concatenate(outs, axis=0)  # (c_out, T, H, W)
    out, cache = _residual_forward(x, z, params.w_o, "coarse-to-fine output")
    return (out, dict(scale_caches=caches, **cache)) if want_cache else out


def cfaa_backward(d_out, params: CfaaParams, cache: dict):
    """Returns (d_x, CfaaParams gradients)."""
    d_out, d_z, d_wo = _residual_backward(d_out, params.w_o, cache)
    c, t, h, w = d_out.shape
    scales = len(params.scales)
    per_in, per_out = c // scales, d_z.shape[0] // scales
    d_x = d_out.copy()
    scale_grads = []
    for s in range(scales):
        sc = cache["scale_caches"][s]
        d_up = d_z[s * per_out : (s + 1) * per_out]
        ph, pw = sc["pooled_hw"]
        d_chained = upsample_nearest_2d_adjoint(d_up, sc["factor"], (ph, pw))
        d_pooled, g_scale = _chain_backward(d_chained, params.scales[s], sc["chain"])
        d_group = avg_pool_2d_adjoint(d_pooled, sc["factor"], (h, w))
        d_x[s * per_in : (s + 1) * per_in] += d_group
        scale_grads.append(g_scale)
    return d_x, CfaaParams(scales=scale_grads, w_o=d_wo)


def _check_extents(x: np.ndarray, cfg: AttentionConfig):
    if x.ndim != 4:
        raise DimensionError(f"expected (C, T, H, W) input, got shape {x.shape}")
    t, h, w = cfg.axis_lengths
    if x.shape != (cfg.c_in, t, h, w):
        raise DimensionError(f"input shape {x.shape} does not match config ({cfg.c_in}, {t}, {h}, {w})")


# ---------------------------------------------------------------------------
# checkpoint I/O: directory of tensor containers plus a manifest


def save_params(directory, named_params) -> None:
    """Write parameters to a directory: one container per tensor plus manifest.txt
    (name, shape, file per line; line order is canonical and stable)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (name, value) in enumerate(named_params):
        fname = f"p{i:04d}.aakt"
        save_tensor(directory / fname, value)
        shape = "x".join(str(e) for e in value.shape)
        lines.append(f"{name}\t{shape}\t{fname}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_params(directory) -> dict[str, np.ndarray]:
    """Read a checkpoint directory back into an ordered name -> tensor mapping."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise ValidationError(f"{directory} has no manifest.txt")
    out: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValidationError(f"{manifest}:{lineno}: malformed manifest line")
        name, shape_s, fname = parts
        arr = load_tensor(directory / fname)
        want = tuple(int(e) for e in shape_s.split("x"))
        if arr.shape != want:
            raise ValidationError(f"{manifest}:{lineno}: {name} has shape {arr.shape}, manifest says {want}")
        out[name] = arr
    return out
