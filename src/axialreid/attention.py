"""Attention kernels over (C, T, H, W) feature maps.

Two ops, each with a forward pass and an analytic backward pass; every
forward takes ``(x, params, cfg)`` and returns ``(out, cache)``, and every
backward takes ``(d_out, params, cache)`` and returns ``(d_x, grads)`` with
gradients named like params. Both run on one axial attention core (one
softmax, one analytic backward, one place that counts multiplies and checks
the logits): attention restricted to 1-D lines along one axis (height, width
or time), with every axis but the channel axis and the attended one a batch
axis. The core keeps queries, keys, values and attention weights as
(heads, lines, L, d) stacks, so each projection and each score/value
contraction, relative positional terms included, is one stacked
``np.matmul``. With ``encoding="relative"`` it is position-sensitive: learned
relative positional embeddings add q^T r^q and k^T r^k logit terms and a
value-side r^v term. A layer carries relative tables if and only if the
encoding is ``"relative"``.

* 3D self-attention: the core along one line that holds all T*H*W
  positions (single head, no positional encoding), then output projection
  and residual add.
* coarse-to-fine module: the input is split into S channel groups, group s is
  average-pooled by 2^(s-1), passed through height/width/time axial attention
  in sequence, upsampled, concatenated, projected back to C_in and added to
  the input. At S = 1 it is one axial block (position-sensitive with the
  relative encoding): the three axes in sequence at full resolution.

Both take one (C, T, H, W) volume or a batch (N, C, T, H, W), which runs
channels first as (C, N, T, H, W) in one pass; the output projection is one
matmul per volume.

The softmax subtracts each row's max, exponentiates and normalises in place.
A reduction over the last axis costs about the same per row whatever L, so
short rows are reduced by column ops instead, one ufunc call per key over
every row at once:

* the row max of a row of up to 16 keys is a fold of its key columns with
  ``np.maximum``. The max is exact either way (where 0.0 ties -0.0, either
  zero gives the same exp(x - m)); longer rows take the reduction;
* the row sums of the softmax and of its backward are ``_row_sum``: column
  adds in numpy's own summation order for rows of up to 8 entries, so the
  bits are those of ``x.sum(-1)``; longer rows keep the reduction.

Every projection and score/value contraction stays one ``np.matmul``, a BLAS
call, with the operand transposes it always had: OpenBLAS fuses
multiply-adds, so an elementwise form of a short product, or a product
handed a transposed operand, gives other bits. The relative tables are
read-only strided views of the (2L-1, d) parameters, and the products over
them keep the bits of those over a gathered copy. CHANGES.md holds the
timings behind these choices.

Projections are per-position linear maps (1x1x1 convolutions) without bias.
All math is float64 numpy; multiply counts of the score/value contractions can
be instrumented via ``count_multiplies`` for cost-model cross-checks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import Rng, as_tensor, check_finite
from .tensor import avg_pool_2d, avg_pool_2d_adjoint
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
        dq = self.c_qk // self.scales // self.heads
        if self.encoding == "sinusoidal" and dq % 2:
            raise ConfigurationError(f"sinusoidal encoding needs an even per-head q/k width, got {dq}")
        min_hw = 2 ** (self.scales - 1)
        if h < min_hw or w < min_hw:
            raise ConfigurationError(f"H={h}, W={w} must each be >= {min_hw} for scales={self.scales}")

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
# parameters: name -> array dicts

_TABLES = ("r_q", "r_k", "r_v")
_LAYER_KEYS = {e: ("w_q", "w_k", "w_v", *(_TABLES if e == "relative" else ())) for e in ENCODINGS}
_CHAIN = (("aa_h", "H"), ("aa_w", "W"), ("aa_t", "T"))  # one CF-AA scale's layers, in the order applied


def _sub(params: dict, prefix: str) -> dict:
    """The entries of params whose names start with prefix, with it stripped."""
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _check_keys(params: dict, want: list[str] | tuple[str, ...], encoding: str) -> dict:
    """Reject params whose names are not exactly want, naming the first stray or
    missing one. Returns the accepted names and encoding as cache entries, so
    that a backward can check its params against the forward's."""
    known = set(want)
    for key in [k for k in params if k not in known] + [k for k in want if k not in params]:
        table = key.rpartition(".")[2] in _TABLES
        if key not in known:
            raise ConfigurationError(f"relative tables r_q/r_k/r_v need encoding 'relative', got {encoding!r}"
                                     if table and encoding != "relative" else f"unknown parameter {key!r}")
        raise ConfigurationError(f"relative encoding requires table {key}" if table else f"missing parameter {key!r}")
    return dict(names=tuple(want), encoding=encoding)


def init_axial_layer(cfg: AttentionConfig, c_x: int, axis_len: int, rng: Rng) -> dict[str, np.ndarray]:
    """One axial attention layer: projections w_q, w_k (c_qk, c_x) and w_v
    (c_out, c_x) per scale and, with relative encoding, tables holding one
    vector per offset -(L-1)..L-1 (2L-1 rows) with per-head width c_qk/heads
    (r_q, r_k) or c_out/heads (r_v), shared across heads."""
    cqk = cfg.c_qk // cfg.scales
    cout = cfg.c_out // cfg.scales
    p = {
        "w_q": rng.child(0).uniform_init((cqk, c_x), c_x),
        "w_k": rng.child(1).uniform_init((cqk, c_x), c_x),
        "w_v": rng.child(2).uniform_init((cout, c_x), c_x),
    }
    if cfg.encoding == "relative":
        dq, dv, n = cqk // cfg.heads, cout // cfg.heads, 2 * axis_len - 1
        p["r_q"] = rng.child(3).uniform_init((n, dq), dq)
        p["r_k"] = rng.child(4).uniform_init((n, dq), dq)
        p["r_v"] = rng.child(5).uniform_init((n, dv), dv)
    return p


def init_nonlocal_params(cfg: AttentionConfig, rng: Rng) -> dict[str, np.ndarray]:
    """One axial layer along the T*H*W line, then the output projection w_o (c_in, c_out)."""
    params = init_axial_layer(cfg, cfg.c_in, math.prod(cfg.axis_lengths), rng)
    params["w_o"] = rng.child(3).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out)
    return params


def init_cfaa_params(cfg: AttentionConfig, rng: Rng) -> dict[str, np.ndarray]:
    """One axial layer per axis and scale, named scale<s>.aa_<axis>.<key>,
    then the output projection w_o (c_in, c_out)."""
    per_in = cfg.c_in // cfg.scales
    per_out = cfg.c_out // cfg.scales
    params = {}
    for s in range(cfg.scales):
        extents = dict(zip(AXES, cfg.scale_extents(s)))
        srng = rng.child(10 + s)
        for i, (name, axis) in enumerate(_CHAIN):
            layer = init_axial_layer(cfg, per_out if i else per_in, extents[axis], srng.child(i))
            params.update({f"scale{s}.{name}.{k}": v for k, v in layer.items()})
    params["w_o"] = rng.child(9).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out)
    return params


# ---------------------------------------------------------------------------
# axial attention engine

_AXIS_INDEX = {"T": -3, "H": -2, "W": -1}  # from the end, so leading axes are batch axes


def _gather_offsets(table: np.ndarray, length: int) -> np.ndarray:
    """(2L-1, d) offset table -> read-only (L, L, d) view with entry [i, j] =
    table[j - i + L - 1]: it starts at row L-1 and steps one row back per i
    and one row on per j, so it stays inside the table. Row i is the
    contiguous block of table rows L-1-i .. 2L-2-i, the matrix that a
    gathered copy would hand the products."""
    rows, cols = table.strides
    return np.lib.stride_tricks.as_strided(table[length - 1 :], (length, length, table.shape[1]),
                                           (-rows, rows, cols), writeable=False)


def _scatter_offsets(grad_full: np.ndarray, length: int) -> np.ndarray:
    """Adjoint of _gather_offsets: sum (L, L, d) gradients over constant j - i.
    One shifted add per query row i, so each table row sums its entries in
    increasing i, the order np.add.at takes them in."""
    out = np.zeros((2 * length - 1, grad_full.shape[-1]), dtype=np.float64)
    for i in range(length):
        out[length - 1 - i : 2 * length - 1 - i] += grad_full[i]
    return out


def _per_head(w: np.ndarray, heads: int) -> np.ndarray:
    """(heads*d, c) projection -> (heads, d, c)."""
    return w.reshape(heads, -1, w.shape[1])


def _per_query(a: np.ndarray) -> np.ndarray:
    """(heads, b, L, n) -> (L, heads*b, n): one matrix per index of axis 2."""
    return a.transpose(2, 0, 1, 3).reshape(a.shape[2], -1, a.shape[3])


_FOLD_MAX_LENGTH = 16  # longest row whose max is a fold of its key columns
_COLUMN_SUM_MAX_LENGTH = 8  # longest row summed by column adds


def _row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1, keepdims=True), bit for bit. Rows of up to 8 entries are
    summed by column adds in numpy's own order: from +0.0 in index order, the
    8 entries of a row of 8 first combined pairwise. Longer rows take the
    reduction."""
    n = x.shape[-1]
    if n > _COLUMN_SUM_MAX_LENGTH:
        return x.sum(axis=-1, keepdims=True)
    c = [x[..., j : j + 1] for j in range(n)]
    if n == 8:
        c = [(c[0] + c[1]) + (c[2] + c[3]) + ((c[4] + c[5]) + (c[6] + c[7]))]
    s = c[0] + 0.0
    for col in c[1:]:
        s += col
    return s


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of finite logits, in place; returns logits.
    The row max of a short row is a fold of its key columns (see the module
    docstring), and the row sum is _row_sum."""
    if logits.shape[-1] > _FOLD_MAX_LENGTH:
        m = logits.max(axis=-1, keepdims=True)
    else:
        m = logits[..., :1].copy()
        for j in range(1, logits.shape[-1]):
            np.maximum(m, logits[..., j : j + 1], out=m)
    logits -= m
    np.exp(logits, out=logits)
    logits /= _row_sum(logits)
    return logits


def _softmax_backward(attn: np.ndarray, d_attn: np.ndarray) -> np.ndarray:
    """Gradient of the logits, per (head, line, query) row, from d_attn, the
    gradient of the softmax output attn; computed in place in d_attn, which
    is returned."""
    d_attn -= _row_sum(attn * d_attn)
    d_attn *= attn
    return d_attn


# matmul warns on overflow where einsum did not; the check_finite calls on the
# logits and the output report a diverging run instead
@np.errstate(over="ignore", invalid="ignore")
def _axial_core_forward(x: np.ndarray, p: dict, axis: str, heads: int, encoding: str):
    """Single-layer axial attention on x (c_x, ..., T, H, W); returns (out, cache).

    Every axis but the channel axis and the attended one is a batch axis, so a
    (c_x, N, T, H, W) stack of volumes runs in one call. out has c_out channels
    and x's other extents. q, k, v and attn are kept as (heads, b, L, d) and
    each projection and score/value contraction is one stacked matmul. p holds
    at least the names _LAYER_KEYS[encoding] lists; the public ops check that.
    """
    if axis not in _AXIS_INDEX:
        raise DimensionError(f"unknown axis {axis!r}, expected one of {AXES}")
    c_x = x.shape[0]
    if p["w_q"].shape[1] != c_x:
        raise DimensionError(f"projection expects {p['w_q'].shape[1]} channels, input has {c_x}")
    cqk, cout = p["w_q"].shape[0], p["w_v"].shape[0]
    if cqk % heads or cout % heads:
        raise DimensionError(f"c_qk={cqk}, c_out={cout} must divide heads={heads}")
    ax = _AXIS_INDEX[axis]
    lines = np.moveaxis(x, ax, -1)  # (c_x, ..., L)
    length = lines.shape[-1]
    xp = lines.reshape(c_x, -1).T  # (b*L, c_x): one row per position
    b = xp.shape[0] // length

    dq, dv = cqk // heads, cout // heads
    q, k, v = (
        (xp @ _per_head(p[n], heads).swapaxes(1, 2)).reshape(heads, b, length, -1) for n in ("w_q", "w_k", "w_v")
    )

    if encoding == "sinusoidal":
        enc = sinusoidal_encode(length, dq)  # (L, dq), shared across heads
        q = q + enc
        k = k + enc

    rq = rk = rv = None
    if encoding == "relative":
        for name, want in zip(_TABLES, (dq, dq, dv)):
            if p[name].shape != (2 * length - 1, want):
                raise ConfigurationError(
                    f"{name} has shape {p[name].shape}, expected {(2 * length - 1, want)} for axis length {length}"
                )
        rq, rk, rv = (_gather_offsets(p[name], length) for name in _TABLES)  # (L, L, dq|dq|dv)

    logits = q @ k.swapaxes(-1, -2)  # (heads, b, L, L)
    _count(heads * b * length * length * dq)
    if rq is not None:
        # q term stacked over the query index i, k term over the key index j
        logits += (q.swapaxes(1, 2) @ rq.swapaxes(1, 2)).swapaxes(1, 2)
        _count(heads * b * length * length * dq)
        logits += (k.swapaxes(1, 2) @ rk.transpose(1, 2, 0)).transpose(0, 2, 3, 1)
        _count(heads * b * length * length * dq)

    attn = _softmax(check_finite(logits, "attention logits"))

    y = attn @ v  # (heads, b, L, dv)
    _count(heads * b * length * length * dv)
    if rv is not None:
        y += (attn.swapaxes(1, 2) @ rv).swapaxes(1, 2)
        _count(heads * b * length * length * dv)

    out = np.moveaxis(y.transpose(0, 3, 1, 2).reshape(cout, *lines.shape[1:]), -1, ax)
    cache = dict(xp=xp, q=q, k=k, v=v, attn=attn, rq=rq, rk=rk, rv=rv, axis=ax, heads=heads,
                 lines=lines.shape[1:])
    return check_finite(np.ascontiguousarray(out), "axial attention output"), cache


def _axial_core_backward(d_out: np.ndarray, p: dict, cache: dict):
    """Backward of _axial_core_forward. Returns (d_x, gradients named like p)."""
    ax, heads, xp = cache["axis"], cache["heads"], cache["xp"]
    q, k, v, attn = cache["q"], cache["k"], cache["v"], cache["attn"]
    rq, rk, rv = cache["rq"], cache["rk"], cache["rv"]
    _, b, length, dv = v.shape

    dy = np.moveaxis(d_out, ax, -1).reshape(heads, dv, b, length)
    dy = np.ascontiguousarray(dy.transpose(0, 2, 3, 1))  # (heads, b, L, dv)

    d_attn = dy @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ dy
    if rv is not None:
        d_attn += (dy.swapaxes(1, 2) @ rv.swapaxes(1, 2)).swapaxes(1, 2)
        d_rv_full = _per_query(attn).swapaxes(1, 2) @ _per_query(dy)

    d_logits = _softmax_backward(attn, d_attn)

    d_q = d_logits @ k
    d_k = d_logits.swapaxes(-1, -2) @ q
    if rq is not None:
        d_q += (d_logits.swapaxes(1, 2) @ rq).swapaxes(1, 2)
        d_k += (d_logits.transpose(0, 3, 1, 2) @ rk.swapaxes(0, 1)).swapaxes(1, 2)
        d_rq_full = _per_query(d_logits).swapaxes(1, 2) @ _per_query(q)
        d_rk_full = (_per_query(d_logits.swapaxes(2, 3)).swapaxes(1, 2) @ _per_query(k)).swapaxes(0, 1)

    # sinusoidal encodings are constants: d_q/d_k pass through unchanged
    pairs = [(g.reshape(heads, b * length, -1), p[n]) for g, n in ((d_q, "w_q"), (d_k, "w_k"), (d_v, "w_v"))]
    grads = {n: (g.swapaxes(1, 2) @ xp).reshape(w.shape) for n, (g, w) in zip(("w_q", "w_k", "w_v"), pairs)}
    d_xp = sum(g @ _per_head(w, heads) for g, w in pairs).sum(axis=0)  # (b*L, c_x)
    d_x = np.moveaxis(d_xp.T.reshape(-1, *cache["lines"]), -1, ax)

    if rq is not None:
        grads.update(zip(_TABLES, (_scatter_offsets(g, length) for g in (d_rq_full, d_rk_full, d_rv_full))))
    return np.ascontiguousarray(d_x), grads


# ---------------------------------------------------------------------------
# public forward/backward ops


def _residual_forward(x: np.ndarray, z: np.ndarray, w_o: np.ndarray, what: str):
    """x + w_o z for x ([N,] C, T, H, W): project the attention output z
    (c_out channels first, then x's other axes) back to x's channels, one
    matmul per volume, and add the input. Returns (out, cache)."""
    z = np.moveaxis(z, 0, -4)  # x's layout
    out = check_finite(x + (w_o @ z.reshape(*z.shape[:-3], -1)).reshape(x.shape), what)
    return out, dict(z=z, shape=x.shape)


def _residual_backward(d_out, w_o: np.ndarray, cache: dict):
    """Backward of _residual_forward. Returns (d_out, d_z, d_w_o) with d_z
    channels first like the forward's z; the residual path's input gradient is
    d_out itself."""
    d_out = as_tensor(d_out, "upstream gradient")
    if d_out.shape != cache["shape"]:
        raise DimensionError(f"upstream gradient shape {d_out.shape} != forward shape {cache['shape']}")
    z = cache["z"]
    d_flat, z_flat = d_out.reshape(*d_out.shape[:-3], -1), z.reshape(*z.shape[:-3], -1)
    d_z = (w_o.T @ d_flat).reshape(z.shape)
    d_wo = (d_flat @ z_flat.swapaxes(-1, -2)).reshape(-1, *w_o.shape).sum(axis=0)
    return d_out, np.moveaxis(d_z, -4, 0), d_wo


def check_nonlocal_config(cfg: AttentionConfig) -> None:
    """Reject a config the 3D kernel does not run, and the FLOP model does not price."""
    if cfg.heads != 1 or cfg.encoding != "none" or cfg.scales != 1:
        raise ConfigurationError("3D self-attention uses a single head, no encoding, one scale")


def nonlocal_3d_forward(x, params: dict, cfg: AttentionConfig):
    """3D self-attention on one (C, T, H, W) volume or an (N, C, T, H, W) batch: the axial core along
    one line through each volume's T*H*W positions, then output projection and residual add."""
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    check_nonlocal_config(cfg)
    keys = _check_keys(params, ["w_q", "w_k", "w_v", "w_o"], cfg.encoding)
    xc = np.moveaxis(x, -4, 0)  # channels first: (C, [N,] T, H, W)
    y, core_cache = _axial_core_forward(xc.reshape(*xc.shape[:-3], 1, 1, -1), params, "W", 1, "none")
    out, cache = _residual_forward(x, y, params["w_o"], "3D attention output")
    return out, {**core_cache, **cache, **keys}


def nonlocal_3d_backward(d_out, params: dict, cache: dict):
    """Returns (d_x, gradients named like params)."""
    _check_keys(params, cache["names"], cache["encoding"])
    d_out, d_y, d_wo = _residual_backward(d_out, params["w_o"], cache)
    d_line, grads = _axial_core_backward(d_y, params, cache)
    return np.moveaxis(d_line.reshape(np.moveaxis(d_out, -4, 0).shape), 0, -4) + d_out, {**grads, "w_o": d_wo}


def _chain_forward(x, sp: dict, cfg: AttentionConfig):
    """AA^H then AA^W then AA^T on x with one scale's params; returns (out, caches)."""
    caches = []
    for name, axis in _CHAIN:
        x, cache = _axial_core_forward(x, _sub(sp, f"{name}."), axis, cfg.heads, cfg.encoding)
        caches.append(cache)
    return x, caches


def _chain_backward(d_out, sp: dict, caches):
    grads = {}
    for (name, _), cache in reversed(list(zip(_CHAIN, caches))):
        d_out, g = _axial_core_backward(d_out, _sub(sp, f"{name}."), cache)
        grads.update((f"{name}.{k}", v) for k, v in g.items())
    return d_out, grads


def cfaa_forward(x, params: dict, cfg: AttentionConfig):
    """Coarse-to-fine module on one (C, T, H, W) volume or a batch
    (N, C, T, H, W): channel split, per-scale pooled axial attention (H, W, T
    in sequence), upsample, concat, project to C_in, residual add."""
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    carried = len({k.partition(".")[0] for k in params if k.startswith("scale")})
    if carried != cfg.scales:
        raise ConfigurationError(f"params carry {carried} scales, config says {cfg.scales}")
    layers = [f"scale{s}.{n}.{k}" for s in range(cfg.scales) for n, _ in _CHAIN for k in _LAYER_KEYS[cfg.encoding]]
    keys = _check_keys(params, layers + ["w_o"], cfg.encoding)
    xc = np.moveaxis(x, -4, 0)  # channels first: (C, [N,] T, H, W)
    h, w = x.shape[-2:]
    per_in = cfg.c_in // cfg.scales
    outs, caches = [], []
    for s in range(cfg.scales):
        factor = 2**s
        pooled = avg_pool_2d(xc[s * per_in : (s + 1) * per_in], factor)
        chained, chain_cache = _chain_forward(pooled, _sub(params, f"scale{s}."), cfg)
        outs.append(upsample_nearest_2d(chained, factor, target_hw=(h, w)))
        caches.append(dict(chain=chain_cache, factor=factor, pooled_hw=pooled.shape[-2:], extents=pooled.shape))
    z = np.concatenate(outs, axis=0)  # (c_out, [N,] T, H, W)
    out, cache = _residual_forward(x, z, params["w_o"], "coarse-to-fine output")
    return out, dict(scale_caches=caches, **cache, **keys)


def cfaa_backward(d_out, params: dict, cache: dict):
    """Returns (d_x, gradients named like params)."""
    _check_keys(params, cache["names"], cache["encoding"])
    d_out, d_z, d_wo = _residual_backward(d_out, params["w_o"], cache)
    scales = len(cache["scale_caches"])
    per_in, per_out = d_out.shape[-4] // scales, d_z.shape[0] // scales
    d_x = d_out.copy()
    d_xc = np.moveaxis(d_x, -4, 0)  # a channels-first view of d_x
    grads = {"w_o": d_wo}
    for s in range(scales):
        sc = cache["scale_caches"][s]
        d_chained = upsample_nearest_2d_adjoint(d_z[s * per_out : (s + 1) * per_out], sc["factor"], sc["pooled_hw"])
        d_pooled, g_scale = _chain_backward(d_chained, _sub(params, f"scale{s}."), sc["chain"])
        d_xc[s * per_in : (s + 1) * per_in] += avg_pool_2d_adjoint(d_pooled, sc["factor"], d_out.shape[-2:])
        grads.update((f"scale{s}.{k}", g) for k, g in g_scale.items())
    return d_x, {k: grads[k] for k in params}


def _check_extents(x: np.ndarray, cfg: AttentionConfig):
    """x is one (C, T, H, W) volume of cfg's extents or an (N, C, T, H, W) stack of them."""
    if x.ndim not in (4, 5):
        raise DimensionError(f"expected (C, T, H, W) or (N, C, T, H, W) input, got shape {x.shape}")
    want = (cfg.c_in, *cfg.axis_lengths)
    if x.shape[-4:] != want:
        raise DimensionError(f"input shape {x.shape} does not match config {want}")
