"""Attention kernels over (C, T, H, W) feature maps.

Two ops, each with a forward pass and an analytic backward pass; every
forward takes ``(x, params, cfg)`` and returns ``(out, cache)``, and every
backward takes ``(d_out, params, cache)`` and returns ``(d_x, grads)`` with
gradients named like params. Both run one module path: the input's channels
split into groups, each group average-pooled by its factor, passed through
its axial attention layers in sequence and upsampled back; the groups'
outputs are concatenated, projected back to C_in and added to the input.
Every layer runs on one axial attention core (one softmax, one analytic
backward, one place that counts multiplies and checks the logits):
attention restricted to 1-D lines along one axis (height, width, time, or
one line through a volume's T*H*W positions), with every axis but the
channel axis and the attended one a batch axis. The core keeps queries,
keys, values and attention weights as (heads, lines, L, d) stacks, so each
projection and each score/value contraction, relative positional terms
included, is one stacked ``np.matmul``. With ``encoding="relative"`` it is
position-sensitive: learned relative positional embeddings add q^T r^q and
k^T r^k logit terms and a value-side r^v term. A layer carries relative
tables if and only if the encoding is ``"relative"``. One private table,
``_layer_shapes``, states every layer parameter's shape: the initialiser
draws from it, and each public forward and backward checks its params'
names and shapes against it (plus the output projection's), so the core
takes its params as given.

``module_layers(kind, cfg)`` is the one place that lists a module's layers,
as groups (pooling factor, [(parameter prefix, axis, input channels, axis
length)]); the initialisers, the forward and the FLOP model read it:

* 3D self-attention (``"nonlocal3d"``): one group at factor 1 with one layer
  along the T*H*W line (single head, no positional encoding).
* coarse-to-fine module (``"cfaa"``): S groups; group s (from 0) is pooled
  by 2^s and runs height, width and time axial attention in sequence. At
  S = 1 it is one axial block (position-sensitive with the relative
  encoding): the three axes in sequence at full resolution.

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
All math is float64 numpy. For cost-model cross-checks, a
``with count_multiplies() as counter:`` block yields an object whose int
``total`` counts the multiplies of the score/value contractions run inside it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError
from .tensor import Rng, as_int, as_tensor, check_finite
from .tensor import avg_pool_2d, avg_pool_2d_adjoint
from .tensor import upsample_nearest_2d, upsample_nearest_2d_adjoint

AXES = ("T", "H", "W")
ENCODINGS = ("none", "sinusoidal", "relative")

# ---------------------------------------------------------------------------
# multiply instrumentation


_ACTIVE_COUNTER: SimpleNamespace | None = None


@contextmanager
def count_multiplies():
    """Count scalar multiplies in attention score/value contractions executed
    inside the block into the int ``total`` of the object it yields. Projections
    and softmax are not counted; a nested block's multiplies count in it only."""
    global _ACTIVE_COUNTER
    prev = _ACTIVE_COUNTER
    counter = _ACTIVE_COUNTER = SimpleNamespace(total=0)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER = prev


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
        try:
            t, h, w = self.axis_lengths
        except (TypeError, ValueError):
            raise ValidationError(f"axis_lengths must hold 3 entries (T, H, W), got {self.axis_lengths!r}") from None
        for name in ("c_in", "c_qk", "c_out", "heads", "scales"):
            as_int(getattr(self, name), name, 1)
        for axis, n in zip(AXES, (t, h, w)):
            as_int(n, f"axis length {axis}", 1)
        if self.encoding not in ENCODINGS:
            raise ValidationError(f"unknown encoding {self.encoding!r}")
        for name in ("c_in", "c_qk", "c_out"):
            if getattr(self, name) % self.scales:
                raise ValidationError(f"{name}={getattr(self, name)} not divisible by scales={self.scales}")
        if (self.c_qk // self.scales) % self.heads or (self.c_out // self.scales) % self.heads:
            raise ValidationError(
                f"per-scale c_qk={self.c_qk // self.scales} / c_out={self.c_out // self.scales} "
                f"not divisible by heads={self.heads}"
            )
        dq = self.c_qk // self.scales // self.heads
        if self.encoding == "sinusoidal" and dq % 2:
            raise ValidationError(f"sinusoidal encoding needs an even per-head q/k width, got {dq}")
        min_hw = 2 ** (self.scales - 1)
        if h < min_hw or w < min_hw:
            raise ValidationError(f"H={h}, W={w} must each be >= {min_hw} for scales={self.scales}")

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
        raise ValidationError(f"sinusoidal encoding dim must be even and positive, got {dim}")
    if axis_length < 1:
        raise ValidationError(f"axis_length must be >= 1, got {axis_length}")
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


def module_layers(kind: str, cfg: AttentionConfig) -> list:
    """The layers of one attention module of kind "nonlocal3d" or "cfaa" at cfg,
    as channel groups (pooling factor, [(parameter prefix, axis, input
    channels, axis length)]). Non-local is one group at factor 1 with one
    layer along each volume's T*H*W line. CF-AA's group s pools by 2^s and
    runs AA^H, AA^W, AA^T in that order over scale s's extents, the first
    layer reading c_in/S channels and the others c_out/S."""
    if kind == "nonlocal3d":
        if cfg.heads != 1 or cfg.encoding != "none" or cfg.scales != 1:
            raise ValidationError("3D self-attention uses a single head, no encoding, one scale")
        return [(1, [("", "THW", cfg.c_in, math.prod(cfg.axis_lengths))])]
    if kind != "cfaa":
        raise ValidationError(f"unknown attention module {kind!r}, expected 'nonlocal3d' or 'cfaa'")
    per_in, per_out = cfg.c_in // cfg.scales, cfg.c_out // cfg.scales
    return [(2**s, [(f"scale{s}.aa_h.", "H", per_in, h), (f"scale{s}.aa_w.", "W", per_out, w),
                    (f"scale{s}.aa_t.", "T", per_out, t)])
            for s, (t, h, w) in enumerate(map(cfg.scale_extents, range(cfg.scales)))]


def _layer_shapes(cfg: AttentionConfig, c_x: int, length: int) -> dict[str, tuple[int, int]]:
    """One axial layer's parameter shapes in draw order: projections w_q, w_k
    (c_qk, c_x) and w_v (c_out, c_x) per scale and, with relative encoding,
    tables holding one vector per offset -(L-1)..L-1 (2L-1 rows) with per-head
    width c_qk/heads (r_q, r_k) or c_out/heads (r_v), shared across heads."""
    cqk, cout = cfg.c_qk // cfg.scales, cfg.c_out // cfg.scales
    n, dq, dv = 2 * length - 1, cqk // cfg.heads, cout // cfg.heads
    return dict(zip(_LAYER_KEYS[cfg.encoding], [(cqk, c_x), (cqk, c_x), (cout, c_x), (n, dq), (n, dq), (n, dv)]))


def _check_params(params: dict, shapes: dict, encoding: str):
    """Reject params whose names are not exactly those of shapes, naming the
    first stray or missing one, or one whose array has another shape."""
    for key in [k for k in params if k not in shapes] + [k for k in shapes if k not in params]:
        table = key.rpartition(".")[2] in _TABLES
        if key not in shapes:
            raise ValidationError(f"relative tables r_q/r_k/r_v need encoding 'relative', got {encoding!r}"
                                  if table and encoding != "relative" else f"unknown parameter {key!r}")
        raise ValidationError(f"relative encoding requires table {key}" if table else f"missing parameter {key!r}")
    for name, shape in shapes.items():
        if np.shape(params[name]) != shape:
            raise ValidationError(f"parameter {name!r} has shape {np.shape(params[name])}, expected {shape}")


def init_axial_layer(cfg: AttentionConfig, c_x: int, axis_len: int, rng: Rng) -> dict[str, np.ndarray]:
    """One axial layer's parameters, shaped as _layer_shapes lists them:
    parameter i is drawn from rng.child(i) with its row width as fan-in."""
    return {name: rng.child(i).uniform_init(shape, shape[1])
            for i, (name, shape) in enumerate(_layer_shapes(cfg, c_x, axis_len).items())}


def init_nonlocal_params(cfg: AttentionConfig, rng: Rng) -> dict[str, np.ndarray]:
    """One axial layer along the T*H*W line, then the output projection w_o (c_in, c_out)."""
    [(_, [(_, _, c_x, length)])] = module_layers("nonlocal3d", cfg)
    params = init_axial_layer(cfg, c_x, length, rng)
    params["w_o"] = rng.child(3).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out)
    return params


def init_cfaa_params(cfg: AttentionConfig, rng: Rng) -> dict[str, np.ndarray]:
    """One axial layer per axis and scale, named scale<s>.aa_<axis>.<key>,
    then the output projection w_o (c_in, c_out)."""
    params = {}
    for s, (_, layers) in enumerate(module_layers("cfaa", cfg)):
        for i, (prefix, _, c_x, length) in enumerate(layers):
            params.update((prefix + k, v) for k, v in init_axial_layer(cfg, c_x, length, rng.child(10 + s, i)).items())
    params["w_o"] = rng.child(9).uniform_init((cfg.c_in, cfg.c_out), cfg.c_out)
    return params


# ---------------------------------------------------------------------------
# axial attention engine

# from the end, so leading axes are batch axes; "THW" is one line through each volume's T*H*W positions
_AXIS_INDEX = {"T": -3, "H": -2, "W": -1, "THW": -1}


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
    the arrays _layer_shapes lists for x's channels and this axis's length;
    the public ops check their names and shapes, and the core checks only the axis.
    """
    if axis not in _AXIS_INDEX:
        raise ValidationError(f"unknown axis {axis!r}, expected one of {(*AXES, 'THW')}")
    c_x, shape = x.shape[0], x.shape
    if axis == "THW":
        x = x.reshape(*shape[:-3], -1)
    cqk, cout = p["w_q"].shape[0], p["w_v"].shape[0]
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
        rq, rk, rv = (_gather_offsets(p[name], length) for name in _TABLES)  # (L, L, dq|dq|dv)

    logits = q @ k.swapaxes(-1, -2)  # (heads, b, L, L)
    if rq is not None:
        # q term stacked over the query index i, k term over the key index j
        logits += (q.swapaxes(1, 2) @ rq.swapaxes(1, 2)).swapaxes(1, 2)
        logits += (k.swapaxes(1, 2) @ rk.transpose(1, 2, 0)).transpose(0, 2, 3, 1)
    # q.k and attn.v, plus the q.r^q, k.r^k and attn.r^v terms with relative tables
    if _ACTIVE_COUNTER is not None:
        _ACTIVE_COUNTER.total += int(heads * b * length * length * (dq + dv if rq is None else 3 * dq + 2 * dv))

    attn = _softmax(check_finite(logits, "attention logits"))

    y = attn @ v  # (heads, b, L, dv)
    if rv is not None:
        y += (attn.swapaxes(1, 2) @ rv).swapaxes(1, 2)

    out = np.moveaxis(y.transpose(0, 3, 1, 2).reshape(cout, *lines.shape[1:]), -1, ax).reshape(cout, *shape[1:])
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
    d_x = np.moveaxis(d_xp.T.reshape(-1, *cache["lines"]), -1, ax).reshape(-1, *d_out.shape[1:])

    if rq is not None:
        grads.update(zip(_TABLES, (_scatter_offsets(g, length) for g in (d_rq_full, d_rk_full, d_rv_full))))
    return np.ascontiguousarray(d_x), grads


# ---------------------------------------------------------------------------
# public forward/backward ops


def _module_forward(x, params: dict, cfg: AttentionConfig, kind: str, what: str):
    """x + w_o z for x ([N,] C, T, H, W), where z concatenates the outputs of
    module_layers(kind, cfg)'s groups: a group's slice of x's channels is
    average-pooled by its factor, passed through its layers in order, each
    reading params[prefix + key], and upsampled back. w_o is one matmul per volume."""
    groups = module_layers(kind, cfg)
    x = as_tensor(x, "x")
    _check_extents(x, cfg)
    shapes = {prefix + k: shape for _, layers in groups for prefix, _, c_x, length in layers
              for k, shape in _layer_shapes(cfg, c_x, length).items()} | {"w_o": (cfg.c_in, cfg.c_out)}
    _check_params(params, shapes, cfg.encoding)
    layer_keys = _LAYER_KEYS[cfg.encoding]
    xc = np.moveaxis(x, -4, 0)  # channels first: (C, [N,] T, H, W)
    outs, caches = [], []
    for g, (factor, layers) in enumerate(groups):
        per_in = layers[0][2]
        z = xc[g * per_in : (g + 1) * per_in]
        if factor > 1:  # at factor 1 pooling and upsampling would only copy
            z = avg_pool_2d(z, factor)
        chain = []
        for prefix, axis, _, _ in layers:
            z, layer_cache = _axial_core_forward(z, {k: params[prefix + k] for k in layer_keys}, axis,
                                                 cfg.heads, cfg.encoding)
            chain.append({**layer_cache, "prefix": prefix})
        caches.append(dict(chain=chain, factor=factor, pooled_hw=z.shape[-2:]))
        outs.append(upsample_nearest_2d(z, factor, target_hw=x.shape[-2:]) if factor > 1 else z)
    z = np.moveaxis(outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0), 0, -4)  # x's layout
    out = check_finite(x + (params["w_o"] @ z.reshape(*z.shape[:-3], -1)).reshape(x.shape), what)
    return out, dict(scale_caches=caches, z=z, shape=x.shape, shapes=shapes, encoding=cfg.encoding)


def _module_backward(d_out, params: dict, cache: dict):
    """Backward of _module_forward. Returns (d_x, gradients named like params)."""
    _check_params(params, cache["shapes"], cache["encoding"])
    d_out = as_tensor(d_out, "upstream gradient")
    if d_out.shape != cache["shape"]:
        raise ValidationError(f"upstream gradient shape {d_out.shape} != forward shape {cache['shape']}")
    w_o, z, layer_keys = params["w_o"], cache["z"], _LAYER_KEYS[cache["encoding"]]
    d_flat, z_flat = d_out.reshape(*d_out.shape[:-3], -1), z.reshape(*z.shape[:-3], -1)
    d_z = np.moveaxis((w_o.T @ d_flat).reshape(z.shape), -4, 0)  # channels first
    grads = {"w_o": (d_flat @ z_flat.swapaxes(-1, -2)).reshape(-1, *w_o.shape).sum(axis=0)}
    per_out = d_z.shape[0] // len(cache["scale_caches"])
    d_groups = []
    for g, sc in enumerate(cache["scale_caches"]):
        d = d_z[g * per_out : (g + 1) * per_out]
        if sc["factor"] > 1:
            d = upsample_nearest_2d_adjoint(d, sc["factor"], sc["pooled_hw"])
        for layer_cache in reversed(sc["chain"]):
            prefix = layer_cache["prefix"]
            d, layer_grads = _axial_core_backward(d, {k: params[prefix + k] for k in layer_keys}, layer_cache)
            grads.update((prefix + k, v) for k, v in layer_grads.items())
        d_groups.append(avg_pool_2d_adjoint(d, sc["factor"], d_out.shape[-2:]) if sc["factor"] > 1 else d)
    d_xc = d_groups[0] if len(d_groups) == 1 else np.concatenate(d_groups, axis=0)
    return d_out + np.moveaxis(d_xc, 0, -4), {k: grads[k] for k in params}


def nonlocal_3d_forward(x, params: dict, cfg: AttentionConfig):
    """3D self-attention on one (C, T, H, W) volume or an (N, C, T, H, W) batch: the module's one
    group at factor 1, one layer along each volume's T*H*W line, then output projection and residual add."""
    return _module_forward(x, params, cfg, "nonlocal3d", "3D attention output")


def nonlocal_3d_backward(d_out, params: dict, cache: dict):
    """Returns (d_x, gradients named like params)."""
    return _module_backward(d_out, params, cache)


def cfaa_forward(x, params: dict, cfg: AttentionConfig):
    """Coarse-to-fine module on one (C, T, H, W) volume or a batch
    (N, C, T, H, W): channel split, per-scale pooled axial attention (H, W, T
    in sequence), upsample, concat, project to C_in, residual add."""
    return _module_forward(x, params, cfg, "cfaa", "coarse-to-fine output")


def cfaa_backward(d_out, params: dict, cache: dict):
    """Returns (d_x, gradients named like params)."""
    return _module_backward(d_out, params, cache)


def _check_extents(x: np.ndarray, cfg: AttentionConfig):
    """x is one (C, T, H, W) volume of cfg's extents or an (N, C, T, H, W) stack of them."""
    if x.ndim not in (4, 5):
        raise ValidationError(f"expected (C, T, H, W) or (N, C, T, H, W) input, got shape {x.shape}")
    want = (cfg.c_in, *cfg.axis_lengths)
    if x.shape[-4:] != want:
        raise ValidationError(f"input shape {x.shape} does not match config {want}")
