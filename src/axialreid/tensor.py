"""Dense f64 tensor substrate: validation, pooling, seeded initialization, and
the binary container format used for all file I/O.

Tensors are plain ``numpy.ndarray`` values in float64, row-major. Every public
operation validates its inputs and guarantees a finite result.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DimensionError, NumericalError, ValidationError

MAGIC = b"AAKT"
FORMAT_VERSION = 1


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array of the same rank and validate extents."""
    arr = np.asarray(x, dtype=np.float64, order="C")  # ascontiguousarray would make a scalar 1-d
    for ext in arr.shape:
        if ext <= 0:
            raise DimensionError(f"{name} has non-positive extent in shape {arr.shape}")
    return arr


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split at line feeds only (a trailing
    carriage return dropped), so that line i is the i-th line an editor shows.
    Bytes that are not UTF-8 raise ValidationError naming their line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def check_finite(arr: np.ndarray, name: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} contains non-finite values")
    return arr


def _window_counts(h: int, w: int, factor: int):
    """Window starts along H and W and the (ceil(H/f), ceil(W/f)) cell count
    of each window; edge windows are shorter."""
    rows, cols = np.arange(0, h, factor), np.arange(0, w, factor)
    counts = (np.minimum(rows + factor, h) - rows)[:, None] * (np.minimum(cols + factor, w) - cols)[None, :]
    return rows, cols, counts


def avg_pool_2d(x, factor: int) -> np.ndarray:
    """Average-pool the trailing two axes (H, W) of a tensor of any leading shape.

    Output extents are ceil(H/factor) x ceil(W/factor); edge windows that only
    partially cover the input average over the covered cells.
    """
    x = as_tensor(x, "x")
    if x.ndim < 2:
        raise DimensionError(f"avg_pool_2d expects (..., H, W) input, got shape {x.shape}")
    if factor < 1:
        raise DimensionError(f"pooling factor must be >= 1, got {factor}")
    if factor == 1:
        return x.copy()
    rows, cols, counts = _window_counts(*x.shape[-2:], factor)
    sums = np.add.reduceat(np.add.reduceat(x, cols, axis=-1), rows, axis=-2)
    return check_finite(sums / counts, "avg_pool_2d result")


def avg_pool_2d_adjoint(grad, factor: int, in_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of avg_pool_2d: spreads each cell gradient, divided by its
    window's cell count, over its window (repeat, then crop the edge windows)."""
    grad = as_tensor(grad, "grad")
    h, w = in_hw
    if grad.shape[-2:] != (-(-h // factor), -(-w // factor)):
        raise DimensionError(f"grad extents {grad.shape[-2:]} do not match avg_pool_2d of {in_hw} by {factor}")
    cells = grad / _window_counts(h, w, factor)[2]
    return np.ascontiguousarray(np.repeat(np.repeat(cells, factor, axis=-2), factor, axis=-1)[..., :h, :w])


def upsample_nearest_2d(x, factor: int, target_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor upsampling of the trailing two axes of a tensor of any
    leading shape, cropped to the target extents (smaller than factor times
    the input's where the fine scale has odd size)."""
    x = as_tensor(x, "x")
    if x.ndim < 2:
        raise DimensionError(f"upsample_nearest_2d expects (..., H, W) input, got shape {x.shape}")
    if factor < 1:
        raise DimensionError(f"upsampling factor must be >= 1, got {factor}")
    out = np.repeat(np.repeat(x, factor, axis=-2), factor, axis=-1)
    th, tw = target_hw
    if th > out.shape[-2] or tw > out.shape[-1]:
        raise DimensionError(f"target {target_hw} exceeds upsampled extents {out.shape[-2:]}")
    return np.ascontiguousarray(out[..., :th, :tw])


def upsample_nearest_2d_adjoint(grad, factor: int, in_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of upsample_nearest_2d: sums gradients over each replicated block."""
    grad = as_tensor(grad, "grad")
    h, w = in_hw
    *lead, gh, gw = grad.shape
    if gh > h * factor or gw > w * factor:
        raise DimensionError(f"grad extents {(gh, gw)} exceed {in_hw} upsampled by {factor}")
    padded = np.zeros((*lead, h * factor, w * factor))  # a cropped target leaves zeros
    padded[..., :gh, :gw] = grad
    return padded.reshape(*lead, h, factor, w, factor).sum(axis=(-3, -1))


def _key(k) -> int:
    """A child key as a Python int: any non-negative integer, numpy's included."""
    try:
        n = operator.index(k)
    except TypeError:
        n = -1
    if n < 0:
        raise ValidationError(f"child key must be a non-negative integer, got {k!r}")
    return n


class Rng:
    """Deterministic random source, PCG64 keyed by a non-negative seed.

    The same seed yields the same draw sequence on every platform. Independent
    child streams are derived with ``child``; derivation depends only on the
    seed and the integer key path.

    The stream of seed s and key path (k1, ..., kn) is that of
    ``Generator(PCG64(SeedSequence([s, k1, ..., kn])))``. ``SeedSequence`` is
    handed the same entropy as a uint32 array instead: each int split into
    its little-endian 32-bit words (0 into one zero word), the split numpy
    makes of the list, so the pool is identical without numpy's slower
    element-by-element coercion of a list. The generator is built on the
    first draw, so a node that only spawns children never builds one.
    """

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        self._keys = _keys

    def child(self, *keys: int) -> "Rng":
        return Rng(self.seed, self._keys + tuple(map(_key, keys)))

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        words = []  # the split of numpy's _int_to_uint32_array, keys checked non-negative
        for n in (self.seed, *self._keys):
            words.append(n & 0xFFFFFFFF)
            while n := n >> 32:
                words.append(n & 0xFFFFFFFF)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))

    def uniform_init(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        """Uniform in [-b, b] with b = 1/sqrt(fan_in), the default for learned parameters."""
        b = 1.0 / np.sqrt(float(fan_in))
        return self._gen.uniform(-b, b, size=shape).astype(np.float64, copy=False)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64, copy=False)

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * scale).astype(np.float64, copy=False)

    def integers(self, low: int, high: int, shape=()):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=False)


def save_tensor(path, x) -> None:
    """Write a tensor container: magic, version u32, rank u32, extents u64[], f64 payload (LE)."""
    x = as_tensor(x, "tensor")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, x.ndim))
        f.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        f.write(x.astype("<f8").tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    """Read a tensor container written by save_tensor. Its header is checked
    against the file size first; the payload is read once, into the result.
    Each rejection names the byte offset at which the file departs from the format."""
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != MAGIC:
            raise ValidationError(f"{path}: not a tensor container (bad magic at byte 0)")
        if len(head) < 12:
            raise ValidationError(f"{path}: truncated header at byte {len(head)}")
        version, rank = struct.unpack_from("<II", head, 4)
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported container version {version} at byte 4")
        header_end = 12 + 8 * rank
        extents = f.read(8 * rank) if size >= header_end else b""
        if len(extents) < 8 * rank:
            raise ValidationError(f"{path}: truncated header at byte {size}: rank {rank} needs {header_end} bytes")
        shape = struct.unpack(f"<{rank}Q", extents)
        if 0 in shape:
            raise ValidationError(f"{path}: zero extent in shape {shape} at byte {12 + 8 * shape.index(0)}")
        if size - header_end != 8 * math.prod(shape):
            raise ValidationError(
                f"{path}: payload size {size - header_end} at byte {header_end} does not match shape {shape}")
        out = np.empty(shape, dtype="<f8")
        got = f.readinto(memoryview(out).cast("B"))
        if got != out.nbytes:  # the file shrank since fstat
            raise ValidationError(f"{path}: payload ended early at byte {header_end + got} while being read")
    return out
