"""Analytic operation counts for the backbone and attention variants.

Every FlopReport carries two exact integer counts; GFLOP figures are derived
at display time. One multiply-accumulate counts as one FLOP in both.

- ``total``, the published count: attention costs its score/value
  contractions only, with positional-embedding terms priced once per pair at
  the embedding width shared across the heads (width / TOTAL_HEADS). It
  reproduces the published cost column.
- ``full``, the count the kernels execute: positional terms per head at full
  width, plus the q/k/v projections of every attention layer and the output
  projection.

The backbone's two counts are equal. The attention counts price the layers
that ``attention.module_layers`` lists, the same table the kernels run: the
layers, input widths and axis lengths are not restated here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import attention as att
from .errors import ValidationError
from .tensor import as_int

# the published cost column (GFLOPs) the published count reproduces, keyed by report name
REFERENCE_COSTS = {
    "baseline": 24.520,
    "nonlocal3d": 17.213,
    "axial": 0.361,
    "axial+sinusoidal": 0.377,
    "axial+relative": 0.424,
    "cfaa2": 0.245,
    "cfaa4": 0.126,
    "nonlocal": 41.733,
    "cfaa_net": 24.646,
}

# variant -> encoding; every variant but cfaa has one scale
_VARIANT_ENCODINGS = {
    "nonlocal3d": "none",
    "axial": "none",
    "axial+sinusoidal": "sinusoidal",
    "axial+relative": "relative",
    "cfaa": "relative",
}
VARIANTS = tuple(_VARIANT_ENCODINGS)

# insertion points for the 256x128 backbone: (channels, H, W, module count)
INSERTIONS = ((512, 32, 16, 2), (1024, 16, 8, 3))
TOTAL_HEADS = 8


@dataclass(frozen=True)
class FlopReport:
    name: str
    total: int  # published count
    full: int  # count the kernels execute, projections included

    @property
    def gflops(self) -> float:
        return self.total / 1e9

    @property
    def full_gflops(self) -> float:
        return self.full / 1e9

    def lines(self) -> list[str]:
        return [f"report={self.name}", f"total_flops={self.total}", f"gflops={self.gflops:.6f}",
                f"full_flops={self.full}", f"full_gflops={self.full_gflops:.6f}"]


def backbone_flops(frames: int = 6, last_stride: int = 1) -> FlopReport:
    """50-layer residual backbone (bottleneck blocks, stride on the 3x3 conv) on
    a 256x128 input, per-frame 2D convolutions multiplied by the number of
    frames."""
    frames = as_int(frames, "frames", 1)
    last_stride = as_int(last_stride, "last_stride", float("-inf"))  # the check below names both strides
    if last_stride not in (1, 2):
        raise ValidationError(f"last_stride must be 1 or 2, got {last_stride}")
    ops = 0

    def add(cin, cout, k, ho, wo):
        nonlocal ops
        ops += frames * k * k * cin * cout * ho * wo

    h, w = 128, 64  # conv1 is 7x7/2
    add(3, 64, 7, h, w)
    h, w = (h + 1) // 2, (w + 1) // 2  # 3x3/2 max pool
    cin = 64
    for blocks, width, stride in ((3, 64, 1), (4, 128, 2), (6, 256, 2), (3, 512, last_stride)):
        for b in range(blocks):
            s = stride if b == 0 else 1
            ho, wo = h // s, w // s
            add(cin, width, 1, h, w)  # reduce
            add(width, width, 3, ho, wo)
            add(width, width * 4, 1, ho, wo)  # expand
            if b == 0:
                add(cin, width * 4, 1, ho, wo)  # downsample
            cin = width * 4
            h, w = ho, wo
    return FlopReport("backbone", ops, ops)


def _module_ops(variant: str, cfg: att.AttentionConfig, per_head: bool, projections: bool) -> int:
    """Op count of one attention module at cfg: score/value contractions and
    positional terms, priced per head at full width or once at the shared
    width, plus the q/k/v and output projections when asked for. Every
    variant but cfaa has one scale and its own encoding."""
    if variant not in _VARIANT_ENCODINGS:
        raise ValidationError(f"unknown attention variant {variant!r}")
    if variant != "cfaa" and (cfg.scales, cfg.encoding) != (1, _VARIANT_ENCODINGS[variant]):
        raise ValidationError(f"variant {variant!r} has one scale and encoding {_VARIANT_ENCODINGS[variant]!r}, "
                              f"got scales={cfg.scales}, encoding={cfg.encoding!r}")
    t, h, w = cfg.axis_lengths
    cqk, cout = cfg.c_qk // cfg.scales, cfg.c_out // cfg.scales
    per_pair = cqk + cout
    if cfg.encoding == "relative":
        per_pair += 2 * cqk + cout if per_head else 2 * (cqk // TOTAL_HEADS) + cout // TOTAL_HEADS
    elif cfg.encoding == "sinusoidal" and not per_head:
        per_pair += cqk // TOTAL_HEADS  # per head the encodings are added to q/k: no contraction
    ops = 0
    for factor, layers in att.module_layers("nonlocal3d" if variant == "nonlocal3d" else "cfaa", cfg):
        n = t * -(-h // factor) * -(-w // factor)  # positions of the group's pooled maps
        for _, _, c_x, keys in layers:
            ops += n * keys * per_pair
            if projections:
                ops += n * c_x * (2 * cqk + cout)  # q/k/v of this layer
    if projections:
        ops += t * h * w * cfg.c_out * cfg.c_in  # concatenated c_out back to c_in
    return ops


def attention_flops(variant: str, scales: int = 1, frames: int = 6) -> FlopReport:
    """Cost of inserting the given attention variant at the standard points
    (2 modules on the 32x16 stage, 3 on the 16x8 stage for the 256x128 input)."""
    if variant not in _VARIANT_ENCODINGS:
        raise ValidationError(f"unknown attention variant {variant!r}")
    if variant != "cfaa" and scales != 1:
        raise ValidationError(f"variant {variant!r} has one scale, got scales={scales}")
    scales, frames = as_int(scales, "scales", 1), as_int(frames, "frames", 1)
    encoding = _VARIANT_ENCODINGS[variant]
    heads = 1 if variant == "nonlocal3d" else max(TOTAL_HEADS // scales, 1)
    total = full = 0
    for c, h, w, count in INSERTIONS:
        # q/k width = c/2, value/output width = c
        cfg = att.AttentionConfig(c, c // 2, c, heads, scales, encoding, (frames, h, w))
        total += count * _module_ops(variant, cfg, per_head=False, projections=False)
        full += count * _module_ops(variant, cfg, per_head=True, projections=True)
    return FlopReport(variant if variant != "cfaa" else f"cfaa{scales}", total, full)


def attention_contraction_count(variant: str, cfg: att.AttentionConfig) -> int:
    """Exact multiply count of the score/value contractions the kernels execute
    for one module at the given config (the analytic side of the kernel check)."""
    return _module_ops(variant, cfg, per_head=True, projections=False)


def model_table() -> list[FlopReport]:
    """Full-model totals at the published 6-frame clip: the backbone alone,
    with the 3D non-local block, and with 4-scale CF-AA, each the backbone's
    count plus the attention's."""
    base = backbone_flops()
    extras = {"nonlocal": attention_flops("nonlocal3d"), "cfaa_net": attention_flops("cfaa", scales=4)}
    return [replace(base, name="baseline"),
            *(FlopReport(name, base.total + rep.total, base.full + rep.full) for name, rep in extras.items())]


def table_rows() -> dict[str, FlopReport]:
    """The cost-column rows by report name: backbone plus each attention variant's delta."""
    reports = [replace(backbone_flops(), name="baseline"),
               *(attention_flops(v) for v in VARIANTS if v != "cfaa"),
               *(attention_flops("cfaa", scales=s) for s in (2, 4))]
    return {rep.name: rep for rep in reports}
