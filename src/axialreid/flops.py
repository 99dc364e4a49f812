"""Analytic operation counts for the backbone and attention variants.

All counts are exact integers, and a FlopReport carries only its total;
GFLOP figures are derived at display time.
The default convention (one multiply-accumulate = one FLOP, attention cost =
score/value contractions only, positional-embedding terms at the shared
embedding width) is the calibrated best fit for the published cost column;
``calibrate`` sweeps the convention grid and reports each candidate's errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import attention as att
from .errors import ValidationError

# published cost column used for calibration (GFLOPs), keyed by report name
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

# variant -> (encoding, fixed scale count or None for the caller's)
_VARIANT_SHAPES = {
    "nonlocal3d": ("none", 1),
    "axial": ("none", 1),
    "axial+sinusoidal": ("sinusoidal", 1),
    "axial+relative": ("relative", 1),
    "cfaa": ("relative", None),
}
VARIANTS = tuple(_VARIANT_SHAPES)

# insertion points for the 256x128 backbone: (channels, H, W, module count)
INSERTIONS = ((512, 32, 16, 2), (1024, 16, 8, 3))
TOTAL_HEADS = 8


@dataclass(frozen=True)
class CountingConvention:
    """Accounting rules for a report; recorded in every FlopReport.

    positional_per_head: count the q/k/v positional contractions per head at
    full width, as the kernels execute them, instead of once per pair at the
    shared embedding width (width / TOTAL_HEADS).
    """

    macs_per_flop: int = 1
    include_softmax_exp: bool = False
    include_bn_relu: bool = False
    include_projections: bool = False
    positional_per_head: bool = False

    def tag(self) -> str:
        ps = "perhead" if self.positional_per_head else f"shared{TOTAL_HEADS}"
        return (
            f"mac{self.macs_per_flop}"
            f"{'+softmax' if self.include_softmax_exp else ''}"
            f"{'+bnrelu' if self.include_bn_relu else ''}"
            f"{'+proj' if self.include_projections else ''}"
            f"+{ps}"
        )


KERNEL_EXACT = CountingConvention(positional_per_head=True)


@dataclass
class FlopReport:
    name: str
    ops: int  # raw MAC / op count before the macs_per_flop factor
    convention: CountingConvention

    @property
    def total(self) -> int:
        return self.ops * self.convention.macs_per_flop

    @property
    def gflops(self) -> float:
        return self.total / 1e9

    def lines(self) -> list[str]:
        return [f"report={self.name}", f"convention={self.convention.tag()}", f"total_flops={self.total}", f"gflops={self.gflops:.6f}"]


def backbone_flops(frames: int = 6, last_stride: int = 1,
                   convention: CountingConvention = CountingConvention()) -> FlopReport:
    """50-layer residual backbone (bottleneck blocks, stride on the 3x3 conv) on
    a 256x128 input, per-frame 2D convolutions multiplied by the number of
    frames; with include_bn_relu, 3 ops per conv output element on top."""
    if frames < 1:
        raise ValidationError(f"frames must be at least 1, got {frames}")
    if last_stride not in (1, 2):
        raise ValidationError(f"last_stride must be 1 or 2, got {last_stride}")
    ops = act_elems = 0  # act_elems: conv output elements, for the bn/relu option

    def add(cin, cout, k, ho, wo):
        nonlocal ops, act_elems
        ops += frames * k * k * cin * cout * ho * wo
        act_elems += frames * cout * ho * wo

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
    if convention.include_bn_relu:
        ops += 3 * act_elems
    return FlopReport("backbone", ops, convention)


def _attention_layers(variant: str, cfg: att.AttentionConfig):
    """(positions, keys per query, input channels) of each attention layer in
    one module: the single 3D layer, or AA^H, AA^W, AA^T at every scale."""
    t, h, w = cfg.axis_lengths
    if variant == "nonlocal3d":
        att.check_nonlocal_config(cfg)
        return [(t * h * w, t * h * w, cfg.c_in)]
    c_in, c_out = cfg.c_in // cfg.scales, cfg.c_out // cfg.scales
    layers = []
    for s in range(cfg.scales):
        ts, hs, ws = cfg.scale_extents(s)
        n = ts * hs * ws
        layers += [(n, hs, c_in), (n, ws, c_out), (n, ts, c_out)]
    return layers


def _module_ops(variant: str, cfg: att.AttentionConfig, convention: CountingConvention) -> int:
    """Op count of one attention module at cfg under the convention: score/value
    contractions, positional terms, and optionally softmax and projections."""
    if variant not in _VARIANT_SHAPES:
        raise ValidationError(f"unknown attention variant {variant!r}")
    t, h, w = cfg.axis_lengths
    cqk, cout = cfg.c_qk // cfg.scales, cfg.c_out // cfg.scales
    per_head = convention.positional_per_head
    per_pair = cqk + cout
    if cfg.encoding == "relative":
        per_pair += 2 * cqk + cout if per_head else 2 * (cqk // TOTAL_HEADS) + cout // TOTAL_HEADS
    elif cfg.encoding == "sinusoidal" and not per_head:
        per_pair += cqk // TOTAL_HEADS  # per head the encodings are added to q/k: no contraction
    if convention.include_softmax_exp:
        per_pair += 4 * cfg.heads
    ops = 0
    for n, keys, c_x in _attention_layers(variant, cfg):
        ops += n * keys * per_pair
        if convention.include_projections:
            ops += n * c_x * (2 * cqk + cout)  # q/k/v of this layer
    if convention.include_projections:
        ops += t * h * w * cfg.c_out * cfg.c_in  # concatenated c_out back to c_in
    return ops


def attention_flops(variant: str, convention: CountingConvention = CountingConvention(),
                    scales: int = 1, frames: int = 6) -> FlopReport:
    """Cost of inserting the given attention variant at the standard points
    (2 modules on the 32x16 stage, 3 on the 16x8 stage for the 256x128 input)."""
    if variant not in _VARIANT_SHAPES:
        raise ValidationError(f"unknown attention variant {variant!r}")
    encoding, fixed_scales = _VARIANT_SHAPES[variant]
    scales = fixed_scales or scales
    heads = 1 if variant == "nonlocal3d" else max(TOTAL_HEADS // max(scales, 1), 1)  # the config rejects scales < 1
    ops = 0
    for c, h, w, count in INSERTIONS:
        # q/k width = c/2, value/output width = c
        cfg = att.AttentionConfig(c, c // 2, c, heads, scales, encoding, (frames, h, w))
        ops += count * _module_ops(variant, cfg, convention)
    return FlopReport(variant if variant != "cfaa" else f"cfaa{scales}", ops, convention)


def attention_contraction_count(variant: str, cfg: att.AttentionConfig) -> int:
    """Exact multiply count of the score/value contractions the kernels execute
    for one module at the given config (the analytic side of the kernel check)."""
    return _module_ops(variant, cfg, KERNEL_EXACT)


def model_table(convention: CountingConvention = CountingConvention(), frames: int = 6) -> list[FlopReport]:
    """Full-model totals: the backbone alone, with the 3D non-local block, and
    with 4-scale CF-AA, each the backbone's ops plus the attention's."""
    base = backbone_flops(frames=frames, convention=convention).ops
    extras = {"baseline": 0,
              "nonlocal": attention_flops("nonlocal3d", convention, frames=frames).ops,
              "cfaa_net": attention_flops("cfaa", convention, scales=4, frames=frames).ops}
    return [FlopReport(name, base + ops, convention) for name, ops in extras.items()]


def table_rows(convention: CountingConvention = CountingConvention()) -> dict[str, FlopReport]:
    """The cost-column rows by report name: backbone plus each attention variant's delta."""
    reports = [FlopReport("baseline", backbone_flops(convention=convention).ops, convention),
               *(attention_flops(v, convention) for v in VARIANTS if v != "cfaa"),
               *(attention_flops("cfaa", convention, scales=s) for s in (2, 4))]
    return {rep.name: rep for rep in reports}


def row_errors(convention: CountingConvention) -> dict[str, float]:
    """Relative error of every cost row against the reference column."""
    rows = table_rows(convention)
    return {name: rows[name].gflops / REFERENCE_COSTS[name] - 1.0 for name in rows}


def convention_grid() -> list[CountingConvention]:
    grid = []
    for mac in (1, 2):
        for soft in (False, True):
            for bn in (False, True):
                for proj in (False, True):
                    for per_head in (False, True):
                        grid.append(CountingConvention(mac, soft, bn, proj, per_head))
    return grid


def calibrate() -> list[tuple[CountingConvention, float]]:
    """Sweep the convention grid; returns (convention, worst row error) sorted
    best-first. The best fit is what the default convention should be."""
    scored = []
    for conv in convention_grid():
        errs = row_errors(conv)
        scored.append((conv, max(abs(e) for e in errs.values())))
    scored.sort(key=lambda ce: ce[1])
    return scored
