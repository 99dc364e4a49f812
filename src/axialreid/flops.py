"""Analytic operation counts for the backbone and attention variants.

All counts are exact integers; GFLOP figures are derived at display time.
The default convention (one multiply-accumulate = one FLOP, attention cost =
score/value contractions only, positional-embedding terms at the shared
embedding width) is the calibrated best fit for the published cost column;
``calibrate`` sweeps the convention grid and reports each candidate's errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import attention as att
from .errors import ConfigurationError, ValidationError
from .tensor import Rng

# published cost column used for calibration (GFLOPs)
REFERENCE_COSTS = {
    "baseline": 24.520,
    "nonlocal3d": 17.213,
    "axial": 0.361,
    "axial+sinusoidal": 0.377,
    "axial+relative": 0.424,
    "cfaa2": 0.245,
    "cfaa4": 0.126,
    "nonlocal_total": 41.733,
    "cfaa_net_total": 24.646,
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

    positional_shared_heads: divisor applied to embedding widths when counting
    q/k/v positional contractions once per pair (None counts them per head at
    full width, matching what the kernels actually execute).
    """

    macs_per_flop: int = 1
    include_softmax_exp: bool = False
    include_bn_relu: bool = False
    include_projections: bool = False
    positional_shared_heads: int | None = TOTAL_HEADS

    def tag(self) -> str:
        ps = "perhead" if self.positional_shared_heads is None else f"shared{self.positional_shared_heads}"
        return (
            f"mac{self.macs_per_flop}"
            f"{'+softmax' if self.include_softmax_exp else ''}"
            f"{'+bnrelu' if self.include_bn_relu else ''}"
            f"{'+proj' if self.include_projections else ''}"
            f"+{ps}"
        )


KERNEL_EXACT = CountingConvention(positional_shared_heads=None)


@dataclass
class LayerSpec:
    name: str
    ops: int  # raw MAC / op count before the macs_per_flop factor

    def __post_init__(self):
        if self.ops < 0:
            raise ValidationError(f"negative op count in layer {self.name}")


@dataclass
class FlopReport:
    name: str
    layers: list[LayerSpec]
    convention: CountingConvention

    @property
    def total(self) -> int:
        return sum(l.ops for l in self.layers) * self.convention.macs_per_flop

    @property
    def gflops(self) -> float:
        return self.total / 1e9

    def lines(self) -> list[str]:
        return [f"report={self.name}", f"convention={self.convention.tag()}", f"total_flops={self.total}", f"gflops={self.gflops:.6f}"]


def _conv(cin, cout, k, ho, wo) -> int:
    return k * k * cin * cout * ho * wo


def backbone_flops(frames: int = 6, height: int = 256, width: int = 128, last_stride: int = 1,
                   convention: CountingConvention = CountingConvention()) -> FlopReport:
    """50-layer residual backbone (bottleneck blocks, stride on the 3x3 conv),
    per-frame 2D convolutions multiplied by the number of frames."""
    if last_stride not in (1, 2):
        raise ValidationError(f"last_stride must be 1 or 2, got {last_stride}")
    layers: list[LayerSpec] = []
    act_elems = 0  # conv output elements, for the bn/relu option

    def add(name, cin, cout, k, ho, wo):
        nonlocal act_elems
        layers.append(LayerSpec(name, frames * _conv(cin, cout, k, ho, wo)))
        act_elems += frames * cout * ho * wo

    h, w = (height + 1) // 2, (width + 1) // 2
    add("conv1", 3, 64, 7, h, w)
    h, w = (h + 1) // 2, (w + 1) // 2  # 3x3/2 max pool
    cin = 64
    stages = [(3, 64, 1, "conv2"), (4, 128, 2, "conv3"), (6, 256, 2, "conv4"), (3, 512, last_stride, "conv5")]
    for blocks, width_s, stride, tag in stages:
        for b in range(blocks):
            s = stride if b == 0 else 1
            ho, wo = h // s, w // s
            add(f"{tag}_{b + 1}.reduce", cin, width_s, 1, h, w)
            add(f"{tag}_{b + 1}.conv3x3", width_s, width_s, 3, ho, wo)
            add(f"{tag}_{b + 1}.expand", width_s, width_s * 4, 1, ho, wo)
            if b == 0:
                add(f"{tag}_{b + 1}.downsample", cin, width_s * 4, 1, ho, wo)
            cin = width_s * 4
            h, w = ho, wo
    if convention.include_bn_relu:
        layers.append(LayerSpec("bn+relu", 3 * act_elems))
    return FlopReport("backbone", layers, convention)


def _attention_layers(variant: str, cfg: att.AttentionConfig):
    """(positions, keys per query, input channels) of each attention layer in
    one module: the single 3D layer, or AA^H, AA^W, AA^T at every scale."""
    t, h, w = cfg.axis_lengths
    if variant == "nonlocal3d":
        if (cfg.heads, cfg.scales, cfg.encoding) != (1, 1, "none"):
            raise ConfigurationError("3D self-attention uses a single head, no encoding, one scale")
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
    shared = convention.positional_shared_heads
    per_pair = cqk + cout
    if cfg.encoding == "relative":
        per_pair += 2 * cqk + cout if shared is None else 2 * (cqk // shared) + cout // shared
    elif cfg.encoding == "sinusoidal" and shared is not None:
        per_pair += cqk // shared  # per head the encodings are added to q/k: no contraction
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
    layers = []
    for c, h, w, count in INSERTIONS:
        cfg = att.AttentionConfig.default(c, (frames, h, w), heads, scales, encoding)
        layers.append(LayerSpec(f"{variant}@c{c}_{h}x{w}(x{count})",
                                count * _module_ops(variant, cfg, convention)))
    return FlopReport(variant if variant != "cfaa" else f"cfaa{scales}", layers, convention)


def attention_contraction_count(variant: str, cfg: att.AttentionConfig) -> int:
    """Exact multiply count of the score/value contractions the kernels execute
    for one module at the given config (the analytic side of the kernel check)."""
    return _module_ops(variant, cfg, KERNEL_EXACT)


def count_oracle_multiplies(variant: str, cfg: att.AttentionConfig, seed: int = 0) -> int:
    """Execute the attention kernels at the given config with an instrumented
    multiply counter; returns the measured score/value contraction multiplies."""
    rng = Rng(seed)
    x = rng.child(0).normal((cfg.c_in, *cfg.axis_lengths))
    if variant == "nonlocal3d":
        params = att.init_nonlocal_params(cfg, rng.child(1))
        with att.count_multiplies() as counter:
            att.nonlocal_3d_forward(x, params, cfg)
        return counter.total
    params = att.init_cfaa_params(cfg, rng.child(1))
    with att.count_multiplies() as counter:
        att.cfaa_forward(x, params, cfg)
    return counter.total


PRESETS = ("baseline", "nonlocal", "cfaa_net")


def model_table(presets=PRESETS, convention: CountingConvention = CountingConvention(),
                frames: int = 6) -> list[FlopReport]:
    """Full-model totals for the named architecture presets."""
    base = backbone_flops(frames=frames, convention=convention)
    out = []
    for preset in presets:
        if preset == "baseline":
            out.append(FlopReport("baseline", list(base.layers), convention))
        elif preset == "nonlocal":
            extra = attention_flops("nonlocal3d", convention, frames=frames)
            out.append(FlopReport("nonlocal", base.layers + extra.layers, convention))
        elif preset == "cfaa_net":
            extra = attention_flops("cfaa", convention, scales=4, frames=frames)
            out.append(FlopReport("cfaa_net", base.layers + extra.layers, convention))
        else:
            raise ValidationError(f"unknown preset {preset!r}")
    return out


def table_rows(convention: CountingConvention = CountingConvention()) -> dict[str, FlopReport]:
    """The cost-column rows: backbone plus each attention variant's delta."""
    rows = {"baseline": backbone_flops(convention=convention)}
    rows["nonlocal3d"] = attention_flops("nonlocal3d", convention)
    rows["axial"] = attention_flops("axial", convention)
    rows["axial+sinusoidal"] = attention_flops("axial+sinusoidal", convention)
    rows["axial+relative"] = attention_flops("axial+relative", convention)
    rows["cfaa2"] = attention_flops("cfaa", convention, scales=2)
    rows["cfaa4"] = attention_flops("cfaa", convention, scales=4)
    return rows


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
                    for shared in (TOTAL_HEADS, None):
                        grid.append(CountingConvention(mac, soft, bn, proj, shared))
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
