"""Command-line entry point.

Subcommands:
  bench      analytic FLOP reports for the backbone and attention variants
  gradcheck  finite-difference check of the analytic backward passes, one row
             each: conv2d, batchnorm, relu, masked_avg_pool, cfaa, cfaa1 and
             nonlocal_3d (all three through AttentionLayer), triplet,
             cross_entropy; the whole-model backward is checked by the tests
  align      run re-detect-and-link over a candidate file + frame containers
  eval       CMC / mAP evaluation with optional corrections and protocols
  demo       desk-scale training + retrieval demonstration (--attention cfaa|nonlocal3d|none)

Every report ends with a machine-readable key=value block fenced by `---`
lines. Exit codes: 0 success, 1 invalid input or configuration, or a
computation that produced non-finite values, 2 internal assertion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import detect_link as dl
from . import evaluate as ev
from . import flops
from . import gradcheck as gc
from . import toytrain as tt
from .errors import ConfigurationError, DimensionError, NumericalError, ValidationError
from .tensor import load_tensor, save_tensor


def _emit_block(lines: list[str]) -> None:
    print("---")
    for line in lines:
        print(line)
    print("---")


def _fmt_gflops(report: flops.FlopReport) -> str:
    return f"{report.name:<18} {report.gflops:10.3f} GFLOPs"


def _parse_convention(args) -> flops.CountingConvention:
    return flops.CountingConvention(
        macs_per_flop=args.mac,
        include_softmax_exp=args.include_softmax,
        include_bn_relu=args.include_bn_relu,
        include_projections=args.include_projections,
        positional_per_head=args.positional == "perhead",
    )


CONVENTION_FLAGS = ("mac", "include_softmax", "include_bn_relu", "include_projections", "positional")
BENCH_DEFAULTS = dict(frames=6, scales=4, last_stride=1, mac=1, positional="shared")


def _check_bench_flags(args) -> None:
    """Reject a flag that the chosen bench mode does not read, then fill in the
    defaults of the flags left out (they parse as None)."""
    if args.calibrate:
        mode, reads = "--calibrate", ()
    elif args.preset:
        mode = f"--preset {args.preset}"
        reads = ("preset", *CONVENTION_FLAGS, *(("frames",) if args.preset == "models" else ()))
    elif args.variant:
        mode = f"--variant {args.variant}"
        own = {"backbone": ("last_stride",), "cfaa": ("scales",)}.get(args.variant, ())
        reads = ("variant", "frames", *CONVENTION_FLAGS, *own)
    else:
        raise ValidationError("bench needs --preset costs|models or --variant")
    for dest in ("preset", "variant", "frames", "scales", "last_stride", *CONVENTION_FLAGS):
        given = getattr(args, dest)
        if dest not in reads and given is not None and given is not False:  # 0 is a given value
            raise ValidationError(f"--{dest.replace('_', '-')} has no effect with {mode}")
    for dest, value in BENCH_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def cmd_bench(args) -> int:
    _check_bench_flags(args)
    _check_minimums(args, frames=1, scales=1)
    conv = _parse_convention(args)
    if args.calibrate:
        ranked = flops.calibrate()
        print("convention sweep, worst row error vs the reference cost column:")
        for c, err in ranked[:8]:
            print(f"  {c.tag():<40} {err:8.2%}")
        best = ranked[0][0]
        print(f"best fit: {best.tag()}")
        _emit_block([f"best_convention={best.tag()}", f"best_worst_error={ranked[0][1]:.6f}"])
        return 0
    if args.preset:
        costs = args.preset == "costs"
        reports = list(flops.table_rows(conv).values()) if costs else flops.model_table(conv, args.frames)
        print(f"cost column reproduction (convention {conv.tag()}):" if costs else "full-model totals:")
        block = [f"convention={conv.tag()}"] if costs else []
        for rep in reports:
            ref = flops.REFERENCE_COSTS[rep.name]
            print(f"  {_fmt_gflops(rep)}  (reference {ref:.3f}, {rep.gflops / ref - 1.0:+.2%})")
            block.append(f"{rep.name}_gflops={rep.gflops:.6f}")
            block += [f"{rep.name}_reference={ref}"] if costs else []
        _emit_block(block)
        return 0
    if args.variant == "backbone":
        rep = flops.backbone_flops(frames=args.frames, last_stride=args.last_stride, convention=conv)
    else:
        rep = flops.attention_flops(args.variant, conv, scales=args.scales, frames=args.frames)
    print(_fmt_gflops(rep))
    _emit_block(rep.lines())
    return 0


def _check_minimums(args, **minimums) -> None:
    """Reject an integer flag (a count or a seed) below its minimum."""
    for dest, low in minimums.items():
        value = getattr(args, dest)
        if value < low:
            raise ValidationError(f"--{dest.replace('_', '-')} must be at least {low}, got {value}")


def cmd_gradcheck(args) -> int:
    _check_minimums(args, seed=0, trials=1)
    seeds = range(args.seed, args.seed + args.trials)
    results = gc.run_gradient_checks(seeds=seeds, perturb=args.perturb_analytic)
    worst = max(results, key=lambda r: r.worst_rel_err)
    for r in results:
        print(f"{r.op:<17} seed={r.seed} worst={r.worst_param:<12} rel_err={r.worst_rel_err:.3e} "
              f"{'PASS' if r.passed else 'FAIL'}")
    ok = all(r.passed for r in results)
    _emit_block([
        f"checks={len(results)}",
        f"failures={sum(not r.passed for r in results)}",
        f"worst_op={worst.op}",
        f"worst_rel_err={worst.worst_rel_err:.6e}",
        f"tolerance={gc.REL_TOL}",
        f"status={'PASS' if ok else 'FAIL'}",
    ])
    if not ok:
        print(f"worst offender: {worst.op} seed {worst.seed} ({worst.worst_param}: {worst.worst_rel_err:.3e})")
    return 0 if ok else 1


def _provenance_line(prov: dict) -> str:
    if prov["candidate"] is None:
        return f"frame={prov['frame']} no_detection=1\n"
    return f"frame={prov['frame']} candidate={prov['candidate']} rule={prov['rule']}\n"


def _frame_files(frame_dir: Path) -> list[Path]:
    """frame_dir's <n>.aakt containers in frame order. Each stem is a frame
    number, a non-negative decimal integer (zero padding allowed), and the
    numbers run 0..F-1, each once."""
    numbered: dict[int, Path] = {}
    for path in sorted(frame_dir.glob("*.aakt")):
        if not (path.stem.isascii() and path.stem.isdigit()):
            raise ValidationError(f"{path}: frame container name is not a frame number")
        n = int(path.stem)
        if n in numbered:
            raise ValidationError(f"{path}: frame {n} repeats {numbered[n]}")
        numbered[n] = path
    if not numbered:
        raise ValidationError(f"{frame_dir} holds no frame containers")
    if max(numbered) >= len(numbered):
        gap = min(set(range(len(numbered))) - numbered.keys())
        raise ValidationError(f"{frame_dir}: frame {gap} is missing, frames run to {max(numbered)}")
    return [numbered[i] for i in range(len(numbered))]


def cmd_align(args) -> int:
    records = dl.read_candidate_file(args.candidates)
    frames_root = Path(args.frames)
    out_root = Path(args.out)
    done = []  # every tracklet is aligned before anything is written
    for tid in sorted(records):
        frame_dir = frames_root / str(tid)
        if not frame_dir.is_dir():
            raise ValidationError(f"no frame directory {frame_dir} for tracklet {tid}")
        frame_files = _frame_files(frame_dir)
        frames = [load_tensor(p) for p in frame_files]
        for path, frame in zip(frame_files, frames):
            if frame.ndim != 3 or frame.shape[0] != 3:
                raise ValidationError(f"{path}: frame must be (3, H, W), got {frame.shape}")
            if not np.isfinite(frame).all():
                raise ValidationError(f"{path}: frame container holds non-finite pixel values")
        by_frame: list[list[dl.CandidateBox]] = [[] for _ in frames]
        for cand in records[tid]:
            if cand.frame >= len(frames):
                raise ValidationError(f"tracklet {tid}: candidate frame {cand.frame} out of range")
            by_frame[cand.frame].append(cand)
        try:
            aligned = dl.process_tracklet(frames, by_frame, alpha=args.alpha, slim_ratio=args.slim_ratio)
        except ValidationError as exc:
            raise ValidationError(f"tracklet {tid}: {exc}") from None
        done.append((tid, aligned))
    out_root.mkdir(parents=True, exist_ok=True)
    for tid, aligned in done:
        tdir = out_root / str(tid)
        tdir.mkdir(exist_ok=True)
        for i, fr in enumerate(aligned):
            save_tensor(tdir / f"image_{i:04d}.aakt", fr.image)
            save_tensor(tdir / f"mask_{i:04d}.aakt", fr.mask)
        (tdir / "provenance.log").write_text("".join(_provenance_line(fr.provenance) for fr in aligned))
    n_frames = sum(len(aligned) for _, aligned in done)
    print(f"aligned {len(records)} tracklets ({n_frames} frames) into {out_root}")
    _emit_block([f"tracklets={len(records)}", f"frames={n_frames}", f"out={out_root}"])
    return 0


def cmd_eval(args) -> int:
    if args.compare and args.protocol is not None:
        raise ValidationError("--protocol has no effect with --compare")
    args.protocol = args.protocol or "old"
    dataset, corrections = ev.load_eval_dataset(args.meta, args.distances, args.corrections)
    block = []
    if args.compare:
        report = ev.protocol_delta_report(dataset, corrections or ev.LabelCorrections())
        deltas = report.per_query_deltas()
        print("protocol comparison (old raw / old corrected / new corrected):")
        for name, res in (("old raw", report.old_raw), ("old corrected", report.old_corrected),
                          ("new corrected", report.new_corrected)):
            print(f"  {name:<14} mAP={res.mAP:.4f} rank1={res.cmc_at(1):.4f} excluded={res.excluded}")
        changed = sum(1 for d in deltas if d != 0.0)
        print(f"  queries with AP change: {changed}")
        block = report.lines()
    else:
        work = ev.apply_corrections(dataset, corrections) if corrections else dataset
        res = ev.evaluate(work, args.protocol)
        print(f"protocol={args.protocol} mAP={res.mAP:.4f} "
              f"rank1={res.cmc_at(1):.4f} rank5={res.cmc_at(5):.4f} rank10={res.cmc_at(10):.4f} "
              f"excluded={res.excluded}")
        block = [
            f"protocol={args.protocol}",
            f"mAP={res.mAP:.6f}",
            f"rank1={res.cmc_at(1):.6f}",
            f"rank5={res.cmc_at(5):.6f}",
            f"rank10={res.cmc_at(10):.6f}",
            f"excluded={res.excluded}",
        ]
    _emit_block(block)
    return 0


def cmd_demo(args) -> int:
    _check_minimums(args, ids=tt.P_IDS, epochs=0, seed=0, data_seed=0, chance_trials=0)
    if not args.lr > 0:  # nan included
        raise ValidationError(f"--lr must be positive, got {args.lr}")
    if args.lr == np.inf:
        raise ValidationError("--lr must be finite, got inf")
    given = {f: v for f, v in (("scales", args.scales), ("heads", args.heads)) if v is not None}
    if args.attention != "cfaa" and given:
        raise ValidationError(f"--{next(iter(given))} has no effect with --attention {args.attention}")
    _check_minimums(args, **{f: 1 for f in given})
    _, scales, heads = tt.ToyModelSpec.attention  # the defaults
    cfaa = ("cfaa", given.get("scales", scales), given.get("heads", heads))
    dataset = tt.SyntheticIdentityDataset(num_ids=args.ids, seed=args.data_seed)
    spec = tt.ToyModelSpec(num_classes=args.ids, attention=cfaa if args.attention == "cfaa" else (args.attention,))
    model, log = tt.train(spec, dataset, epochs=args.epochs, seed=args.seed, lr=args.lr)
    res = ev.evaluate(tt.retrieve(model, dataset.tracklets), "old")
    block = [f"epochs={args.epochs}", f"seed={args.seed}", f"attention={args.attention}"]
    if log.epoch_losses:
        first, last = log.epoch_losses[0], log.epoch_losses[-1]
        print(f"loss: epoch1={first:.4f} final={last:.4f} drop={(1 - last / first):.1%}")
        block += [f"loss_first={first:.6f}", f"loss_final={last:.6f}"]
    print(f"retrieval: rank1={res.cmc_at(1):.4f} rank5={res.cmc_at(5):.4f} mAP={res.mAP:.4f}")
    block += [f"rank1={res.cmc_at(1):.6f}", f"mAP={res.mAP:.6f}"]
    if args.chance_trials:
        levels = tt.chance_baseline(spec, dataset, seeds=range(args.chance_trials))
        print(f"untrained chance rank1 over {args.chance_trials} seeds: "
              f"mean={np.mean(levels):.4f} min={min(levels):.4f} max={max(levels):.4f}")
        block += [f"chance_rank1_mean={np.mean(levels):.6f}"]
    _emit_block(block)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axialreid", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="analytic FLOP reports")
    b.add_argument("--preset", choices=["costs", "models"])
    b.add_argument("--variant", choices=["backbone", *flops.VARIANTS])
    b.add_argument("--scales", type=int, help="CF-AA scale count, --variant cfaa only (default 4)")
    b.add_argument("--frames", type=int, help="clip length, --preset models or --variant (default 6)")
    b.add_argument("--last-stride", type=int, help="--variant backbone only (default 1)")
    b.add_argument("--calibrate", action="store_true", help="sweep counting conventions")
    # counting-convention selection; --calibrate sweeps these itself
    b.add_argument("--mac", type=int, choices=[1, 2], help="FLOPs per multiply-accumulate (default 1)")
    b.add_argument("--include-softmax", action="store_true")
    b.add_argument("--include-bn-relu", action="store_true")
    b.add_argument("--include-projections", action="store_true")
    b.add_argument("--positional", choices=["shared", "perhead"],
                   help="price positional terms at shared embedding width or per head (default shared)")
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--trials", type=int, default=5, help="seeds per row")
    g.add_argument("--perturb-analytic", action="store_true",
                   help="fault injection: corrupt analytic gradients (must FAIL)")
    g.set_defaults(func=cmd_gradcheck)

    a = sub.add_parser("align", help="re-detect-and-link alignment")
    a.add_argument("--candidates", required=True)
    a.add_argument("--frames", required=True, help="directory of <tid>/<frame>.aakt containers")
    a.add_argument("--out", required=True)
    a.add_argument("--alpha", type=float, default=dl.DEFAULT_ALPHA)
    a.add_argument("--slim-ratio", type=float, default=dl.DEFAULT_SLIM_RATIO)
    a.set_defaults(func=cmd_align)

    e = sub.add_parser("eval", help="CMC / mAP evaluation")
    e.add_argument("--meta", required=True)
    e.add_argument("--distances", required=True)
    e.add_argument("--corrections")
    e.add_argument("--protocol", choices=list(ev.PROTOCOLS), help="without --compare only (default old)")
    e.add_argument("--compare", action="store_true", help="print the protocol delta report")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("demo", help="toy training + retrieval")
    d.add_argument("--ids", type=int, default=20)
    d.add_argument("--epochs", type=int, default=40)
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--data-seed", type=int, default=7)
    d.add_argument("--lr", type=float, default=0.05)
    d.add_argument("--attention", choices=["cfaa", "nonlocal3d", "none"], default="cfaa")
    d.add_argument("--scales", type=int, help="CF-AA scale count, --attention cfaa only (default 4)")
    d.add_argument("--heads", type=int, help="CF-AA heads per scale, --attention cfaa only (default 2)")
    d.add_argument("--chance-trials", type=int, default=0)
    d.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ConfigurationError, DimensionError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
