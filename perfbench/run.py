"""Benchmark of the axialreid library.

    python3 perfbench/run.py --workload train_cfaa --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory, and the run fails without printing a result when that is
missing. Each workload runs its ops back to back (a closed loop with one
client) until the summed op wall time reaches ``--seconds``. Outputs are
checked after every op, outside the timed span.

Each op is timed in wall time and in the process's CPU time (all its
threads). The bounded metrics use calibrated time (see ``calibrate``): CPU
time scaled by a fixed reference computation that runs between the ops, so
that the host's drifting speed divides out. Wall-clock and raw CPU figures
are printed by name beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` sets up once, runs
an untraced phase and then a traced phase of the same length, and prints the
per-layer metrics; the trace wraps the library's public callables at run time.
The last stdout line is one JSON object; a JSON record of the run, spans
included, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least 3 times and until it has taken 2 s of wall time, for a
# steady median
SETUP_REPEATS, SETUP_SECONDS = 3, 2.0

# per-layer metrics: calls and self time per op for each of these callables
TIMED_LAYERS = (
    "attention.cfaa_forward", "attention.cfaa_backward",
    "toytrain.Conv2d.forward", "toytrain.Conv2d.backward",
    "toytrain.BatchNorm2d.forward", "toytrain.BatchNorm2d.backward",
    "toytrain.ToyModel.forward", "toytrain.ToyModel.backward",
    "toytrain.train", "toytrain.retrieve",
    "aggregation.batch_hard_triplet", "aggregation.cross_entropy",
    "aggregation.masked_avg_pool", "aggregation.masked_avg_pool_backward", "aggregation.mask_downsample",
    "tensor.avg_pool_2d", "tensor.upsample_nearest_2d",
    "tensor.avg_pool_2d_adjoint", "tensor.upsample_nearest_2d_adjoint",
    "tensor.load_tensor",
    "detect_link.process_tracklet", "detect_link.normalize_crop", "detect_link.link_frame",
    "evaluate.evaluate", "evaluate.apply_corrections", "evaluate.load_eval_dataset",
)
# rate metrics: (metric, layer, work counter, scale to the unit, unit)
RATES = (
    ("attention.cfaa_forward.gflops_per_s", "attention.cfaa_forward", "multiplies", 1e-9, "GFLOP/s"),
    ("toytrain.Conv2d.forward.gflops_per_s", "toytrain.Conv2d.forward", "macs", 1e-9, "GFLOP/s"),
    ("toytrain.Conv2d.backward.gflops_per_s", "toytrain.Conv2d.backward", "macs", 1e-9, "GFLOP/s"),
    ("tensor.load_tensor.mb_per_s", "tensor.load_tensor", "bytes", 1e-6, "MB/s"),
    ("evaluate.evaluate.pairs_per_s", "evaluate.evaluate", "pairs", 1.0, "1/s"),
)


def library_root() -> Path | None:
    src = ROOT / "src"
    return src if (src / "axialreid" / "__init__.py").is_file() else None


def environment(seed: int) -> dict:
    """Where and with what the numbers were measured. Thread variables are
    recorded as found; the benchmark sets none (unset = OpenBLAS default)."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return dict(
        python=platform.python_version(), numpy=np.__version__,
        blas=f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        blas_threads_env={k: os.environ.get(k, "unset")
                          for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        blas_threads_runtime=openblas_threads(np),
        nproc=os.cpu_count(), cpu=cpu, platform=platform.platform(), seed=seed,
    )


def openblas_threads(np) -> int | None:
    """Thread count numpy's bundled OpenBLAS uses, or None if not found."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_phase(workload, state, seconds: float, tracer=None, reference=calibrate.reference) -> dict:
    """Closed loop: ops back to back until their summed wall time reaches
    seconds. Each op is timed in wall time, in process CPU time and in
    calibrated time, from the reference runs before and after it."""
    ops, counts = [], {}
    busy = 0.0
    ref_before = reference()
    while not ops or busy < seconds:
        i = len(ops)
        if tracer is not None:
            tracer.op = i
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            items, output = workload.op(state, i)
            error = None
        except Exception:  # an op that raises is a failed op; the run goes on
            items, output, error = 0, None, traceback.format_exc()
        end, cpu_end = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.op = None
        ref_after = reference()
        if error is None:
            failures, found = workload.check(state, i, output)
            for key, value in found.items():
                counts[key] = counts.get(key, 0) + value
        else:
            failures = [error]
        for message in failures[:10]:
            print(f"FAILED {message}", file=sys.stderr)
        if len(failures) > 10:
            print(f"FAILED op {i}: {len(failures) - 10} more differences", file=sys.stderr)
        ops.append(dict(start=start, end=end, seconds=end - start, cpu_s=cpu_end - cpu_start,
                        cal_s=calibrate.calibrated(cpu_end - cpu_start, ref_before, ref_after),
                        ref_s=[ref_before, ref_after], items=items, failures=failures))
        busy += end - start
        ref_before = ref_after
    items = sum(o["items"] for o in ops)
    cal_busy = sum(o["cal_s"] for o in ops)
    return dict(ops=ops, counts=counts, busy=busy, cpu_busy=sum(o["cpu_s"] for o in ops),
                cal_busy=cal_busy, items_per_s=items / busy, items_per_cal_s=items / cal_busy)


def end_to_end(phase: dict, setups: list[dict]) -> dict:
    """The bounded metrics: op and set-up times in calibrated seconds."""
    return {
        "items_per_cal_s": (phase["items_per_cal_s"], "1/s"),
        "op_cal_s.p50": (statistics.median(o["cal_s"] for o in phase["ops"]), "s"),
        "setup_s": (statistics.median(s["cal_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def uncalibrated(phase: dict, setups: list[dict]) -> dict:
    """The same times as wall and CPU time, and the reference's own CPU
    time: printed, not bounded."""
    return {
        "items_per_s": (phase["items_per_s"], "1/s"),
        "op_s.p50": (statistics.median(o["seconds"] for o in phase["ops"]), "s"),
        "op_cpu_s.p50": (statistics.median(o["cpu_s"] for o in phase["ops"]), "s"),
        "setup_wall_s": (statistics.median(s["seconds"] for s in setups), "s"),
        "reference_cpu_s.p50": (statistics.median(o["ref_s"][1] for o in phase["ops"]), "s"),
    }


def counting_hooks():
    """Work counters the trace adds around some calls, outside their spans."""
    from axialreid import attention, flops

    count_multiplies = attention.count_multiplies  # the original, not a wrapper

    def cfaa_forward(work, call, args, kwargs):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
        with count_multiplies() as counter:
            out = call(*args, **kwargs)
        work["multiplies"] += counter.total
        work["predicted"] += flops.attention_contraction_count("cfaa", cfg)
        return out

    def conv(passes):
        def hook(work, call, args, kwargs):
            layer, tensor = args[0], args[1]  # (x) forward or (grad) backward
            out = call(*args, **kwargs)
            b, c_out, h_out, w_out = (out if passes == 1 else tensor).shape
            work["macs"] += passes * b * c_out * h_out * w_out * int(layer.weight[0].size)
            return out
        return hook

    def load_tensor(work, call, args, kwargs):
        work["bytes"] += os.path.getsize(args[0])
        return call(*args, **kwargs)

    def evaluate(work, call, args, kwargs):
        work["pairs"] += args[0].distances.size
        return call(*args, **kwargs)

    return {"attention.cfaa_forward": cfaa_forward,
            "toytrain.Conv2d.forward": conv(1), "toytrain.Conv2d.backward": conv(2),
            "tensor.load_tensor": load_tensor, "evaluate.evaluate": evaluate}


def per_layer(tracer, phase: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-op layer metrics from a traced phase; also the full layer table."""
    n_ops = len(phase["ops"])
    table = spans.layer_totals(tracer.spans)
    metrics = {}
    for layer in TIMED_LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (row["calls"] / n_ops, "count")
        metrics[f"{layer}.self_s"] = (row["self_s"] / n_ops, "s")
    for name, layer, counter, scale, unit in RATES:
        own = table.get(layer, {}).get("self_s", 0.0)
        work = tracer.work.get(layer, {}).get(counter, 0.0)
        metrics[name] = (work * scale / own if own > 0 else 0.0, unit)
    cfaa = tracer.work.get("attention.cfaa_forward", {})
    metrics["attention.cfaa_forward.count_ratio"] = (
        cfaa["multiplies"] / cfaa["predicted"] if cfaa.get("predicted") else 0.0, "ratio")
    counts = phase["counts"]
    metrics["detect_link.link_hit_ratio"] = (
        counts["link_hits"] / counts["frames_linked"] if counts.get("frames_linked") else 0.0, "ratio")
    metrics["trace.coverage"] = (spans.top_level_seconds(tracer.spans) / phase["cpu_busy"], "ratio")
    metrics["trace.overhead"] = (1.0 - phase["items_per_cal_s"] / untraced["items_per_cal_s"], "ratio")
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = library_root()
    if src is None:
        print(f"perfbench: no library source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        ref_before = calibrate.reference()
        while not setups or not args.trace and (
                len(setups) < SETUP_REPEATS or sum(s["seconds"] for s in setups) < SETUP_SECONDS):
            state = None  # free the previous set-up before making the next
            start, cpu_start = time.perf_counter(), time.process_time()
            state = workload.setup(args.seed, workdir)
            end, cpu = time.perf_counter(), time.process_time() - cpu_start
            ref_after = calibrate.reference()
            setups.append(dict(seconds=end - start, cpu_s=cpu, ref_s=[ref_before, ref_after],
                               cal_s=calibrate.calibrated(cpu, ref_before, ref_after)))
            ref_before = ref_after
        phase = run_phase(workload, state, args.seconds)
        record = dict(workload=args.workload, item=workload.item, env=env,
                      ref_seconds=calibrate.REF_SECONDS, setups=setups)
        if args.trace:
            tracer = spans.Tracer()
            try:
                wrapped = tracer.install(hooks=counting_hooks())
                traced = run_phase(workload, state, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics, table = per_layer(tracer, traced, phase)
            printed = {}
            phases = [phase, traced]
            record.update(wrapped=wrapped, layers=table, spans=tracer.spans)
        else:
            metrics = end_to_end(phase, setups)
            printed = uncalibrated(phase, setups)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [o for p in phases for o in p["ops"]]
    failed = sum(1 for o in ops if o["failures"])
    values = {k: dict(value=v, unit=u) for k, (v, u) in metrics.items()}
    record.update(phases=phases, metrics=values,
                  uncalibrated={k: dict(value=v, unit=u) for k, (v, u) in printed.items()})
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} item={workload.item} record={out_file.relative_to(ROOT)}")
    if not args.trace:
        print(f"  op count for the p50s: {len(phase['ops'])}, set-ups for setup_s: {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}={value:.6g} {unit}")
    for name, (value, unit) in printed.items():
        print(f"  {name}={value:.6g} {unit} (not calibrated, not bounded)")
    print(f"  fail_rate={failed / len(ops):.6g} ({failed}/{len(ops)} ops)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(dict(correct=failed == 0, attempted=len(ops), failed=failed, metrics=values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
