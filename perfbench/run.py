"""sbt-lab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload track-light --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src`` directory. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it wraps the program's functions (see
``tracing.py``) and prints the per-layer metrics instead. Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
0 when every output check passed, 1 when one failed and 2 when the
program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# set-ups per run; setup_s is their median
SETUPS = 3
# in a traced run, the share of --seconds measured with tracing off, to
# give the tracing overhead
UNTRACED_SHARE = 1 / 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "sbt_lab", "__init__.py")):
        print(f"error: no sbt_lab package under {SRC}; run from the root "
              f"of an sbt-lab source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import sbt_lab
    if os.path.dirname(os.path.abspath(sbt_lab.__file__)) != os.path.join(SRC, "sbt_lab"):
        print(f"error: sbt_lab imported from {sbt_lab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        import ctypes
        import glob
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = str(fn())
    except OSError:
        pass
    return f"{blas.get('name')}-{blas.get('version')}", threads


def print_environment():
    import scipy
    vendor, threads = _blas_info()
    env = {k: os.environ.get(k, "unset") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "SBT_LAB_THREADS")}
    print(f"env nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} blas={vendor} "
          f"blas_threads={threads} "
          + " ".join(f"{k}={v}" for k, v in env.items())
          + f" numpy={np.__version__} scipy={scipy.__version__} "
          f"python={platform.python_version()}")


def tail(samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None, None


def show(name, value, unit, n, note=""):
    print(f"metric {name} value={value:.6g} unit={unit} n={n}"
          + (f" {note}" if note else ""))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checks(workload, stats):
    results = workload.check()
    for name, ok, detail in results:
        print(f"check {name} {'pass' if ok else 'FAIL'} {detail}")
    for f in stats.failures[:20]:
        print(f"failure {f}")
    attempted = stats.attempted + len(results)
    failed = stats.failed + sum(not ok for _, ok, _ in results)
    return attempted, failed


def end_to_end(workload, args):
    from workloads import RunStats
    setup_s = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t)
    workload.warmup()
    stats = RunStats()
    workload.run(args.seconds, stats)
    rss = peak_rss_mb()
    attempted, failed = run_checks(workload, stats)

    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "items_per_s": (stats.items / stats.wall_s if stats.wall_s else 0.0,
                        "1/s", stats.items),
        "item_ms_p50": (statistics.median(stats.item_ms)
                        if stats.item_ms else 0.0, "ms", len(stats.item_ms)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    print(f"note one item is one {workload.item}")
    for name, (v, unit, n) in metrics.items():
        show(name, v, unit, n)
    p, v = tail(stats.item_ms)
    if p is None:
        print(f"metric item_ms_tail unavailable n={len(stats.item_ms)} "
              f"(fewer than 10 samples beyond p{TAIL_LADDER[-1]:g})")
    else:
        show("item_ms_tail", v, "ms", len(stats.item_ms), f"percentile=p{p:g}")
    for key, samples in stats.extra.items():  # keys end in their unit
        if samples:
            show(f"{key}_p50", statistics.median(samples), key.rsplit("_", 1)[-1],
                 len(samples))
    show("error_rate", failed / attempted if attempted else 1.0, "ratio",
         attempted)
    return metrics, attempted, failed


def traced(workload, args):
    from workloads import RunStats
    import tracing
    from sbt_lab import backbone, harness

    tracer = tracing.Tracer()
    tracer.install()
    workload.setup()
    tracer.uninstall()
    workload.warmup()

    untraced = RunStats()
    workload.run(args.seconds * UNTRACED_SHARE, untraced)
    tracer.phase = "measure"
    tracer.install()
    stats = RunStats()
    workload.run(args.seconds * (1 - UNTRACED_SHARE), stats,
                 on_item=lambda: tracer.set_item("step"))
    tracer.uninstall()
    tracer.phase = "check"
    tracer.set_item(None)

    flops_analytic, _ = backbone.count_flops(workload.model)
    attempted, failed = run_checks(workload, stats)
    attempted += untraced.attempted
    failed += untraced.failed

    spans = tracer.spans()
    path = os.path.join(WORK, f"trace-{workload.name}.jsonl")
    tracer.write(path)
    print(f"trace spans={len(spans)} written={os.path.relpath(path, ROOT)}")

    measured = tracing.aggregate(spans, "measure")
    every = tracing.aggregate(spans)
    by_kind = tracing.flops_by_item_kind(spans, "measure")
    # per-layer figures are per traced frame or step, the first step of a
    # training loop included
    item = workload.item
    items = max(by_kind.get(item, (0, 0))[1], 1)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flops": 0, "value": 0.0}

    print(f"{'span':44s} {'calls/item':>10s} {'self ms/item':>12s} "
          f"{'incl ms/item':>12s}")
    for name, a in sorted(measured.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"span {name:39s} {a['calls'] / items:10.2f} "
              f"{1e3 * a['self_s'] / items:12.3f} {1e3 * a['incl_s'] / items:12.3f}")

    m = {}
    for name, key in SPAN_METRICS:
        a = measured.get(name, zero)
        m[f"{name}.{key}"] = (1e3 * a["self_s"] / items, "ms")
        m[f"{name}.calls"] = (a["calls"] / items, "count")
    for name in ("autodiff.linear", "autodiff.matmul", "autodiff.conv2d"):
        a = measured.get(name, zero)
        m[f"{name}.shape_gflop_per_s"] = (
            a["flops"] / a["self_s"] / 1e9 if a["self_s"] else 0.0, "GFLOP/s")
    upd = measured.get("tracker.maybe_update_template", zero)
    m["tracker.maybe_update_template.accept_ratio"] = (
        upd["value"] / upd["calls"] if upd["calls"] else 0.0, "ratio")

    def per_call(name, field="incl_s"):
        a = every.get(name, zero)
        return a[field] / a["calls"] if a["calls"] else 0.0

    for name in ("backbone.build_variant", "backbone.load_checkpoint",
                 "backbone.save_checkpoint", "harness.load_dataset",
                 "harness.run_tracker_on_sequence"):
        m[f"{name}.s"] = (per_call(name), "s")
    ck = [every.get(n, zero) for n in ("backbone.save_checkpoint",
                                       "backbone.load_checkpoint")]
    ck_calls = sum(a["calls"] for a in ck)
    m["backbone.checkpoint_mb"] = (
        sum(a["value"] for a in ck) / ck_calls / 1e6 if ck_calls else 0.0, "MB")
    ppm = every.get("harness.read_ppm", zero)
    m["harness.read_ppm.mb_per_s"] = (
        ppm["value"] / ppm["incl_s"] / 1e6 if ppm["incl_s"] else 0.0, "MB/s")
    ev = measured.get("harness.evaluate", zero)
    busy = measured.get("harness.run_tracker_on_sequence", zero)["incl_s"]
    jobs = max(1, min(getattr(workload, "jobs", 1), harness.max_threads()))
    m["harness.evaluate.pool_busy_ratio"] = (
        busy / (ev["incl_s"] * jobs) if ev["incl_s"] else 0.0, "ratio")
    m["cli.run.self_s"] = (per_call("cli.run", "self_s"), "s")

    per_item = sum(f for f, _ in by_kind.values()) / items
    if "init" in by_kind:
        f_init, n_init = by_kind["init"]
        f_frame, n_frame = by_kind.get("frame", (0, 1))
        pair = f_init / n_init + f_frame / n_frame
    else:
        pair = per_item
    m["flops.analytic_pair_g"] = (flops_analytic / 1e9, "GFLOP")
    m["flops.traced_pair_g"] = (pair / 1e9, "GFLOP")
    m["flops.traced_per_item_g"] = (per_item / 1e9, "GFLOP")
    print(f"flops count_flops(model)={flops_analytic / 1e9:.3f}G "
          f"traced_pair={pair / 1e9:.3f}G traced_per_{item}"
          f"={per_item / 1e9:.3f}G ratio={pair / flops_analytic:.3f} "
          f"(traced flops computed from linear/matmul/conv2d argument shapes)")

    rate = stats.items / stats.wall_s if stats.wall_s else 0.0
    rate0 = untraced.items / untraced.wall_s if untraced.wall_s else 0.0
    m["trace.items_per_s"] = (rate, "1/s")
    m["trace.untraced_items_per_s"] = (rate0, "1/s")
    m["trace.overhead_ratio"] = (rate0 / rate if rate else 0.0, "ratio")
    print(f"trace overhead: traced items_per_s={rate:.4f} (n={stats.items}) "
          f"untraced={rate0:.4f} (n={untraced.items})")
    metrics = {k: (v, unit, items) for k, (v, unit) in m.items()}
    for name, (v, unit, n) in metrics.items():
        show(name, v, unit, n)
    return metrics, attempted, failed


# (span name, key of its self-time metric); each also gets "<span>.calls"
SPAN_METRICS = (
    ("tracker.crop_region", "ms"),
    ("tracker.track_step", "self_ms"),
    ("head.decode_box", "ms"),
    ("backbone.encode_early.search", "ms"),
    ("backbone.encode_early.template", "ms"),
    ("backbone.encode_early.dyn_template", "ms"),
    ("backbone.forward_joint", "ms"),
    ("layers.UrmLayer", "ms"),
    ("layers.RelBiasTable.bias", "ms"),
    ("layers.LocalLayer", "ms"),
    ("layers.PatchMerge", "ms"),
    ("layers.FrmLayer", "ms"),
    ("layers.Attention", "ms"),
    ("layers.Mlp", "ms"),
    ("layers.PatchEmbed", "ms"),
    ("head.MixMlpHead", "ms"),
    ("head.ConvHead", "ms"),
    ("autodiff.linear", "ms"),
    ("autodiff.gelu", "ms"),
    ("autodiff.matmul", "ms"),
    ("autodiff.softmax_lastdim", "ms"),
    ("autodiff.layer_norm", "ms"),
    ("autodiff.take_rows", "ms"),
    ("autodiff.conv2d", "ms"),
    ("autodiff.backward", "ms"),
    ("optim.AdamW.step", "ms"),
    ("optim.clip_grad_norm", "ms"),
    ("loss.total_loss", "ms"),
    ("harness.sample_pair", "ms"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("track-light", "eval-hi-dyn", "train-light"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from workloads import WORKLOADS
    print_environment()
    print(f"run workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    workload = WORKLOADS[args.workload](
        args.seed, os.path.join(WORK, f"{args.workload}-{os.getpid()}"))
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed = measure(workload, args)
    finally:
        workload.close()
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
