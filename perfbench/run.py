"""Benchmark for mtbounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one fresh process each

Workloads (see workloads.py): ``optimize-cold`` (24 cold LP solves per sweep)
and ``adjust-warm`` (a stream of ``adjust`` calls and small ``simulate``
calls that only read the solve cache). The timed phase is a closed loop on
the calling thread of one process, in whole units (a sweep or a cycle), and
``ops_per_s`` is its ops over its wall time. Set-up is timed five times,
once in that process and four times in fresh child processes run one after
the other, and ``setup_s`` is the median.

With ``--trace 0`` the run reports the end-to-end metrics of its timed phase.
With ``--trace 1`` it runs the same timed phase untraced and then traced,
and reports the per-layer metrics of the traced phase (see tracing.py).
Either way every output is checked after the timed phase; the last line of
stdout is one JSON object, and the exit code is 1 when any check fails.
A record with machine facts is kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("optimize-cold", "adjust-warm")
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
MMAP_THRESHOLD = 6 << 20

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def percentile(samples, q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default method)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples, q: float, min_beyond: int = TAIL_MIN_BEYOND):
    """(value, percentile used, samples above it). The q-th percentile when
    at least ``min_beyond`` samples lie above it; otherwise the highest
    percentile that has that many above it, and the median when there are
    too few samples for any."""
    n = len(samples)
    if n < 2:
        used = 50.0
    elif (n - 1) * q / 100.0 < n - min_beyond:
        used = float(q)
    else:
        used = max(50.0, 100.0 * (n - 1 - min_beyond) / (n - 1))
    value = percentile(samples, used)
    return value, used, sum(1 for x in samples if x > value)


def pin_mmap_threshold() -> bool:
    """Serve every block of ``MMAP_THRESHOLD`` bytes or more by mmap, so it
    goes back to the OS when freed. By default glibc raises its threshold
    after the first large free, and whether a later n=2000 matrix then reuses
    or extends the heap varies between processes: peak_rss_mb of one
    adjust-warm seed jumped between 111 and 141 MB. Pinning the threshold
    also stops glibc from raising the trim threshold, so that is set to twice
    the mmap threshold, as glibc would; smaller blocks, such as the n=300
    simplex tableaux and the simulation batches, then stay on the heap."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts(seed: int, mmap_pinned: bool) -> dict:
    import numpy as np
    import scipy

    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mtbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "malloc_mmap_threshold": MMAP_THRESHOLD if mmap_pinned else None,
        "simulate_threads": workloads.AdjustWarm.THREADS,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_probe(args) -> int:
    """Set the workload up once in this fresh process and print the time."""
    work = OUT / f"probe-{os.getpid()}"
    start = perf_counter()
    try:
        import workloads

        workloads.make(args.workload, args.seed, work).setup()
        print(json.dumps({"setup_s": perf_counter() - start}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def probe_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    work = OUT / f"work-{os.getpid()}"
    start = perf_counter()
    import workloads  # numpy, scipy and mtbounds load here, inside set-up

    wl = workloads.make(args.workload, args.seed, work)
    try:
        wl.setup()
        setups = [perf_counter() - start]
        records, wall = workloads.run_units(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = list(records)
        traced = None
        if args.trace:
            traced = run_traced(args, wl, records, wall)
            checked += traced["records"]
        failures = wl.check(checked)
        digests = wl.digests(checked) if args.workload == "adjust-warm" else []
        setups += [probe_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(checked)
    failed = len(failures)
    ops = len(records)
    latencies_ms = [1000.0 * rec.seconds for rec in records]
    tail, tail_q, beyond = tail_percentile(latencies_ms, 90)
    summary = {
        "workload": args.workload,
        "units": len({rec.unit for rec in records}),
        "calls": len(records),
        "ops": ops,
        "timed_wall_s": wall,
        "latency_samples": len(latencies_ms),
        "op_p90_percentile": tail_q,
        "op_p90_beyond": beyond,
        "setup_samples_s": setups,
        "fail_frac": failed / attempted,
        "failures": {f"u{checked[i].unit}/{checked[i].op.label}": msgs
                     for i, msgs in sorted(failures.items())},
    }
    if digests:
        summary["report_sha256"] = sorted(set(digests) - {""})
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / wall,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if traced is None:
        metrics = {name: _metric(value, units[name]) for name, value in end_to_end.items()}
    else:
        import tracing

        per_layer = dict(tracing.PER_LAYER_METRICS)
        metrics = {name: _metric(value, per_layer[name])
                   for name, value in traced["metrics"].items()}
        summary.update({k: v for k, v in traced.items() if k not in ("records", "metrics")})
    summary["end_to_end"] = end_to_end
    summary["facts"] = machine_facts(args.seed, args.mmap_pinned)

    print_summary(summary, metrics)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"summary": summary, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_traced(args, wl, untraced, untraced_wall) -> dict:
    """The traced phase, after the untraced one, plus the thread-scaling
    probe on adjust-warm. Returns its records, metrics and cross-checks."""
    import tracing
    import workloads

    first_unit = max(rec.unit for rec in untraced) + 1
    probes = []
    speedup = 0.0
    if args.workload == "adjust-warm":
        nproc = len(os.sched_getaffinity(0))
        probes = [wl.probe(1, first_unit), wl.probe(nproc, first_unit + 1)]
        first_unit += 2
        speedup = probes[0].seconds / probes[1].seconds
    recorder = tracing.SpanRecorder()
    tracer = tracing.LayerTracer(recorder)
    with tracer:
        records, wall = workloads.run_units(wl, args.seconds, first_unit, recorder)
    metrics = tracing.layer_metrics(recorder.spans, tracer.bitgens)
    metrics["simulation.thread_speedup"] = speedup
    metrics["trace.overhead_ratio"] = (len(untraced) / untraced_wall) / (len(records) / wall)

    OUT.mkdir(exist_ok=True)
    recorder.write_csv(OUT / f"{args.workload}-seed{args.seed}.spans.csv")
    units = len({rec.unit for rec in records})
    cross = wl.cross_checks(metrics, records)
    per_unit = {}
    for span in recorder.spans:
        if span.layer == "lp" and span.name == "solve":
            unit = records[span.op].unit
            per_unit[unit] = per_unit.get(unit, 0) + span.facts.get("iterations", 0)
    iterations = sorted(set(per_unit.values()))
    cross["lp.iterations identical in every unit"] = len(iterations) <= 1
    return {
        "records": probes + records,
        "metrics": metrics,
        "traced_units": units,
        "lp_iterations_per_unit": iterations,
        "cross_checks": cross,
        "layer_shares": layer_shares(recorder.spans, records),
    }


def layer_shares(spans, records) -> dict:
    """Self time of each layer as a share of the op time, over all ops and
    per op class."""
    import tracing

    def share(key):
        self_s = tracing.self_times(spans, key)
        totals = {}
        for s in spans:
            if s.parent is None:
                k = key(s)[0]
                totals[k] = totals.get(k, 0.0) + s.duration
        out = {}
        for (cls, layer), value in sorted(self_s.items()):
            out.setdefault(cls, {})[layer] = round(value / totals[cls], 4)
        return out

    shares = share(lambda s: ("all", s.layer))
    shares.update(share(lambda s: (records[s.op].op.cls, s.layer)))
    return shares


def print_summary(summary: dict, metrics: dict) -> None:
    print(f"workload {summary['workload']}: {summary['calls']} calls, {summary['ops']} ops "
          f"in {summary['units']} units, {summary['timed_wall_s']:.3f} s timed, "
          f"fail_frac {summary['fail_frac']:.6g}")
    for label, msgs in summary["failures"].items():
        print(f"  FAILED {label}: {'; '.join(msgs)}")
    for name, value in summary["end_to_end"].items():
        print(f"  {name:>12} = {value:.6g}")
    print(f"  latency samples {summary['latency_samples']}; op_p90_ms is the "
          f"p{summary['op_p90_percentile']:.4g}, with {summary['op_p90_beyond']} samples above it")
    if "report_sha256" in summary:
        print(f"  report sha256 {' '.join(summary['report_sha256'])}")
    if "cross_checks" in summary:
        for name, value in metrics.items():
            print(f"  {name:>30} = {value['value']:.6g} {value['unit']}")
        for name, ok in summary["cross_checks"].items():
            print(f"  cross-check {name}: {'holds' if ok else 'DIFFERS'}")
        print(f"  lp.iterations per unit: {summary['lp_iterations_per_unit']}")
        for cls, shares in summary["layer_shares"].items():
            top = ", ".join(f"{layer} {value:.1%}" for layer, value in
                            sorted(shares.items(), key=lambda kv: -kv[1]))
            print(f"  shares [{cls}]: {top}")
    facts = summary["facts"]
    print(f"  facts: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"scipy {facts['scipy']}, {facts['blas']} ({facts['blas_threads']} threads), "
          f"simulate threads {facts['simulate_threads']}, seed {facts['seed']}, "
          f"commit {facts['git_commit']}")


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric of every one."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "mtbounds" / "__init__.py").is_file():
        print(f"error: no mtbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.mmap_pinned = pin_mmap_threshold()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
