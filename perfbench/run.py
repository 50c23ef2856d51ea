"""alglat benchmark: run one workload, timed or traced, and check every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload alll-reduce --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one outstanding call into the library.
--trace 0 times calls with no tracing and reports the end-to-end metrics;
--trace 1 wraps the library's layers (see spans.py) and reports per-layer
metrics.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Per-run records
and span dumps go to perfbench/out/.
"""

import os

# pin BLAS to one thread before numpy is first imported, here and in the
# set-up probes, which inherit the environment
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: a timed run makes at least this many passes over its inputs
MIN_PASSES = 3
#: hard stop for the timed loop, whatever MIN_PASSES says
MAX_WALL_S = 120.0
SETUP_PROBES = 7
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_item": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import alglat from this checkout's src/ and nowhere else."""
    pkg = SRC / "alglat"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found at {pkg}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import alglat

    if Path(alglat.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported alglat from {alglat.__file__}, not from {pkg}")


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Tally:
    """Latency, CPU time, items and failures of a sequence of calls."""

    def __init__(self):
        self.latency: list[float] = []
        self.cpu: list[float] = []
        self.done: list[int] = []  # items completed by each call
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()

    def add(self, other: "Tally") -> None:
        self.latency += other.latency
        self.cpu += other.cpu
        self.done += other.done
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons

    @property
    def items(self) -> int:
        return sum(self.done)

    @property
    def busy(self) -> float:
        return sum(self.latency)


def run_call(w, index: int, tally: Tally, tracer=None, digest: bool = False, x=None) -> None:
    """Make one timed call; generate its input before (unless given) and
    check its output after."""
    if x is None:
        x = w.make_input(index)
    c0, t0 = cpu_seconds(), time.perf_counter()
    sid = tracer.begin_op(index) if tracer is not None else None
    err = None
    try:
        out = w.call(x)
    except Exception as exc:  # a call that raises is counted as failed
        out, err = None, exc
    finally:
        if tracer is not None:
            tracer.end_op(sid)
    tally.latency.append(time.perf_counter() - t0)
    tally.cpu.append(cpu_seconds() - c0)
    tally.attempted += 1
    reasons = [f"raised {type(err).__name__}: {err}"] if err is not None else w.check(x, out)
    tally.done.append(0 if reasons else w.items_per_call)
    if reasons:
        tally.failed += 1
        tally.reasons += [f"call {index}: {r}" for r in reasons]
    if digest:
        tally.digest.update((w.digest_line(x, out) if err is None else "error").encode() + b"\n")


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, host-speed kernel time right after it) of fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["kernel_s"]))
    return samples


def fail_run(w, tally: Tally) -> None:
    """Apply the whole-run checks; a failure there fails every call."""
    reasons = w.finish()
    if reasons:
        tally.failed = tally.attempted
        tally.done = [0] * tally.attempted
        tally.reasons += [f"run: {r}" for r in reasons]


def timed_run(w, seconds: int):
    """Pass over a fixed set of w.inputs inputs, whole passes, until the next
    pass would end more than half a pass after `seconds`.

    The host-speed kernel (hostspeed.py) runs between calls.  Each call's
    wall and CPU time is scaled by hostspeed.REFERENCE_S over the mean of the
    kernel times just before and after it; set-up times are scaled the same
    way.  Every input keeps the median of its scaled times over the
    passes, and throughput, CPU per item and the latency percentiles come
    from these medians.
    """
    import hostspeed
    import workloads

    setup_samples = measure_setup(w.name, w.seed)
    w.setup(w.make_input(workloads.WARMUP_INDEX))
    inputs = [w.make_input(i) for i in range(w.inputs)]
    samples: list[list[tuple[float, float, float]]] = [[] for _ in inputs]
    kernel_times = []
    tally = Tally()
    passes = 0
    start = time.perf_counter()
    while True:
        wall = time.perf_counter() - start
        if passes >= MIN_PASSES and wall + 0.5 * wall / passes > seconds or wall >= MAX_WALL_S:
            break
        gc.collect()
        before = hostspeed.time_kernel()
        kernel_times.append(before)
        for i, x in enumerate(inputs):
            run_call(w, i, tally, digest=passes == 0 and i < w.prefix, x=x)
            after = hostspeed.time_kernel()
            kernel_times.append(after)
            samples[i].append((tally.latency[-1], tally.cpu[-1], 0.5 * (before + after)))
            before = after
        passes += 1
    fail_run(w, tally)
    ref = hostspeed.REFERENCE_S
    wall_med = [statistics.median(t * ref / k for t, _, k in s) for s in samples]
    cpu_med = [statistics.median(c * ref / k for _, c, k in s) for s in samples]
    raw_med = [statistics.median(t for t, _, _ in s) for s in samples]
    items = w.items_per_call * w.inputs
    p = statistics.quantiles(wall_med, n=10, method="inclusive")
    values = {
        "items_per_s": items / math.fsum(wall_med),
        "op_ms_p50": 1e3 * p[4],
        "op_ms_p90": 1e3 * p[8],
        "cpu_ms_per_item": 1e3 * math.fsum(cpu_med) / items,
        "setup_s": statistics.median(t * ref / k for t, k in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    notes = {
        "inputs": w.inputs,
        "passes": passes,
        "kernel_ms_fastest": 1e3 * min(kernel_times),
        "kernel_ms_median": 1e3 * statistics.median(kernel_times),
        "unscaled_items_per_s": items / math.fsum(raw_med),
        "unscaled_setup_s": statistics.median(t for t, _ in setup_samples),
        "fail_frac": tally.failed / tally.attempted,
        "setup_samples": setup_samples,
    }
    return tally, metrics, notes, None


def traced_run(w, seconds: int):
    """Untraced passes, then traced passes, over the first w.prefix inputs.

    The fixed input set makes call and work counts repeat exactly for a seed;
    they are taken from the first traced pass.  Times use every pass.
    """
    import spans
    import workloads

    w.setup(w.make_input(workloads.WARMUP_INDEX))

    def passes(tracer=None, digest=False):
        tally, start, first = Tally(), time.perf_counter(), None
        while first is None or time.perf_counter() - start < seconds / 2:
            for i in range(w.prefix):
                run_call(w, i, tally, tracer, digest=digest and first is None)
            if first is None:
                first = (tally.items, len(tracer.start), dict(tracer.counts)) if tracer else ()
        return tally, first

    base, _ = passes(digest=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, (first_items, first_spans, first_counts) = passes(tracer)
    finally:
        tracer.uninstall()
    overhead = (traced.busy / max(traced.items, 1)) / (base.busy / max(base.items, 1))
    metrics = spans.layer_metrics(
        tracer, first_spans, first_counts, max(first_items, 1), max(traced.items, 1),
        overhead, w.layer_extras(),
    )
    counts_text = json.dumps(first_counts, sort_keys=True)
    notes = {
        "untraced_calls": base.attempted,
        "traced_calls": traced.attempted,
        "spans": len(tracer.start),
        "work_counts": first_counts,
        "work_counts_sha256": hashlib.sha256(counts_text.encode()).hexdigest(),
    }
    base.add(traced)
    fail_run(w, base)
    return base, metrics, notes, tracer


def provenance() -> dict:
    import numpy
    import sympy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(1, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    tally, metrics, notes, tracer = run(w, args.seconds)

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:  # one span file per workload bounds the disk used
        tracer.save(OUT / f"{w.name}.spans.npz")
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), "output_sha256": tally.digest.hexdigest(),
        "attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons[:20],
        "metrics": metrics, "notes": notes,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {tally.attempted} calls, "
          f"{tally.failed} failed, {tally.items} items of {w.items_per_call} per call")
    for r in tally.reasons[:5]:
        print(f"  failure: {r}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {tally.failed / tally.attempted:>14.6g} ratio")
    if "passes" in notes:
        import hostspeed

        print(f"  times are per-input medians over {notes['passes']} passes over "
              f"{notes['inputs']} inputs, scaled to a "
              f"{1e3 * hostspeed.REFERENCE_S:g} ms host-speed kernel: fastest {notes['kernel_ms_fastest']:.4g} ms, "
              f"median {notes['kernel_ms_median']:.4g} ms; unscaled items_per_s "
              f"{notes['unscaled_items_per_s']:.6g}, setup_s {notes['unscaled_setup_s']:.6g}")
    print(f"  output sha256 {record['output_sha256']} (first {w.prefix} calls)")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
