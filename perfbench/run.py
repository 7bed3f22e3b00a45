"""sepclust benchmark: time to a certified clustering, end to end and per layer.

    python3 perfbench/run.py --workload uniform-auto --seed 1 --seconds 40 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout, in this one process and one thread. The run sets up the
workload's inputs from ``--seed``, then repeats whole passes over them while
another pass fits in ``--seconds`` (and at least three times), and reports
per-pass medians. The set-up is timed in batches of builds, one before the
passes and one after each round (``setup_s`` is the median of the
per-build means). Every output is checked after its pass, by the
benchmark's own certificate check, the pinned exit codes of the hostile
files, the exact min-ball oracle and a digest that must repeat across
passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, the tracing overhead, and a check that both kinds of pass produce the
same output digest. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every time metric is in seconds at the nominal host speed: a pass ticks a
fixed reference kernel next to each library call it times, and its times
are divided by how much slower than nominal the ticks ran (``pace.py``).
The report also prints the raw medians and that factor.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# setup_s is the median of the per-build mean time over batches of builds.
# A batch repeats the build until the builds have taken SETUP_BATCH_S, so
# that a sub-millisecond build is still timed over a span far above timer
# jitter, with pace ticks between them (one per build, or per run of builds
# as long as a tick). One batch runs before the passes and one after each
# round of passes, so that the batches sample the host over the whole run,
# as the passes do.
SETUP_BATCH_S = 0.25
# Passes of each kind a run makes even when fewer would fit in --seconds,
# so that every reported median is over at least three samples.
MIN_PASSES = 3
WORKLOADS = ("uniform-auto", "multiscale-fixed", "desk-sweep")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "semi_s": "s",
    "strong_s": "s",
    "semi_colored_s": "s",
    "well_colored_s": "s",
    "verify_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "quality_total": "count",
}


def _import_library():
    """Import sepclust from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sepclust
    except ImportError as exc:
        sys.exit(f"error: cannot import sepclust from {SRC}: {exc}")
    if Path(sepclust.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: sepclust was imported from {sepclust.__file__}, not {SRC}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every instance, for the self-test")
    return p.parse_args(argv)


def _percentile_ms(samples, q):
    if len(samples) < 2:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    import spans
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return _run(args, workdir, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, spans, workloads) -> int:
    setup = workloads.SETUP[args.workload]
    run_pass = workloads.PASS[args.workload]

    inputs, build = workloads.setup_batch(setup, args.seed, args.size, workdir, SETUP_BATCH_S)
    setup_times = [build]
    if args.trace:
        setup_tracer = spans.Tracer()
        with setup_tracer.installed():
            inputs = setup(args.seed, args.size, workdir)

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(inputs, workdir))
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                traced.append(run_pass(inputs, workdir))
            tracers.append(tracer)
        setup_times.append(workloads.setup_batch(setup, args.seed, args.size, workdir, SETUP_BATCH_S)[1])
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        for r in plain[-1:] + traced[-1:]:
            workloads.finish(inputs, r)
        if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    if args.trace:
        tracers[0].dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    failures = [f for r in plain + traced for f in r.failures]
    attempted = sum(r.attempted for r in plain + traced)
    digests = {r.digest for r in plain + traced}
    if len(digests) != 1:
        failures.append(f"output digest differs between passes: {sorted(digests)}")
    failed = len(failures)

    ref = plain[0]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} passes {len(plain)}+{len(traced)}")
    print(f"input_digest {inputs.digest()}")
    print(f"output_digest {ref.digest}")
    if args.trace:
        print(f"traced_output_digest {traced[0].digest}")
    print(f"cluster_calls_per_pass {len(ref.latencies)}")
    print(f"call_latency_samples {sum(len(r.latencies) for r in plain)}")
    for f in failures:
        print(f"FAILED {f}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")

    print(f"host_slowness_median {statistics.median(r.factor for r in plain)!r}")
    print(f"raw_wall_s_median {statistics.median(r.wall_s for r in plain)!r}")
    print(f"raw_setup_s_median {statistics.median(s for s, _ in setup_times)!r}")
    if args.trace:
        metrics = _layer_metrics(spans, setup_tracer, tracers, plain, traced)
    else:
        metrics = _end_to_end(setup_times, plain)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _end_to_end(setup_times, passes) -> dict:
    """Per-pass medians, each pass's times divided by the host's slowness in it."""
    def median(times):
        return statistics.median(t / r.factor for t, r in zip(times, passes))

    latencies = [t / r.factor for r in passes for t in r.latencies]
    values = {
        "setup_s": statistics.median(s / f for s, f in setup_times),
        "wall_s": median([r.wall_s for r in passes]),
        "semi_s": median([r.algo_s["semi"] for r in passes]),
        "strong_s": median([r.algo_s["strong"] for r in passes]),
        "semi_colored_s": median([r.algo_s["semi-colored"] for r in passes]),
        "well_colored_s": median([r.algo_s["well-colored"] for r in passes]),
        "verify_s": median([r.verify_s for r in passes]),
        "call_p50_ms": _percentile_ms(latencies, 50),
        "call_p90_ms": _percentile_ms(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_total": passes[0].quality,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _layer_metrics(spans, setup_tracer, tracers, plain, traced) -> dict:
    per_pass = [spans.layer_metrics(t.spans) for t in tracers]
    metrics = {}
    build = [s for s in setup_tracer.spans if s.name == "generators.build"]
    metrics["generators.build_s"] = {"value": sum(s.duration for s in build), "unit": "s"}
    for name, value in per_pass[0].items():
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median([p[name] for p in per_pass]), "unit": "s"}
        else:  # counts repeat exactly from pass to pass
            unit = "bytes_computed" if name.endswith("_bytes") else "count"
            metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median([r.wall_s / r.factor for r in traced])
    plain_wall = statistics.median([r.wall_s / r.factor for r in plain])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracers[0].spans), "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
