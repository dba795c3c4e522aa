"""The end-to-end benchmark of the repro chase, conditioning and serving paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists)::

    quake-shared       Example 3.4, the paper's two-city instance
    quake-divergent    Example 3.4 on earthquake_city_instance(8, 4, seed)
    heights-condition  Example 3.5 guided posteriors and a stream
    serve-inproc       an equal-share request mix to a ProgramServer

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed amount of work in three interleaved pairs of
traced and untraced passes, checks that every count repeats exactly
between the traced passes, prints a per-layer table and reports the
per-layer metrics of the last traced pass, with the tracing overhead as
the median over the pairs of calibrated traced minus untraced time.

Reported times are calibrated to a reference host: each is scaled by
the ratio of a fixed kernel's time on that host to its time measured
next to it (``common.host_factors``), so that the speed drift of a
shared host cancels.  Raw figures go to standard error.  Every run
checks its outputs against closed forms or independent paths; a wrong
answer fails the run (exit 1).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from time import perf_counter

from common import (BENCH_DIR, REFERENCE_KERNEL_S, ROOT, BenchFailure,
                    kernel_time, manifest, median, metric, peak_rss_mb,
                    quantile, use_source_tree)

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Traced runs interleave this many traced and untraced passes.
TRACE_PAIRS = 3
#: Units of one traced or untraced pass, per second of --seconds.
TRACE_UNITS_PER_S = {"quake-shared": 0.5, "quake-divergent": 0.3,
                     "heights-condition": 0.5, "serve-inproc": 0.5}
#: Where a traced run writes the spans of its reported pass.
SPANS_DIR = ROOT / ".perfbench"


def write_spans(workload: str, seed: int, spans) -> None:
    """Write a traced pass's spans, one JSON object a line."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    keys = ("metric", "start", "end", "self_s", "parent", "root", "thread")
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def probe_setup(workload: str, seed: int) -> float:
    """Median calibrated time of fresh-interpreter set-ups of ``workload``.

    Each probe is scaled by the kernel time measured just before it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        kernel = kernel_time(5)
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchFailure(f"set-up probe of {workload} failed")
        times.append(elapsed * REFERENCE_KERNEL_S / kernel)
    return median(times)


def run_pass(workload: str, seed: int, units: int | None, seconds: float,
             calibrate: bool):
    """Set up and run units; returns (wall time, tally, workload).

    Unit 0 warms.  With ``calibrate``, the kernel is timed before every
    unit.
    """
    import inproc
    from repro.errors import ReproError
    gc.collect()
    start = perf_counter()
    bench = inproc.make(workload, seed)
    tally = inproc.Tally()
    session = bench.setup()
    bench.unit(session, 0, inproc.Tally())
    deadline = perf_counter() + seconds
    index = 1
    while index <= units if units is not None \
            else perf_counter() < deadline:
        tally.attempted += 1
        kernel = kernel_time() if calibrate else None
        try:
            bench.unit(session, index, tally)
        except ReproError:
            tally.failed += 1
        else:
            if kernel is not None:
                tally.kernel_s.append(kernel)
        index += 1
    bench.finish()
    return perf_counter() - start, tally, bench


def run(workload: str, seed: int, seconds: float) -> dict:
    _, tally, _ = run_pass(workload, seed, None, seconds, calibrate=True)
    if not tally.unit_s:
        raise BenchFailure("no unit completed")
    rss = peak_rss_mb()
    unit_s, request_s = tally.unit_times(), tally.request_times()
    values = {
        "setup_s": probe_setup(workload, seed),
        "worlds_per_s": tally.rate(0),
        "ess_per_s": tally.rate(2),
        "stream_updates_per_s": tally.rate(4),
        "req_p50_ms": 1000.0 * median(request_s),
        "req_p95_ms": 1000.0 * quantile(request_s, 0.95),
        "req_capacity_rps": len(request_s) / len(unit_s) / median(unit_s),
        "peak_rss_mb": rss,
    }
    raw = [t for times in tally.request_s for t in times]
    print(f"{workload}: {len(unit_s)} units, {len(request_s)} requests, "
          f"raw p50 {1000.0 * median(raw):.1f} ms, host factor "
          f"{median(tally.factors()):.3f}", file=sys.stderr)
    return {"correct": True, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {spec["name"]: metric(values[spec["name"]],
                                             spec["unit"])
                        for spec in manifest()["end_to_end"]}}


def trace(workload: str, seed: int, seconds: float) -> dict:
    # Import the workload module (and every repro module it imports)
    # before tracing: import-time constructions would count only in
    # the first traced pass.
    import inproc  # noqa: F401
    from tracing import Tracer, install, layer_report, print_table
    units = max(3, round(seconds * TRACE_UNITS_PER_S[workload]))
    traced, untraced = [], []
    for pair in range(TRACE_PAIRS):
        # Alternate which side of a pair runs first.
        for is_traced in ((True, False) if pair % 2 == 0
                          else (False, True)):
            tracer = Tracer() if is_traced else None
            kernel = kernel_time(5)
            installer = install(tracer) if is_traced else None
            try:
                wall, tally, bench = run_pass(workload, seed, units, 0.0,
                                              calibrate=False)
            finally:
                if installer is not None:
                    installer.restore()
            calibrated = wall * REFERENCE_KERNEL_S / kernel
            if is_traced:
                report = layer_report(tracer.spans, tracer.counts,
                                      tracer.samples, wall)
                if hasattr(bench, "stats"):
                    report["metrics"].update(_serving_stats(bench.stats()))
                traced.append((report, tracer, tally, calibrated))
            else:
                untraced.append(calibrated)
    specs = manifest()["per_layer"]
    _check_repeats(workload, [report for report, *_ in traced], specs)
    overheads = [t[3] - u for t, u in zip(traced, untraced)]
    last, tracer, tally, _ = traced[-1]
    write_spans(workload, seed, tracer.spans)
    metrics = last["metrics"]
    worlds = metrics.get("engine.batch_worlds", 0)
    metrics["engine.split_share"] = \
        metrics.get("engine.split_worlds", 0) / worlds if worlds else 0.0
    metrics["trace.wall_s"] = last["wall"]
    metrics["trace.overhead_s"] = median(overheads)
    print_table(f"{workload} (last of {len(traced)} traced passes)", last)
    print("  tracing overhead: median {:+.4f} s of calibrated traced - "
          "untraced pairs ({})".format(median(overheads), ", ".join(
              f"{o:+.4f}" for o in overheads)))
    return {"correct": True, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {spec["name"]: metric(metrics.get(spec["name"], 0.0),
                                             spec["unit"])
                        for spec in specs}}


def _serving_stats(stats: dict) -> dict:
    """Per-layer metrics read from a ``ProgramServer``'s stats."""
    out = {"serving.programs_compiled": stats["programs_compiled"],
           "serving.executors_created": stats["executors_created"]}
    for name, hits, misses in (
            ("program", "program_cache_hits", "programs_compiled"),
            ("session", "session_cache_hits", "sessions_created"),
            ("executor", "executor_cache_hits", "executors_created")):
        total = stats[hits] + stats[misses]
        out[f"serving.{name}_hit_rate"] = \
            stats[hits] / total if total else 0.0
    return out


def _check_repeats(workload: str, reports: list, specs: list) -> None:
    """Every count and span count repeats between identical passes."""
    counts = [spec["name"] for spec in specs if spec["unit"] == "count"]
    first = reports[0]
    for report in reports[1:]:
        for name in counts:
            a = first["metrics"].get(name, 0)
            b = report["metrics"].get(name, 0)
            if a != b:
                raise BenchFailure(f"{workload}: count {name} differs "
                                   f"between identical traced passes: "
                                   f"{a} != {b}")
        if first["calls"] != report["calls"]:
            raise BenchFailure(f"{workload}: span counts differ between "
                               f"identical traced passes: "
                               f"{first['calls']} != {report['calls']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in manifest()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_source_tree()
    try:
        result = (trace if args.trace else run)(args.workload, args.seed,
                                                args.seconds)
    except BenchFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
