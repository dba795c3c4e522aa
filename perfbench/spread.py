"""Run the benchmark over several seeds and report median and quartile spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \\
        [--seeds 1-10] [--seconds 20] [--trace 0] [--out FILE]

For each end-to-end metric (or per-layer metric with ``--trace 1``) it
prints the median over the seeds, the first and third quartiles as
:func:`statistics.quantiles` gives them (``n=4``), and the spread
``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``.  ``--out`` also writes the raw runs and the summary
of every workload as JSON (the format of ``perfbench/trajectory/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, manifest


def seed_list(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarize(runs: list) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
    return summary


def run_workload(bench: dict, workload: str, seeds: list,
                 seconds: int, trace: int) -> list:
    runs = []
    for seed in seeds:
        command = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} seed {seed} failed:\n"
                               f"{proc.stdout}{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: incorrect")
        result["seed"] = seed
        # The run's last note on standard error: raw figures and the
        # host calibration factors behind the reported ones.
        notes = proc.stderr.strip().splitlines()
        result["note"] = notes[-1] if notes else ""
        runs.append(result)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            + f"\n  {result['note']}", file=sys.stderr)
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = manifest()
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = run_workload(bench, workload, seed_list(args.seeds),
                            seconds, args.trace)
        summary = summarize(runs)
        report["workloads"][workload] = {"summary": summary,
                                         "runs": runs}
        print(f"\n{workload}")
        for name, row in summary.items():
            bound, spread = bounds.get(name), row["spread"]
            flag = ""
            if bound is not None and spread is not None:
                flag = "  OVER BOUND" if spread > bound else \
                    ("  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:34} median {row['median']:12.6g} "
                  f"{row['unit']:6} q1 {row['q1']:12.6g} q3 "
                  f"{row['q3']:12.6g} spread "
                  f"{spread if spread is not None else float('nan'):7.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
