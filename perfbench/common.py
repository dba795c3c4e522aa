"""Paths, statistics and small helpers shared by the benchmark's entry points.

Every entry point (``run.py``, ``probe.py``, ``spread.py``) is run as a
script from the root of a checkout; the package under test is imported
from that checkout's ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"


#: Monte-Carlo gates: a per-unit (per-reply) estimate may sit this many
#: standard errors from its closed form - wide, because a run makes
#: thousands of such checks on as few as 20 worlds - and the pooled
#: run-level estimate, with far more draws behind it, POOLED_SIGMAS.
UNIT_SIGMAS = 8.0
POOLED_SIGMAS = 5.0


class BenchFailure(Exception):
    """A correctness gate or workload-property assertion failed."""


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or exit 2.

    Run in a directory that holds only the benchmark (no ``src/repro``),
    the benchmark must fail fast without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}; run the "
              "benchmark from the root of a repro checkout",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def manifest() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metrics and units."""
    return json.loads(MANIFEST.read_text())


def unit_seed(seed: int, index: int) -> int:
    """A per-unit seed derived from the workload seed (stable, 32-bit)."""
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    frac = pos - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_close(label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise BenchFailure(f"{label}: got {got!r}, expected {want!r} "
                           f"within {tol!r}")


def binomial_tol(p: float, n: float, sigmas: float) -> float:
    """Monte-Carlo tolerance for a frequency estimate of p from n draws."""
    return sigmas * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# Host calibration
# ---------------------------------------------------------------------------

#: Time of one :func:`_kernel` call on the reference host (a quiet 2-core
#: Intel Xeon VM).  Reported times are scaled to this host's speed.
REFERENCE_KERNEL_S = 0.005
#: Units on each side of a unit whose kernel times calibrate it.
CALIBRATION_HALF_WINDOW = 4


def _kernel() -> int:
    """Fixed interpreter and numpy work that never touches ``repro``."""
    import numpy as np
    rng = np.random.default_rng(12345)
    table: dict = {}
    for i in range(15000):
        key = ("rel", i % 211, i % 7)
        table[key] = table.get(key, 0) + 1
    x = rng.normal(size=100000)
    above = x > 0.5
    np.sort(x)
    return len(table) + int(above.sum())


def kernel_time(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed kernel calls: the host's speed now.

    The cyclic garbage collector is off meanwhile: its passes scan every
    live object of the process, which would tie the kernel's time to the
    size of the caller's heap.
    """
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def host_factors(kernel_s: list) -> list:
    """Per-measurement scale to the reference host.

    The host this runs on shares its cores with other machines' work,
    and its speed drifts by 20-40% over seconds to minutes, alike for
    the program and for the kernel.  A time measured next to kernel
    time ``k`` is multiplied by ``REFERENCE_KERNEL_S / k``, with ``k``
    the median of the kernel times within :data:`CALIBRATION_HALF_WINDOW`
    measurements, so that the drift cancels and a change to the program
    does not.
    """
    half = CALIBRATION_HALF_WINDOW
    return [REFERENCE_KERNEL_S
            / median(kernel_s[max(0, i - half):i + half + 1])
            for i in range(len(kernel_s))]
