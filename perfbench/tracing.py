"""Out-of-program tracing: spans and counts around public entry points.

The program under test carries no instrumentation.  :func:`install`
wraps the public entry points of each ``repro`` layer from the
benchmark's side - module functions are replaced at *every* module
that imported them by name, methods on their defining class - and each
wrapper records a span (metric name, start, end, self time, parent
metric, root id, thread) into an in-memory :class:`Tracer`.  Nothing is
written until the traced pass ends and :func:`layer_report` folds the
spans into per-layer numbers.

Self time of a span is its duration minus the durations of its direct
child spans (spans nest per thread, so children never overlap), hence
the self times of all spans add up to the time covered by the
top-level spans, and ``unattributed_s`` is the rest of the wall time;
:func:`layer_report` checks the nesting that this rests on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from common import median


@dataclass
class Call:
    """What an ``after`` hook sees of one finished wrapped call."""
    args: tuple
    result: object
    parent: str | None
    before: object
    duration: float


class Tracer:
    """Spans, counts and per-call samples of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._roots = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, metric, fn, args, kwargs, before=None, after=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [metric, 0.0, parent[2] if parent else next(self._roots)]
        state = before(args) if before is not None else None
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append((metric, start, end, duration - frame[1],
                               parent[0] if parent else None, frame[2],
                               threading.get_ident()))
        if after is not None:
            after(self, Call(args, result, parent[0] if parent else None,
                             state, duration))
        return result


class Installer:
    """Applies wrappers for one tracer and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def _wrap(self, fn, metric, before=None, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(metric, fn, args, kwargs, before, after)
        return wrapper

    def function(self, module: str, name: str, metric: str,
                 before=None, after=None) -> None:
        """Wrap a module function where it is defined and imported."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self._wrap(original, metric, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def method(self, cls: type, name: str, metric: str,
               before=None, after=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, metric, before,
                                         after))
        else:
            new = self._wrap(raw, metric, before, after)
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)

    def counter(self, cls: type, name: str, metric: str) -> None:
        """Count calls of a method without recording spans."""
        raw = cls.__dict__[name]
        counts = self.tracer.counts

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return raw(*args, **kwargs)
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapper)

    def family(self, base: type, name: str, metric: str,
               after=None) -> None:
        """Wrap ``name`` on ``base`` and every subclass defining it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if name in cls.__dict__:
                self.method(cls, name, metric, after=after)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Hooks that turn return values of public calls into counts
# ---------------------------------------------------------------------------

def _count_outer(metric):
    """Count a call unless it is nested in a call of the same metric."""
    def after(tracer, call):
        if call.parent != metric.replace("_calls", "_s"):
            tracer.counts[metric] += 1
    return after


def _after_chase(tracer, call):
    tracer.counts["core.chase_runs"] += 1


def _after_spawn(tracer, call):
    tracer.counts["api.rngs_spawned"] += len(call.result)


_BATCH_KEYS = {"n_split": "engine.split_worlds",
               "n_groups": "engine.groups", "n_rounds": "engine.rounds",
               "n_draw_calls": "engine.draw_calls",
               "n_pooled_draws": "engine.pooled_draws",
               "n_firings": "engine.layer_firings"}


def _after_run_batch(tracer, call):
    outcome = call.result
    if outcome is None:
        return
    tracer.counts["engine.batches"] += 1
    tracer.counts["engine.batch_worlds"] += outcome.size
    for key, metric in _BATCH_KEYS.items():
        tracer.counts[metric] += outcome.diagnostics.get(key, 0)


def _before_slots(args):
    return args[0].materializations


def _after_slots(tracer, call):
    pdb = call.args[0]
    if pdb.materializations > call.before:
        tracer.counts["pdb.worlds_materialized"] += pdb.n_runs


def _after_posterior(tracer, call):
    diagnostics = call.result.diagnostics
    ess = diagnostics.get("effective_sample_size")
    proposed = diagnostics.get("n_proposed") or call.result.n_runs
    if ess is not None and proposed:
        tracer.samples["pdb.ess_ratio"].append(ess / proposed)


def _after_encode(tracer, call):
    tracer.counts["serving.reply_bytes"] += len(call.result) + 1


def _after_handle(tracer, call):
    request, response = call.args[1], call.result
    op = request.get("op") if isinstance(request, dict) else None
    tracer.samples[f"serving.handle_s.{op}"].append(call.duration)
    if not response.get("ok"):
        # ProgramServer.handle replies str(error) for a ReproError and
        # "<ExceptionClass>: message" for any other exception.
        head, colon, _ = str(response.get("error", "")).partition(":")
        kind = "other" if colon and head.isidentifier() \
            and head[:1].isupper() else "repro"
        tracer.counts[f"serving.errors.{kind}"] += 1


SESSION_VERBS = ("sample", "posterior", "stream", "exact", "marginal",
                 "query", "run")
QUERY_READS = ("distribution", "boolean_probability", "expected_aggregate",
               "aggregate_distribution", "answer_probabilities")
PAYLOADS = ("sample_payload", "posterior_payload", "query_payload",
            "analyze_payload", "mass_report_payload")


def install(tracer: Tracer) -> Installer:
    """Wrap the public entry points of every layer; returns the undo."""
    # Wrappers replace a function's name only in modules already loaded,
    # so load every module that imports a wrapped function by name.
    import repro.analysis  # noqa: F401
    import repro.core.exact  # noqa: F401
    import repro.core.termination  # noqa: F401
    import repro.pdb.stats  # noqa: F401
    import repro.serving.server  # noqa: F401
    from repro.api.config import ChaseConfig
    from repro.api.results import InferenceResult, QueryResult
    from repro.api.session import Session
    from repro.api.stream import StreamingPosterior
    from repro.core.program import Program
    from repro.distributions.base import ParameterizedDistribution
    from repro.engine.batched import BatchedChase, ColumnarMonteCarloPDB
    from repro.pdb.instances import Instance
    from repro.pdb.weighted import WeightedColumnarPDB
    from repro.serving.server import ProgramServer

    wrap = Installer(tracer)
    # core
    wrap.method(Program, "parse", "core.parse_s")
    wrap.method(Program, "translate", "core.translate_s")
    wrap.method(Program, "translate_barany", "core.translate_s")
    wrap.function("repro.core.chase", "make_engine", "core.bootstrap_s")
    wrap.function("repro.core.chase", "run_chase_prepared", "core.chase_s",
                  after=_after_chase)
    wrap.function("repro.core.exact", "exact_sequential_spdb",
                  "core.exact_s")
    wrap.function("repro.core.backward", "backward_plan",
                  "core.backward_s")
    # analysis
    wrap.function("repro.core.termination", "analyze_termination",
                  "analysis.termination_s")
    wrap.function("repro.analysis.report", "deep_analyze",
                  "analysis.deep_s")
    # api
    wrap.function("repro.api.session", "compile", "api.session_s")
    for verb in SESSION_VERBS:
        wrap.method(Session, verb, "api.session_s",
                    after=_after_posterior if verb == "posterior"
                    else None)
    wrap.method(ChaseConfig, "spawn_rngs", "api.spawn_rngs_s",
                after=_after_spawn)
    wrap.method(StreamingPosterior, "__init__", "api.stream_open_s")
    wrap.method(StreamingPosterior, "observe", "api.stream_observe_s")
    wrap.method(StreamingPosterior, "retract", "api.stream_retract_s")
    # engine
    wrap.method(BatchedChase, "__init__", "engine.batched_init_s")
    wrap.method(BatchedChase, "run_batch", "engine.run_batch_s",
                after=_after_run_batch)
    # distributions
    for name, metric in (("sample_batch", "distributions.batch_draw"),
                         ("sample_batch_truncated",
                          "distributions.truncated_draw"),
                         ("sample", "distributions.scalar_draw")):
        wrap.family(ParameterizedDistribution, name, metric + "_s",
                    after=_count_outer(metric + "_calls"))
    # pdb
    wrap.counter(Instance, "__init__", "pdb.instances_built")
    wrap.method(ColumnarMonteCarloPDB, "world_slots", "pdb.materialize_s",
                before=_before_slots, after=_after_slots)
    wrap.method(WeightedColumnarPDB, "marginal", "pdb.weighted_s")
    # query
    wrap.method(InferenceResult, "marginal", "query.marginal_s")
    wrap.method(ColumnarMonteCarloPDB, "marginal", "query.marginal_s")
    wrap.method(StreamingPosterior, "marginal", "query.marginal_s")
    wrap.function("repro.pdb.stats", "fact_marginals", "query.marginal_s")
    wrap.method(InferenceResult, "query", "query.plan_s")
    for name in QUERY_READS:
        wrap.method(QueryResult, name, "query.plan_s")
    # serving
    wrap.method(ProgramServer, "handle", "serving.handle_self_s",
                after=_after_handle)
    for name in PAYLOADS:
        wrap.function("repro.serving.protocol", name, "serving.payload_s")
    wrap.function("repro.serving.protocol", "encode_line",
                  "serving.encode_s", after=_after_encode)
    wrap.function("repro.serving.protocol", "decode_line",
                  "serving.decode_s")
    wrap.function("repro.serving.sharding", "sample_sharded",
                  "serving.shard_s")
    wrap.function("repro.serving.merge", "merge_shard_results",
                  "serving.merge_s")
    return wrap


# ---------------------------------------------------------------------------
# Folding spans into per-layer numbers
# ---------------------------------------------------------------------------

def layer_report(spans, counts: dict, samples: dict, wall: float) -> dict:
    """Self time per metric, counts, samples and the wall accounting.

    Fails (AssertionError) unless the spans form proper trees: no span
    has negative self time, every span lies within its root span, root
    spans of one thread do not overlap, the self times add up to the
    time the roots cover, and the roots cover no more than ``wall``.
    """
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    roots: dict[int, tuple] = {}
    for metric, start, end, self_s, parent, root, thread in spans:
        self_time[metric] += self_s
        calls[metric] += 1
        if parent is None:
            roots[root] = (start, end, thread)
    tol = 1e-6 * max(1.0, wall)
    for metric, start, end, self_s, _parent, root, _thread in spans:
        root_start, root_end, _ = roots[root]
        if self_s < -tol or start < root_start or end > root_end:
            raise AssertionError(f"span {metric} [{start}, {end}] self "
                                 f"{self_s} is not nested in its root "
                                 f"[{root_start}, {root_end}]")
    covered = 0.0
    by_thread: dict[int, list] = defaultdict(list)
    for start, end, thread in roots.values():
        by_thread[thread].append((start, end))
    for thread, intervals in by_thread.items():
        intervals.sort()
        for (_, end0), (start1, _) in zip(intervals, intervals[1:]):
            if start1 < end0:
                raise AssertionError(f"root spans overlap on thread "
                                     f"{thread}")
        covered += sum(end - start for start, end in intervals)
    total_self = sum(self_time.values())
    unattributed = wall - covered
    if abs(total_self - covered) > tol or unattributed < -tol:
        raise AssertionError(
            f"layer self times ({total_self}) + unattributed "
            f"({unattributed}) != traced wall ({wall}), or the root "
            f"spans cover {covered} s")
    out = dict(self_time)
    out.update(counts)
    for metric, values in samples.items():
        out[metric] = median(values)
    out["unattributed_s"] = unattributed
    out["trace.spans"] = len(spans)
    return {"metrics": out, "calls": dict(calls), "wall": wall,
            "self_total": total_self}


def print_table(title: str, report: dict, file=sys.stdout) -> None:
    """Human-readable per-layer table: self time, share, calls."""
    metrics, calls, wall = report["metrics"], report["calls"], \
        report["wall"]
    print(f"\n{title}: traced wall {wall:.4f} s", file=file)
    print(f"  {'span metric':32} {'self s':>10} {'share':>7} "
          f"{'calls':>8}", file=file)
    for name in sorted(calls, key=lambda m: -metrics.get(m, 0.0)):
        share = metrics[name] / wall if wall > 0 else 0.0
        print(f"  {name:32} {metrics[name]:10.4f} {share:7.1%} "
              f"{calls[name]:8d}", file=file)
    unattributed = metrics["unattributed_s"]
    print(f"  {'unattributed_s':32} {unattributed:10.4f} "
          f"{unattributed / wall if wall > 0 else 0.0:7.1%}", file=file)
    others = sorted(name for name in metrics
                    if name not in calls and name != "unattributed_s")
    for name in others:
        print(f"  {name:32} {metrics[name]:>10.6g}", file=file)
