"""The workloads: Example 3.4 (two input shapes), 3.5, and serving.

Each workload builds its inputs from the workload seed, sets up a
session (the part ``setup_s`` times from a fresh interpreter), and then
runs *units*: one unit is the sequence of public calls a user of that
workload makes, and is the "request" whose latency the benchmark
reports (on ``serve-inproc``, each of its served requests is one).  Every unit checks its outputs against a closed form or an
independent path, and a run-level :meth:`finish` re-checks the pooled
estimates with a tighter tolerance and asserts the property that makes
the workload worth having.

All calls go through module attributes (``repro.compile``,
``session.sample``...) so the traced run's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import repro
from repro.core.observe import Observation
from repro.pdb.events import AtLeastEvent, Equals, FactSet, Interval
from repro.pdb.facts import Fact
from repro.query.aggregates import Aggregate, agg_avg, agg_count
from repro.query.relalg import scan
from repro.serving.server import ProgramServer
from repro.workloads import generators, paper

import servemix

from common import (POOLED_SIGMAS, UNIT_SIGMAS, BenchFailure,
                    binomial_tol, check_close, host_factors, median,
                    unit_seed)


@dataclass
class Tally:
    """Per-unit work and time, split by the end-to-end metric it feeds.

    ``kernel_s`` holds the calibration kernel's time measured before
    each unit (empty when the run is not calibrated); every time is
    scaled by :func:`common.host_factors` before it is reported.
    ``case`` is the workload input a unit ran on.  A throughput is the
    work of one unit of each case over the time of one unit of each
    case, each at its median over the run's units of that case: the
    medians resist a unit slowed by a garbage-collector pass or a burst
    of load from outside the benchmark, and summing over the cases keeps
    inputs of different speed from making the result jump between them.
    """
    unit_s: list = field(default_factory=list)
    work: list = field(default_factory=list)
    request_s: list = field(default_factory=list)
    case: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, unit_s, worlds, worlds_s, ess, ess_s, pairs, pairs_s,
            request_s=None, case=0):
        """Record one unit; ``request_s`` lists the times of its requests
        when a unit is several requests (a unit is one otherwise)."""
        self.unit_s.append(unit_s)
        self.work.append((worlds, worlds_s, ess, ess_s, pairs, pairs_s))
        self.request_s.append(request_s or [unit_s])
        self.case.append(case)

    def factors(self) -> list:
        if not self.kernel_s:
            return [1.0] * len(self.unit_s)
        return host_factors(self.kernel_s)

    def unit_times(self) -> list:
        """Calibrated unit times, in seconds of the reference host."""
        return [t * f for t, f in zip(self.unit_s, self.factors())]

    def request_times(self) -> list:
        """Calibrated request times, in seconds of the reference host."""
        return [t * f for times, f in zip(self.request_s, self.factors())
                for t in times]

    def rate(self, column: int) -> float:
        """Rate of work column ``column`` (0, 2 or 4) over its time."""
        by_case: dict = {}
        for row, factor, case in zip(self.work, self.factors(), self.case):
            by_case.setdefault(case, []).append(
                (row[column], row[column + 1] * factor))
        return sum(median(w for w, _ in rows) for rows in by_case.values()) \
            / sum(median(t for _, t in rows) for rows in by_case.values())


#: Instances of earthquake_city_instance(8, 4, s) per quake-divergent run.
CASES = 48


class QuakeWorkload:
    """Example 3.4: ``Session.sample`` + marginals + a query + a stream.

    ``divergent=False`` runs the paper's two-city instance, where almost
    every world stays in a large signature group (batched draw waves
    and columnar reads do the work).  ``divergent=True`` runs
    ``earthquake_city_instance(8, 4, s)``: 40 independent random facts
    per world, so most worlds split to the scalar chase.  Units cycle
    through the instances of ``s = CASES * seed ... CASES * seed +
    CASES - 1``, so the run's speed reflects the input shape rather than
    a few draws of rates.
    """

    def __init__(self, seed: int, divergent: bool):
        self.seed = seed
        self.divergent = divergent
        if divergent:
            self.instances = [generators.earthquake_city_instance(
                8, 4, CASES * seed + k) for k in range(CASES)]
            # 40 pairs: five per city, so every unit observes each
            # city's evidence alike.  20 worlds keep a unit short, so
            # that a run holds enough units for its p95.
            self.n, self.n_stream, self.pairs = 20, 20, 40
        else:
            self.instances = [paper.example_3_4_instance()]
            self.n, self.n_stream, self.pairs = 10000, 2000, 20
        # Generated instances share city and unit names; rates differ.
        self.cities = sorted(f.args[0]
                             for f in self.instances[0].facts_of("City"))
        self.units = sorted(f.args[0] for relation in ("House", "Business")
                            for f in self.instances[0].facts_of(relation))
        self.expected = [self._alarm_laws(inst) for inst in self.instances]
        self.count_laws = [_alarm_count_law(inst) for inst in self.instances]
        self.plan = Aggregate(scan("Alarm", "x"), (),
                              {"n": agg_count()})
        # Stream evidence must have support among the stream's worlds:
        # conditioning on a fact no sampled world holds is (rightly)
        # refused.  2000 worlds cover every alarm; 20 divergent worlds
        # cover "no quake in city c" (probability 0.9 each).
        self.evidence = [Fact("Earthquake", (c, 0)) for c in self.cities] \
            if divergent else [Fact("Alarm", (u,)) for u in self.units]
        self.alarm_hits = [dict.fromkeys(self.units, 0.0)
                           for _ in self.instances]
        self.alarm_counts = [0.0] * len(self.instances)
        self.sampled = [0] * len(self.instances)
        self.quake_hits = 0.0
        self.split = 0

    @staticmethod
    def _alarm_laws(instance) -> dict:
        rates = {f.args[0]: f.args[1] for f in instance.facts_of("City")}
        return {f.args[0]: paper.alarm_probability_closed_form(
                    rates[f.args[1]])
                for relation in ("House", "Business")
                for f in instance.facts_of(relation)}

    def setup(self):
        compiled = repro.compile(paper.EARTHQUAKE_PROGRAM_TEXT)
        return [compiled.on(instance) for instance in self.instances]

    def unit(self, sessions, index: int, tally: Tally) -> None:
        case = index % len(sessions)
        session, seed = sessions[case], unit_seed(self.seed, index)
        t0 = perf_counter()
        result = session.sample(self.n, seed=seed)
        t1 = perf_counter()
        alarms = {u: result.marginal(Fact("Alarm", (u,)))
                  for u in self.units}
        quakes = [result.marginal(Fact("Earthquake", (c, 1)))
                  for c in self.cities]
        expected_count = result.query(self.plan).expected_aggregate()
        t2 = perf_counter()
        stream = session.stream(self.n_stream, seed=seed)
        t3 = perf_counter()
        pair_s = 0.0
        for k in range(self.pairs):
            fact = self.evidence[k % len(self.evidence)]
            prior = stream.marginal(fact)
            start = perf_counter()
            token = stream.observe(fact)
            pair_s += perf_counter() - start
            observed = stream.marginal(fact)
            start = perf_counter()
            stream.retract(token)
            pair_s += perf_counter() - start
            if stream.n_alive > 0 and observed != 1.0:
                raise BenchFailure(f"stream: P({fact} | {fact}) = "
                                   f"{observed}, expected 1")
            if stream.marginal(fact) != prior:
                raise BenchFailure(f"stream: retract did not restore "
                                   f"P({fact})")
        t4 = perf_counter()

        # An unweighted sample's effective size is its terminated worlds.
        tally.add(t4 - t0, self.n, t1 - t0, self.n - result.n_truncated,
                  t1 - t0, self.pairs, pair_s, case=case)
        self._check_unit(case, result, alarms, quakes, expected_count)

    def _check_unit(self, case, result, alarms, quakes, expected_count):
        if result.n_truncated:
            raise BenchFailure(f"{result.n_truncated} truncated runs")
        for unit, want in self.expected[case].items():
            check_close(f"P(Alarm({unit}))", alarms[unit], want,
                        binomial_tol(want, self.n, UNIT_SIGMAS))
            self.alarm_hits[case][unit] += alarms[unit] * self.n
        for city, quake in zip(self.cities, quakes):
            check_close(f"P(Earthquake({city}, 1))", quake, 0.1,
                        binomial_tol(0.1, self.n, UNIT_SIGMAS))
        self.quake_hits += sum(quakes) * self.n
        # Independent path: the columnar count plan against the sum of
        # the per-fact marginals of the same ensemble.
        check_close("E[#Alarm] (query plan vs marginals)",
                    expected_count, sum(alarms.values()), 1e-9)
        self.alarm_counts[case] += expected_count * self.n
        if result.pdb.materializations:
            raise BenchFailure("columnar reads materialized worlds")
        self.sampled[case] += self.n
        self.split += result.diagnostics.get("n_split", 0)

    def finish(self) -> None:
        """Pooled closed-form gates and the workload-property assertion."""
        for case, expected in enumerate(self.expected):
            if not self.sampled[case]:
                continue  # a short run did not reach this instance
            for unit, want in expected.items():
                check_close(f"pooled P(Alarm({unit}))",
                            self.alarm_hits[case][unit]
                            / self.sampled[case], want,
                            binomial_tol(want, self.sampled[case],
                                         POOLED_SIGMAS))
            # Every unit at once: the per-world alarm count, whose
            # variance (units of a city share its quake) is exact.
            mean, var = self.count_laws[case]
            check_close("pooled E[#Alarm]",
                        self.alarm_counts[case] / self.sampled[case], mean,
                        POOLED_SIGMAS * math.sqrt(var / self.sampled[case]))
        draws = sum(self.sampled) * len(self.cities)
        check_close("pooled P(Earthquake(c, 1))", self.quake_hits / draws,
                    0.1, binomial_tol(0.1, draws, POOLED_SIGMAS))
        share = self.split / sum(self.sampled)
        if self.divergent and share <= 0.85:
            raise BenchFailure(f"quake-divergent: split share {share:.3f}"
                               " <= 0.85; the input no longer makes "
                               "worlds diverge")
        if not self.divergent and share >= 0.01:
            raise BenchFailure(f"quake-shared: split share {share:.4f} "
                               ">= 0.01; worlds no longer share groups")


def _alarm_count_law(instance) -> tuple:
    """Mean and variance of the number of Alarm facts in one world.

    Given its city's quake, a unit alarms independently with
    ``1 - 0.4 (1 - 0.9 r)`` (quake) or ``0.9 r`` (no quake); cities are
    independent.
    """
    rates = {f.args[0]: f.args[1] for f in instance.facts_of("City")}
    units = {city: 0 for city in rates}
    for relation in ("House", "Business"):
        for f in instance.facts_of(relation):
            units[f.args[1]] += 1
    mean = var = 0.0
    for city, rate in rates.items():
        k, quake, calm = units[city], 1 - 0.4 * (1 - 0.9 * rate), 0.9 * rate
        mean += k * (0.1 * quake + 0.9 * calm)
        var += k * (0.1 * quake * (1 - quake) + 0.9 * calm * (1 - calm)) \
            + k * k * 0.1 * 0.9 * (quake - calm) ** 2
    return mean, var


def _truncated_normal_mean_sd(mu, var, low):
    """Mean and sd of N(mu, var) conditioned on x >= low."""
    sd = math.sqrt(var)
    alpha = (low - mu) / sd
    pdf = math.exp(-alpha * alpha / 2) / math.sqrt(2 * math.pi)
    tail = 0.5 * math.erfc(alpha / math.sqrt(2))
    lam = pdf / tail
    return mu + sd * lam, sd * math.sqrt(1 + alpha * lam - lam * lam)


class HeightsWorkload:
    """Example 3.5 conditioning: guided posteriors and a stream.

    Each unit runs a guided posterior on a tail event of one person's
    height (checked against the truncated-normal mean), a guided
    posterior on a sample-level observation (the observed person is
    pinned, an unobserved person of another country keeps its prior
    mean), and a streaming posterior with observe/retract cycles.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.instance = generators.heights_instance(10, 10, seed)
        self.moments = {f.args[0]: (f.args[1], f.args[2])
                        for f in self.instance.facts_of("CMoments")}
        self.country = {f.args[0]: f.args[1]
                        for f in self.instance.facts_of("PCountry")}
        self.n_tail, self.n_obs, self.n_stream, self.pairs = \
            300, 1000, 1000, 40
        self.tail_person, self.obs_person, self.free_person = \
            "p-0-0", "p-1-0", "p-2-0"
        mu, var = self.moments[self.country[self.tail_person]]
        self.threshold = round(mu + math.sqrt(var), 2)
        self.tail_event = AtLeastEvent(
            FactSet("PHeight", Equals(self.tail_person),
                    Interval(self.threshold, math.inf)), 1)
        mu, var = self.moments[self.country[self.obs_person]]
        self.obs_value = round(mu + 0.5 * math.sqrt(var), 2)
        self.observation = Observation("PHeight", (self.obs_person,),
                                       self.obs_value)
        self.stream_obs = [
            Observation("PHeight", (f"p-{c}-{p}",),
                        round(self.moments[f"country-{c}"][0], 2))
            for c in range(10) for p in (1, 2)]
        self.tail_sum = self.tail_ess = 0.0
        self.free_sum = self.free_ess = 0.0
        self.guided_draws = 0

    def setup(self):
        compiled = repro.compile(paper.HEIGHT_PROGRAM_TEXT)
        return compiled.on(self.instance)

    def unit(self, session, index: int, tally: Tally) -> None:
        seed = unit_seed(self.seed, index)
        t0 = perf_counter()
        tail = session.observe(self.tail_event).posterior(
            method="guided", n=self.n_tail, seed=seed)
        t1 = perf_counter()
        obs = session.observe(self.observation).posterior(
            method="guided", n=self.n_obs, seed=seed + 1)
        t2 = perf_counter()
        tail_mean = self._mean(tail, self.tail_person)
        free_mean = self._mean(obs, self.free_person)
        pinned = obs.marginal(Fact("PHeight", (self.obs_person,
                                               self.obs_value)))
        t2b = perf_counter()
        stream = session.stream(self.n_stream, seed=seed + 2)
        t3 = perf_counter()
        ess_before = stream.effective_sample_size()
        for k in range(self.pairs):
            token = stream.observe(self.stream_obs[k % len(self.stream_obs)])
            stream.retract(token)
        t4 = perf_counter()
        if stream.effective_sample_size() != ess_before \
                or stream.resamples:
            raise BenchFailure("stream: observe/retract cycles did not "
                               "restore the prior weights")

        tail_ess = tail.effective_sample_size
        obs_ess = obs.effective_sample_size
        tally.add(t4 - t0, self.n_tail + self.n_obs + self.n_stream,
                  (t2 - t0) + (t3 - t2b), tail_ess + obs_ess, t2 - t0,
                  self.pairs, t4 - t3)
        self._check_unit(tail, tail_ess, tail_mean, obs_ess, free_mean,
                         pinned)

    @staticmethod
    def _mean(result, person):
        """Posterior mean height of one person: a columnar avg plan."""
        plan = Aggregate(scan("PHeight", "p", "h").where(p=person), (),
                         {"h": agg_avg("h")})
        return result.query(plan).expected_aggregate()

    def _check_unit(self, tail, tail_ess, tail_mean, obs_ess, free_mean,
                    pinned):
        if tail.diagnostics.get("backend") != "guided" \
                or tail.diagnostics.get("n_truncated", 0) < 1 \
                or tail.diagnostics.get("n_guided_draws", 0) <= 0:
            raise BenchFailure("heights-condition: the tail event did "
                               "not become a truncated guided draw: "
                               f"{tail.diagnostics}")
        mu, var = self.moments[self.country[self.tail_person]]
        mean, sd = _truncated_normal_mean_sd(mu, var, self.threshold)
        check_close("E[height | tail event]", tail_mean, mean,
                    UNIT_SIGMAS * sd / math.sqrt(tail_ess))
        self.tail_sum += tail_mean * tail_ess
        self.tail_ess += tail_ess

        check_close("P(observed height)", pinned, 1.0, 1e-9)
        mu, var = self.moments[self.country[self.free_person]]
        check_close("E[unobserved height]", free_mean, mu,
                    UNIT_SIGMAS * math.sqrt(var / obs_ess))
        self.free_sum += free_mean * obs_ess
        self.free_ess += obs_ess
        self.guided_draws += tail.diagnostics["n_guided_draws"]

    def finish(self) -> None:
        mu, var = self.moments[self.country[self.tail_person]]
        mean, sd = _truncated_normal_mean_sd(mu, var, self.threshold)
        check_close("pooled E[height | tail event]",
                    self.tail_sum / self.tail_ess, mean,
                    POOLED_SIGMAS * sd / math.sqrt(self.tail_ess))
        mu, var = self.moments[self.country[self.free_person]]
        check_close("pooled E[unobserved height]",
                    self.free_sum / self.free_ess, mu,
                    POOLED_SIGMAS * math.sqrt(var / self.free_ess))
        if self.guided_draws <= 0:
            raise BenchFailure("heights-condition: no truncated draws")


class ServeWorkload:
    """Requests to a ``ProgramServer`` in this process.

    Each unit sends one request of each :data:`servemix.KINDS` in a
    seeded order through a :class:`servemix.LocalClient`: warm samples
    of Example 3.4 and 3.5, an exact marginal on fresh data, a query
    plan, a guided posterior, deep analysis of fresh program text, a
    stream with observe/retract pairs, and a ``shards=2`` sample with a
    per-request seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.compiled = repro.compile(servemix.QUAKE)
        self.server = ProgramServer()
        self.sampled: list = []

    def setup(self):
        return servemix.LocalClient(self.server)

    def unit(self, client, index: int, tally: Tally) -> None:
        requests = servemix.unit_requests(self.seed, index, self.compiled)
        outcomes = [servemix.execute(client, r) for r in requests]
        sampling = [o for o in outcomes if o.worlds]
        tally.add(sum(o.seconds for o in outcomes),
                  sum(o.worlds for o in sampling),
                  sum(o.seconds for o in sampling),
                  sum(o.ess for o in outcomes),
                  sum(o.seconds for o in outcomes if o.ess),
                  sum(o.pairs for o in outcomes),
                  sum(o.pair_s for o in outcomes),
                  request_s=[o.seconds for o in outcomes])
        self.sampled.extend(o for o in outcomes if o.alarms)

    def finish(self) -> None:
        """Pooled closed-form gate and the workload-property assertion."""
        servemix.check_pooled(self.sampled)
        stats = self.stats()
        self.close()
        if stats["executors_created"] == 0:
            raise BenchFailure("serve-inproc: no sharded requests served")
        if stats["programs_compiled"] <= 2 or stats["sessions_created"] <= 2:
            raise BenchFailure(f"serve-inproc: no cold compiles or session "
                               f"misses: {stats}")
        if stats["program_cache_hits"] == 0 \
                or stats["session_cache_hits"] == 0:
            raise BenchFailure(f"serve-inproc: no warm cache hits: {stats}")

    def stats(self) -> dict:
        return dict(self.server.stats)

    def close(self) -> None:
        """Shut the server's shard pools down."""
        self.server.close()


def make(workload: str, seed: int):
    if workload == "quake-shared":
        return QuakeWorkload(seed, divergent=False)
    if workload == "quake-divergent":
        return QuakeWorkload(seed, divergent=True)
    if workload == "heights-condition":
        return HeightsWorkload(seed)
    if workload == "serve-inproc":
        return ServeWorkload(seed)
    raise ValueError(f"not an in-process workload: {workload}")
