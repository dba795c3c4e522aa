"""The ``serve-inproc`` request mix: requests to a ``ProgramServer``.

A :class:`LocalClient` hands each request line to a
:class:`repro.serving.server.ProgramServer` in this process the way the
server's TCP handler does - decode the line, ``handle`` it, encode the
reply - without the socket, so the calls of one caller are timed alone
and next to the host calibration kernel.  A unit of the workload is one
request of each of :data:`KINDS`, in a seeded order.

Every reply must be ``ok`` and is checked: Example 3.4 marginals
against :func:`repro.workloads.paper.alarm_probability_closed_form`,
exact marginals against an in-process ``exact()`` of the same program
and instance, posteriors for the observed value's pin, streams for
exact retraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.errors import ReproError, ValidationError
from repro.query.aggregates import Aggregate, agg_count
from repro.query.relalg import scan
from repro.serving import protocol
from repro.serving.server import ProgramServer
from repro.workloads import paper

from common import (POOLED_SIGMAS, UNIT_SIGMAS, BenchFailure, binomial_tol,
                    check_close)

QUAKE = paper.EARTHQUAKE_PROGRAM_TEXT
HEIGHTS = paper.HEIGHT_PROGRAM_TEXT
QUAKE_INSTANCE = protocol.instance_payload(paper.example_3_4_instance())
HEIGHTS_INSTANCE = protocol.instance_payload(
    paper.example_3_5_instance(persons_per_country=10))
ALARM_PLAN = protocol.plan_payload(
    Aggregate(scan("Alarm", "x"), (), {"n": agg_count()}))

#: The request kinds, in equal shares: no source ranks them, so none
#: is weighted above another.
KINDS = ("sample-quake", "sample-heights", "marginal-exact", "query",
         "posterior", "analyze-cold", "stream", "shard")
N_QUAKE, N_HEIGHTS, N_SHARD = 500, 100, 500
STREAM_EVIDENCE = tuple(
    {"relation": "PHeight", "carried": [f"{country}-p{k}"],
     "value": base + k}
    for country, base in (("nl", 178.0), ("pe", 160.0)) for k in range(8))
ALARM_LAWS = {unit: paper.alarm_probability_closed_form(rate)
              for unit, rate in (("house-1", 0.03), ("biz-1", 0.01))}


@dataclass
class Request:
    kind: str
    seed: int
    expected: float | None = None
    instance: dict | None = None


@dataclass
class Outcome:
    """One finished request: its time and what its reply carried."""
    request: Request
    seconds: float = 0.0
    worlds: float = 0.0
    ess: float = 0.0
    pairs: int = 0
    pair_s: float = 0.0
    alarms: dict = field(default_factory=dict)


class LocalClient:
    """Request lines to an in-process ``ProgramServer``, as over TCP.

    The server's side of a line is what its TCP handler runs; the
    client's side is plain ``json``, so that the traced ``protocol``
    spans are the server's alone.
    """

    def __init__(self, server: ProgramServer):
        self.server = server

    def request(self, payload: dict) -> dict:
        line = json.dumps(payload)
        try:
            response = self.server.handle(protocol.decode_line(line))
        except ValidationError as error:
            response = {"ok": False, "error": str(error)}
        return json.loads(protocol.encode_line(response))


def _quake_instance(rate: float) -> dict:
    return protocol.instance_payload(paper.example_3_4_instance(
        cities={"Napa": rate, "Davis": 0.01}))


def unit_requests(seed: int, index: int, compiled) -> list:
    """One request of each kind, in a seeded order, with seeded seeds.

    Each exact marginal carries fresh data (a session-cache miss and
    one exact enumeration on the server), compared with an ``exact()``
    of ``compiled``, the Example 3.4 program compiled in this process.
    """
    rng = np.random.default_rng([seed, index])
    seeds = rng.integers(1, 2**31 - 1, size=len(KINDS))
    requests = [Request(str(kind), int(rseed))
                for kind, rseed in zip(rng.permutation(KINDS), seeds)]
    fact = repro.Fact("Alarm", ("house-1",))
    for request in requests:
        if request.kind == "marginal-exact":
            request.instance = _quake_instance(
                round(0.01 + (request.seed % 997) / 997 * 0.3, 4))
            instance = protocol.parse_instance(request.instance)
            request.expected = compiled.on(instance).exact().marginal(fact)
    return requests


def execute(client: LocalClient, request: Request) -> Outcome:
    """Send one request (a stream is several) and check the reply.

    Raises ReproError for an error reply (a failed unit) and
    BenchFailure for a wrong answer (a failed run).
    """
    outcome = Outcome(request)
    kind, seed = request.kind, request.seed
    start = perf_counter()
    if kind == "stream":
        _stream(client, seed, outcome)
        outcome.seconds = perf_counter() - start
        return outcome
    if kind == "sample-quake":
        payload = {"op": "sample", "program": QUAKE, "n": N_QUAKE,
                   "instance": QUAKE_INSTANCE, "config": {"seed": seed}}
    elif kind == "shard":
        payload = {"op": "sample", "program": QUAKE, "n": N_SHARD,
                   "instance": QUAKE_INSTANCE,
                   "config": {"seed": seed, "shards": 2}}
    elif kind == "sample-heights":
        payload = {"op": "sample", "program": HEIGHTS, "n": N_HEIGHTS,
                   "instance": HEIGHTS_INSTANCE, "config": {"seed": seed}}
    elif kind == "marginal-exact":
        payload = {"op": "marginal", "program": QUAKE,
                   "fact": ["Alarm", ["house-1"]],
                   "instance": request.instance}
    elif kind == "query":
        payload = {"op": "query", "program": QUAKE, "n": N_QUAKE,
                   "instance": QUAKE_INSTANCE, "plan": ALARM_PLAN}
    elif kind == "posterior":
        payload = {"op": "posterior", "program": HEIGHTS, "n": N_HEIGHTS,
                   "method": "guided", "instance": HEIGHTS_INSTANCE,
                   "observe": [{"relation": "PHeight",
                                "carried": ["nl-p0"], "value": 180.5}],
                   "config": {"seed": seed}}
    elif kind == "analyze-cold":
        # Fresh program text: a program-cache miss and a cold compile.
        payload = {"op": "analyze", "deep": True,
                   "program": QUAKE + f"\nSeen{seed}(x) :- Alarm(x).\n"}
    else:
        raise ValueError(kind)
    reply = client.request(payload)
    outcome.seconds = perf_counter() - start
    _check(kind, request, _ok(kind, reply), outcome)
    return outcome


def _ok(kind: str, reply: dict) -> dict:
    """The result of an ``ok`` reply; an error reply fails the unit."""
    if not reply.get("ok"):
        raise ReproError(f"{kind} request failed: {reply.get('error')}")
    return reply["result"]


def _alarm_marginal(result: dict, unit: str) -> float:
    for entry in result["marginals"]:
        if entry["fact"] == {"relation": "Alarm", "args": [unit]}:
            return entry["probability"]
    return 0.0


def _check(kind, request, result, outcome) -> None:
    if kind in ("sample-quake", "shard"):
        for unit, want in ALARM_LAWS.items():
            got = _alarm_marginal(result, unit)
            check_close(f"served P(Alarm({unit}))", got, want,
                        binomial_tol(want, result["n_runs"], UNIT_SIGMAS))
            outcome.alarms[unit] = got
        if kind == "shard" and result["backend"] != "sharded":
            raise BenchFailure(f"shards=2 reply ran on "
                               f"{result['backend']!r}")
        outcome.worlds = result["n_runs"]
    elif kind == "sample-heights":
        persons = len(HEIGHTS_INSTANCE["PCountry"])
        mass = sum(e["probability"] for e in result["marginals"]
                   if e["fact"]["relation"] == "PHeight")
        check_close("served heights mass per person", mass / persons,
                    1.0, 1e-9)
        outcome.worlds = result["n_runs"]
    elif kind == "marginal-exact":
        if result["probability"] != request.expected:
            raise BenchFailure(
                f"served exact marginal {result['probability']!r} != "
                f"in-process exact() {request.expected!r}")
    elif kind == "query":
        # Example 3.4 is discrete, so the served plan is answered by
        # exact enumeration: it must equal the closed form.
        want = sum(paper.alarm_probability_closed_form(r)
                   for r in (0.03, 0.01))
        check_close("served E[#Alarm]", result["expected_aggregate"],
                    want, 1e-9)
    elif kind == "posterior":
        pinned = [e for e in result["marginals"]
                  if e["fact"]["relation"] == "PHeight"
                  and e["fact"]["args"][0] == "nl-p0"]
        if len(pinned) != 1 or pinned[0]["fact"]["args"][1] != 180.5 \
                or abs(pinned[0]["probability"] - 1.0) > 1e-9:
            raise BenchFailure(f"served posterior did not pin the "
                               f"observation: {pinned!r}")
        outcome.worlds = result["n_runs"]
        outcome.ess = result["effective_sample_size"]
    elif kind == "analyze-cold":
        if not (result.get("deep") and result["weakly_acyclic"]):
            raise BenchFailure(f"served analysis: {result!r}")


def _stream(client, seed, outcome) -> None:
    """Open a stream, observe every STREAM_EVIDENCE item, retract them
    newest first, check that the prior ESS is back, close it."""
    opened = _ok("stream_open", client.request(
        {"op": "stream_open", "program": HEIGHTS, "n": N_HEIGHTS,
         "instance": HEIGHTS_INSTANCE, "config": {"seed": seed}}))
    stream_id, ess = opened["stream_id"], opened["effective_sample_size"]
    start = perf_counter()
    tokens = [_ok("stream_observe", client.request(
        {"op": "stream_observe", "stream_id": stream_id, "observe": item}))
        ["token"] for item in STREAM_EVIDENCE]
    for token in reversed(tokens):
        retracted = _ok("stream_observe", client.request(
            {"op": "stream_observe", "stream_id": stream_id,
             "retract": token}))
    outcome.pair_s = perf_counter() - start
    outcome.pairs = len(tokens)
    check_close("served stream ESS after retracting every observation",
                retracted["effective_sample_size"], ess, 1e-9 * ess)
    _ok("stream_close", client.request({"op": "stream_close",
                                        "stream_id": stream_id}))


def check_pooled(outcomes: list) -> None:
    """The served Example 3.4 samples of a run, pooled, against the law."""
    sampled = [o for o in outcomes if o.alarms]
    worlds = sum(o.worlds for o in sampled)
    for unit, want in ALARM_LAWS.items():
        hits = sum(o.alarms[unit] * o.worlds for o in sampled)
        check_close(f"pooled served P(Alarm({unit}))", hits / worlds,
                    want, binomial_tol(want, worlds, POOLED_SIGMAS))
