"""Traced run: wrap each layer's entry points from outside the program.

Spans nest on one stack; a span's self time is its duration minus the
durations of the spans it encloses. Inside an opaque span (a catalogue
copy, split, merge or comparison) nested catalogue calls are part of
that span's own work and get no span of their own. Every wrapper is
removed again on exit, restoring the original attributes.
"""
from __future__ import annotations

import time
from collections import defaultdict

from disthash import catalogue, core, dataops, lus, membership, nodes, runner, scenario, sim

_MISSING = object()

# message types and timer tags that get their own call count; the rest
# are summed under ``other``. Only those every workload runs also get a
# time, so that no time metric reads zero on every run of a workload.
MESSAGE_TYPES = (
    "AgentHeartbeat", "RAgentHeartbeat", "PeerHeartbeat", "CatalogueSync",
    "CSearch", "CInsert", "CUpdate", "CRead", "AgentSearch", "AgentInsert",
    "AgentUpdate", "RemoteSearch", "RemoteSearchReply", "FetchObjects",
    "FetchReply", "StoreReplica", "OpReply", "ProgressNote", "ApplyUpdate",
    "ApplyAck", "ReplicaUpdate", "ReplicaUpdateAck", "OwnerQuery",
    "CopyReplica", "CopyDone", "SendFailed", "other")
TIMED_MESSAGE_TYPES = (
    "AgentHeartbeat", "RAgentHeartbeat", "PeerHeartbeat", "CatalogueSync",
    "CSearch", "CInsert", "AgentSearch", "AgentInsert", "RemoteSearch",
    "RemoteSearchReply", "FetchObjects", "FetchReply", "StoreReplica", "OpReply")
TIMER_TAGS = ("hb", "sweep", "op", "fetch_retry", "apply_retry",
              "reconfig_check", "other")
TIMED_TIMER_TAGS = ("hb", "sweep", "op")
LAYERS = ("sim", "nodes", "catalogue", "dataops", "membership", "lus",
          "core", "runner", "scenario")


class Tracer:
    def __init__(self):
        # name -> [calls, duration, self time]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.handler_s = 0.0      # top-level handler durations
        self._stack: list[float] = []   # child time of each open span
        self._opaque = 0
        self._handlers = 0
        self._saved: list[tuple] = []

    # -- installing ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def span(self, owner, attr: str, name, *, opaque=False, handler=False,
             pre=None, post=None) -> None:
        """Wrap ``owner.attr`` in a span. ``name`` is a string or a
        function of the call's arguments; ``pre``/``post`` update counts."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            if tracer._opaque:
                return fn(*args, **kw)
            key = name if isinstance(name, str) else name(args)
            if pre is not None:
                pre(args)
            tracer._opaque += opaque
            tracer._handlers += handler
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dur = clock() - t0
                child = stack.pop()
                tracer._opaque -= opaque
                tracer._handlers -= handler
                st = spans[key]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                if stack:
                    stack[-1] += dur
                if handler and not tracer._handlers:
                    tracer.handler_s += dur
            if post is not None:
                post(args, result)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Wrap a call too cheap and frequent for a span: count it only."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        self._replace(owner, attr, wrapper)

    def __enter__(self):
        c = self.counts
        msg = lambda a: "nodes.msg." + type(a[2]).__name__
        tick = lambda a: "nodes.timer." + a[2]
        # sim: engine loop, sends, timers, latency model, step accounting
        self.span(sim.Simulator, "run_until", "sim.run_until")
        self.span(sim.Simulator, "send", "sim.send")
        self.span(sim.Simulator, "set_timer", "sim.set_timer")
        self.span(sim.NetworkModel, "latency", "sim.latency")
        for m in ("on_lookup", "on_fetch_request", "on_probe", "on_message",
                  "message_count", "account_search"):
            self.span(sim.StepCounter, m, "sim.steps")
        # nodes: every message and timer handler of every role
        self.span(nodes.BaseNode, "on_message", msg, handler=True)
        self.span(nodes.BaseNode, "on_timer", tick, handler=True)
        self.span(nodes.ClientNode, "on_timer", tick, handler=True)
        self.span(nodes.BaseNode, "on_crash", "nodes.lifecycle", handler=True)
        for cls in (nodes.AgentNode, nodes.RAgentNode):
            self.span(cls, "on_rejoin", "nodes.lifecycle", handler=True)
        # catalogue and load table
        self.span(catalogue.MetaCatalogue, "copy", "catalogue.copy", opaque=True,
                  pre=lambda a: c.__setitem__("catalogue.copy.entries",
                                              c["catalogue.copy.entries"] + len(a[0])))
        self.span(catalogue.MetaCatalogue, "lookup", "catalogue.lookup")
        for m in ("insert", "remove_object", "set_owner", "add_holder",
                  "remove_holder", "remove_agent"):
            self.span(catalogue.MetaCatalogue, m, "catalogue.mutate")
        for m in ("split", "merge"):
            self.span(catalogue.MetaCatalogue, m, "catalogue.split_merge", opaque=True)
        self.span(catalogue.MetaCatalogue, "__eq__", "catalogue.eq", opaque=True)
        for m in ("add_agent", "drop_agent", "bump", "get", "copy"):
            self.span(catalogue.AgentLoadTable, m, "catalogue.loads")
        # dataops, imported by name into nodes
        self.span(nodes, "select_replica_holders", "dataops.place")
        self.span(nodes, "merge_results", "dataops.merge")
        self.span(dataops.LockTable, "acquire", "dataops.lock",
                  post=lambda a, r: c.__setitem__("dataops.lock.queued",
                                                  c["dataops.lock.queued"] + (not r)))
        self.span(dataops.HotCounter, "record", "dataops.hot",
                  post=lambda a, r: c.__setitem__("dataops.hot.triggers",
                                                  c["dataops.hot.triggers"] + bool(r)))
        # membership and lookup service
        for mod, fns in ((nodes, ("elect_agent", "detect_failures",
                                  "split_partition", "choose_merge_target",
                                  "join_select_ragent")),
                         (runner, ("elect_agent", "join_select_ragent"))):
            for f in fns:
                self.span(mod, f, "membership")
        for m in ("register", "deregister", "query", "snapshot"):
            self.span(lus.LusRegistry, m, "lus")
        # core
        self.count(core.NodeId, "__lt__", "core.nodeid_lt.calls")
        self.span(sim, "proximity_rank", "core.proximity")
        self.span(membership, "proximity_rank", "core.proximity")
        self.span(runner, "make_object", "core.make_object")
        # reporting and scenario text
        for f in ("build_simulation", "schedule_events", "check_invariants",
                  "format_metrics"):
            self.span(runner, f, f"runner.{f}")
        self.span(scenario, "format_scenario", "scenario.format")
        self.span(scenario, "parse_scenario", "scenario.parse")
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    def _grouped(self, prefix: str, names) -> dict[str, list]:
        out = {n: [0, 0.0] for n in names}
        for key, (calls, _, self_t) in self.spans.items():
            if key.startswith(prefix):
                n = key[len(prefix):]
                slot = out[n if n in out else "other"]
                slot[0] += calls
                slot[1] += self_t
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per module, for naming the top layer."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, self_t) in self.spans.items():
            out[key.split(".", 1)[0]] += self_t
        return out


def layer_metrics(tr: Tracer, simulator, offrole_errors: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with units. ``.s`` is self time;
    ``nodes.handler.s`` alone is the inclusive time of top-level handlers."""
    m: dict[str, tuple[float, str]] = {}

    def calls_s(name: str, label: str | None = None) -> None:
        label = label or name
        m[f"{label}.calls"] = (tr.calls(name), "count")
        m[f"{label}.s"] = (tr.self_s(name), "s")

    m["sim.events"] = (simulator._seq - len(simulator._heap), "count")
    m["sim.self_s"] = (tr.self_s("sim.run_until"), "s")
    for n in ("sim.send", "sim.set_timer", "sim.latency", "sim.steps"):
        calls_s(n)
    m["sim.trace.records"] = (len(simulator.trace), "count")

    handler_self = sum(st[2] for k, st in tr.spans.items()
                       if k.startswith(("nodes.msg.", "nodes.timer.", "nodes.lifecycle")))
    m["nodes.handler.s"] = (tr.handler_s, "s")
    m["nodes.handler.self_s"] = (handler_self, "s")
    for kind, names, timed in (("msg", MESSAGE_TYPES, TIMED_MESSAGE_TYPES),
                               ("timer", TIMER_TAGS, TIMED_TIMER_TAGS)):
        for n, (calls, self_t) in tr._grouped(f"nodes.{kind}.", names).items():
            m[f"nodes.{kind}.{n}.calls"] = (calls, "count")
            if n in timed:
                m[f"nodes.{kind}.{n}.s"] = (self_t, "s")
    m["nodes.offrole_errors"] = (offrole_errors, "count")

    calls_s("catalogue.copy")
    m["catalogue.copy.entries"] = (tr.counts["catalogue.copy.entries"], "count")
    calls_s("catalogue.lookup")
    calls_s("catalogue.mutate")
    m["catalogue.split_merge.calls"] = (tr.calls("catalogue.split_merge"), "count")
    m["catalogue.eq.s"] = (tr.self_s("catalogue.eq"), "s")
    calls_s("catalogue.loads")

    calls_s("dataops.place")
    calls_s("dataops.merge")
    acquired = tr.calls("dataops.lock")
    queued = tr.counts["dataops.lock.queued"]
    m["dataops.lock.acquire"] = (acquired, "count")
    m["dataops.lock.queued"] = (queued, "count")
    m["dataops.lock.grant_ratio"] = ((acquired - queued) / acquired if acquired else 1.0, "ratio")
    m["dataops.hot.calls"] = (tr.calls("dataops.hot"), "count")
    m["dataops.hot.triggers"] = (tr.counts["dataops.hot.triggers"], "count")

    calls_s("membership")
    calls_s("lus")
    m["core.nodeid_lt.calls"] = (tr.counts["core.nodeid_lt.calls"], "count")
    calls_s("core.proximity")
    m["core.make_object.s"] = (tr.self_s("core.make_object"), "s")

    for n in ("build_simulation", "schedule_events", "check_invariants", "format_metrics"):
        m[f"runner.{n}.s"] = (tr.self_s(f"runner.{n}"), "s")
    m["scenario.format.s"] = (tr.self_s("scenario.format"), "s")
    m["scenario.parse.s"] = (tr.self_s("scenario.parse"), "s")
    return m
