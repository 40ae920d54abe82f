"""One repetition of a workload through disthash's public API, and the
checks on what it outputs.

The program is reached through its modules (``runner.build_simulation``,
``scenario.parse_scenario``, ...) looked up at call time, so the traced
run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import re
import resource
from dataclasses import dataclass, field

from disthash import nodes, runner, scenario
from disthash.sim import MS

from reference import Clock
from workloads import Workload, generate

# BaseNode.on_message raises this before any handler runs when a node
# receives a message type its current role has no handler for
_OFFROLE = re.compile(r"\((\w+)\) cannot handle (\w+)$")


def is_offrole(exc: RuntimeError) -> bool:
    m = _OFFROLE.search(str(exc))
    if m is None:
        return False
    cls = getattr(nodes, m.group(1), None)
    return isinstance(cls, type) and not hasattr(cls, f"_on_{m.group(2)}")


@dataclass
class Prepared:
    workload: Workload
    result: runner.RunResult
    end_us: int


def setup(name: str, seed: int) -> Prepared:
    """What ``setup_s`` times: generation, the format/parse round trip,
    ``build_simulation`` and ``schedule_events``."""
    wl = generate(name, seed)
    sc = scenario.parse_scenario(wl.text)
    sc = scenario.parse_scenario(scenario.format_scenario(sc))
    result = runner.build_simulation(sc)
    runner.schedule_events(result)
    last = max((ev.time_ms for ev in sc.events), default=0)
    return Prepared(wl, result, (last + sc.config.drain_ms) * MS)


@dataclass
class Run:
    host_s: float           # run_until + check_invariants + format_metrics
    ref_s: float            # the same in reference seconds
    lines: list[str]
    offrole_errors: int
    delivered: int

    @property
    def digest(self) -> str:
        return metrics_digest(self.lines)


def _run_until(sim, t: int) -> int:
    """An off-role ``RuntimeError`` is raised before the handler touches
    any state, so it is counted and the engine resumed at the next event;
    any other exception fails the run."""
    offrole = 0
    while True:
        try:
            sim.run_until(t)
            return offrole
        except RuntimeError as exc:
            if not is_offrole(exc):
                raise
            offrole += 1


def _report(result) -> list[str]:
    result.issues = runner.check_invariants(result)
    return runner.format_metrics(result)


def run(p: Prepared, clock: Clock) -> Run:
    """Run to the end of the drain in slices of simulated time of about
    50 ms host time each, with a probe after each slice. Slicing does not
    change what is simulated: events are processed in the same order and
    the metrics digest is the same."""
    sim = p.result.sim
    host = ref = 0.0
    offrole = 0
    step, t = 100 * MS, 0
    while t < p.end_us:
        t = min(t + step, p.end_us)
        n, dt, dref = clock.time(_run_until, sim, t)
        offrole += n
        host, ref = host + dt, ref + dref
        if dt < 0.025:
            step *= 2
        elif dt > 0.1 and step > MS:
            step //= 2
    lines, dt, dref = clock.time(_report, p.result)
    summary = dict(kv.split("=", 1) for kv in lines[-1].split()[1:])
    return Run(host + dt, ref + dref, lines, offrole, int(summary["delivered"]))


def metrics_digest(lines: list[str]) -> str:
    """sha256 of the bytes ``disthash --metrics`` writes for these lines."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def scenario_digests(root) -> dict[str, str]:
    """Metrics digest of every ``scenarios/*.txt`` under ``root``, run as
    ``disthash --metrics`` runs it."""
    out = {}
    for path in sorted((root / "scenarios").glob("*.txt")):
        result = runner.run_scenario(scenario.parse_scenario(path.read_text()))
        out[path.name] = metrics_digest(runner.format_metrics(result))
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


@dataclass
class Check:
    """Simulated outcomes of one run, judged against the oracle."""

    scheduled: int = 0
    failed: int = 0
    unfinished: list[str] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    search_steps: list[int] = field(default_factory=list)
    invariant_issues: list[str] = field(default_factory=list)
    gate: list[str] = field(default_factory=list)

    def fail(self, rid: str, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if reason == "never completed":
            self.unfinished.append(rid)


def check(p: Prepared) -> Check:
    """An op fails if its outcome is not ``ok``, if it never completes, or
    if it says ``ok`` but is wrong: a search-all whose ids differ from the
    brute-force set, a search-first whose result is not in that set, a
    read of another object, or an update version seen twice. The gate
    lists what makes a fault-free workload incorrect."""
    wl, result = p.workload, p.result
    oracle = wl.oracle()
    ids = {label: obj.id for label, obj in result.labels.items()}
    done: dict[str, dict] = {}
    answered_twice = set()
    for c in result.clients["c1"].completions:
        if c["id"] in done:
            answered_twice.add(c["id"])
        done.setdefault(c["id"], c)
    inserted = {op.label for op in wl.ops
                if op.kind == "insert" and done.get(op.rid, {}).get("outcome") == "ok"}
    versions: dict[str, set] = {}
    out = Check(scheduled=len(wl.ops),
                invariant_issues=list(result.issues))
    for op in wl.ops:
        rec = done.get(op.rid)
        if rec is None:
            out.fail(op.rid, "never completed")
            continue
        if op.kind in ("search", "search_first"):
            out.search_steps.append(rec["steps"])
            if rec["steps"] != rec["decomposed"]:
                out.gate.append(f"{op.rid}: steps {rec['steps']} != decomposed {rec['decomposed']}")
            if rec["bound_applicable"] and rec["steps"] > rec["bound"]:
                out.gate.append(f"{op.rid}: steps {rec['steps']} above bound {rec['bound']}")
        if op.rid in answered_twice:
            out.fail(op.rid, "answered twice")
            continue
        if rec["outcome"] != "ok":
            out.fail(op.rid, f"outcome {rec['outcome']}")
            continue
        got = {obj.id for obj in rec["objects"]}
        if op.kind == "search":
            want = {ids[label] for label in oracle[op.rid] if label in inserted}
            if got != want:
                out.fail(op.rid, "search-all differs from oracle")
                continue
        elif op.kind == "search_first":
            want = {ids[label] for label in oracle[op.rid] if label in inserted}
            if len(got) != (1 if want else 0) or not got <= want:
                out.fail(op.rid, "search-first not in oracle set")
                continue
        elif op.kind == "read":
            if got != {ids[op.label]}:
                out.fail(op.rid, "read returned another object")
                continue
        elif op.kind == "update":
            seen = versions.setdefault(op.label, set())
            if rec["version"] is None or rec["version"] in seen:
                out.fail(op.rid, "update version missing or repeated")
                continue
            seen.add(rec["version"])
        out.latencies_ms.append((rec["time"] - op.time_ms * MS) / MS)
    out.latencies_ms.sort()
    if wl.fault_free:
        out.gate += [f"{n} ops failed: {r}" for r, n in sorted(out.reasons.items())]
        out.gate += [f"invariant: {i}" for i in out.invariant_issues]
    return out


@dataclass
class Sample:
    """What one process reports about its one set-up and run, in host
    seconds and in reference seconds."""

    setup_s: float
    setup_ref_s: float
    run_s: float
    run_ref_s: float
    delivered: int
    offrole_errors: int
    digest: str
    peak_rss_mb: float
    check: Check | None = None
    layers: dict | None = None          # per-layer metrics of a traced run
    layer_self_s: dict | None = None
    top_spans: list | None = None

    @property
    def host_msgs_per_s(self) -> float:
        return self.delivered / self.run_s

    @property
    def msgs_per_s(self) -> float:
        """Delivered messages per reference second of the run."""
        return self.delivered / self.run_ref_s


def sample(name: str, seed: int, traced: bool = False, checked: bool = False) -> Sample:
    """Set up and run once. The benchmark calls this in a fresh
    interpreter each time, so every run starts from the heap a user's
    first run in a process sees, not from an earlier run's leftovers."""
    from tracer import Tracer

    clock = Clock()
    tr = Tracer() if traced else contextlib.nullcontext()
    with tr:
        p, setup_s, setup_ref_s = clock.time(setup, name, seed)
        r = run(p, clock)
    out = Sample(setup_s, setup_ref_s, r.host_s, r.ref_s, r.delivered,
                 r.offrole_errors, r.digest,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if checked:
        out.check = check(p)
    if traced:
        from tracer import layer_metrics
        out.layers = layer_metrics(tr, p.result.sim, r.offrole_errors)
        out.layer_self_s = tr.layer_self_s()
        out.top_spans = sorted(((k, *v) for k, v in tr.spans.items()),
                               key=lambda s: -s[3])[:10]
    return out
