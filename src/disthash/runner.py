"""Scenario execution: build the node graph, schedule the scripted
events, run the engine to quiescence, then verify the structural
invariants and emit the metrics stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import KeyKind, LocalityDescriptor, NodeId, NodeSet, PatternKey, Role, make_object
# build_simulation applies join_select_ragent in its two parts; the name
# stays importable here, where the benchmark's tracer wraps it
from .membership import (HeartbeatConfig, Thresholds, closest_ragents, elect_agent,
                         join_select_ragent, least_loaded)
from .nodes import AgentNode, ClientNode, ClusterConfig, LusNode, RAgentNode
from .scenario import (CrashEvent, InsertEvent, JoinEvent, ReadEvent,
                       RejoinEvent, Scenario, SearchEvent, UpdateEvent)
from .sim import MS, Simulator


@dataclass
class RunResult:
    sim: Simulator
    scenario: Scenario
    clients: dict[str, ClientNode]
    labels: dict[str, object]  # label -> DistObject as inserted
    issues: list[str] = field(default_factory=list)

    @property
    def ops(self) -> list[dict]:
        return self.sim.op_records

    def metrics_lines(self) -> list[str]:
        return format_metrics(self)


def _mkcfg(sc: Scenario, lus_ids) -> ClusterConfig:
    c = sc.config
    return ClusterConfig(
        thresholds=Thresholds(c.min_cluster, c.max_cluster),
        hb=HeartbeatConfig(c.heartbeat_period_ms * MS, c.failure_timeout_ms * MS),
        lus_ids=tuple(lus_ids),
        delegation_factor=c.delegation_factor,
        migration_threshold=c.migration_threshold)


def build_simulation(sc: Scenario, trace: bool = False) -> RunResult:
    """Wire the declared topology at time zero: clusters formed, the
    lookup service pre-filled, secondaries elected and synced. The
    bootstrap is message-free so the first scripted event sees a steady
    system, and each cluster is registered with the engine as steady
    (``Simulator.register_steady``): untraced, its beats run without
    handler calls from the first round on. ``trace`` turns on the
    engine's event trace."""
    c = sc.config
    sim = Simulator(trace=trace)

    decls = list(sc.nodes)
    declared = {d.name for d in decls}
    if not any(d.role is Role.LUS for d in decls):
        anchor = next(d for d in decls if d.role is Role.RAGENT)
        i, made = 1, 0
        while made < c.lus_count:
            name = f"lus{i}"
            i += 1
            if name in declared:
                continue
            decls.append(type(anchor)(name, Role.LUS, anchor.locality))
            made += 1

    lus_decls = [d for d in decls if d.role is Role.LUS]
    lus_ids = tuple(sorted(NodeId(d.name) for d in lus_decls))
    cfg = _mkcfg(sc, lus_ids)

    lus_nodes = []
    for d in lus_decls:
        node = LusNode(NodeId(d.name), d.locality)
        sim.add_node(node)
        lus_nodes.append(node)

    ragents: list[RAgentNode] = []
    for d in decls:
        if d.role is Role.RAGENT:
            r = RAgentNode(NodeId(d.name), d.locality, cfg)
            sim.add_node(r)
            ragents.append(r)
    for r in ragents:
        r.peers = NodeSet(x.node_id for x in ragents if x is not r)

    clients: dict[str, ClientNode] = {}
    agents: list[AgentNode] = []
    for d in decls:
        if d.role is Role.AGENT:
            a = AgentNode(NodeId(d.name), d.locality, cfg)
            sim.add_node(a)
            agents.append(a)
        elif d.role is Role.CLIENT:
            cl = ClientNode(NodeId(d.name), d.locality)
            sim.add_node(cl)
            clients[d.name] = cl

    # place each declared agent as if it had joined through the lookup
    # service, one at a time (join_select_ragent): nearest super-peers,
    # ranked once per distinct locality, then fewest members so far
    by_id = {r.node_id: r for r in ragents}
    unranked = [(r.node_id, r.locality, 0) for r in ragents]
    nearest: dict[LocalityDescriptor, list[RAgentNode]] = {}
    for a in agents:
        near = nearest.get(a.locality)
        if near is None:
            near = nearest[a.locality] = [
                by_id[rid] for rid, _, _ in closest_ragents(unranked, a.locality)]
        choice = by_id[least_loaded([(r.node_id, r.locality, len(r.members))
                                     for r in near])]
        choice.members.add(a.node_id)
        a.joined = True
        a.ragent = choice.node_id

    for r in ragents:
        if r.members:
            r.secondary = elect_agent(r.members)
        for m in r.members.ordered:
            member = sim.nodes[m]
            member.secondary_id = r.secondary
        if r.secondary is not None:
            # hand over the first sync directly, so runtime syncs start
            # as journal batches
            sim.nodes[r.secondary]._on_CatalogueSync(sim, r.next_sync(), r.node_id)
        for lus in lus_nodes:
            lus.registry.register(r.node_id, r.locality, len(r.members))

    for node in [*agents, *ragents]:
        node.start(sim)
    for r in ragents:
        if len(r.members) > cfg.thresholds.max_cluster:
            sim.set_timer(r.node_id, "reconfig_check", 0)
        sim.register_steady(r, r.sweep_beat(), AgentNode.heard_steadily)

    return RunResult(sim=sim, scenario=sc, clients=clients, labels={})


def schedule_events(result: RunResult) -> None:
    sim, sc = result.sim, result.scenario
    lus_ids = sorted(n for n, node in sim.nodes.items() if node.role is Role.LUS)
    cfg = _mkcfg(sc, lus_ids)
    seq = 0
    for ev in sc.events:
        t = ev.time_ms * MS
        if isinstance(ev, CrashEvent):
            sim.inject_crash(NodeId(ev.node), t)
            continue
        if isinstance(ev, RejoinEvent):
            sim.inject_rejoin(NodeId(ev.node), t)
            continue
        if isinstance(ev, JoinEvent):
            node = AgentNode(NodeId(ev.name), ev.locality, cfg)
            sim.add_node(node)
            sim.set_timer(node.node_id, "retry_join", t)
            continue
        # client operations
        seq += 1
        rid = f"q{seq:04d}"
        client = result.clients[ev.client]
        if isinstance(ev, InsertEvent):
            obj = make_object(ev.type_tag, ev.keys, ev.payload)
            result.labels[ev.label] = obj
            op = {"request_id": rid, "kind": "insert",
                  "agent": NodeId(ev.agent), "obj": obj, "label": ev.label}
        elif isinstance(ev, SearchEvent):
            kind = KeyKind.EXACT_TYPE if ev.kind == "exact" else KeyKind.PATTERN
            op = {"request_id": rid,
                  "kind": "search" if ev.mode == "all" else "search_first",
                  "agent": NodeId(ev.agent),
                  "criterion": PatternKey(kind, ev.key)}
        elif isinstance(ev, UpdateEvent):
            op = {"request_id": rid, "kind": "update",
                  "agent": NodeId(ev.agent),
                  "oid": result.labels[ev.label].id, "payload": ev.payload}
        elif isinstance(ev, ReadEvent):
            op = {"request_id": rid, "kind": "read",
                  "oid": result.labels[ev.label].id}
        else:
            raise TypeError(f"unhandled event {ev!r}")
        sim.set_timer(client.node_id, "op", t, op)


def run_scenario(sc: Scenario, trace: bool = False) -> RunResult:
    result = build_simulation(sc, trace)
    schedule_events(result)
    last = max((ev.time_ms for ev in sc.events), default=0)
    result.sim.run_until((last + sc.config.drain_ms) * MS)
    result.issues = check_invariants(result)
    return result


# ---------------------------------------------------------------------
# Invariants


def _live_ragents(sim: Simulator) -> list[RAgentNode]:
    return sorted((n for n in sim.nodes.values()
                   if isinstance(n, RAgentNode) and sim.is_alive(n.node_id)),
                  key=lambda n: n.node_id)


def check_invariants(result: RunResult) -> list[str]:
    """Structural health of the quiescent system. Returns a list of
    human-readable violations; empty means healthy."""
    sim = result.sim
    sc = result.scenario
    issues: list[str] = []
    ragents = _live_ragents(sim)
    live_rids = {r.node_id for r in ragents}
    lost = sim._lost_clusters

    for r in ragents:
        tag = r.node_id
        # membership sanity
        for m in r.members.ordered:
            if not sim.is_alive(m):
                issues.append(f"{tag}: member {m} is dead")
        # catalogue: owner-first holder lists over live members, fully
        # replicated whenever enough members exist, whose replicas agree
        # with the owner's
        want = 2 if len(r.members) >= 2 else 1
        truth: dict[NodeId, int] = {}
        holders = r.catalogue.holders
        for oid in sorted(holders):
            hl = holders[oid]
            if len(hl) != len(set(hl)):
                issues.append(f"{tag}: duplicate holders for {oid.hex()[:12]}")
            if len(hl) < want:
                issues.append(f"{tag}: {oid.hex()[:12]} has {len(hl)} holders, want {want}")
            owner = sim.nodes[hl[0]].store.get(oid) if hl[0] in r.members else None
            for h in hl:
                truth[h] = truth.get(h, 0) + 1
                if h not in r.members:
                    issues.append(f"{tag}: holder {h} of {oid.hex()[:12]} not a member")
                    continue
                obj = sim.nodes[h].store.get(oid)
                if obj is None:
                    issues.append(f"{tag}: {h} listed for {oid.hex()[:12]} but does not store it")
                elif owner is not None and (obj.version, obj.payload) != (owner.version, owner.payload):
                    issues.append(f"{tag}: {h}'s replica of {oid.hex()[:12]} differs from its owner's "
                                  f"(version {obj.version} against {owner.version})")
        # the catalogue's replica counts match its holder lists
        counts = r.catalogue.loads.counts
        for a in sorted(counts.keys() | truth.keys()):
            if counts.get(a, 0) != truth.get(a, 0):
                issues.append(f"{tag}: replica count says {counts.get(a, 0)} "
                              f"for {a}, holder lists say {truth.get(a, 0)}")
        # secondary backup freshness
        if r.secondary is not None:
            sec = sim.nodes[r.secondary]
            if not isinstance(sec, AgentNode) or not sim.is_alive(r.secondary):
                issues.append(f"{tag}: secondary {r.secondary} unavailable")
            elif sec.sync_catalogue != r.catalogue:
                issues.append(f"{tag}: secondary catalogue copy is stale")
        elif r.members:
            issues.append(f"{tag}: members but no secondary")
        # complete peer graph
        expect_peers = live_rids - {r.node_id}
        if r.peers != expect_peers:
            missing = sorted(str(p) for p in expect_peers - r.peers)
            extra = sorted(str(p) for p in r.peers - expect_peers)
            issues.append(f"{tag}: peer set wrong (missing={missing} extra={extra})")
        # quiescence: no request, transfer or copy still in flight
        for name in ("searches", "resolutions", "updates", "out_migrations",
                     "in_migrations", "pending_copies"):
            if getattr(r, name):
                issues.append(f"{tag}: {len(getattr(r, name))} {name} left over")
        if r.locks.locks:
            issues.append(f"{tag}: {len(r.locks.locks)} object locks held")
        # size thresholds (a lone cluster has no merge partner)
        if len(r.members) > sc.config.max_cluster:
            issues.append(f"{tag}: {len(r.members)} members above max")
        if len(r.members) < sc.config.min_cluster and len(ragents) > 1:
            issues.append(f"{tag}: {len(r.members)} members below min")

    # lookup service mirrors the live super-peer set
    for node in sorted(sim.nodes.values(), key=lambda n: n.node_id):
        if not isinstance(node, LusNode):
            continue
        registered = set(node.registry.entries)
        if registered != live_rids:
            missing = sorted(str(p) for p in live_rids - registered)
            extra = sorted(str(p) for p in registered - live_rids)
            issues.append(f"{node.node_id}: registry wrong "
                          f"(missing={missing} extra={extra})")
        else:
            by_id = {r.node_id: r for r in ragents}
            for rid in sorted(registered):
                if node.registry.entries[rid].connected_count != len(by_id[rid].members):
                    issues.append(f"{node.node_id}: stale count for {rid}")

    # agents must belong somewhere, and every replica they store must be
    # listed, unless their whole cluster was lost
    for node in sorted(sim.nodes.values(), key=lambda n: n.node_id):
        if node.role is not Role.AGENT or not sim.is_alive(node.node_id):
            continue
        if node.ragent in lost:
            continue  # reported unrecoverable cluster; members stay orphaned
        nid = node.node_id
        listed = next((r.catalogue.holders for r in ragents if nid in r.members), None)
        if listed is None:
            issues.append(f"{nid}: live agent in no cluster")
        for oid in sorted(node.store):
            # its own super-peer lists it almost always; scan only if not
            if listed is not None and nid in listed.get(oid, ()):
                continue
            if not any(nid in r.catalogue.holders.get(oid, ()) for r in ragents):
                issues.append(f"{nid}: stores {oid.hex()[:12]} that no super-peer lists")

    for name, client in sorted(result.clients.items()):
        for rid in sorted(client.pending):
            issues.append(f"{name}: op {rid} never completed")

    if sim.loss_records and not sc.config.expect_loss:
        for _, oid, detail in sim.loss_records:
            issues.append(f"unexpected object loss {oid.hex()[:12]} ({detail})")

    return issues


# ---------------------------------------------------------------------
# Metrics


def _kv(**kw) -> str:
    parts = []
    for k, v in kw.items():
        if v is None:
            v = "-"
        elif isinstance(v, bool):
            v = int(v)
        parts.append(f"{k}={v}")
    return " ".join(parts)


def format_metrics(result: RunResult) -> list[str]:
    """One line per observation: ``kind key=value ...``. Deterministic
    for a given scenario."""
    sim = result.sim
    lines = []
    # op lines are most of the output: formatted as _kv would, without
    # its keyword packing and per-value tests
    for rec in sim.op_records:
        version = rec["version"]
        lines.append(
            f"op id={rec['id']} time_us={rec['time']} kind={rec['op']} "
            f"outcome={rec['outcome']} steps={rec['steps']} bound={rec['bound']} "
            f"decomposed={rec['decomposed']} bound_applicable={rec['bound_applicable']:d} "
            f"clusters={rec['clusters']} messages={rec['messages']} hops={rec['hops']} "
            f"results={rec['results']} version={'-' if version is None else version} "
            f"progress={rec['progress']}")
    for time, event, cluster, node, detail in sim.member_events:
        lines.append("member " + _kv(
            time_us=time, event=event, cluster=cluster, node=node,
            detail=detail.replace(" ", ";") if detail else None))
    for time, oid, detail in sim.loss_records:
        lines.append("loss " + _kv(time_us=time, object=oid.hex(),
                                   detail=detail.replace(" ", ";")))
    for issue in result.issues:
        lines.append("issue " + _kv(text=issue.replace(" ", ";")))
    lines.append("summary " + _kv(
        ops=len(sim.op_records), member_events=len(sim.member_events),
        losses=len(sim.loss_records), issues=len(result.issues),
        delivered=sim.deliver_count, time_us=sim.clock))
    return lines
