"""Text scenario format: a declarative description of a simulated run.

Three sections::

    [config]
    min_cluster = 2
    max_cluster = 6

    [nodes]
    r1 ragent net1 as1 ro eu
    a1 agent  net1 as1 ro eu
    l1 lus    net9 as9 us na
    c1 client net1 as1 ro eu

    [events]
    0    insert c1 a1 obj1 sensor k1,k2 deadbeef
    1000 search c1 a1 pattern k1
    1500 search_first c1 a1 exact sensor
    2000 update c1 a1 obj1 cafe
    3000 read   c1 obj1
    4000 crash  a1
    5000 rejoin a1
    6000 join   a9 net1 as1 ro eu

Event times are milliseconds of simulated time. ``-`` stands for an
empty key list or payload. ``parse_scenario(format_scenario(s))`` is the
identity on the parsed structure.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .core import LocalityDescriptor, Role

ROLES = {r.value: r for r in Role}


class ScenarioError(Exception):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class ScenarioConfig:
    min_cluster: int = 5
    max_cluster: int = 10_000
    heartbeat_period_ms: int = 500
    failure_timeout_ms: int = 2000
    delegation_factor: float = 2.0
    migration_threshold: int = 3
    lus_count: int = 2
    drain_ms: int = 10_000
    expect_loss: bool = False


@dataclass
class NodeDecl:
    name: str
    role: Role
    locality: LocalityDescriptor


@dataclass
class InsertEvent:
    time_ms: int
    client: str
    agent: str
    label: str
    type_tag: str
    keys: tuple[str, ...]
    payload: bytes


@dataclass
class SearchEvent:
    time_ms: int
    client: str
    agent: str
    kind: str  # exact | pattern
    key: str
    mode: str  # all | first


@dataclass
class UpdateEvent:
    time_ms: int
    client: str
    agent: str
    label: str
    payload: bytes


@dataclass
class ReadEvent:
    time_ms: int
    client: str
    label: str


@dataclass
class CrashEvent:
    time_ms: int
    node: str


@dataclass
class RejoinEvent:
    time_ms: int
    node: str


@dataclass
class JoinEvent:
    time_ms: int
    name: str
    locality: LocalityDescriptor


@dataclass
class Scenario:
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    nodes: list[NodeDecl] = field(default_factory=list)
    events: list = field(default_factory=list)


_BOOL = {"true": True, "false": False}


def _parse_config_value(name: str, raw: str, lineno: int):
    for f in fields(ScenarioConfig):
        if f.name == name:
            try:
                if f.type == "bool":
                    return _BOOL[raw.lower()]
                if f.type == "float":
                    return float(raw)
                return int(raw)
            except (ValueError, KeyError):
                raise ScenarioError(lineno, f"bad value for {name}: {raw!r}")
    raise ScenarioError(lineno, f"unknown config key {name!r}")


def _locality(parts: list[str], lineno: int,
              interned: dict[tuple, LocalityDescriptor]) -> LocalityDescriptor:
    """The descriptor for these four tiers; equal tiers within one parse
    share one descriptor, built and validated once."""
    if len(parts) != 4:
        raise ScenarioError(lineno, "locality needs network as country continent")
    key = tuple(parts)
    loc = interned.get(key)
    if loc is None:
        loc = interned[key] = LocalityDescriptor(*key)
    return loc


def _hex_payload(raw: str, lineno: int) -> bytes:
    if raw == "-":
        return b""
    try:
        return bytes.fromhex(raw)
    except ValueError:
        raise ScenarioError(lineno, f"payload must be hex or '-': {raw!r}")


def _keys(raw: str) -> tuple[str, ...]:
    if raw == "-":
        return ()
    return tuple(sorted(set(raw.split(","))))


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    section = None
    names: set[str] = set()
    labels: set[str] = set()
    localities: dict[tuple, LocalityDescriptor] = {}
    last_time = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("config", "nodes", "events"):
                raise ScenarioError(lineno, f"unknown section {section!r}")
            continue
        if section == "config":
            if "=" not in line:
                raise ScenarioError(lineno, "config lines must be key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            setattr(sc.config, key, _parse_config_value(key, value, lineno))
        elif section == "nodes":
            parts = line.split()
            if len(parts) != 6:
                raise ScenarioError(lineno, "node lines: name role net as country continent")
            name, role = parts[0], parts[1]
            if name in names:
                raise ScenarioError(lineno, f"duplicate node {name!r}")
            if role not in ROLES:
                raise ScenarioError(lineno, f"unknown role {role!r}")
            names.add(name)
            sc.nodes.append(NodeDecl(name, ROLES[role],
                                    _locality(parts[2:], lineno, localities)))
        elif section == "events":
            parts = line.split()
            if len(parts) < 2:
                raise ScenarioError(lineno, "event lines: time kind args...")
            try:
                t = int(parts[0])
            except ValueError:
                raise ScenarioError(lineno, f"bad event time {parts[0]!r}")
            if t < last_time:
                raise ScenarioError(lineno, "event times must be non-decreasing")
            last_time = t
            sc.events.append(_parse_event(t, parts[1], parts[2:], names, labels,
                                          localities, lineno))
        else:
            raise ScenarioError(lineno, "content before any section header")
    if not any(d.role is Role.RAGENT for d in sc.nodes):
        raise ScenarioError(0, "at least one ragent node is required")
    c = sc.config
    if c.min_cluster < 1 or c.min_cluster >= c.max_cluster:
        raise ScenarioError(0, "need 1 <= min_cluster < max_cluster")
    if c.heartbeat_period_ms <= 0 or c.failure_timeout_ms < 2 * c.heartbeat_period_ms:
        raise ScenarioError(0, "failure timeout must be at least twice the heartbeat period")
    return sc


def _require_node(name: str, names: set[str], lineno: int) -> str:
    if name not in names:
        raise ScenarioError(lineno, f"undeclared node {name!r}")
    return name


def _parse_event(t, kind, args, names, labels, localities, lineno):
    if kind == "insert":
        if len(args) != 6:
            raise ScenarioError(lineno, "insert: client agent label type keys payload")
        client, agent, label, type_tag, keys, payload = args
        _require_node(client, names, lineno)
        _require_node(agent, names, lineno)
        if label in labels:
            raise ScenarioError(lineno, f"duplicate object label {label!r}")
        labels.add(label)
        return InsertEvent(t, client, agent, label, type_tag,
                           _keys(keys), _hex_payload(payload, lineno))
    if kind in ("search", "search_first"):
        if len(args) != 4:
            raise ScenarioError(lineno, f"{kind}: client agent exact|pattern key")
        client, agent, crit, key = args
        _require_node(client, names, lineno)
        _require_node(agent, names, lineno)
        if crit not in ("exact", "pattern"):
            raise ScenarioError(lineno, f"criterion must be exact or pattern, got {crit!r}")
        return SearchEvent(t, client, agent, crit, key,
                           "all" if kind == "search" else "first")
    if kind == "update":
        if len(args) != 4:
            raise ScenarioError(lineno, "update: client agent label payload")
        client, agent, label, payload = args
        _require_node(client, names, lineno)
        _require_node(agent, names, lineno)
        if label not in labels:
            raise ScenarioError(lineno, f"unknown object label {label!r}")
        return UpdateEvent(t, client, agent, label, _hex_payload(payload, lineno))
    if kind == "read":
        if len(args) != 2:
            raise ScenarioError(lineno, "read: client label")
        client, label = args
        _require_node(client, names, lineno)
        if label not in labels:
            raise ScenarioError(lineno, f"unknown object label {label!r}")
        return ReadEvent(t, client, label)
    if kind in ("crash", "rejoin"):
        if len(args) != 1:
            raise ScenarioError(lineno, f"{kind}: node")
        node = _require_node(args[0], names, lineno)
        return (CrashEvent if kind == "crash" else RejoinEvent)(t, node)
    if kind == "join":
        if len(args) != 5:
            raise ScenarioError(lineno, "join: name net as country continent")
        name = args[0]
        if name in names:
            raise ScenarioError(lineno, f"duplicate node {name!r}")
        names.add(name)
        return JoinEvent(t, name, _locality(args[1:], lineno, localities))
    raise ScenarioError(lineno, f"unknown event kind {kind!r}")


def format_scenario(sc: Scenario) -> str:
    """Render back to text; ``parse_scenario`` round-trips the result."""
    out = ["[config]"]
    defaults = ScenarioConfig()
    for f in fields(ScenarioConfig):
        value = getattr(sc.config, f.name)
        if value != getattr(defaults, f.name):
            text = str(value).lower() if isinstance(value, bool) else str(value)
            out.append(f"{f.name} = {text}")
    out.append("")
    out.append("[nodes]")
    for d in sc.nodes:
        loc = d.locality
        out.append(f"{d.name} {d.role.value} {loc.network_domain} "
                   f"{loc.as_domain} {loc.country} {loc.continent}")
    out.append("")
    out.append("[events]")
    for ev in sc.events:
        out.append(_format_event(ev))
    out.append("")
    return "\n".join(out)


def _format_event(ev) -> str:
    if isinstance(ev, InsertEvent):
        keys = ",".join(ev.keys) if ev.keys else "-"
        payload = ev.payload.hex() if ev.payload else "-"
        return (f"{ev.time_ms} insert {ev.client} {ev.agent} {ev.label} "
                f"{ev.type_tag} {keys} {payload}")
    if isinstance(ev, SearchEvent):
        kind = "search" if ev.mode == "all" else "search_first"
        return f"{ev.time_ms} {kind} {ev.client} {ev.agent} {ev.kind} {ev.key}"
    if isinstance(ev, UpdateEvent):
        payload = ev.payload.hex() if ev.payload else "-"
        return f"{ev.time_ms} update {ev.client} {ev.agent} {ev.label} {payload}"
    if isinstance(ev, ReadEvent):
        return f"{ev.time_ms} read {ev.client} {ev.label}"
    if isinstance(ev, CrashEvent):
        return f"{ev.time_ms} crash {ev.node}"
    if isinstance(ev, RejoinEvent):
        return f"{ev.time_ms} rejoin {ev.node}"
    if isinstance(ev, JoinEvent):
        loc = ev.locality
        return (f"{ev.time_ms} join {ev.name} {loc.network_domain} "
                f"{loc.as_domain} {loc.country} {loc.continent}")
    raise TypeError(f"unknown event {ev!r}")
