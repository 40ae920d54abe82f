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
empty key list or payload. ``parse_scenario`` alone holds the format's
rules. ``format_scenario`` writes text that it reads back equal, or
raises ``ValueError`` naming the config field, node or event that it
would reject or read back differently.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import zip_longest

from .core import LocalityDescriptor, Role

ROLES = {r.value: r for r in Role}


class ScenarioError(Exception):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.reason = message


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


def _keys(raw: str, lineno: int) -> tuple[str, ...]:
    if raw == "-":
        return ()
    if "," not in raw:  # one key, as most inserts have
        return (raw,)
    keys = raw.split(",")
    if "" in keys:
        raise ScenarioError(lineno, f"empty index key in {raw!r}")
    return tuple(sorted(set(keys)))


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    section = None
    names: set[str] = set()
    labels: set[str] = set()
    localities: dict[tuple, LocalityDescriptor] = {}
    last_time = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # most lines hold no comment: split only those that do
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
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
    error = _whole_scenario_error(sc)
    if error:
        raise ScenarioError(0, error)
    return sc


def _whole_scenario_error(sc: Scenario) -> str | None:
    """What is wrong with ``sc`` as a whole, or None: no super-peer, no
    lookup service, or cluster bounds, failure timing or drain time out
    of range."""
    if not any(d.role is Role.RAGENT for d in sc.nodes):
        return "at least one ragent node is required"
    c = sc.config
    if c.lus_count < 1 and not any(d.role is Role.LUS for d in sc.nodes):
        return "lus_count must be at least 1 when no lus node is declared"
    if c.min_cluster < 1 or c.min_cluster >= c.max_cluster:
        return "need 1 <= min_cluster < max_cluster"
    if c.heartbeat_period_ms <= 0 or c.failure_timeout_ms < 2 * c.heartbeat_period_ms:
        return "failure timeout must be at least twice the heartbeat period"
    if c.drain_ms < 0:
        return "drain_ms must not be negative"
    return None


def _undeclared(nodes: tuple[str, ...], names: set[str], lineno: int) -> ScenarioError:
    """The error for the first of ``nodes`` that is not among ``names``;
    the caller has already seen that one is not, with set lookups."""
    name = next(n for n in nodes if n not in names)
    return ScenarioError(lineno, f"undeclared node {name!r}")


def _parse_event(t, kind, args, names, labels, localities, lineno):
    if kind == "insert":
        if len(args) != 6:
            raise ScenarioError(lineno, "insert: client agent label type keys payload")
        client, agent, label, type_tag, keys, payload = args
        if client not in names or agent not in names:
            raise _undeclared((client, agent), names, lineno)
        if label in labels:
            raise ScenarioError(lineno, f"duplicate object label {label!r}")
        labels.add(label)
        return InsertEvent(t, client, agent, label, type_tag,
                           _keys(keys, lineno), _hex_payload(payload, lineno))
    if kind in ("search", "search_first"):
        if len(args) != 4:
            raise ScenarioError(lineno, f"{kind}: client agent exact|pattern key")
        client, agent, crit, key = args
        if client not in names or agent not in names:
            raise _undeclared((client, agent), names, lineno)
        if crit not in ("exact", "pattern"):
            raise ScenarioError(lineno, f"criterion must be exact or pattern, got {crit!r}")
        return SearchEvent(t, client, agent, crit, key,
                           "all" if kind == "search" else "first")
    if kind == "update":
        if len(args) != 4:
            raise ScenarioError(lineno, "update: client agent label payload")
        client, agent, label, payload = args
        if client not in names or agent not in names:
            raise _undeclared((client, agent), names, lineno)
        if label not in labels:
            raise ScenarioError(lineno, f"unknown object label {label!r}")
        return UpdateEvent(t, client, agent, label, _hex_payload(payload, lineno))
    if kind == "read":
        if len(args) != 2:
            raise ScenarioError(lineno, "read: client label")
        client, label = args
        if client not in names:
            raise _undeclared((client,), names, lineno)
        if label not in labels:
            raise ScenarioError(lineno, f"unknown object label {label!r}")
        return ReadEvent(t, client, label)
    if kind in ("crash", "rejoin"):
        if len(args) != 1:
            raise ScenarioError(lineno, f"{kind}: node")
        if args[0] not in names:
            raise _undeclared((args[0],), names, lineno)
        return (CrashEvent if kind == "crash" else RejoinEvent)(t, args[0])
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
    """Render ``sc`` as text and check it the one way that cannot drift
    from the parser: parse it back. ``ValueError`` names the config, node
    or event that the parser rejects or reads back differently."""
    defaults = ScenarioConfig()
    config = [(f.name, getattr(sc.config, f.name)) for f in fields(ScenarioConfig)
              if getattr(sc.config, f.name) != getattr(defaults, f.name)]
    lines = ["[config]",
             *(f"{name} = {str(v).lower() if isinstance(v, bool) else v}" for name, v in config),
             "", "[nodes]",
             *(f"{d.name} {d.role.value} {d.locality.network_domain} {d.locality.as_domain} "
               f"{d.locality.country} {d.locality.continent}" for d in sc.nodes),
             "", "[events]", *map(_format_event, sc.events), ""]
    text = "\n".join(lines)
    try:
        back = parse_scenario(text)
    except ScenarioError as exc:
        if exc.lineno == 0:
            raise ValueError(exc.reason) from None
        # what each of ``lines`` renders; None for a header or a blank
        items = [None, *[sc.config] * len(config), None, None, *sc.nodes, None, None, *sc.events]
        item = _item_on_line(lines, items, exc.lineno)
        raise ValueError(f"{_what(item)}: {exc.reason}") from None
    if back != sc:  # name the first field that reads back otherwise
        for item, other in zip_longest([sc.config, *sc.nodes, *sc.events],
                                       [back.config, *back.nodes, *back.events]):
            if item != other:
                for f in fields(item or other):
                    value, read = getattr(item, f.name, None), getattr(other, f.name, None)
                    if value != read:
                        raise ValueError(f"{_what(item or other)}: {f.name} {value!r} "
                                         f"reads back as {read!r}")
                raise ValueError(f"{_what(item)}: reads back as {other!r}")
    return text


def _format_event(ev) -> str:
    t = ev.time_ms
    if isinstance(ev, InsertEvent):
        return (f"{t} insert {ev.client} {ev.agent} {ev.label} {ev.type_tag} "
                f"{','.join(ev.keys) or '-'} {ev.payload.hex() or '-'}")
    if isinstance(ev, SearchEvent):
        kind = "search" if ev.mode == "all" else "search_first"
        return f"{t} {kind} {ev.client} {ev.agent} {ev.kind} {ev.key}"
    if isinstance(ev, UpdateEvent):
        return f"{t} update {ev.client} {ev.agent} {ev.label} {ev.payload.hex() or '-'}"
    if isinstance(ev, ReadEvent):
        return f"{t} read {ev.client} {ev.label}"
    if isinstance(ev, (CrashEvent, RejoinEvent)):
        return f"{t} {'crash' if isinstance(ev, CrashEvent) else 'rejoin'} {ev.node}"
    if isinstance(ev, JoinEvent):
        loc = ev.locality
        return f"{t} join {ev.name} {loc.network_domain} {loc.as_domain} {loc.country} {loc.continent}"
    raise TypeError(f"unknown event {ev!r}")


def _what(item) -> str:
    """How an error names ``item``: the config, a node or an event."""
    if isinstance(item, ScenarioConfig):
        return "config"
    if isinstance(item, NodeDecl):
        return f"node {item.name!r}"
    return f"{type(item).__name__} at {item.time_ms} ms"


def _item_on_line(lines: list[str], items: list, lineno: int):
    """The entry of ``items`` (one per entry of ``lines``) whose text holds
    line ``lineno``, or an earlier one broken over more lines than one."""
    start = 1
    for line, item in zip(lines, items):
        n = len(f"{line}\n".splitlines())
        if start + n > lineno or (n > 1 and item is not None):
            return item
        start += n
