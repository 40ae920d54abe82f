"""Scenario text parsing, validation and formatting, plus the command
line wrapper's exit codes and deterministic output."""
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disthash.core import LocalityDescriptor, Role
from disthash.scenario import (CrashEvent, InsertEvent, JoinEvent, NodeDecl,
                               ReadEvent, RejoinEvent, Scenario, ScenarioConfig,
                               ScenarioError, SearchEvent, UpdateEvent,
                               format_scenario, parse_scenario)
from test_acceptance import random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[nodes]
l1 lus    net9 as9 us na
r1 ragent net1 as1 ro eu
a1 agent  net1 as1 ro eu
a2 agent  net1 as1 ro eu
"""

FULL = """
[config]
min_cluster = 2
max_cluster = 6

[nodes]
r1 ragent net1 as1 ro eu
a1 agent  net1 as1 ro eu
a2 agent  net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
0    insert c1 a1 obj1 sensor k2,k1 deadbeef
10   insert c1 a1 obj2 camera - -
100  search c1 a1 pattern k1
150  search_first c1 a2 exact sensor
200  update c1 a1 obj1 cafe
300  read   c1 obj1
400  crash  a1
500  rejoin a1
600  join   a9 net1 as1 ro eu
"""


def test_parse_minimal():
    sc = parse_scenario(MINIMAL)
    assert len(sc.nodes) == 4 and sc.events == []
    assert sc.config.min_cluster == 5  # defaults untouched


def test_parse_full_scenario():
    sc = parse_scenario(FULL)
    assert sc.config.max_cluster == 6
    ins = sc.events[0]
    assert isinstance(ins, InsertEvent)
    assert ins.keys == ("k1", "k2")  # sorted, deduplicated
    assert ins.payload == b"\xde\xad\xbe\xef"
    assert sc.events[1].keys == () and sc.events[1].payload == b""
    assert isinstance(sc.events[2], SearchEvent) and sc.events[2].mode == "all"
    assert sc.events[3].mode == "first"
    assert isinstance(sc.events[6], CrashEvent)
    assert isinstance(sc.events[8], JoinEvent)


def assert_round_trips(sc):
    text = format_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert format_scenario(again) == text


def test_round_trip():
    assert_round_trips(parse_scenario(FULL))


@pytest.mark.parametrize("source", [
    *sorted(p.name for p in SCENARIOS.glob("*.txt")), *range(20)])
def test_round_trip_of_real_inputs(source):
    # every scenario file, and the acceptance corpus's generated scenarios
    assert_round_trips(parse_scenario((SCENARIOS / source).read_text())
                       if isinstance(source, str) else random_scenario(source))


HERE = LocalityDescriptor("net1", "as1", "ro", "eu")


def one_insert(client="c1", label="o1", type_tag="t", keys=("k",), key="k"):
    """A scenario of one insert, then a search, an update and a read of
    it, with the given text fields."""
    return Scenario(
        nodes=[NodeDecl("r1", Role.RAGENT, HERE), NodeDecl(client, Role.CLIENT, HERE)],
        events=[InsertEvent(0, client, "r1", label, type_tag, keys, b"\x01"),
                SearchEvent(10, client, "r1", "pattern", key, "all"),
                UpdateEvent(20, client, "r1", label, b""),
                ReadEvent(30, client, label)])


# a field that breaks its line into more or fewer fields is named by
# its event and the parser's reason; one that reads back as another
# value, by its field and both values
SPLIT = "InsertEvent at 0 ms: insert: client agent label type keys payload"


@pytest.mark.parametrize("fields,fragment", [
    ({"keys": ("-",)}, "InsertEvent at 0 ms: keys ('-',) reads back as ()"),
    ({"keys": ("a,b",)}, "InsertEvent at 0 ms: keys ('a,b',) reads back as ('a', 'b')"),
    ({"keys": ("k#1",)}, SPLIT),
    ({"keys": ("a b",)}, SPLIT),
    ({"label": "o 1"}, SPLIT),
    ({"label": "o#1"}, SPLIT),
])
def test_format_rejects_fields_that_do_not_read_back(fields, fragment):
    with pytest.raises(ValueError) as err:
        format_scenario(one_insert(**fields))
    assert fragment in str(err.value)


def test_format_rejects_a_config_value_that_does_not_read_back():
    sc = one_insert()
    sc.config = ScenarioConfig(min_cluster=2.5)
    with pytest.raises(ValueError, match=r"config: bad value for min_cluster: '2\.5'"):
        format_scenario(sc)
    for name, value in (("max_cluster", True), ("expect_loss", 1),
                        ("delegation_factor", "x")):
        sc.config = ScenarioConfig(**{name: value})
        with pytest.raises(ValueError, match=f"config: bad value for {name}: "):
            format_scenario(sc)
    sc.config = ScenarioConfig(min_cluster="3")
    with pytest.raises(ValueError, match="config: min_cluster '3' reads back as 3"):
        format_scenario(sc)
    # values that read back equal are written as before
    sc.config = ScenarioConfig(min_cluster=2, delegation_factor=3, expect_loss=True)
    text = format_scenario(sc)
    assert "delegation_factor = 3\n" in text and parse_scenario(text) == sc


def test_format_rejects_a_node_declared_twice():
    sc = one_insert()
    sc.nodes.append(NodeDecl("c1", Role.AGENT, HERE))
    with pytest.raises(ValueError, match="node 'c1': duplicate node 'c1'"):
        format_scenario(sc)
    sc.nodes.pop()
    sc.events.append(JoinEvent(40, "r1", HERE))
    with pytest.raises(ValueError, match="JoinEvent at 40 ms: duplicate node 'r1'"):
        format_scenario(sc)


@pytest.mark.parametrize("event,fragment", [
    (ReadEvent(40, "c1", "nope"), "ReadEvent at 40 ms: unknown object label 'nope'"),
    (UpdateEvent(40, "c1", "r1", "nope", b""), "UpdateEvent at 40 ms: unknown object label 'nope'"),
    (InsertEvent(40, "c1", "r1", "o1", "t", (), b""), "InsertEvent at 40 ms: duplicate object label 'o1'"),
    (SearchEvent(40, "c1", "ghost", "exact", "t", "all"), "SearchEvent at 40 ms: undeclared node 'ghost'"),
    (ReadEvent(40, "ghost", "o1"), "ReadEvent at 40 ms: undeclared node 'ghost'"),
    (CrashEvent(40, "ghost"), "CrashEvent at 40 ms: undeclared node 'ghost'"),
    (CrashEvent(25, "r1"), "CrashEvent at 25 ms: event times must be non-decreasing"),
    (CrashEvent(40.0, "r1"), "CrashEvent at 40.0 ms: bad event time '40.0'"),
])
def test_format_rejects_an_event_that_parse_would_reject_where_it_stands(event, fragment):
    sc = one_insert()
    sc.events.append(event)
    with pytest.raises(ValueError) as err:
        format_scenario(sc)
    assert fragment in str(err.value)


def test_format_reads_an_event_against_the_nodes_and_labels_before_it():
    sc = one_insert()
    # a label read before its insert, and a node named before its join
    sc.events.insert(0, ReadEvent(0, "c1", "o1"))
    with pytest.raises(ValueError, match="ReadEvent at 0 ms: unknown object label 'o1'"):
        format_scenario(sc)
    sc = one_insert()
    sc.events += [CrashEvent(40, "a9"), JoinEvent(40, "a9", HERE)]
    with pytest.raises(ValueError, match="CrashEvent at 40 ms: undeclared node 'a9'"):
        format_scenario(sc)
    sc.events.reverse()
    sc.events.sort(key=lambda ev: ev.time_ms)  # stable: the join first
    assert parse_scenario(format_scenario(sc)) == sc


@pytest.mark.parametrize("change,fragment", [
    (lambda sc: sc.nodes.pop(0), "at least one ragent"),
    (lambda sc: setattr(sc.config, "max_cluster", 5), "min_cluster < max_cluster"),
    (lambda sc: setattr(sc.config, "failure_timeout_ms", 900), "twice the heartbeat"),
    (lambda sc: setattr(sc.config, "drain_ms", -1), "drain_ms must not be negative"),
])
def test_format_rejects_a_scenario_parse_rejects_as_a_whole(change, fragment):
    sc = one_insert()
    sc.events = []
    change(sc)
    with pytest.raises(ValueError, match=fragment):
        format_scenario(sc)


def test_format_rejects_a_node_line_that_reads_as_a_section_header():
    sc = one_insert()
    sc.nodes.append(NodeDecl("[a1", Role.AGENT, LocalityDescriptor("n", "a", "c", "eu]")))
    with pytest.raises(ValueError, match="node '\\[a1': unknown section 'a1 agent n a c eu'"):
        format_scenario(sc)
    sc.nodes[-1] = NodeDecl("[a1", Role.AGENT, HERE)
    assert parse_scenario(format_scenario(sc)) == sc


def test_format_names_the_item_whose_text_breaks_its_line():
    # the parser fails on a later line than the one the item starts on
    with pytest.raises(ValueError, match="InsertEvent at 0 ms: insert: "):
        format_scenario(one_insert(label="o1\n1"))
    # r1's last tier ends in a section header, so c1's node line is read
    # as an event: r1, not c1, is named
    sc = one_insert()
    sc.nodes[0] = NodeDecl("r1", Role.RAGENT, LocalityDescriptor("n", "a", "c", "eu\n[events]"))
    with pytest.raises(ValueError, match="node 'r1': bad event time 'c1'"):
        format_scenario(sc)


# half the draws are fields that read back
WORD = st.sampled_from(["a", "b-", "a,b", "-"]) | st.text("ab,- #\t", max_size=4)
KEYS = st.lists(WORD, max_size=3).map(lambda ks: tuple(sorted(set(ks)))) | \
    st.lists(WORD, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(client=WORD, label=WORD, type_tag=WORD, key=WORD, keys=KEYS)
def test_format_raises_or_round_trips(client, label, type_tag, key, keys):
    sc = one_insert(client, label, type_tag, keys, key)
    try:
        text = format_scenario(sc)
    except ValueError:
        return
    assert parse_scenario(text) == sc


CONFIG_FIELDS = [f.name for f in fields(ScenarioConfig)]
PAYLOAD = st.binary(max_size=2)


@st.composite
def scenarios(draw):
    """Half the draws are tame: each text field one token, whole numbers
    for config values and event times, and times in order. The rest mix
    in fields that may not read back: config values of any type, names
    and tiers with blanks or ``#``, and event times that are not whole or
    not in order. Either way, every kind of event."""
    tame = draw(st.booleans())
    word = st.text("ab,-", min_size=1, max_size=3) if tame else WORD
    keys = st.lists(st.text("ab", min_size=1, max_size=2), max_size=3).map(
        lambda ks: tuple(sorted(set(ks)))) if tame else KEYS
    locality = st.builds(LocalityDescriptor, *[word.filter(bool)] * 4)  # tiers are never empty
    value = st.integers(1, 999) if tame else (
        st.integers(-1, 999) | st.floats() | st.booleans() | WORD)
    time = st.integers(0, 100) if tame else st.integers(-1, 100) | st.floats(0, 100)
    nodes = draw(st.lists(st.builds(NodeDecl, word, st.sampled_from(Role), locality),
                          min_size=1, max_size=3, unique_by=(lambda d: d.name) if tame else None))

    def among(*good):
        return st.sampled_from(good) if tame else st.sampled_from(good) | word
    node = among(*(d.name for d in nodes))
    times = draw(st.lists(time, min_size=1, max_size=5))
    if tame:
        nodes[0].role = Role.RAGENT
        times.sort()
    args = {InsertEvent: (node, node, word, word, keys, PAYLOAD),
            SearchEvent: (node, node, among("exact", "pattern"), word, among("all", "first")),
            UpdateEvent: (node, node, word, PAYLOAD),
            ReadEvent: (node, word),
            CrashEvent: (node,),
            RejoinEvent: (node,),
            JoinEvent: (word, locality)}
    events, inserted = [], []
    for t in times:
        kind = draw(st.sampled_from(list(args)))
        # a tame read or update names an object inserted before it
        if tame and kind in (UpdateEvent, ReadEvent) and not inserted:
            kind = InsertEvent
        ev = kind(t, *(draw(arg) for arg in args[kind]))
        if tame and kind in (UpdateEvent, ReadEvent):
            ev.label = draw(st.sampled_from(inserted))
        if kind is InsertEvent:
            inserted.append(ev.label)
        events.append(ev)
    config = draw(st.dictionaries(st.sampled_from(CONFIG_FIELDS), value, max_size=2))
    return Scenario(ScenarioConfig(**config), nodes, events)


@settings(max_examples=200, deadline=None, report_multiple_bugs=False)
@given(sc=scenarios())
def test_format_raises_or_round_trips_any_scenario(sc):
    try:
        text = format_scenario(sc)
    except ValueError:
        return
    assert parse_scenario(text) == sc


@pytest.mark.parametrize("text,fragment", [
    ("x = 1", "before any section"),
    ("[bogus]", "unknown section"),
    ("[config]\nnope = 1\n" + MINIMAL, "unknown config key"),
    ("[config]\nmin_cluster = abc\n" + MINIMAL, "bad value"),
    ("[config]\nmin_cluster = 9\nmax_cluster = 9\n" + MINIMAL, "min_cluster"),
    ("[config]\nfailure_timeout_ms = 10\n" + MINIMAL, "twice the heartbeat"),
    ("[nodes]\nr1 ragent net as ro", "node lines"),
    ("[nodes]\nr1 boss net as ro eu", "unknown role"),
    (MINIMAL + "[nodes]\nr1 ragent net as ro eu", "duplicate node"),
    (MINIMAL + "[events]\n0 insert ghost a1 o t - -", "undeclared node"),
    (MINIMAL + "[events]\n5 crash a1\n1 crash a2", "non-decreasing"),
    (MINIMAL + "[events]\n0 read a1 obj1", "unknown object label"),
    (MINIMAL + "[events]\n0 insert a1 a1 o1 t k1,,k2 00", "empty index key"),
    (MINIMAL + "[events]\n0 dance a1", "unknown event kind"),
    ("[nodes]\na1 agent net as ro eu", "at least one ragent"),
    ("[config]\ndrain_ms = -20000\n" + MINIMAL, "drain_ms must not be negative"),
    ("[config]\nlus_count = 0\n[nodes]\nr1 ragent net1 as1 ro eu", "lus_count must be at least 1"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[nodes]\nbad line\n")
    assert err.value.lineno == 2


def test_equal_locality_texts_share_one_descriptor():
    sc = parse_scenario(FULL)
    r1, a1, a2, c1 = (d.locality for d in sc.nodes)
    join = sc.events[8].locality  # "join a9 net1 as1 ro eu"
    assert r1 is a1 is a2 is c1 is join
    assert (r1.network_domain, r1.as_domain, r1.country, r1.continent) == (
        "net1", "as1", "ro", "eu")
    lus, r, *_ = (d.locality for d in parse_scenario(MINIMAL).nodes)
    assert lus != r and lus is not r
    # shared within one parse only: a second parse builds its own
    again = parse_scenario(FULL)
    assert again.nodes[0].locality == r1 and again.nodes[0].locality is not r1


@pytest.mark.parametrize("bad,lineno", [
    ("a3 agent net1 as1 ro", 4),                          # node line, 5 fields
    ("[events]\n0 join a9 net1 as1 ro", 5),               # join, 3 tiers
    ("[events]\n0 join a9 net1 as1 ro eu extra", 5),      # join, 5 tiers
])
def test_malformed_locality_after_an_interned_one_names_its_line(bad, lineno):
    text = "[nodes]\nr1 ragent net1 as1 ro eu\na1 agent net1 as1 ro eu\n" + bad + "\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.lineno == lineno
    assert str(err.value).startswith(f"line {lineno}:")


# -- command line ---------------------------------------------------------


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "disthash.cli", *args],
                          capture_output=True, text=True)


HAPPY = """
[config]
min_cluster = 2
drain_ms = 2000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent  net1 as1 ro eu
a2 agent  net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
0   insert c1 a1 obj1 sensor k1 aa
100 search c1 a1 exact sensor
"""


def test_cli_happy_path_and_determinism(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text(HAPPY)
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    r1 = run_cli("--scenario", str(f), "--check", "--trace", str(t1))
    r2 = run_cli("--scenario", str(f), "--check", "--trace", str(t2))
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout and r1.stdout.startswith("op ")
    assert t1.read_text().strip() and t1.read_bytes() == t2.read_bytes()
    assert "summary " in r1.stdout


def test_cli_metrics_file(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text(HAPPY)
    out = tmp_path / "metrics.txt"
    r = run_cli("--scenario", str(f), "--metrics", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert "op id=q0001" in out.read_text()


def test_cli_bad_scenario_exits_2(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("[nodes]\nbroken\n")
    r = run_cli("--scenario", str(f))
    assert r.returncode == 2 and "line 2" in r.stderr


def test_cli_negative_drain_exits_2(tmp_path):
    # the engine cannot run back before the last event: a malformed
    # scenario, not an invariant violation
    f = tmp_path / "bad.txt"
    f.write_text(HAPPY.replace("drain_ms = 2000", "drain_ms = -1"))
    r = run_cli("--scenario", str(f), "--check")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "drain_ms must not be negative" in r.stderr
    # an error of the whole scenario names no line
    assert "line 0" not in r.stderr


def test_cli_no_lookup_service_exits_2(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("[config]\nlus_count = 0\n" + HAPPY)
    r = run_cli("--scenario", str(f), "--check")
    assert r.returncode == 2
    assert r.stderr == f"error: {f}: lus_count must be at least 1 when no lus node is declared\n"
    # a declared lookup service is enough
    assert parse_scenario("[config]\nlus_count = 0\n" + MINIMAL).config.lus_count == 0


def test_cli_missing_file_exits_2():
    r = run_cli("--scenario", "/does/not/exist")
    assert r.returncode == 2


LOSSY = """
[config]
min_cluster = 2
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent  net1 as1 ro eu
a2 agent  net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
0    insert c1 a1 obj1 sensor k1 aa
1000 crash a1
1000 crash a2
"""


def test_cli_check_flags_unexpected_loss(tmp_path):
    f = tmp_path / "lossy.txt"
    f.write_text(LOSSY)
    out = tmp_path / "metrics.txt"
    r = run_cli("--scenario", str(f), "--check", "--metrics", str(out))
    assert r.returncode == 1
    assert "invariant" in r.stderr
    # ids print as hex text, the full id in metrics and 12 digits in issues
    loss = re.search(r"^loss time_us=1010000 object=([0-9a-f]{40}) "
                     r"detail=all-holders-gone$", out.read_text(), re.M)
    assert loss
    short = re.search(r"unexpected object loss ([0-9a-f]{12}) ", r.stderr)
    assert short and loss.group(1).startswith(short.group(1))
