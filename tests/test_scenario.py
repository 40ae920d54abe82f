"""Scenario text parsing, validation and formatting, plus the command
line wrapper's exit codes and deterministic output."""
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disthash.core import LocalityDescriptor, Role
from disthash.scenario import (CrashEvent, InsertEvent, JoinEvent, NodeDecl,
                               ReadEvent, Scenario, ScenarioError, SearchEvent,
                               UpdateEvent, format_scenario, parse_scenario)

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


def test_round_trip():
    sc = parse_scenario(FULL)
    text = format_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert format_scenario(again) == text


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


@pytest.mark.parametrize("fields,fragment", [
    ({"keys": ("-",)}, "InsertEvent at 0 ms: keys ('-',)"),
    ({"keys": ("a,b",)}, "InsertEvent at 0 ms: keys ('a,b',)"),
    ({"keys": ("k#1",)}, "InsertEvent at 0 ms: keys 'k#1'"),
    ({"keys": ("a b",)}, "InsertEvent at 0 ms: keys 'a b'"),
    ({"label": "o 1"}, "InsertEvent at 0 ms: label 'o 1'"),
    ({"label": "o#1"}, "InsertEvent at 0 ms: label 'o#1'"),
])
def test_format_rejects_fields_that_do_not_read_back(fields, fragment):
    with pytest.raises(ValueError) as err:
        format_scenario(one_insert(**fields))
    assert fragment in str(err.value)


def test_format_rejects_a_node_line_that_reads_as_a_section_header():
    sc = one_insert()
    sc.nodes.append(NodeDecl("[a1", Role.AGENT, LocalityDescriptor("n", "a", "c", "eu]")))
    with pytest.raises(ValueError, match="node '\\[a1': its line would read as a section header"):
        format_scenario(sc)
    sc.nodes[-1] = NodeDecl("[a1", Role.AGENT, HERE)
    assert parse_scenario(format_scenario(sc)) == sc


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
