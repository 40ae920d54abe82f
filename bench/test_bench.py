"""The benchmark's own tests: ``python -m pytest bench/test_bench.py``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
from disthash import runner, scenario  # noqa: E402
from workloads import WORKLOADS, Obj, brute_force, generate  # noqa: E402


def test_same_seed_same_scenario_text():
    for name in WORKLOADS:
        a, b = generate(name, 3), generate(name, 3)
        assert a.text == b.text
        assert [(o.rid, o.time_ms, o.kind) for o in a.ops] == \
               [(o.rid, o.time_ms, o.kind) for o in b.ops]
        assert generate(name, 4).text != a.text


def test_generated_text_round_trips_and_ids_follow_event_order():
    wl = generate("churn", 0)
    sc = scenario.parse_scenario(wl.text)
    assert scenario.format_scenario(scenario.parse_scenario(
        scenario.format_scenario(sc))) == scenario.format_scenario(sc)
    assert len(wl.ops) >= 1000
    assert [o.rid for o in wl.ops] == [f"q{i:04d}" for i in range(1, len(wl.ops) + 1)]
    assert [o.time_ms for o in wl.ops] == sorted(o.time_ms for o in wl.ops)


def test_oracle_on_hand_built_case():
    objects = [Obj("a", "sensor", ("k1", "k2"), 10),
               Obj("b", "sensor", ("k2",), 20),
               Obj("c", "camera", ("k1",), 30),
               Obj("d", "sensor", ("k1",), 50)]
    assert brute_force(objects, ("exact", "sensor"), 40) == {"a", "b"}
    assert brute_force(objects, ("pattern", "k1"), 40) == {"a", "c"}
    assert brute_force(objects, ("pattern", "k1"), 60) == {"a", "c", "d"}
    assert brute_force(objects, ("exact", "k1"), 60) == frozenset()
    assert brute_force(objects, ("pattern", "sensor"), 60) == frozenset()


def test_offrole_error_is_recognised_and_nothing_else():
    assert harness.is_offrole(RuntimeError(
        "NodeId(a1x001) (RAgentNode) cannot handle CSearch"))
    assert not harness.is_offrole(RuntimeError(
        "NodeId(a1x001) (AgentNode) cannot handle CSearch"))  # it can
    assert not harness.is_offrole(RuntimeError("cannot run backwards"))


def _attributes(t: tracer.Tracer) -> list:
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in t._saved]


def test_traced_run_restores_wrappers_and_self_times_are_not_negative():
    text = (ROOT / "scenarios" / "failover.txt").read_text()
    plain = runner.format_metrics(runner.run_scenario(scenario.parse_scenario(text)))
    with tracer.Tracer() as tr:
        wrapped = _attributes(tr)
        result = runner.run_scenario(scenario.parse_scenario(text))
        traced = runner.format_metrics(result)
    assert traced == plain
    assert wrapped and not tr._saved
    for owner, attr, wrapper in wrapped:
        assert getattr(owner, attr) is not wrapper, (owner, attr)
    assert all(self_t >= 0 for _, _, self_t in tr.spans.values())
    assert tr.calls("sim.send") > 0 and tr.counts["core.nodeid_lt.calls"] > 0
    m = tracer.layer_metrics(tr, result.sim, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [d["name"] for d in declared] == \
           list(m) + ["trace.msgs_per_s", "trace.overhead_x"]
    assert all(d["unit"] == m[d["name"]][1] for d in declared if d["name"] in m)


def test_one_run_prints_the_declared_metrics_last():
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "churn",
                          "--seed", "1", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["attempted"] >= 1000
    assert list(report["metrics"]) == [d["name"] for d in declared]
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert "golden churn seed 1: match" in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "churn",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
