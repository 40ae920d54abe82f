"""Golden outputs: the sha256 of the bytes ``disthash --metrics`` and
``disthash --trace`` write for the example scenarios, of the metrics
and traces of a fixed generated corpus, and of the metrics of the
benchmark's workloads. A change that alters simulated behaviour must
re-pin these and say why. Also: turning the trace off changes nothing
that is simulated, and the JSONL trace says what the digest trace
hashes."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from disthash.cli import main
from disthash.runner import format_metrics, run_scenario
from disthash.scenario import parse_scenario
from disthash.sim import SimError, TraceRecord
from test_acceptance import random_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOLDEN = {
    "basic.txt": "7352d3f80c99267e3eadbc1c8d237f7fa95aebbff82c3c774cf158f2031ed65b",
    "failover.txt": "c3dd1714402cd5e241da626ff124bf8154f03f77bd2920c46aa429b7120e2259",
    "rejoin_before_detection.txt": "c26d238fc4d321d27334a2e90c13e539dbd712f989394495a3daf1077a0dd2f9",
    "split_merge.txt": "3233db43dd705d2bf9c28597f8e75e2b6e0544c8d707cbde5d0457dddd452e1a",
}
GOLDEN_TRACE = {
    "basic.txt": "ced20555978c138da67635ce3d96d601faad88f90dec5b1fa913874204b91733",
    "failover.txt": "04b9c7facc73a3ca82706977763a4c4ecddc5cd03686b97dbcf7a5b61e3ae07c",
    "rejoin_before_detection.txt": "ba58ff03e74afc8707c477a595955426a6651d2f7a62a0412740e931eff2ced4",
    "split_merge.txt": "8a8210aaafc051de845f30da9f7e71a338ff9a1e7e701b352ba16ef06c56d1c8",
}
# one digest over random_scenario(0), ..., random_scenario(19), in order
GOLDEN_CORPUS = "a4386f9e33b0d2e5642e54f1dd7300d96c31dc4bf4f1a66043493654695aacf7"
GOLDEN_CORPUS_TRACE = "a1ab38b20a98dbc78ca6d4fad6b1e8bfafe8673e26f25fa9bb96345988c38b9e"
# the benchmark's workloads (bench/workloads.py) at seed 0: what
# ``bench/run.py --workload NAME --seed 0`` reports as its metrics digest
GOLDEN_WORKLOADS = {
    "insert_search": "751c871ea84f6847ae86126f67b1c6c0899207a4071a8500d0d273f1c6912920",
    "heartbeat": "7dfcb8784120cd1c215f100a5f174e72c3e6024e7849a83af07b3af30b6692c0",
    "churn": "5dc12b9fd113ddd99a34c33558cee39c2678fe986b947f1dc486a16cb59c2b91",
}


def lines_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def corpus_digests():
    metrics, trace = hashlib.sha256(), hashlib.sha256()
    for seed in range(20):
        res = run_scenario(random_scenario(seed), trace=True)
        metrics.update(lines_bytes(format_metrics(res)))
        trace.update(lines_bytes(res.sim.trace_lines()))
    return metrics.hexdigest(), trace.hexdigest()


def test_every_example_scenario_is_pinned():
    names = sorted(p.name for p in SCENARIOS.glob("*.txt"))
    assert names == sorted(GOLDEN) == sorted(GOLDEN_TRACE)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_metrics_are_pinned(name, tmp_path):
    out = tmp_path / "metrics.txt"
    assert main(["--scenario", str(SCENARIOS / name), "--metrics", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE))
def test_scenario_trace_is_pinned(name, tmp_path):
    out = tmp_path / "trace.txt"
    assert main(["--scenario", str(SCENARIOS / name),
                 "--metrics", str(tmp_path / "metrics.txt"), "--trace", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TRACE[name]


def test_generated_corpus_metrics_are_pinned(corpus_digests):
    assert corpus_digests[0] == GOLDEN_CORPUS


def test_generated_corpus_trace_is_pinned(corpus_digests):
    assert corpus_digests[1] == GOLDEN_CORPUS_TRACE


@pytest.fixture(scope="module")
def bench_workloads():
    """``bench/workloads.py``, loaded by path: it is not a package."""
    name = "disthash_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_benchmark_workload_metrics_are_pinned(name, bench_workloads):
    assert sorted(GOLDEN_WORKLOADS) == sorted(bench_workloads.WORKLOADS)
    res = run_scenario(parse_scenario(bench_workloads.generate(name, 0).text))
    assert hashlib.sha256(lines_bytes(format_metrics(res))).hexdigest() == GOLDEN_WORKLOADS[name]


@pytest.mark.parametrize("source", [*sorted(GOLDEN), *range(20), *sorted(GOLDEN_WORKLOADS)])
def test_no_settled_request_keeps_a_tally_or_a_progress_count(source, bench_workloads):
    """A request's tallies and its client's count of its progress notes
    live until the client settles it: what a run keeps of them is
    bounded by the ops still in flight."""
    if isinstance(source, int):
        sc = random_scenario(source)
    elif source in GOLDEN:
        sc = parse_scenario((SCENARIOS / source).read_text())
    else:
        sc = parse_scenario(bench_workloads.generate(source, 0).text)
    res = run_scenario(sc)
    pending = set().union(*(c.pending for c in res.clients.values()))
    assert res.sim.steps.requests.keys() <= pending
    assert all(c.progress.keys() <= c.pending.keys() for c in res.clients.values())


@pytest.mark.parametrize("source", [*sorted(GOLDEN), *range(5)])
def test_untraced_run_simulates_the_same(source):
    def load():
        if isinstance(source, int):
            return random_scenario(source)
        return parse_scenario((SCENARIOS / source).read_text())

    plain, traced = run_scenario(load()), run_scenario(load(), trace=True)
    assert format_metrics(plain) == format_metrics(traced)
    assert plain.sim.deliver_count == traced.sim.deliver_count > 0
    assert plain.sim.trace == [] and len(traced.sim.trace) > traced.sim.deliver_count
    with pytest.raises(SimError):
        plain.sim.trace_lines()


def test_jsonl_trace_has_one_record_per_digest_line(tmp_path):
    scenario = str(SCENARIOS / "failover.txt")
    digest, jsonl = tmp_path / "trace.txt", tmp_path / "trace.jsonl"
    for out, fmt in ((digest, "digest"), (jsonl, "jsonl")):
        assert main(["--scenario", scenario, "--metrics", str(tmp_path / "metrics.txt"),
                     "--trace", str(out), "--trace-format", fmt]) == 0
    lines = digest.read_text().splitlines()
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == len(lines) > 0
    for rec, line in zip(records, lines):
        time, seq, node, kind, _ = line.split()
        assert (rec["time"], rec["seq"], rec["kind"], rec["node"]) == (int(time), int(seq), kind, node)
        # the record holds everything its digest line hashes
        assert TraceRecord(**rec).line() == line
