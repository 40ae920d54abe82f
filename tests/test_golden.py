"""Golden outputs: the sha256 of the bytes ``disthash --metrics`` writes
for the example scenarios and for a fixed generated corpus. A change
that alters simulated behaviour must re-pin these and say why."""
import hashlib
from pathlib import Path

import pytest

from disthash.cli import main
from disthash.runner import format_metrics, run_scenario
from test_acceptance import random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "basic.txt": "7352d3f80c99267e3eadbc1c8d237f7fa95aebbff82c3c774cf158f2031ed65b",
    "failover.txt": "2009734635c4ec230e0f5dea15550215d2de90d27af92f1a23e4144d03c3f338",
}
# one digest over random_scenario(0), ..., random_scenario(19), in order
GOLDEN_CORPUS = "a4386f9e33b0d2e5642e54f1dd7300d96c31dc4bf4f1a66043493654695aacf7"


def metrics_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def test_every_example_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.txt")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_metrics_are_pinned(name, tmp_path):
    out = tmp_path / "metrics.txt"
    assert main(["--scenario", str(SCENARIOS / name), "--metrics", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


def test_generated_corpus_metrics_are_pinned():
    h = hashlib.sha256()
    for seed in range(20):
        h.update(metrics_bytes(format_metrics(run_scenario(random_scenario(seed)))))
    assert h.hexdigest() == GOLDEN_CORPUS
