"""Record the golden metrics digests: ``python3 bench/record_golden.py``.

Rewrites ``bench/golden.json`` with the sha256 of the ``format_metrics``
output of every workload for seeds 0-19 and of every ``scenarios/*.txt``.
Re-record only for an intended change of simulated behaviour, and name
the change and its reason in CHANGES.md.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from reference import Clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(20)


def main() -> None:
    golden = {"workloads": {}, "scenarios": harness.scenario_digests(ROOT)}
    for name in WORKLOADS:
        golden["workloads"][name] = {
            str(seed): harness.run(harness.setup(name, seed), Clock()).digest
            for seed in SEEDS}
        print(name, "recorded", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
