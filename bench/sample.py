"""One set-up and run of a workload in this fresh interpreter; writes the
pickled ``harness.Sample`` to stdout for ``run.py``, which starts it.

    python3 bench/sample.py <workload> <seed> <traced 0|1> <checked 0|1>
"""
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

if __name__ == "__main__":
    name, seed, traced, checked = sys.argv[1:5]
    out = harness.sample(name, int(seed), traced == "1", checked == "1")
    sys.stdout.buffer.write(pickle.dumps(out))
