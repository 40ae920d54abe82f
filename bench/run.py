"""Benchmark for disthash: three seeded workloads through the public API.

    python3 bench/run.py --workload insert_search --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload in turn

Run from the repository root; the program is imported from ``src/``.
Every set-up and run happens in a fresh interpreter (``sample.py``), one
after another, until ``--seconds`` have passed; timings are medians over
those runs, in reference seconds (see ``reference.py``).
With ``--trace 0`` the end-to-end metrics are reported. With
``--trace 1`` untraced and traced runs alternate and the per-layer
metrics are reported, with the tracing overhead. The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

In simulated time the client is an open loop: every op is issued at its
scheduled time whatever earlier ops are doing, and latency is measured
from that time. In host time each run is a batch job.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "disthash" / "__init__.py").is_file():
        sys.exit(f"error: no disthash sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def collect(name: str, seed: int, seconds: float, modes: tuple[bool, ...]) -> list:
    """Samples in fresh processes, one at a time, until ``seconds`` have
    passed, cycling through ``modes`` (traced or not); the first sample
    is also checked. One string-hash layout for every process, so runs
    differ only in the host."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = []
    t0 = time.perf_counter()
    while not out or len(out) % len(modes) or time.perf_counter() - t0 < seconds:
        traced = modes[len(out) % len(modes)]
        child = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), name, str(seed),
             str(int(traced)), str(int(not out))],
            capture_output=True, env=env, timeout=170)
        if child.returncode != 0:
            sys.stderr.write(child.stderr.decode())
            raise RuntimeError(f"a {name} run exited with code {child.returncode}")
        out.append(pickle.loads(child.stdout))
    if len({s.digest for s in out}) != 1:
        raise RuntimeError("runs of one seed gave different simulated outputs")
    return out


def golden_lines(name: str, seed: int, digest: str) -> list[str]:
    """Digests of the metrics output, compared with the recorded ones.
    Informational: a mismatch is named, not failed."""
    import harness

    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.is_file() else {}
    found = [(f"{name} seed {seed}", digest,
              golden.get("workloads", {}).get(name, {}).get(str(seed)))]
    found += [(f"scenarios/{file}", got, golden.get("scenarios", {}).get(file))
              for file, got in harness.scenario_digests(ROOT).items()]
    return [f"golden {label}: "
            + ("match" if want == got else "not recorded" if want is None else "MISMATCH")
            + f" {got}" for label, got, want in found]


def _median(values: list):
    """Counts stay whole numbers; times take the usual median."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def verdict(chk, fault_free: bool) -> bool:
    """The correctness gate binds the fault-free workloads; on ``churn``
    failed ops and invariant issues are reported, not gated."""
    for g in chk.gate[:20]:
        print(f"  GATE: {g}")
    if chk.gate:
        print(f"correctness gate: FAIL ({len(chk.gate)} violations)")
    elif fault_free:
        print("correctness gate: pass")
    return not chk.gate


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    import harness
    from reference import PROBE_S
    from workloads import generate

    runs = collect(name, seed, seconds, (False,))
    chk = runs[0].check
    wl = generate(name, seed)
    lat = chk.latencies_ms
    delivered = runs[0].delivered
    metrics = {
        "setup_s": (statistics.median(s.setup_ref_s for s in runs), "s"),
        "msgs_per_s": (statistics.median(s.msgs_per_s for s in runs), "1/s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in runs), "MB"),
        "op_fail_ratio": (chk.failed / chk.scheduled, "ratio"),
        "sim_latency_p50_ms": (harness.percentile(lat, 0.50) if lat else 0.0, "ms"),
        "sim_latency_p99_ms": (harness.percentile(lat, 0.99) if lat else 0.0, "ms"),
        "msgs_per_op": (delivered / chk.scheduled, "msg/op"),
        "search_steps_mean": (statistics.fmean(chk.search_steps) if chk.search_steps else 0.0, "steps"),
        "invariant_issues": (len(chk.invariant_issues), "count"),
    }
    samples = {
        "setup_s": f"median of {len(runs)} set-ups, reference seconds",
        "msgs_per_s": f"median of {len(runs)} runs, {delivered} delivered per run, per reference second",
        "peak_rss_mb": f"median of {len(runs)} processes",
        "op_fail_ratio": f"{chk.failed} of {chk.scheduled} scheduled ops",
        "sim_latency_p50_ms": f"{len(lat)} ops that did not fail",
        "sim_latency_p99_ms": f"{len(lat)} ops, {len(lat) - math.ceil(0.99 * len(lat))} beyond",
        "msgs_per_op": f"{delivered} delivered / {chk.scheduled} ops",
        "search_steps_mean": f"{len(chk.search_steps)} search ops",
    }
    print(f"workload {name} seed {seed}: {chk.scheduled} client ops, "
          f"faults {wl.faults or 'none'}, {len(runs)} runs in {seconds:g} s")
    print("open loop in simulated time; generator lag 0 ms (ops are engine timers)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:20s} {_fmt(value):>14s} {unit:7s} {samples.get(key, '')}")
    print(f"  in host seconds: setup_s {statistics.median(s.setup_s for s in runs):.6g} s, "
          f"msgs_per_s {statistics.median(s.host_msgs_per_s for s in runs):.6g} 1/s "
          f"(reference seconds: on a core where the probe takes {PROBE_S:g} s)")
    print(f"  nodes.offrole_errors {runs[0].offrole_errors}")
    print(f"  unfinished ops       {len(chk.unfinished)} {' '.join(chk.unfinished)}")
    for reason, n in sorted(chk.reasons.items()):
        print(f"  failed: {n:5d} {reason}")
    for issue in chk.invariant_issues:
        print(f"  invariant: {issue}")
    print("\n".join(golden_lines(name, seed, runs[0].digest)))
    return {"correct": verdict(chk, wl.fault_free), "attempted": chk.scheduled,
            "failed": chk.failed, "metrics": metrics}


def traced(name: str, seed: int, seconds: float) -> dict:
    from workloads import generate

    runs = collect(name, seed, seconds, (False, True))
    chk = runs[0].check
    plain, tr = runs[0::2], runs[1::2]
    metrics = {k: (_median([s.layers[k][0] for s in tr]), unit)
               for k, (_, unit) in tr[0].layers.items()}
    base = statistics.median(s.msgs_per_s for s in plain)
    slow = statistics.median(s.msgs_per_s for s in tr)
    metrics["trace.msgs_per_s"] = (slow, "1/s")
    metrics["trace.overhead_x"] = (base / slow, "x")
    last = tr[-1]
    total = sum(last.layer_self_s.values())
    print(f"workload {name} seed {seed}: {len(tr)} traced and {len(plain)} untraced runs; "
          f"msgs_per_s untraced {base:.6g}, traced {slow:.6g}, overhead x{base / slow:.3f}")
    print("self time by layer (last traced run):")
    for layer, s in sorted(last.layer_self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:11s} {s:9.4f} s {100 * s / total:5.1f}%")
    print("top spans by self time (last traced run):")
    for key, calls, dur, self_t in last.top_spans:
        print(f"  {key:32s} {calls:9d} calls {self_t:9.4f} s self {dur:9.4f} s total")
    print(".s metrics are self seconds; nodes.handler.s is inclusive; medians over traced runs")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {_fmt(value):>14s} {unit}")
    return {"correct": verdict(chk, generate(name, seed).fault_free),
            "attempted": chk.scheduled, "failed": chk.failed, "metrics": metrics}


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    try:
        report = (traced if trace else end_to_end)(name, seed, seconds)
    except Exception:
        traceback.print_exc()
        print("error: the run failed", file=sys.stderr)
        return 1
    missing = [n for n in wanted if n not in report["metrics"]]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    report["metrics"] = {n: {"value": report["metrics"][n][0], "unit": report["metrics"][n][1]}
                         for n in wanted}
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([run_one(n, args.seed, args.seconds, args.trace) for n in names])


if __name__ == "__main__":
    sys.exit(main())
