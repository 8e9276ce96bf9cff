"""Run every workload on several seeds and report each metric's median and spread.

Usage::

    python3 bench/spread.py --seeds 1-10

Takes the workloads and the run length from ``BENCHMARK.json`` and runs
``bench/run.py --trace 0`` once per (seed, workload), one at a time.  The
workloads take turns within each seed, so a drift in machine speed lands on
all of them alike.  Prints for each end-to-end metric the median, the
quartiles and the spread, which is the distance between the quartiles as a
share of the median (``statistics.quantiles(values, n=4)``).  The table is
also written to ``bench/out/spread-seeds<first>-<last>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range such as 1-10")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.splitlines()
            if not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result; skipped\n{proc.stderr[-500:]}",
                      file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result['correct']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

    table: dict[str, dict] = {}
    for workload in workloads:
        table[workload] = {}
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else float("nan")
            table[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:14s} {name:24s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}")
    out = ROOT / "bench" / "out" / f"spread-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
