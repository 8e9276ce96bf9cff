"""Run one benchmark workload against the qdeconv sources in this checkout.

Usage::

    python3 bench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout; qdeconv is imported from ``src/`` (it is
not installed).  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics, with ``--trace 1`` the per-layer metrics.  The
full result, with the environment and every job's latency, is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's spans
to ``...-spans.json.gz`` beside it.  Exit code 0 when every
job's output passed its check, 1 when one failed, 2 when the sources or the
arguments are missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("scenarios", "extract-dense", "shot-estimate", "cli")
BLAS_THREADS = 1


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qdeconv" / "__init__.py").is_file():
        print(f"error: no qdeconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one process and one BLAS thread, set before numpy loads: an idle
    # OpenBLAS worker spin-waits on the second core, which doubles the CPU
    # used and makes the timings follow whatever else runs on the machine
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    import qdeconv
    from qbench import harness

    if Path(qdeconv.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: imported qdeconv from {qdeconv.__file__}, not from this checkout", file=sys.stderr)
        return 2

    doc, tracer = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, T0)
    doc["environment"] = harness.environment(ROOT, args.seed, BLAS_THREADS, nproc)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump(tracer.export(), fh)
    result_file = out_dir / f"{stem}.json"
    result_file.write_text(json.dumps(doc, indent=1))

    correct = doc["failed"] == 0
    for f in doc["failures"]:
        print(f"FAILED {f['shape']}: {f['reason']}")
    if doc["known_red"]:
        print(f"known red (counted in error_rate): {doc['known_red']} jobs, checks {doc['known_red_checks']}")
    for name, m in doc["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted {doc['attempted']}  failed {doc['failed']}  error_rate {doc['error_rate']:.4f}  "
          f"result {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
