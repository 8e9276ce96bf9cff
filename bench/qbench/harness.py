"""Closed-loop timing of one workload, with one client and one job in flight.

An untraced run times whole cycles of jobs (one job of each shape) until the
run length has passed, and turns the latencies into the end-to-end metrics.
A traced run times every job twice on the same inputs, once plain and once
through the tracing wrappers, alternating which goes first; the plain timings
give the per-shape medians, the traced spans the per-layer breakdown, and the
difference between the two the tracing overhead.
"""

from __future__ import annotations

import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from qdeconv.scenarios import scenario_names

from . import tracing
from .workloads import WORKLOADS, Cli, Job, Scenarios, Verdict, child_env

#: At most this many samples lie beyond the reported tail latency.
TAIL_BEYOND = 10

#: Fresh interpreters started to time start-up and ``import qdeconv.cli``.
STARTUP_REPEATS = 3


@dataclass
class Record:
    shape: str
    seconds: float
    verdict: Verdict
    fingerprint: Any = None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with ``TAIL_BEYOND`` samples above it.

    With fewer than ``4 * TAIL_BEYOND`` samples that rank would sit near or
    below the median, so a quarter of the samples, rounded down, are left
    above it instead.  Returns (value, percentile, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def run_job(job: Job, tracer: Optional[tracing.Tracer] = None) -> Record:
    """Run and time one job, then check its output.

    Any exception the program raises is this job's failure, recorded with
    its traceback on stderr; the loop goes on with the next job.
    """
    start = time.perf_counter()
    try:
        out = job.run(tracer)
    except Exception as exc:
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Record(job.shape, seconds, Verdict(f"raised {type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - start
    verdict = job.check(out)
    return Record(job.shape, seconds, verdict, job.fingerprint(out) if verdict.failure is None else None)


def run_traced_job(job: Job, tracer: tracing.Tracer, job_id: int) -> Record:
    with tracer.job(job_id), tracing.installed(tracer):
        return run_job(job, tracer)


def warm_up(wl) -> list[Record]:
    """One untimed job of each shape, so lazy set-up and first calls finish."""
    return [run_job(wl.job(i)) for i in range(len(wl.shapes))]


def untraced_loop(wl, seconds: float) -> tuple[list[Record], float]:
    records = []
    index = len(wl.shapes)
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        for _ in wl.shapes:
            records.append(run_job(wl.job(index)))
            index += 1
    return records, time.perf_counter() - start


def traced_loop(wl, seconds: float, tracer: tracing.Tracer) -> tuple[list[Record], list[Record]]:
    plain, traced = [], []
    index = len(wl.shapes)
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        for _ in wl.shapes:
            job = wl.job(index)
            # each shape alternates which run goes first from cycle to cycle
            if (index // len(wl.shapes)) % 2:
                traced.append(run_traced_job(job, tracer, index))
                plain.append(run_job(job))
            else:
                plain.append(run_job(job))
                traced.append(run_traced_job(job, tracer, index))
            if plain[-1].fingerprint != traced[-1].fingerprint and traced[-1].verdict.failure is None:
                traced[-1].verdict = Verdict("traced output differs from the untraced run")
            index += 1
    return plain, traced


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cycle_p50(latencies: list[float], cycle: int) -> float:
    """Median over whole cycles of the mean job latency within the cycle.

    With one shape this is the median job latency.  With several, the plain
    median of all jobs falls on the border between two shapes (on
    ``scenarios``, between ``ru-two-qubit`` at about 130 ms and
    ``ru-degenerate`` at about 220 ms) and jumps between them from run to run.
    """
    return statistics.median(statistics.fmean(latencies[i:i + cycle]) for i in range(0, len(latencies), cycle))


def end_to_end(records: list[Record], wall: float, setup_s: float, cycle: int,
               children: bool) -> tuple[dict, dict]:
    ms = [r.seconds * 1e3 for r in records]
    tail_ms, percentile, beyond = tail(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (cycle_p50(ms, cycle), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_jobs_per_s": (len(records) / wall, "jobs/s"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
    }
    detail = {"tail_percentile": percentile, "tail_samples_beyond": beyond, "jobs": len(records), "wall_s": wall}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def _wall(cmd: list[str], env: dict, cwd: Path) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def startup_ms(root: Path) -> dict[str, float]:
    """Bare interpreter start-up and ``import qdeconv.cli`` in a fresh process."""
    env = child_env(root)
    code = "import time; t = time.perf_counter(); import qdeconv.cli; print(time.perf_counter() - t)"
    bare, imports = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(_wall([sys.executable, "-c", "pass"], env, root))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout))
    return {"cli.interpreter_ms": statistics.median(bare) * 1e3, "cli.import_ms": statistics.median(imports) * 1e3}


def per_shape_p50(records: list[Record], prefix: str, shapes: tuple[str, ...]) -> dict[str, float]:
    return {
        f"{prefix}.{shape}.p50_ms": statistics.median(r.seconds * 1e3 for r in records if r.shape == shape)
        for shape in shapes
    }


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    return [
        *tracing.metric_names(),
        *(f"scenarios.{name}.p50_ms" for name in scenario_names()),
        "cli.interpreter_ms",
        "cli.import_ms",
        *(f"cli.{shape}.p50_ms" for shape in Cli.shapes),
        "trace.overhead_ms",
        "trace.overhead_share",
    ]


def per_layer(wl, plain: list[Record], traced: list[Record], tracer: tracing.Tracer, root: Path) -> dict:
    """Per-layer metrics of a traced run; layers a workload never enters read 0."""
    values = dict.fromkeys(per_layer_names(), 0.0)
    values.update(tracing.summarize(tracer.spans, len(traced)))
    if isinstance(wl, Scenarios):
        values.update(per_shape_p50(plain, "scenarios", wl.shapes))
    if isinstance(wl, Cli):
        values.update(per_shape_p50(plain, "cli", wl.shapes))
    values.update(startup_ms(root))
    plain_mean = statistics.fmean(r.seconds for r in plain) * 1e3
    overhead = statistics.fmean(r.seconds for r in traced) * 1e3 - plain_mean
    values["trace.overhead_ms"] = overhead
    values["trace.overhead_share"] = overhead / plain_mean
    return values


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_commit(root: Path) -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository.

    ``--git-dir`` keeps git from looking for a repository above ``root``.
    """
    try:
        out = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, seed: int, blas_threads: int, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, t0: float) -> tuple[dict, Optional[tracing.Tracer]]:
    """Set up, warm up and time one workload.

    Returns the result document and, for a traced run, the tracer holding
    its spans.  ``t0`` is the ``perf_counter`` reading taken when the process
    started, so ``setup_s`` covers imports, input generation and the warm-up
    jobs.  Warm-up jobs are checked and counted like the timed ones.
    """
    wl = WORKLOADS[name](seed, root)
    warm = warm_up(wl)
    setup_s = time.perf_counter() - t0
    doc: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    tracer = None

    if trace:
        tracer = tracing.Tracer()
        plain, traced = traced_loop(wl, seconds, tracer)
        layers = per_layer(wl, plain, traced, tracer, root)
        doc["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        records = plain + traced
    else:
        records, wall = untraced_loop(wl, seconds)
        doc["metrics"], doc["latency"] = end_to_end(records, wall, setup_s, len(wl.shapes), isinstance(wl, Cli))

    checked = warm + records
    failures = [r for r in checked if r.verdict.failure is not None]
    known_red = [r for r in checked if r.verdict.failure is None and r.verdict.known_red]
    doc.update(
        attempted=len(checked),
        failed=len(failures),
        known_red=len(known_red),
        error_rate=(len(failures) + len(known_red)) / len(checked),
        failures=[{"shape": r.shape, "reason": r.verdict.failure} for r in failures],
        known_red_checks=sorted({label for r in known_red for label in r.verdict.known_red}),
        jobs=[{"shape": r.shape, "ms": r.seconds * 1e3, "ok": r.verdict.failure is None} for r in records],
    )
    return doc, tracer


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".calls"):
        return "count"
    return {
        "deconvolution.verify_family.states": "count",
        "quorum.sample_expectation.shots": "count",
        "serialization.input_bytes": "bytes",
        "linalg.svd.flops_computed": "flop",
        "deconvolution.self_check_share": "ratio",
        "trace.overhead_share": "ratio",
    }[metric]
