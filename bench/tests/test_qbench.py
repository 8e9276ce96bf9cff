"""Tests of the benchmark's own arithmetic, tracing, inputs and checks.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qdeconv
from qdeconv import channels, deconvolution, quorum, scenarios
from qbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _tree() -> list[tracing.Span]:
    # job [0, 10] -> a [1, 6] -> b [2, 3], c [4, 5.5]; d [7, 9] under job
    return [
        tracing.Span("job", 0.0, 10.0, None, 1),
        tracing.Span("deconvolution.correctable_family", 1.0, 6.0, 0, 1),
        tracing.Span("deconvolution.verify_family", 2.0, 3.0, 1, 1, {"deconvolution.verify_family.states": 100}),
        tracing.Span("linalg.svd", 4.0, 5.5, 1, 1, {"linalg.svd.flops_computed": 8.0}),
        tracing.Span("deconvolution.verify_family", 7.0, 9.0, 0, 1, {"deconvolution.verify_family.states": 50}),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(_tree()) == pytest.approx([10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0])


def test_summarize_gives_per_job_means_and_self_check_share():
    out = tracing.summarize(_tree(), n_jobs=2)
    assert out["deconvolution.correctable_family.calls"] == 0.5
    assert out["deconvolution.correctable_family.self_ms"] == pytest.approx(2500 / 2)
    assert out["deconvolution.verify_family.calls"] == 1.0
    assert out["deconvolution.verify_family.self_ms"] == pytest.approx(3000 / 2)
    assert out["deconvolution.verify_family.states"] == 75
    assert out["linalg.svd.flops_computed"] == 4.0
    # only the verify_family call inside the constructor is self-check time
    assert out["deconvolution.self_check_share"] == pytest.approx(1.0 / 5.0)
    assert out["quorum.chi_matrix.calls"] == 0.0


def test_tail_leaves_ten_samples_beyond_or_a_quarter():
    assert harness.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert harness.tail(list(range(1, 9))) == (6, 75.0, 2)
    assert harness.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)


def test_cycle_p50_is_the_median_of_cycle_means():
    assert harness.cycle_p50([1.0, 5.0, 2.0], 1) == 2.0
    # two shapes at 1 and 3: the plain median would sit on the border
    assert harness.cycle_p50([1.0, 3.0, 1.2, 3.0, 0.8, 2.8], 2) == 2.0


def test_svd_flops_follow_the_shape():
    assert tracing.svd_flops((4, 4), False) == 4 * 64 + 8 * 64 + 9 * 64
    assert tracing.svd_flops((8, 2), True) == 4 * (4 * 64 * 2 + 8 * 8 * 4 + 9 * 8)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _bindings() -> dict:
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qdeconv" or name.startswith("qdeconv.")):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for mod in (np.linalg, scipy.linalg):
        snap.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    snap[("GuessPair", "from_transfers")] = deconvolution.GuessPair.__dict__["from_transfers"]
    return snap


def test_wrappers_rebind_every_copy_and_restore_every_original():
    import qdeconv.cli  # noqa: F401  (imports names from every layer)

    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert qdeconv.cli.correctable_family is not before[("qdeconv.deconvolution", "correctable_family")]
        assert qdeconv.correctable_family is deconvolution.correctable_family
        assert quorum.modified_observable is deconvolution.modified_observable
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
        assert deconvolution.GuessPair.__dict__["from_transfers"] is not before[("GuessPair", "from_transfers")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_job_records_spans_and_restores_on_error():
    tracer = tracing.Tracer()
    phi = channels.transfer_from_kraus(channels.KrausChannel(dim=2, kraus=(np.eye(2),)))
    with tracer.job(7), tracing.installed(tracer):
        gp = deconvolution.GuessPair.from_transfers(phi, phi)
        deconvolution.correctable_family(gp, self_check=False)
    names = [s.name for s in tracer.spans]
    assert names[0] == "job" and "deconvolution.kernel" in names and "linalg.svd" in names
    assert {s.job for s in tracer.spans} == {7}
    before = _bindings()
    with pytest.raises(ZeroDivisionError), tracing.installed(tracing.Tracer()):
        1 / 0
    assert all(_bindings()[k] is v for k, v in before.items())


def test_calls_outside_a_job_are_not_recorded():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        np.linalg.svd(np.eye(3))
    assert tracer.spans == []


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("cls", [workloads.Scenarios, workloads.ExtractDense, workloads.ShotEstimate])
def test_inputs_are_deterministic_per_seed(cls):
    first, again, other = cls(5, ROOT), cls(5, ROOT), cls(6, ROOT)
    for index in (0, 3):
        assert _same(first.job(index).inputs, again.job(index).inputs)
    assert not _same(first.job(0).inputs, other.job(0).inputs)
    assert not _same(first.job(0).inputs, first.job(len(first.shapes)).inputs)


def test_cli_input_files_are_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.Cli.write_inputs(seed, d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[2].iterdir())
    assert all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
    assert (dirs[0] / "true.json").read_bytes() != (dirs[2] / "true.json").read_bytes()


def test_generated_channels_are_valid_specs(tmp_path):
    files = workloads.Cli.write_inputs(1, tmp_path)
    from qdeconv import serialization

    for key in ("true", "guess", "cand0", "cand1", "cand2", "cand3"):
        serialization.parse_channel_spec(files[key].read_bytes())
    serialization.parse_family(files["family"].read_bytes())


# ---------------------------------------------------------------------------
# Correctness checks reject corrupted outputs
# ---------------------------------------------------------------------------

def _passing_scenario(name: str = "ru-three-unitaries") -> scenarios.ScenarioResult:
    return scenarios.ScenarioResult(
        scenario=name, family_dim=3, expected_family_dim=3, max_delta_nd=1e-15,
        checks=(scenarios.ScenarioCheck.from_bool("ok", True),),
    )


def test_scenario_check():
    good = _passing_scenario()
    assert workloads.check_scenario(good).failure is None
    assert workloads.check_scenario(replace(good, family_dim=4)).failure
    assert workloads.check_scenario(replace(good, max_delta_nd=1e-6)).failure
    red = replace(good, checks=good.checks + (scenarios.ScenarioCheck.from_bool("broken", False),))
    assert workloads.check_scenario(red).failure


def test_scenario_check_counts_designed_red_without_failing():
    label = "deconvolved deviation equals closed form p(1-p)(1-mu)"
    red = replace(_passing_scenario("partial-recovery"),
                  checks=(scenarios.ScenarioCheck.from_bool(label, False),))
    verdict = workloads.check_scenario(red)
    assert verdict.failure is None and verdict.known_red == (label,)
    # the same label on another scenario is a real failure
    assert workloads.check_scenario(replace(red, scenario="bitflip-memory")).failure


def test_identity_family_check():
    d = 4
    ident = deconvolution.ObservableFamily.from_basis(d, [np.eye(d) / 2])
    assert workloads.check_identity_family(ident).failure is None
    assert workloads.check_identity_family(
        deconvolution.ObservableFamily.from_basis(d, [-np.eye(d) / 2])).failure is None
    two = deconvolution.ObservableFamily.from_basis(
        d, [np.eye(d) / 2, np.diag([1, -1, 1, -1]).astype(complex) / 2])
    assert "n_params" in workloads.check_identity_family(two).failure
    other = deconvolution.ObservableFamily.from_basis(d, [np.diag([1, -1, 1, -1]).astype(complex) / 2])
    assert workloads.check_identity_family(other).failure


def test_estimate_check():
    assert workloads.check_estimate(1.0, 0.1, 1.3).failure is None
    assert workloads.check_estimate(1.0, 0.1, 1.6).failure
    assert workloads.check_estimate(1.0, 0.0, 1.0).failure


def _proc(stdout, code=0):
    return subprocess.CompletedProcess([], code, stdout=json.dumps(stdout) if not isinstance(stdout, str) else stdout,
                                       stderr="boom")


def test_cli_checks():
    cli = workloads.Cli.__new__(workloads.Cli)
    cli.reference = {"n_params": 1, "ranking": [[0, 1], [1, 1], [3, 1], [2, -1]]}
    assert cli.check("deconvolve", _proc({"n_params": 1})).failure is None
    assert cli.check("deconvolve", _proc({"n_params": 2})).failure
    assert cli.check("deconvolve", _proc({"n_params": 1}, code=1)).failure
    assert cli.check("deconvolve", _proc("not json")).failure
    assert cli.check("verify", _proc({"passed": True, "max_delta_nd": 0})).failure is None
    assert cli.check("verify", _proc({"passed": False, "max_delta_nd": 1})).failure
    est = {"mean": 0.5, "std_error": 0.01, "exact_deconvolved": 0.52}
    assert cli.check("estimate", _proc(est)).failure is None
    assert cli.check("estimate", _proc({**est, "mean": 0.6})).failure
    rows = [{"index": i, "n_params": n} for i, n in cli.reference["ranking"]]
    assert cli.check("sweep", _proc(rows)).failure is None
    assert cli.check("sweep", _proc(rows[::-1])).failure
    # known answers hold even when the in-process reference agrees with a wrong result
    cli.reference = {"n_params": 2, "ranking": [[0, 1], [1, 1], [2, 1], [3, 1]]}
    assert "!= 1" in cli.check("deconvolve", _proc({"n_params": 2})).failure
    wrong = [{"index": i, "n_params": n} for i, n in cli.reference["ranking"]]
    assert "cand2" in cli.check("sweep", _proc(wrong)).failure


def test_run_exits_without_result_when_sources_are_missing(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_bytes((ROOT / "bench" / "run.py").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spread_skips_a_run_that_prints_no_result(tmp_path, monkeypatch, capsys):
    import spread

    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}})

    def fake_run(cmd, **kwargs):
        empty = cmd[cmd.index("--workload") + 1] == "cli" and cmd[cmd.index("--seed") + 1] == "1"
        return subprocess.CompletedProcess(cmd, 2 if empty else 0, stdout="" if empty else f"table\n{line}\n",
                                           stderr="error: no sources")

    monkeypatch.setattr(spread, "ROOT", tmp_path)
    monkeypatch.setattr(spread.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["spread.py", "--seeds", "1-2"])
    assert spread.main() == 0
    assert "cli seed 1: exit 2, no result" in capsys.readouterr().err
    table = json.loads((tmp_path / "bench" / "out" / "spread-seeds1-2.json").read_text())
    assert table["cli"]["setup_s"]["values"] == [1.0]
    assert table["scenarios"]["setup_s"]["values"] == [1.0, 1.0]


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == harness.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_jobs_per_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
