"""The benchmark workloads: seeded inputs, one job at a time, and its check.

Every job is made from ``(workload seed, job index)`` alone, so the same seed
gives the same inputs.  Inputs are drawn with numpy here, not with qdeconv's
own samplers, so a change to the program cannot change what it is fed.  Jobs
call qdeconv through module attributes (``deconvolution.correctable_family``)
so that a traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from qdeconv import channels, deconvolution, quorum, scenarios, serialization

from . import tracing

#: Largest admissible deviation of a recovered expectation value.
DELTA_TOL = 1e-9

#: A shot estimate fails when it is further than this many standard errors
#: from the exact deconvolved value.
SIGMA_TOL = 5.0

#: Default of the CLI's ``--kernel-tol``.
CLI_KERNEL_TOL = 1e-8

#: Scenario checks that are red by design and stay in the mix.  The
#: partial-recovery simulation gives exactly 4x the closed forms quoted for
#: it (acceptance criterion 7), and the benchmark must not hide that.
KNOWN_RED = {
    "partial-recovery": frozenset({
        "noisy deviation equals closed form p[(1-p)(1-mu)+x]",
        "deconvolved deviation equals closed form p(1-p)(1-mu)",
    }),
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of the correctness check on one job's output."""

    failure: Optional[str] = None
    #: Labels of designed-red checks that failed; the job still counts in
    #: ``error_rate`` but is not an unexpected failure.
    known_red: tuple[str, ...] = ()


@dataclass
class Job:
    shape: str
    run: Callable[[Optional[tracing.Tracer]], Any]
    check: Callable[[Any], Verdict]
    #: The parts of the output a traced run must reproduce exactly.
    fingerprint: Callable[[Any], Any]
    inputs: dict = field(default_factory=dict)


def job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_kraus(d: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random CPTP map: blocks of a random isometry."""
    Q, _ = np.linalg.qr(_ginibre(rng, n * d, d))
    return [Q[k * d:(k + 1) * d] for k in range(n)]


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    G = _ginibre(rng, d, d)
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_observable(d: int, rng: np.random.Generator) -> np.ndarray:
    G = _ginibre(rng, d, d)
    return 0.5 * (G + G.conj().T)


def _transfer(kraus: list[np.ndarray]) -> channels.TransferMatrix:
    return channels.transfer_from_kraus(channels.KrausChannel(dim=kraus[0].shape[0], kraus=tuple(kraus)))


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def check_scenario(result: scenarios.ScenarioResult) -> Verdict:
    if result.family_dim != result.expected_family_dim:
        return Verdict(f"family_dim {result.family_dim} != expected {result.expected_family_dim}")
    if not result.max_delta_nd <= DELTA_TOL:
        return Verdict(f"max_delta_nd {result.max_delta_nd:.3e} > {DELTA_TOL:g}")
    red = tuple(c.label for c in result.checks if not c.passed)
    unexpected = [label for label in red if label not in KNOWN_RED.get(result.scenario, ())]
    if unexpected:
        return Verdict(f"failed checks: {unexpected}")
    return Verdict(known_red=red)


def check_identity_family(fam: deconvolution.ObservableFamily) -> Verdict:
    if fam.n_params != 1:
        return Verdict(f"n_params {fam.n_params} != 1")
    target = np.eye(fam.dim) / np.sqrt(fam.dim)
    A = fam.basis[0]
    residual = min(np.abs(A - target).max(), np.abs(A + target).max())
    if not residual <= DELTA_TOL:
        return Verdict(f"basis element is not +-I/sqrt(d) (residual {residual:.3e})")
    return Verdict()


def check_estimate(mean: float, std_error: float, exact: float) -> Verdict:
    if not std_error > 0:
        return Verdict(f"std_error {std_error} is not positive")
    if not abs(mean - exact) <= SIGMA_TOL * std_error:
        return Verdict(f"estimate {mean:.6g} is {abs(mean - exact) / std_error:.1f} std errors from {exact:.6g}")
    return Verdict()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Scenarios:
    """The eight reference scenarios in registration order, one per job."""

    name = "scenarios"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.shapes = tuple(scenarios.scenario_names())

    def job(self, index: int) -> Job:
        name = self.shapes[index % len(self.shapes)]
        overrides = {"seed": int(job_rng(self.seed, index).integers(2**31))}
        return Job(
            shape=name,
            run=lambda tracer: scenarios.run_scenario(name, overrides),
            check=check_scenario,
            fingerprint=lambda r: (r.family_dim, r.passed, tuple(c.passed for c in r.checks)),
            inputs={"name": name, "overrides": overrides},
        )


class ExtractDense:
    """What ``qdeconv deconvolve`` does at d = 32 on random CPTP channels."""

    name = "extract-dense"
    shapes = ("extract",)
    dim = 32

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    def job(self, index: int) -> Job:
        rng = job_rng(self.seed, index)
        true_kraus = random_kraus(self.dim, 3, rng)
        guess_kraus = random_kraus(self.dim, 2, rng)

        def run(tracer):
            gp = deconvolution.GuessPair.from_transfers(_transfer(true_kraus), _transfer(guess_kraus))
            return deconvolution.correctable_family(gp)

        return Job(
            shape="extract",
            run=run,
            check=check_identity_family,
            fingerprint=lambda fam: fam.n_params,
            inputs={"true": true_kraus, "guess": guess_kraus},
        )


class ShotEstimate:
    """What ``qdeconv estimate --quorum-dim 2 --shots 10000`` does on 4 qubits."""

    name = "shot-estimate"
    shapes = ("estimate",)
    qubits = 4
    shots = 10_000

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    def job(self, index: int) -> Job:
        d = 2**self.qubits
        rng = job_rng(self.seed, index)
        true_kraus = random_kraus(d, 3, rng)
        guess_kraus = random_kraus(d, 2, rng)
        A = random_observable(d, rng)
        rho = random_state(d, rng)
        shot_seed = int(rng.integers(2**31))

        def run(tracer):
            qb = quorum.pauli_product_quorum(self.qubits)
            gp = deconvolution.GuessPair.from_transfers(_transfer(true_kraus), _transfer(guess_kraus))
            est = quorum.deconvolved_estimate(gp, A, rho, qb, self.shots, shot_seed)
            return est, deconvolution.evaluate(gp, A, rho)

        return Job(
            shape="estimate",
            run=run,
            check=lambda out: check_estimate(out[0].mean, out[0].std_error, out[1].deconvolved),
            fingerprint=lambda out: (out[0].mean, out[0].std_error),
            inputs={"true": true_kraus, "guess": guess_kraus, "observable": A, "state": rho, "seed": shot_seed},
        )


def _matrix_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def kraus_spec_text(name: str, kraus: list[np.ndarray]) -> str:
    doc = {"schema_version": 1, "kind": "kraus", "dim": kraus[0].shape[0], "name": name,
           "kraus": [_matrix_json(K) for K in kraus]}
    return json.dumps(doc)


def matrix_text(M: np.ndarray) -> str:
    return json.dumps({"dim": M.shape[0], "matrix": _matrix_json(M)})


def child_env(root: Path, extra_path: tuple[Path, ...] = ()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (root / "src", *extra_path))
    return env


class Cli:
    """One ``python -m qdeconv.cli`` process per job, on d = 4 spec files."""

    name = "cli"
    shapes = ("deconvolve", "verify", "estimate", "sweep")
    dim = 4

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.dir = root / "bench" / "out" / f"cli-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = self.write_inputs(seed, self.dir)
        self.reference = self._in_process_reference()

    @classmethod
    def write_inputs(cls, seed: int, out: Path) -> dict[str, Path]:
        """Spec, observable, state and family files for the four subcommands."""
        d = cls.dim
        rng = job_rng(seed, 0)
        true_kraus = random_kraus(d, 3, rng)
        guess_kraus = random_kraus(d, 2, rng)
        # completely depolarizing: CPTP with a rank-one transfer matrix, so the
        # sweep always meets one singular candidate
        depolarizing = [np.outer(np.eye(d)[i], np.eye(d)[j]) / np.sqrt(d) for i in range(d) for j in range(d)]
        Q, R = np.linalg.qr(_ginibre(rng, d, d))
        unitary = [Q * (np.diag(R) / np.abs(np.diag(R)))]
        texts = {
            "true": kraus_spec_text("true", true_kraus),
            "guess": kraus_spec_text("guess", guess_kraus),
            "cand0": kraus_spec_text("guess", guess_kraus),
            "cand1": kraus_spec_text("random", random_kraus(d, 2, rng)),
            "cand2": kraus_spec_text("depolarizing", depolarizing),
            "cand3": kraus_spec_text("unitary", unitary),
            "observable": matrix_text(random_observable(d, rng)),
            "state": matrix_text(random_state(d, rng)),
        }
        # identity alone: correctable for every pair of trace-preserving maps
        texts["family"] = json.dumps({
            "schema_version": 1, "dim": d, "n_params": 1, "basis": [_matrix_json(np.eye(d) / np.sqrt(d))],
        })
        files = {}
        for key, text in texts.items():
            files[key] = out / f"{key}.json"
            files[key].write_text(text)
        return files

    def _in_process_reference(self) -> dict:
        """``n_params`` and sweep ranking computed in-process, as the CLI does:
        its default ``--kernel-tol`` serves as guess cutoff and kernel threshold."""
        f = self.files
        load = lambda key: channels.transfer_from_kraus(
            serialization.parse_channel_spec(f[key].read_bytes()).to_kraus_channel())
        phi = load("true")
        gp = deconvolution.GuessPair.from_transfers(phi, load("guess"), CLI_KERNEL_TOL)
        ranking = deconvolution.guess_sweep(phi, [load(f"cand{i}") for i in range(4)], CLI_KERNEL_TOL)
        return {
            "n_params": deconvolution.correctable_family(gp, CLI_KERNEL_TOL).n_params,
            "ranking": [[idx, n] for idx, n in ranking],
        }

    def argv(self, shape: str) -> list[str]:
        f = {k: str(v) for k, v in self.files.items()}
        cands = [f[f"cand{i}"] for i in range(4)]
        return {
            "deconvolve": ["deconvolve", f["true"], f["guess"]],
            "verify": ["verify", f["family"], f["true"], f["guess"], "--states", "100"],
            "estimate": ["estimate", f["observable"], f["state"], f["true"], f["guess"],
                         "--shots", "10000", "--quorum-dim", "2"],
            "sweep": ["sweep", f["true"], *cands],
        }[shape]

    def run_command(self, shape: str, index: int, tracer: Optional[tracing.Tracer]) -> subprocess.CompletedProcess:
        args = ["--format", "json", *self.argv(shape)]
        if tracer is None:
            cmd = [sys.executable, "-m", "qdeconv.cli", *args]
            env = child_env(self.root)
        else:
            spans_file = self.dir / f"spans-{index}.json"
            cmd = [sys.executable, "-m", "qbench.cli_child", str(spans_file), *args]
            env = child_env(self.root, (self.root / "bench",))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=self.root, timeout=120)
        if tracer is not None:
            tracer.adopt(json.loads(spans_file.read_text()))
            spans_file.unlink()
        return proc

    def check(self, shape: str, proc: subprocess.CompletedProcess) -> Verdict:
        if proc.returncode != 0:
            return Verdict(f"{shape} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return Verdict(f"{shape} printed no JSON document: {exc}")
        # known answers first: a random CPTP pair makes the identity alone
        # correctable, and the depolarizing candidate cand2 is singular; the
        # in-process reference then catches wiring and serialization faults
        if shape == "deconvolve" and doc["n_params"] != 1:
            return Verdict(f"deconvolve n_params {doc['n_params']} != 1")
        if shape == "deconvolve" and doc["n_params"] != self.reference["n_params"]:
            return Verdict(f"deconvolve n_params {doc['n_params']} != in-process {self.reference['n_params']}")
        if shape == "verify" and doc["passed"] is not True:
            return Verdict(f"verify did not pass (max_delta_nd {doc['max_delta_nd']})")
        if shape == "estimate":
            return check_estimate(doc["mean"], doc["std_error"], doc["exact_deconvolved"])
        if shape == "sweep":
            ranking = [[row["index"], row["n_params"]] for row in doc]
            if [2, -1] not in ranking:
                return Verdict(f"sweep ranking {ranking} does not mark the depolarizing cand2 singular (-1)")
            if ranking != self.reference["ranking"]:
                return Verdict(f"sweep ranking {ranking} != in-process {self.reference['ranking']}")
        return Verdict()

    @staticmethod
    def fingerprint(shape: str, proc: subprocess.CompletedProcess) -> Any:
        doc = json.loads(proc.stdout)
        if shape == "deconvolve":
            return doc["n_params"]
        if shape == "verify":
            return doc["passed"]
        if shape == "estimate":
            return doc["mean"], doc["std_error"]
        return [(row["index"], row["n_params"]) for row in doc]

    def job(self, index: int) -> Job:
        shape = self.shapes[index % len(self.shapes)]
        return Job(
            shape=shape,
            run=lambda tracer: self.run_command(shape, index, tracer),
            check=lambda proc: self.check(shape, proc),
            fingerprint=lambda proc: self.fingerprint(shape, proc),
            inputs={"argv": self.argv(shape)},
        )


WORKLOADS = {w.name: w for w in (Scenarios, ExtractDense, ShotEstimate, Cli)}
