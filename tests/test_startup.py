"""What a fresh ``qdeconv`` process imports, and the CLI run as a real process.

In-process tests import every module up front, so they cannot see a module
loaded at start-up that need not be, nor a broken function-local import.
Each test here starts its own interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import qdeconv as q
from qdeconv.serialization import emit_channel_spec, emit_family, kraus_spec

from conftest import SIGMA

SRC = str(Path(q.__file__).resolve().parents[1])


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _qdeconv(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qdeconv.cli", *args],
        env=_env(), capture_output=True, text=True, timeout=120,
    )


def test_subcommand_paths_import_neither_scipy_nor_scenarios():
    # nor jsonschema and its referencing library: the schemas are a test oracle only
    U1, U2 = np.eye(2, dtype=complex), SIGMA[3]
    _, expected = q.two_unitary_family(U1, U2)
    out = _python(
        """
        import json, sys

        def report_loaded():
            print(sorted(
                m for m in sys.modules
                if m.split(".")[0] in ("scipy", "jsonschema", "referencing") or m == "qdeconv.scenarios"
            ))

        import qdeconv, qdeconv.cli
        report_loaded()

        import numpy as np
        from qdeconv import (
            GuessPair, correctable_family, deconvolved_estimate, guess_sweep, hermitian_section,
            intersect_spans, quorum_basis, random_cptp_channel, random_density_matrix,
            tensor_product_quorum, transfer_from_kraus, two_unitary_family, vectorize, verify_family,
        )
        from qdeconv.channels import random_hermitian
        from qdeconv.serialization import (
            emit_channel_spec, emit_family, kraus_spec, parse_channel_spec, parse_family,
        )

        rng = np.random.default_rng(7)
        true_spec, guess_spec = (
            parse_channel_spec(emit_channel_spec(kraus_spec(name, random_cptp_channel(4, n, rng).kraus)))
            for name, n in (("true", 3), ("guess", 2))
        )
        phi = transfer_from_kraus(true_spec.to_kraus_channel())
        phi_g = transfer_from_kraus(guess_spec.to_kraus_channel())
        gp = GuessPair.from_transfers(phi, phi_g)
        fam = parse_family(emit_family(correctable_family(gp)))
        assert fam.n_params >= 1
        assert verify_family(gp, fam, 5, 1) <= 1e-9
        qb = tensor_product_quorum(quorum_basis(2), 2)
        deconvolved_estimate(gp, random_hermitian(4, rng), random_density_matrix(4, rng), qb, 100, 1)
        guess_sweep(phi, [phi_g, phi])
        span = [vectorize(np.eye(2)), vectorize(np.diag([1.0, -1.0]))]
        assert hermitian_section(span, 2).n_params == 2
        assert len(intersect_spans(span, span[:1])) == 1
        _, fam = two_unitary_family(np.eye(2), np.diag([1.0, -1.0]))
        report_loaded()
        print(json.dumps(json.loads(emit_family(fam))))
        """
    )
    at_start, after_workload, family = out.splitlines()
    assert (at_start, after_workload) == ("[]", "[]")
    assert json.loads(family) == json.loads(emit_family(expected))


def test_deconvolve_and_sweep_do_not_load_numpy_random(tmp_path):
    # its first use costs about 15 ms per process; the kernel's start block
    # is a fixed hash, and d = 8 takes the block iteration
    rng = np.random.default_rng(11)
    paths = []
    for name, n in (("true", 3), ("guess", 2)):
        path = tmp_path / f"{name}.json"
        path.write_text(emit_channel_spec(kraus_spec(name, q.random_cptp_channel(8, n, rng).kraus)))
        paths.append(str(path))
    out = _python(
        f"""
        import sys
        from qdeconv.cli import main

        for args in (["deconvolve", *{paths!r}], ["sweep", *{paths!r}]):
            try:
                main(args, standalone_mode=False)
            except SystemExit as exc:
                assert not exc.code, exc.code
        print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
        """
    )
    assert '"n_params": 1' in out
    assert out.splitlines()[-1] == "[]"


def test_cli_examples_as_a_process():
    listed = _qdeconv("--format", "json", "examples", "list")
    assert listed.returncode == 0, listed.stderr
    assert "ru-three-unitaries" in json.loads(listed.stdout)

    ran = _qdeconv("--format", "json", "examples", "run", "ru-three-unitaries")
    assert ran.returncode == 0, ran.stderr
    doc = json.loads(ran.stdout)
    assert doc["scenario"] == "ru-three-unitaries" and doc["passed"] is True


def test_cli_deconvolve_as_a_process(tmp_path):
    p = 0.3
    bitflip = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * SIGMA[1]]
    true_path, guess_path = tmp_path / "true.json", tmp_path / "guess.json"
    true_path.write_text(emit_channel_spec(kraus_spec("bit flip", bitflip)))
    guess_path.write_text(emit_channel_spec(kraus_spec("identity", [np.eye(2)])))

    proc = _qdeconv("deconvolve", str(true_path), str(guess_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # the bit flip leaves I and sigma_x unchanged
    assert doc["dim"] == 2 and doc["n_params"] == 2
