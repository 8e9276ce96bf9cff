"""The README's Python quick example and command-line examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import qdeconv as q
from qdeconv.channels import random_hermitian
from qdeconv.cli import main
from qdeconv.serialization import emit_channel_spec, emit_hermitian_matrix, kraus_spec

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(q.__file__).resolve().parents[1])


def test_readme_quick_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "expected exactly one python block in the README"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.MULTILINE | re.DOTALL).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qdeconv ")]
    assert commands and commands[0][0] == "deconvolve", "expected the block to open with qdeconv deconvolve"
    rng = np.random.default_rng(3)
    for name in ("true", "guess", "candidate_a", "candidate_b"):
        spec = kraus_spec(name, q.random_cptp_channel(2, 2, rng).kraus)
        (tmp_path / f"{name}.json").write_text(emit_channel_spec(spec))
    (tmp_path / "observable.json").write_text(emit_hermitian_matrix(random_hermitian(2, rng)))
    (tmp_path / "state.json").write_text(emit_hermitian_matrix(q.random_density_matrix(2, rng)))
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    # in order: the family.json that deconvolve writes feeds verify
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
