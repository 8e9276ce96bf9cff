"""The README's Python quick example runs as written, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import qdeconv as q

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
