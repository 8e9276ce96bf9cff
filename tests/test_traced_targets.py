"""The benchmark's traced targets and the package's exports exist in the library.

A traced benchmark run wraps every ``qdeconv.*`` function listed in ``LAYERS``
of ``bench/qbench/tracing.py`` and fails on a name that is missing, so
retiring or renaming a public function must fail here first.  The same holds
for a name left behind in ``qdeconv.__all__``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "qbench" / "tracing.py"


def _layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("_traced_layers", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_qdeconv_target_is_callable(monkeypatch):
    targets = [t for t in _layers(monkeypatch) if t.module.startswith("qdeconv.")]
    assert targets
    for t in targets:
        home = importlib.import_module(t.module)
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            # the tracer rebinds the classmethod found in the class __dict__
            target = getattr(getattr(home, cls_name, None), "__dict__", {}).get(meth)
            target = getattr(target, "__func__", target)
        else:
            target = getattr(home, t.attr, None)
        assert callable(target), f"{t.module}.{t.attr} is traced but not defined"


def test_every_exported_name_is_unique_and_defined():
    import qdeconv

    names = qdeconv.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(qdeconv, n)]
    assert not missing, f"exported but not defined: {missing}"
