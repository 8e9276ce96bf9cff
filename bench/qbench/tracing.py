"""In-memory spans around the calls into each qdeconv layer.

A traced job installs wrappers on the public functions listed in ``LAYERS``,
records one span per call (name, start, end, parent, job) and restores every
original binding afterwards.  ``from .x import y`` copies a binding into the
importing module, so a wrapper is installed under every qdeconv module name
that holds the original object, not only in the defining module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _input_bytes(args: tuple, kwargs: dict) -> dict:
    return {"serialization.input_bytes": len(_arg(args, kwargs, 0, "text", b""))}


def svd_flops(shape: tuple[int, ...], is_complex: bool) -> float:
    """Operation count of one dense SVD with the full U and V, from its shape.

    Golub & Van Loan (Matrix Computations, 4th ed., sec. 8.6.3) give
    4m^2n + 8mn^2 + 9n^3 for a real m x n matrix with m >= n.  A complex flop
    counts as four real ones.  Every SVD qdeconv takes is of this kind.
    """
    rows, cols = shape[-2:]
    m, n = max(rows, cols), min(rows, cols)
    flops = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    return flops * (4 if is_complex else 1)


def _svd_counts(args: tuple, kwargs: dict) -> dict:
    a = _arg(args, kwargs, 0, "a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return {}
    is_complex = getattr(a, "dtype", None) is not None and a.dtype.kind == "c"
    return {"linalg.svd.flops_computed": svd_flops(shape, is_complex)}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how its spans are named."""

    layer: str
    module: str
    attr: str  # "name" or "Class.method" (a classmethod)
    metric: str  # function part of the metric names
    counts: Optional[Callable[[tuple, dict], dict]] = None


def _layer(layer: str, module: str, attrs: list[str], counts: Optional[dict] = None) -> list[Target]:
    counts = counts or {}
    return [Target(layer, module, a, a, counts.get(a)) for a in attrs]


#: Public functions wrapped in a traced run, grouped by layer.  Hot helpers
#: (``hs_inner``, ``is_hermitian``, ``vectorize``) are left out on purpose:
#: they run millions of times and their wrapper would dominate the span.
LAYERS: tuple[Target, ...] = tuple(
    _layer("channels", "qdeconv.channels",
           ["transfer_from_kraus", "inverse_transfer", "compose", "apply_channel", "is_cptp"])
    + _layer("deconvolution", "qdeconv.deconvolution",
             ["GuessPair.from_transfers", "deviation_operator", "kernel", "joint_kernel",
              "hermitian_section", "intersect_spans", "correctable_family",
              "common_correctable_family", "verify_family", "evaluate", "modified_observable"],
             {"verify_family": lambda a, k: {"deconvolution.verify_family.states": _arg(a, k, 2, "n_states", 0)}})
    + _layer("random_unitary", "qdeconv.random_unitary",
             ["invariant_subspace", "ru_correctable_family", "two_unitary_family", "commutant_family"])
    + _layer("quorum", "qdeconv.quorum",
             ["quorum_basis", "tensor_product_quorum", "chi_matrix", "decompose",
              "sample_expectation", "deconvolved_estimate"],
             {"sample_expectation": lambda a, k: {"quorum.sample_expectation.shots": _arg(a, k, 2, "shots", 0)}})
    + _layer("serialization", "qdeconv.serialization",
             ["parse_channel_spec", "parse_family", "parse_hermitian_matrix", "emit_family"],
             {"parse_channel_spec": _input_bytes, "parse_family": _input_bytes,
              "parse_hermitian_matrix": _input_bytes})
    + _layer("scenarios", "qdeconv.scenarios", ["run_scenario"])
    + [
        Target("linalg", "numpy.linalg", "svd", "svd", _svd_counts),
        Target("linalg", "numpy.linalg", "eigh", "eigh"),
        Target("linalg", "numpy.linalg", "eigvalsh", "eigh"),
        Target("linalg", "scipy.linalg", "schur", "schur"),
    ]
)

#: Family constructors whose built-in Monte-Carlo self-check is measured by
#: ``deconvolution.self_check_share``.
FAMILY_CONSTRUCTORS = frozenset({"deconvolution.correctable_family", "deconvolution.common_correctable_family"})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[int] = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of the jobs run while it is active, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: Optional[int] = None

    @property
    def active(self) -> bool:
        return self._job is not None

    @contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        """Root span of one job; calls outside a job are not recorded."""
        self._job = job_id
        idx = self.open("job")
        try:
            yield
        finally:
            self.close(idx)
            self._job = None

    def open(self, name: str, counts: Optional[dict] = None) -> Optional[int]:
        if self._job is None:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, job=self._job, counts=counts or {}))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: Optional[int]) -> None:
        if idx is None:
            return
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} is open")

    def adopt(self, spans: list[dict]) -> None:
        """Attach spans recorded by a child process under the open span.

        ``spans`` is the child's list of ``Span`` fields; parents index into
        that list and ``None`` marks the child's roots.
        """
        if self._job is None:
            raise RuntimeError("adopt() needs an open job")
        base = len(self.spans)
        root = self._stack[-1]
        for s in spans:
            parent = root if s["parent"] is None else base + s["parent"]
            self.spans.append(Span(s["name"], s["start"], s["end"], parent, self._job, dict(s["counts"])))

    def export(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job, "counts": s.counts}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _wrap(fn: Callable, name: str, tracer: Tracer, counts: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name, counts(args, kwargs) if counts and tracer.active else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _qdeconv_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "qdeconv" or n.startswith("qdeconv."))]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every binding of each ``LAYERS`` target through a span-recording wrapper.

    On exit every rebound name, including classmethods, gets back the exact
    object it held before.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for t in LAYERS:
            home = importlib.import_module(t.module)
            name = f"{t.layer}.{t.metric}"
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                saved.append((cls, meth, original))
                setattr(cls, meth, classmethod(_wrap(original.__func__, name, tracer, t.counts)))
                continue
            original = getattr(home, t.attr)
            wrapper = _wrap(original, name, tracer, t.counts)
            for mod in [home, *_qdeconv_modules()]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: Counts recorded beside the span timings, as metric names.
COUNT_METRICS = (
    "deconvolution.verify_family.states",
    "deconvolution.self_check_share",
    "quorum.sample_expectation.shots",
    "serialization.input_bytes",
    "linalg.svd.flops_computed",
)


def metric_names() -> list[str]:
    """Per-layer metric names derived from the traced spans, in table order."""
    names: dict[str, None] = {}
    for t in LAYERS:
        names[f"{t.layer}.{t.metric}.calls"] = None
        names[f"{t.layer}.{t.metric}.self_ms"] = None
    names.update(dict.fromkeys(COUNT_METRICS))
    return list(names)


def _has_ancestor(spans: list[Span], idx: int, names: frozenset) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span], n_jobs: int) -> dict[str, float]:
    """Per-job mean of calls, self time and counts for every traced function.

    ``deconvolution.self_check_share`` is the time spent in ``verify_family``
    called from a family constructor over the time of the outermost family
    constructor calls (0 when no constructor ran).
    """
    out = dict.fromkeys(metric_names(), 0.0)
    for s, own in zip(spans, self_times(spans)):
        if s.name == "job":
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_ms"] += own * 1e3
        for key, value in s.counts.items():
            out[key] += value
    for key in out:
        out[key] /= max(n_jobs, 1)

    check = build = 0.0
    for i, s in enumerate(spans):
        if s.name == "deconvolution.verify_family" and _has_ancestor(spans, i, FAMILY_CONSTRUCTORS):
            check += s.end - s.start
        elif s.name in FAMILY_CONSTRUCTORS and not _has_ancestor(spans, i, FAMILY_CONSTRUCTORS):
            build += s.end - s.start
    out["deconvolution.self_check_share"] = check / build if build else 0.0
    return out
