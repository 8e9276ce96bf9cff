"""Named, versioned scenarios reproducing the package's reference results.

Each scenario builds a concrete noise model and guess, extracts the
correctable observable family, and verifies the expected structure by
brute-force simulation.  Results carry one labelled check per claim with the
measured residual, so a failing scenario names exactly what broke.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .channels import (
    PAULIS,
    KrausChannel,
    _ginibre_states,
    _kron,
    _require_non_negative,
    adjoint_transfer,
    apply_channel,
    compose,
    convex_combination,
    devectorize,
    haar_random_unitary,
    random_unitary_channel,
    transfer_from_kraus,
    unitary_channel,
    validate_probabilities,
    vectorize,
)
from .deconvolution import (
    DEFAULT_KERNEL_RTOL,
    GuessPair,
    ObservableFamily,
    _recovery_deviations,
    _span_residual,
    common_correctable_family,
    correctable_family,
    evaluate,
    expectation,
    membership_residual,
    modified_observable,
    verify_family,
)
from .errors import SingularChannelError, UnknownScenarioError
from .random_unitary import (
    UnitaryErrorSet,
    gamma_i,
    commutant_family,
    invariant_subspace,
    ru_correctable_family,
    two_unitary_family,
)
from .serialization import SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Reference channels and observables
# ---------------------------------------------------------------------------

def qutrit_extreme_channel(phase: float) -> KrausChannel:
    """One-parameter family of extreme unital qutrit channels."""
    w = np.exp(1j * phase)
    r = 1 / np.sqrt(2)
    A1 = r * np.array([[0, 0, 0], [0, 1, 0], [0, 0, -1]], dtype=complex)
    A2 = r * np.array([[0, -1, 0], [0, 0, 0], [w, 0, 0]], dtype=complex)
    A3 = r * np.array([[0, 0, 1], [-w, 0, 0], [0, 0, 0]], dtype=complex)
    return KrausChannel(dim=3, kraus=(A1, A2, A3))


#: The two-qubit unitary channels ``PAULIS[i] (x) PAULIS[j]`` for i, j in {0, 1}, row-major.
_FLIPS = tuple(KrausChannel(dim=4, kraus=(_kron(PAULIS[i], PAULIS[j]),)) for i in (0, 1) for j in (0, 1))


def bitflip_uncorrelated(p: float) -> KrausChannel:
    """Independent bit flips on two qubits with per-qubit probability ``p``."""
    w = validate_probabilities([1 - p, p])
    return convex_combination(np.outer(w, w).ravel(), _FLIPS)


def bitflip_correlated(p: float) -> KrausChannel:
    """Completely correlated two-qubit bit flip: both qubits flip or neither."""
    return convex_combination([1 - p, p], (_FLIPS[0], _FLIPS[3]))


def bitflip_with_memory(p: float, mu: float) -> KrausChannel:
    """Convex mix of the uncorrelated and correlated bit-flip channels.

    ``mu`` is the memory weight on the correlated part.
    """
    return convex_combination([1 - mu, mu], [bitflip_uncorrelated(p), bitflip_correlated(p)])


def three_unitary_error_set() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three 3x3 unitary errors whose pairwise comparisons have degenerate spectra."""
    s2, s6 = np.sqrt(2), np.sqrt(6)
    U1 = np.array(
        [[s2 + 1, s6, s2 - 1], [s2 + 1, -s6, s2 - 1], [s2 - 2, 0, s2 + 2]], dtype=complex
    ) / np.sqrt(12)
    U2 = np.array(
        [[s2 + 1, 1j * s6, s2 - 1], [s2 + 1, -1j * s6, s2 - 1], [s2 - 2, 0, s2 + 2]], dtype=complex
    ) / np.sqrt(12)
    U3 = np.array(
        [[s2 + 1j, 1j * s6, s2 - 1j], [s2 + 1j, -1j * s6, s2 - 1j], [s2 - 2j, 0, s2 + 2j]],
        dtype=complex,
    ) / np.sqrt(12)
    return U1, U2, U3


def qubit_pair_unitaries() -> tuple[np.ndarray, np.ndarray]:
    """Qubit rotation plus bit flip; their comparison has spectrum {1, -1}."""
    U1 = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    U2 = np.array([[0, 1], [1, 0]], dtype=complex)
    return U1, U2


def qutrit_pair_unitaries() -> tuple[np.ndarray, np.ndarray]:
    """Qutrit pair whose comparison matrix has the degenerate spectrum {1, -1, 1}."""
    U1 = np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]], dtype=complex) / np.sqrt(2)
    U2 = np.array(
        [[4, 1, 1], [0, 3, -3], [-np.sqrt(2), 2 * np.sqrt(2), 2 * np.sqrt(2)]], dtype=complex
    ) / (3 * np.sqrt(2))
    return U1, U2


def recovery_probe_observable() -> np.ndarray:
    """Two-qubit observable outside the bit-flip correctable family."""
    s = PAULIS
    B = np.zeros((4, 4), dtype=complex)
    for i in (2, 3):
        B += _kron(s[0], s[i]) + _kron(s[i], s[0])
    for i in (2, 3):
        for j in (2, 3):
            B += _kron(s[i], s[j])
    return B


def recovery_probe_state(x: float) -> np.ndarray:
    """One-parameter two-qubit state family, positive semidefinite exactly for ``-1 <= x <= 1``."""
    # written so that NaN fails too
    if not abs(x) <= 1:
        raise ValueError(f"probe state parameter x must lie in [-1, 1], got {x}")
    s = PAULIS
    return 0.25 * (_kron(s[0], s[0]) + x * (_kron(s[2], s[0]) + _kron(s[0], s[3])) + _kron(s[2], s[3]))


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioCheck:
    """One labelled claim: passes iff the residual is within tolerance."""

    label: str
    passed: bool
    residual: float
    tolerance: float

    @classmethod
    def from_residual(cls, label: str, residual: float, tolerance: float) -> "ScenarioCheck":
        _require_non_negative(tolerance, "check tolerance")
        return cls(label=label, passed=bool(residual <= tolerance), residual=float(residual), tolerance=float(tolerance))

    @classmethod
    def from_bool(cls, label: str, ok: bool) -> "ScenarioCheck":
        return cls(label=label, passed=bool(ok), residual=0.0 if ok else 1.0, tolerance=0.0)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    scenario: str
    family_dim: int
    expected_family_dim: int
    max_delta_nd: float
    checks: tuple[ScenarioCheck, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Every check passed and the family has the expected dimension."""
        return self.family_dim == self.expected_family_dim and all(c.passed for c in self.checks)

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "family_dim": self.family_dim,
            "expected_family_dim": self.expected_family_dim,
            "max_delta_nd": self.max_delta_nd,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "metadata": self.metadata,
        }


def result_from_document(doc: Mapping[str, Any]) -> ScenarioResult:
    checks = tuple(
        ScenarioCheck(
            label=c["label"], passed=c["passed"], residual=c["residual"], tolerance=c["tolerance"]
        )
        for c in doc["checks"]
    )
    return ScenarioResult(
        scenario=doc["scenario"],
        family_dim=doc["family_dim"],
        expected_family_dim=doc["expected_family_dim"],
        max_delta_nd=doc["max_delta_nd"],
        checks=checks,
        metadata=dict(doc["metadata"]),
    )


def emit_report(result: ScenarioResult, format: str = "table") -> str:
    """Render a scenario result as stable JSON or a human-readable table."""
    if format == "json":
        return json.dumps(result.to_document(), indent=2)
    if format != "table":
        raise ValueError(f"unknown format {format!r}, expected 'json' or 'table'")
    lines = [
        f"scenario: {result.scenario}",
        f"family dimension: {result.family_dim} (expected {result.expected_family_dim})",
        f"max recovery deviation: {result.max_delta_nd:.3e}",
        "checks:",
    ]
    width = max((len(c.label) for c in result.checks), default=0)
    for c in result.checks:
        marker = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{marker}] {c.label:<{width}}  residual {c.residual:.3e}  tol {c.tolerance:.3e}")
    if result.metadata:
        lines.append("parameters:")
        for key in sorted(result.metadata):
            lines.append(f"  {key} = {result.metadata[key]}")
    lines.append(f"status: {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: What a scenario returns for ``run_scenario`` to build its result from:
#: family size, worst recovery deviation, checks and metadata.
_Outcome = tuple[int, float, tuple[ScenarioCheck, ...], dict]

#: Memory weights at which both bit-flip scenarios probe the memory channel.
_MEMORY_PROBES = (0.1, 0.3, 0.5, 0.7, 0.9)


def _family_recovery_max(gps: Sequence[GuessPair], fam: ObservableFamily, params: dict) -> float:
    """Worst recovery deviation of ``fam`` over the pairs, on ``params["states"]`` random states each."""
    return float(np.max([verify_family(gp, fam, params["states"], params["seed"] + 101 * k) for k, gp in enumerate(gps)]))


def _mutual_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Larger of the two span residuals between the stacks ``a`` and ``b`` (0 when their spans coincide)."""
    return max(_span_residual(a, b), _span_residual(b, a))


def _dimension_check(fam: ObservableFamily, expected: int, what: str = "family") -> ScenarioCheck:
    """The claim that ``fam`` has ``expected`` parameters, labelled with ``what``."""
    return ScenarioCheck.from_residual(f"{what} dimension is {expected}", abs(fam.n_params - expected), 0.0)


def _pairs(make: Callable[[float], KrausChannel], values: Sequence[float], guess: np.ndarray) -> list[GuessPair]:
    """One pair per value: the channel ``make(value)`` against the guess transfer matrix."""
    return [GuessPair.from_transfers(transfer_from_kraus(make(v)), guess) for v in values]


def _bitflip_family(p: float, kernel_tol: float) -> tuple[np.ndarray, list[GuessPair], ObservableFamily]:
    """The correlated-flip guess at ``p``, its memory pairs at ``_MEMORY_PROBES`` and their common family."""
    guess = transfer_from_kraus(bitflip_correlated(p))
    gps = _pairs(partial(bitflip_with_memory, p), _MEMORY_PROBES, guess)
    return guess, gps, common_correctable_family(gps, kernel_tol)


def _mixture_pairs(
    mixtures: Sequence[Sequence[float]], Us: Sequence[np.ndarray], guess: np.ndarray
) -> list[GuessPair]:
    """One pair per probability vector: the unitaries mixed with it, against unitary ``guess``."""
    guess_transfer = transfer_from_kraus(unitary_channel(guess))
    return _pairs(lambda probs: random_unitary_channel(probs, Us), mixtures, guess_transfer)


def _mixture_recovery(
    params: dict,
    fam: ObservableFamily,
    Us: Sequence[np.ndarray],
    guess: np.ndarray,
    draw: Callable[[np.random.Generator, int], Sequence[Sequence[float]]],
) -> float:
    """Worst recovery deviation of ``fam`` over ``draw(rng, prob_draws)`` mixtures of ``Us``.

    ``rng`` is seeded with ``params["seed"]``; each mixture is paired with unitary ``guess``.
    """
    mixtures = draw(np.random.default_rng(params["seed"]), params["prob_draws"])
    return _family_recovery_max(_mixture_pairs(mixtures, Us, guess), fam, params)


def _dirichlet_mixtures(k: int) -> Callable[[np.random.Generator, int], list[np.ndarray]]:
    """Draws of ``n`` flat-Dirichlet probability vectors over ``k`` unitaries."""
    return lambda rng, n: [rng.dirichlet(np.ones(k)) for _ in range(n)]


def _binary_mixtures(rng: np.random.Generator, n: int) -> list[list[float]]:
    """``n`` two-unitary mixtures ``[1 - p, p]`` with ``p`` uniform in [0.05, 0.95]."""
    return [[1 - p, p] for p in rng.uniform(0.05, 0.95, n)]


def _ru_route_residual(fam: ObservableFamily, Us: Sequence[np.ndarray], kernel_tol: float) -> float:
    """Span residual of ``fam`` against :func:`ru_correctable_family` of ``Us`` guessing ``Us[1]``."""
    es = UnitaryErrorSet.from_unitaries(Us, guess_index=1)
    return _mutual_span_residual(fam._stacked, ru_correctable_family(es, kernel_tol)._stacked)


def _matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((d, d), dtype=complex)
    E[i, j] = 1.0
    return E


#: Admissible closed range of each scenario parameter, whichever scenario takes it.
_RANGES = dict.fromkeys(("states", "tuples", "prob_draws", "check_phases", "check_memories"), (1, math.inf))
_RANGES.update(seed=(0, math.inf), p=(0, 1), mu=(0, 1), x=(-1, 1))


def _merge_params(defaults: Mapping[str, Any], overrides: Optional[Mapping[str, Any]]) -> dict:
    """``defaults`` replaced by ``overrides``, each checked against its ``_RANGES`` entry."""
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown override {key!r}; allowed: {sorted(defaults)}")
        want = type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else int):
            raise ValueError(
                f"override {key!r} expects {want.__name__}, got {type(value).__name__} ({value!r})"
            )
        value = want(value)
        lo, hi = _RANGES[key]
        # written so that NaN fails too
        if not lo <= value <= hi:
            span = f"be at least {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
            raise ValueError(f"{key} must {span}, got {value}")
        params[key] = value
    return params


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------

def _scenario_qutrit_extreme(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    probes = [2 * np.pi * k / 6 for k in range(1, 6)]
    guess = transfer_from_kraus(qutrit_extreme_channel(0.0))
    fam = common_correctable_family(_pairs(qutrit_extreme_channel, probes, guess), kernel_tol)

    pattern = np.array(
        [
            _matrix_unit(3, 0, 0),
            _matrix_unit(3, 1, 1),
            _matrix_unit(3, 2, 2),
            _matrix_unit(3, 1, 2) + _matrix_unit(3, 2, 1),
            -1j * _matrix_unit(3, 1, 2) + 1j * _matrix_unit(3, 2, 1),
        ]
    )
    span_res = _mutual_span_residual(fam._stacked, pattern)

    rng = np.random.default_rng(params["seed"])
    check_phases = [float(rng.uniform(0.05, 2 * np.pi - 0.05)) for _ in range(params["check_phases"])]
    max_delta = _family_recovery_max(_pairs(qutrit_extreme_channel, check_phases, guess), fam, params)

    checks = (
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual("span matches block-diagonal pattern", span_res, 1e-9),
        ScenarioCheck.from_residual("recovery exact on random states and phases", max_delta, 1e-9),
    )
    metadata = {
        "phase_probes": [round(p, 12) for p in probes],
        "sampled_phases": [round(p, 12) for p in check_phases],
        **params,
    }
    return fam.n_params, max_delta, checks, metadata


def _bitflip_products() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The 12 correctable Pauli products: 8 that anticommute with X(x)X, then 4 that commute with it."""
    s = PAULIS
    scaled = [_kron(s[i], s[j]) for i in (0, 1) for j in (2, 3)]
    scaled += [_kron(s[j], s[i]) for i in (0, 1) for j in (2, 3)]
    return scaled, [_kron(s[i], s[j]) for i in (0, 1) for j in (0, 1)]


def _scenario_bitflip_memory(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    p = params["p"]
    guess, gps, fam = _bitflip_family(p, kernel_tol)

    scaled, fixed = _bitflip_products()
    span_res = _mutual_span_residual(fam._stacked, np.array(scaled + fixed))

    # the guess inverse rescales the x-anticommuting sector by 1/(1-2p) and
    # its adjoint (applied forward) by (1-2p); the commuting sector is fixed
    inv_res = 0.0
    fwd_res = 0.0
    gp0 = gps[0]
    fwd_gamma = adjoint_transfer(gp0.phi_g).gamma
    for P, f in [(P, 1 - 2 * p) for P in scaled] + [(P, 1.0) for P in fixed]:
        inv_res = max(inv_res, np.linalg.norm(modified_observable(gp0, P) - P / f))
        fwd_res = max(fwd_res, np.linalg.norm(devectorize(fwd_gamma @ vectorize(P), 4) - f * P))

    try:
        GuessPair.from_transfers(gps[0].phi, transfer_from_kraus(bitflip_correlated(0.5))).require_invertible()
        singular_ok = False
    except SingularChannelError:
        singular_ok = True

    rng = np.random.default_rng(params["seed"])
    check_memories = [float(rng.uniform(0.02, 0.98)) for _ in range(params["check_memories"])]
    max_delta = _family_recovery_max(_pairs(partial(bitflip_with_memory, p), check_memories, guess), fam, params)

    checks = (
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual("span matches the 12 Pauli products", span_res, 1e-9),
        ScenarioCheck.from_residual("guess inverse rescales flip-odd sector by 1/(1-2p)", inv_res, 1e-10),
        ScenarioCheck.from_residual("guess adjoint rescales flip-odd sector by (1-2p)", fwd_res, 1e-10),
        ScenarioCheck.from_bool("correlated guess at p = 1/2 is rejected as singular", singular_ok),
        ScenarioCheck.from_residual("recovery exact across memory weights", max_delta, 1e-9),
    )
    metadata = {
        "memory_probes": list(_MEMORY_PROBES),
        "sampled_memories": [round(m, 12) for m in check_memories],
        **params,
    }
    return fam.n_params, max_delta, checks, metadata


def _scenario_ru_three_unitaries(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    Us = list(three_unitary_error_set())
    es = UnitaryErrorSet.from_unitaries(Us, guess_index=0)

    s2 = invariant_subspace(gamma_i(es, 1))
    s3 = invariant_subspace(gamma_i(es, 2))

    # both subspaces are spanned by v_a (x) v_b over the same five index pairs, in two bases
    def listed(v: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [_kron(v[a][None], v[b][None])[0] for a, b in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]]

    mus = [np.array([1, 0, -1]) / np.sqrt(2), np.array([1, 0, 1]) / np.sqrt(2), np.array([0, 1, 0.0])]
    s2_res = _mutual_span_residual(np.array(s2), np.array(listed(np.eye(3))))
    s3_res = _mutual_span_residual(np.array(s3), np.array(listed(mus)))

    fam = ru_correctable_family(es, kernel_tol)
    pattern = np.array(
        [
            _matrix_unit(3, 0, 0) + _matrix_unit(3, 2, 2),
            _matrix_unit(3, 0, 2) + _matrix_unit(3, 2, 0),
            _matrix_unit(3, 1, 1),
        ]
    )
    span_res = _mutual_span_residual(fam._stacked, pattern)
    max_delta = _mixture_recovery(params, fam, Us, Us[0], _dirichlet_mixtures(3))

    checks = (
        ScenarioCheck.from_residual("first invariant subspace is 5-dimensional", abs(len(s2) - 5), 0.0),
        ScenarioCheck.from_residual("second invariant subspace is 5-dimensional", abs(len(s3) - 5), 0.0),
        ScenarioCheck.from_residual("first invariant subspace matches listed span", s2_res, 1e-9),
        ScenarioCheck.from_residual("second invariant subspace matches listed span", s3_res, 1e-9),
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual("span matches persymmetric pattern", span_res, 1e-9),
        ScenarioCheck.from_residual("recovery exact for random mixing probabilities", max_delta, 1e-9),
    )
    return fam.n_params, max_delta, checks, dict(params)


def _scenario_ru_two_qubit(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    U1, U2 = qubit_pair_unitaries()
    grouping, fam = two_unitary_family(U1, U2)

    eig_res = max(
        abs(ev - target)
        for ev, target in zip(sorted(grouping.eigenvalues, key=lambda z: z.real), (-1.0, 1.0))
    )
    span_res = _mutual_span_residual(fam._stacked, np.array([np.eye(2), [[2, 1], [1, 0]]]))

    a, b = 0.7, -0.3
    A = np.array([[a + 2 * b, b], [b, a]], dtype=complex)
    expected_mod = np.array([[a, b], [b, a + 2 * b]], dtype=complex)
    (gp,) = _mixture_pairs([[0.6, 0.4]], [U1, U2], U2)
    mod_res = np.linalg.norm(modified_observable(gp, A) - expected_mod)

    agree_res = _ru_route_residual(fam, [U1, U2], kernel_tol)
    max_delta = _mixture_recovery(params, fam, [U1, U2], U2, _binary_mixtures)

    checks = (
        ScenarioCheck.from_residual("comparison spectrum is {1, -1}", eig_res, 1e-10),
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual("span matches [[a+2b, b], [b, a]]", span_res, 1e-9),
        ScenarioCheck.from_residual("modified observable swaps the diagonal", mod_res, 1e-10),
        ScenarioCheck.from_residual("agrees with invariant-subspace route", agree_res, 1e-9),
        ScenarioCheck.from_residual("recovery exact for random mixing probability", max_delta, 1e-9),
    )
    return fam.n_params, max_delta, checks, dict(params)


def _scenario_ru_degenerate(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    U1, U2 = qutrit_pair_unitaries()
    grouping, fam = two_unitary_family(U1, U2)

    W = U1.conj().T @ U2
    w_res = np.linalg.norm(W - np.array([[2, 2, -1], [2, -1, 2], [-1, 2, 2]]) / 3)
    eigs = sorted(grouping.eigenvalues, key=lambda z: z.real)
    eig_res = max(abs(eigs[0] + 1), abs(eigs[1] - 1), abs(eigs[2] - 1))
    mult_ok = sorted(grouping.multiplicities) == [1, 2]

    agree_res = _ru_route_residual(fam, [U1, U2], kernel_tol)
    max_delta = _mixture_recovery(params, fam, [U1, U2], U2, _binary_mixtures)

    checks = (
        ScenarioCheck.from_residual("comparison matrix matches reference", w_res, 1e-12),
        ScenarioCheck.from_residual("spectrum is {1, -1, 1}", eig_res, 1e-10),
        ScenarioCheck.from_bool("degeneracy multiplicities are {2, 1}", mult_ok),
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual("agrees with invariant-subspace route", agree_res, 1e-9),
        ScenarioCheck.from_residual("recovery exact for random mixing probability", max_delta, 1e-9),
    )
    return fam.n_params, max_delta, checks, dict(params)


def _scenario_pauli_irrep(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    paulis = list(PAULIS)
    es = UnitaryErrorSet.from_unitaries(paulis, guess_index=0)
    fam = ru_correctable_family(es, kernel_tol)
    fam_comm_full = commutant_family(paulis, kernel_tol)
    fam_comm_gen = commutant_family([PAULIS[1], PAULIS[3]], kernel_tol)

    identity = np.eye(2, dtype=complex) / np.sqrt(2)
    id_res = (
        min(np.linalg.norm(fam.basis[0] - identity), np.linalg.norm(fam.basis[0] + identity))
        if fam.n_params == 1
        else 1.0
    )
    max_delta = _mixture_recovery(params, fam, paulis, PAULIS[0], _dirichlet_mixtures(4))

    checks = (
        _dimension_check(fam, expected, "invariant-subspace family"),
        _dimension_check(fam_comm_full, 1, "full-set commutant"),
        _dimension_check(fam_comm_gen, 1, "generator commutant"),
        ScenarioCheck.from_residual("family member is proportional to identity", id_res, 1e-9),
        ScenarioCheck.from_residual("recovery exact for random Pauli mixing", max_delta, 1e-9),
    )
    return fam.n_params, max_delta, checks, dict(params)


def _scenario_partial_recovery(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    p, mu, x = params["p"], params["mu"], params["x"]
    guess, _, fam = _bitflip_family(p, kernel_tol)

    B = recovery_probe_observable()
    rho = recovery_probe_state(x)
    gp = GuessPair.from_transfers(transfer_from_kraus(bitflip_with_memory(p, mu)), guess)
    report = evaluate(gp, B, rho)

    # Closed forms for this B and rho, by Pauli algebra.  B is the sum of
    # I(x)s_i, s_i(x)I and s_i(x)s_j over i, j in {Y, Z};
    # rho = (I(x)I + x(Y(x)I + I(x)Z) + Y(x)Z)/4, so Tr(rho B) = 1 + 2x.
    # Both bit flips are Pauli-diagonal: Y(x)I and I(x)Z have eigenvalue 1-2p
    # under the true channel and under the correlated-flip guess, and Y(x)Z
    # has (1-mu)(1-2p)^2 + mu under the true channel and 1 under the guess.
    # Deconvolution divides the weight-1 strings by 1-2p and leaves Y(x)Z, so
    #   delta_exp = 2x(2p) + (1-mu)(1-(1-2p)^2) = 4p[(1-p)(1-mu) + x],
    #   delta_nd  = (1-mu)(1-(1-2p)^2)          = 4p(1-p)(1-mu).
    closed_exp = 4 * p * ((1 - p) * (1 - mu) + x)
    closed_nd = 4 * p * (1 - p) * (1 - mu)

    # Each grid deviation Tr(rho B) - Tr(X Phi(rho)) is Tr(rho (B - Phi^dag(X))), with X = B
    # (noisy) or the modified probe (deconvolved): two observables per pair serve all five states.
    grid_failures = 0
    grid_p = np.linspace(0.05, 0.45, 5)
    grid_mu = np.linspace(0.1, 0.9, 5)
    grid_x = np.linspace(0.2, 1.0, 5)
    grid_states = [recovery_probe_state(xg) for xg in grid_x]
    for pg in grid_p:
        guess_g = transfer_from_kraus(bitflip_correlated(pg))
        for gp_g in _pairs(partial(bitflip_with_memory, pg), grid_mu, guess_g):
            adjoint = adjoint_transfer(gp_g.phi)
            dev_exp = B - apply_channel(adjoint, B)
            dev_nd = B - apply_channel(adjoint, modified_observable(gp_g, B))
            grid_failures += sum(
                not abs(expectation(dev_nd, r)) < abs(expectation(dev_exp, r)) for r in grid_states
            )

    max_delta = _family_recovery_max([gp], fam, params)

    checks = (
        _dimension_check(fam, expected),
        ScenarioCheck.from_residual(
            "probe observable lies outside the family (span distance >= 1/2)",
            1.0 - membership_residual(fam, B),
            0.5,
        ),
        ScenarioCheck.from_residual(
            "noisy deviation equals closed form 4p[(1-p)(1-mu)+x]",
            abs(report.delta_exp - closed_exp),
            1e-12,
        ),
        ScenarioCheck.from_residual(
            "deconvolved deviation equals closed form 4p(1-p)(1-mu)",
            abs(report.delta_nd - closed_nd),
            1e-12,
        ),
        ScenarioCheck.from_bool("deconvolution improves the probe observable", report.improved),
        ScenarioCheck.from_residual(
            "improvement holds on the full (p, mu, x) grid", float(grid_failures), 0.0
        ),
        ScenarioCheck.from_residual("recovery exact inside the family", max_delta, 1e-9),
    )
    metadata = {
        "memory_probes": list(_MEMORY_PROBES),
        "delta_exp": report.delta_exp,
        "delta_nd": report.delta_nd,
        "closed_form_exp": closed_exp,
        "closed_form_nd": closed_nd,
        "grid_p": [round(float(v), 12) for v in grid_p],
        "grid_mu": [round(float(v), 12) for v in grid_mu],
        "grid_x": [round(float(v), 12) for v in grid_x],
        **params,
    }
    return fam.n_params, max_delta, checks, metadata


def _scenario_equivalence_covariance(params: dict, kernel_tol: float, expected: int) -> _Outcome:
    rng = np.random.default_rng(params["seed"])

    dim_mismatches = 0
    max_membership = 0.0
    max_delta = 0.0
    first_dim = None
    for k in range(params["tuples"]):
        d = 2 if k % 2 == 0 else 3
        V1 = haar_random_unitary(d, rng)
        V2 = haar_random_unitary(d, rng)
        p = float(rng.uniform(0.1, 0.9))
        phi = transfer_from_kraus(random_unitary_channel([1 - p, p], [V1, V2]))
        phi_g = transfer_from_kraus(unitary_channel(V2))
        fam = correctable_family(GuessPair.from_transfers(phi, phi_g), kernel_tol)

        U = haar_random_unitary(d, rng)
        V = haar_random_unitary(d, rng)
        gamma_u = transfer_from_kraus(unitary_channel(U))
        gamma_v = transfer_from_kraus(unitary_channel(V))
        eq_phi = compose(gamma_v, compose(phi, gamma_u))
        eq_guess = compose(gamma_v, compose(phi_g, gamma_u))
        eq_gp = GuessPair.from_transfers(eq_phi, eq_guess)
        eq_fam = correctable_family(eq_gp, kernel_tol)

        if first_dim is None:
            first_dim = fam.n_params
        if fam.n_params != eq_fam.n_params:
            dim_mismatches += 1
        mapped = U.conj().T @ fam._stacked @ U
        max_membership = float(np.max([max_membership, _span_residual(mapped, eq_fam._stacked)]))
        states = _ginibre_states(rng.normal(size=(params["states"], 2 * d * d)), d)
        max_delta = float(np.max([max_delta, np.abs(_recovery_deviations(eq_gp, mapped)(states)).max()]))

    checks = (
        ScenarioCheck.from_residual(
            "family dimension preserved across all tuples", float(dim_mismatches), 0.0
        ),
        ScenarioCheck.from_residual(
            "conjugated members belong to the transformed family", max_membership, 1e-9
        ),
        ScenarioCheck.from_residual(
            "conjugated members recover exactly under the transformed pair", max_delta, 1e-9
        ),
    )
    return first_dim, max_delta, checks, dict(params)


#: Each scenario with its expected family size (its ``expected`` argument) and default parameters;
#: ``_RANGES`` bounds every override.
_SCENARIOS: dict[str, tuple[Callable[[dict, float, int], _Outcome], int, dict[str, Any]]] = {
    "qutrit-extreme": (_scenario_qutrit_extreme, 5, {"states": 100, "seed": 11, "check_phases": 3}),
    "bitflip-memory": (_scenario_bitflip_memory, 12, {"p": 0.25, "states": 100, "seed": 13, "check_memories": 3}),
    "ru-three-unitaries": (_scenario_ru_three_unitaries, 3, {"states": 20, "seed": 17, "prob_draws": 5}),
    "ru-two-qubit": (_scenario_ru_two_qubit, 2, {"states": 50, "seed": 19, "prob_draws": 5}),
    "ru-degenerate": (_scenario_ru_degenerate, 5, {"states": 50, "seed": 23, "prob_draws": 5}),
    "pauli-irrep": (_scenario_pauli_irrep, 1, {"states": 50, "seed": 29, "prob_draws": 5}),
    "partial-recovery": (_scenario_partial_recovery, 12, {"p": 0.3, "mu": 0.5, "x": 0.5, "states": 50, "seed": 31}),
    "equivalence-covariance": (_scenario_equivalence_covariance, 2, {"tuples": 20, "states": 5, "seed": 37}),
}


def scenario_names() -> list[str]:
    """Registered scenario names, in registration order."""
    return list(_SCENARIOS)


def scenario_parameters(name: str, overrides: Optional[Mapping[str, Any]] = None) -> dict:
    """The parameters scenario ``name`` runs with: its defaults, replaced by ``overrides``.

    Raises :class:`UnknownScenarioError` for an unregistered name, ``ValueError``
    for an unknown key, a wrong type, or a value outside its range (NaN included).
    """
    if name not in _SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}"
        )
    return _merge_params(_SCENARIOS[name][2], overrides)


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, Any]] = None,
    kernel_tol: float = DEFAULT_KERNEL_RTOL,
) -> ScenarioResult:
    """Execute a registered scenario and return its result.

    ``overrides`` may replace the scenario's numeric parameters, checked by
    :func:`scenario_parameters`; ``kernel_tol`` is the relative kernel
    threshold used by every extraction inside the scenario.
    """
    _require_non_negative(kernel_tol, "kernel threshold")
    params = scenario_parameters(name, overrides)
    scenario, expected, _ = _SCENARIOS[name]
    family_dim, max_delta, checks, metadata = scenario(params, kernel_tol, expected)
    return ScenarioResult(name, family_dim, expected, max_delta, checks, metadata)
