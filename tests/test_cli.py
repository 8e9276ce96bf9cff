import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdeconv as q
from qdeconv.cli import main
from qdeconv.scenarios import qutrit_extreme_channel
from qdeconv.serialization import (
    emit_channel_spec,
    emit_family,
    emit_hermitian_matrix,
    kraus_spec,
    parse_family,
    unitary_spec,
)

from conftest import SIGMA, deep_spec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def spec_files(tmp_path):
    true_path = tmp_path / "true.json"
    guess_path = tmp_path / "guess.json"
    true_path.write_text(
        emit_channel_spec(kraus_spec("extreme qutrit", qutrit_extreme_channel(np.pi / 2).kraus))
    )
    guess_path.write_text(
        emit_channel_spec(kraus_spec("extreme qutrit guess", qutrit_extreme_channel(0.0).kraus))
    )
    return str(true_path), str(guess_path)


def test_deconvolve_outputs_family(runner, spec_files):
    true_path, guess_path = spec_files
    result = runner.invoke(main, ["deconvolve", true_path, guess_path])
    assert result.exit_code == 0, result.output
    fam = parse_family(result.output)
    assert fam.n_params == 5


def test_deconvolve_reads_stdin(runner, spec_files):
    true_path, guess_path = spec_files
    payload = Path(true_path).read_text()
    result = runner.invoke(main, ["deconvolve", "-", guess_path], input=payload)
    assert result.exit_code == 0, result.output
    assert parse_family(result.output).n_params == 5


def test_verify_round_trip(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    result = runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["verify", str(fam_path), true_path, guess_path, "--states", "30"])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output


def test_verify_fails_for_wrong_family(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    # sigma_x-like qutrit observable is outside the correctable family
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1 / np.sqrt(2)
    fam_path = tmp_path / "bad.json"
    fam_path.write_text(emit_family(q.ObservableFamily.from_basis(3, [bad])))
    result = runner.invoke(main, ["verify", str(fam_path), true_path, guess_path, "--states", "20"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_json_format(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    result = runner.invoke(
        main, ["--format", "json", "verify", str(fam_path), true_path, guess_path, "--states", "10"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True and doc["max_delta_nd"] <= 1e-9


def test_estimate_exact_mode_matches_evaluate(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    gp = q.GuessPair.from_transfers(
        q.transfer_from_kraus(qutrit_extreme_channel(np.pi / 2)),
        q.transfer_from_kraus(qutrit_extreme_channel(0.0)),
    )
    A = np.diag([1.0, -0.5, 0.25]).astype(complex)
    rho = q.random_density_matrix(3, np.random.default_rng(4))
    obs_path = tmp_path / "obs.json"
    state_path = tmp_path / "state.json"
    obs_path.write_text(emit_hermitian_matrix(A))
    state_path.write_text(emit_hermitian_matrix(rho))
    result = runner.invoke(
        main,
        [
            "--format", "json",
            "estimate", str(obs_path), str(state_path), true_path, guess_path,
            "--shots", "0",
        ],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["mean"] == pytest.approx(q.evaluate(gp, A, rho).deconvolved, abs=1e-10)
    assert doc["std_error"] == 0.0


@pytest.mark.parametrize("shots", ["0", "100"])
def test_estimate_reads_the_hermitian_part_of_a_nearly_hermitian_observable(runner, spec_files, tmp_path, shots):
    # Hermitian within the parser's 1e-9 but not within the library's 1e-10:
    # 2e-10 imaginary on both off-diagonal entries is a residual of 5.7e-10
    true_path, guess_path = spec_files
    A = np.diag([1.0, -0.5, 0.25]).astype(complex)
    A[0, 1] = A[1, 0] = 0.3 + 2e-10j
    rho = q.random_density_matrix(3, np.random.default_rng(4))
    state_path = tmp_path / "state.json"
    state_path.write_text(emit_hermitian_matrix(rho))
    outputs = []
    for name, M in (("near", A), ("part", (A + A.conj().T) / 2)):
        obs_path = tmp_path / f"{name}.json"
        obs_path.write_text(emit_hermitian_matrix(M))
        result = runner.invoke(
            main, ["--format", "json", "estimate", str(obs_path), str(state_path), true_path, guess_path, "--shots", shots]
        )
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("shots", ["0", "100"])
def test_estimate_with_an_overflowing_observable_is_a_usage_error_without_a_warning(runner, tmp_path, shots):
    # a finite entry the parser admits, whose modified observable's norm overflows;
    # warnings are errors in this suite, so exit code 2 also means no warning
    obs_path, state_path, spec_path = (tmp_path / f"{name}.json" for name in ("obs", "state", "id"))
    obs_path.write_text(json.dumps({"dim": 2, "matrix": [[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    state_path.write_text(emit_hermitian_matrix(np.diag([1.0, 0.0])))
    spec_path.write_text(emit_channel_spec(unitary_spec("identity", np.eye(2))))
    result = runner.invoke(main, ["estimate", str(obs_path), str(state_path), str(spec_path), str(spec_path), "--shots", shots])
    assert result.exit_code == 2, result.output
    assert f"{obs_path}: observable is too large to estimate: overflow" in result.output


def test_estimate_with_shots_and_pauli_quorum(runner, tmp_path):
    from qdeconv.scenarios import bitflip_correlated, bitflip_with_memory

    true_path = tmp_path / "true.json"
    guess_path = tmp_path / "guess.json"
    true_path.write_text(
        emit_channel_spec(kraus_spec("memory bit flip", bitflip_with_memory(0.25, 0.5).kraus))
    )
    guess_path.write_text(
        emit_channel_spec(kraus_spec("correlated bit flip", bitflip_correlated(0.25).kraus))
    )
    A = np.kron(SIGMA[0], SIGMA[3])
    rho = np.eye(4, dtype=complex) / 4
    obs_path = tmp_path / "obs.json"
    state_path = tmp_path / "state.json"
    obs_path.write_text(emit_hermitian_matrix(A))
    state_path.write_text(emit_hermitian_matrix(rho))
    result = runner.invoke(
        main,
        [
            "--format", "json", "--seed", "7",
            "estimate", str(obs_path), str(state_path), str(true_path), str(guess_path),
            "--shots", "2000", "--quorum-dim", "2",
        ],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert abs(doc["mean"] - doc["exact_deconvolved"]) <= 5 * max(doc["std_error"], 1e-12)


ESTIMATE_D4 = Path(__file__).parent / "data" / "estimate-d4"


@pytest.mark.parametrize(
    "quorum_args, shots, mean, std_error",
    [
        (["--quorum-dim", "2"], 10000, -1.9993519958018666, 0.16384725296492875),
        (["--quorum-dim", "2"], 37, 4.497314052162648, 2.684104061253133),
        ([], 10000, -2.452264142451695, 0.16490916992676002),
        ([], 37, -1.3946216215388234, 2.878992396540503),
    ],
    ids=["pauli-10000", "pauli-37", "gell-mann-10000", "gell-mann-37"],
)
def test_seeded_estimate_matches_recorded_output(runner, quorum_args, shots, mean, std_error):
    # Recorded before shots were counted per distinct eigenvalue, from the
    # per-outcome counts of the same draws; CI runs this on the NumPy floor
    # too, so a change in NumPy's seeded streams fails here.
    files = [str(ESTIMATE_D4 / f"{name}.json") for name in ("observable", "state", "true", "guess")]
    result = runner.invoke(
        main, ["--format", "json", "--seed", "7", "estimate", *files, "--shots", str(shots), *quorum_args]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert abs(doc["mean"] - mean) <= 1e-12
    assert abs(doc["std_error"] - std_error) <= 1e-12


def test_estimate_rejects_bad_quorum_dim(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    obs_path = tmp_path / "obs.json"
    state_path = tmp_path / "state.json"
    obs_path.write_text(emit_hermitian_matrix(np.eye(3)))
    state_path.write_text(emit_hermitian_matrix(np.eye(3) / 3))
    # 2 is no tensor root of 3; below 2 no tensor root exists at all
    for quorum_dim in ("2", "1", "0"):
        result = runner.invoke(
            main,
            ["estimate", str(obs_path), str(state_path), true_path, guess_path, "--quorum-dim", quorum_dim],
        )
        assert result.exit_code == 2, quorum_dim


def test_estimate_rejects_dimension_one(runner, tmp_path):
    # a valid dimension-1 channel has no quorum; the check comes before any estimate
    one = tmp_path / "one.json"
    one.write_text(emit_channel_spec(kraus_spec("identity", [np.eye(1)])))
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"dim": 1, "matrix": [[[1.0, 0.0]]]}')
    assert runner.invoke(main, ["deconvolve", str(one), str(one)]).exit_code == 0
    result = runner.invoke(main, ["estimate", str(matrix), str(matrix), str(one), str(one)])
    assert result.exit_code == 2, result.output
    assert "channel dimension at least 2" in result.output and "got 1" in result.output


def test_specs_of_different_dimensions_are_a_usage_error(runner, tmp_path):
    z2, i3 = tmp_path / "z2.json", tmp_path / "i3.json"
    z2.write_text(emit_channel_spec(unitary_spec("z", SIGMA[3])))
    i3.write_text(emit_channel_spec(unitary_spec("identity", np.eye(3))))
    fam = tmp_path / "fam.json"
    fam.write_text(emit_family(q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(emit_hermitian_matrix(np.eye(2) / 2))
    commands = {
        "deconvolve": ["deconvolve", str(z2), str(i3)],
        "verify": ["verify", str(fam), str(z2), str(i3)],
        "estimate": ["estimate", str(matrix), str(matrix), str(z2), str(i3)],
        "sweep": ["sweep", str(z2), str(z2), str(i3)],
    }
    for command, args in commands.items():
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (command, result.output)
        assert f"{i3}: guess dimension 3 does not match dimension 2 of {z2}" in result.output, command


def test_failed_certificate_is_a_one_line_error_in_deconvolve_and_sweep(runner, tmp_path):
    rng = np.random.default_rng(3)
    paths = [tmp_path / "true.json", tmp_path / "guess.json"]
    for path in paths:
        path.write_text(emit_channel_spec(kraus_spec(path.stem, q.random_cptp_channel(2, 2, rng).kraus)))
    for command in ("deconvolve", "sweep"):
        result = runner.invoke(main, ["--kernel-tol", "0.9", command, *map(str, paths)])
        assert result.exit_code == 1, command
        assert isinstance(result.exception, SystemExit), command
        assert "Error: recovery certificate failed on pair 0: bound" in result.output, command
        assert "Traceback" not in result.output, command


def test_kernel_tol_is_only_the_kernel_threshold(runner, spec_files, tmp_path):
    # the guess has s_min/s_max = 0.5; a kernel threshold above that must not
    # reject it as singular
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    assert parse_family(fam_path.read_text()).n_params == 5
    result = runner.invoke(
        main, ["--kernel-tol", "0.6", "verify", str(fam_path), true_path, guess_path, "--states", "10"]
    )
    assert result.exit_code == 0, result.output
    assert runner.invoke(main, ["--kernel-tol", "0.6", "deconvolve", true_path, guess_path]).exit_code == 0


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_kernel_tol_must_be_non_negative(runner, spec_files, tmp_path, value):
    # a NaN kernel threshold used to print n_params 0 and rank every sweep
    # candidate at 0; a NaN or negative --tol failed every family
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    for option, args in (
        ("--kernel-tol", ["deconvolve", true_path, guess_path]),
        ("--kernel-tol", ["sweep", true_path, guess_path]),
        ("--tol", ["verify", str(fam_path), true_path, guess_path, "--states", "5"]),
    ):
        result = runner.invoke(main, [option, value, *args])
        assert result.exit_code == 2
        assert option in result.output
        assert "n_params" not in result.output and "FAIL" not in result.output


def test_deconvolve_to_an_unwritable_path_is_a_usage_error(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    output = tmp_path / "missing" / "family.json"
    result = runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(output)])
    assert result.exit_code == 2, result.output
    assert f"cannot write {output}" in result.output
    assert isinstance(result.exception, SystemExit)


def test_verify_dimension_mismatch_is_a_usage_error(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "qubit.json"
    fam_path.write_text(emit_family(q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])))
    result = runner.invoke(main, ["verify", str(fam_path), true_path, guess_path, "--states", "5"])
    assert result.exit_code == 2
    assert "family dimension 2 does not match channel dimension 3" in result.output


def test_verify_empty_family_is_a_usage_error(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "empty.json"
    fam_path.write_text(emit_family(q.ObservableFamily.from_basis(3, [])))
    result = runner.invoke(main, ["verify", str(fam_path), true_path, guess_path, "--states", "5"])
    assert result.exit_code == 2
    assert "cannot verify an empty family" in result.output


@pytest.mark.parametrize("states", ["0", "-1"])
def test_verify_needs_at_least_one_state(runner, spec_files, tmp_path, states):
    # a sample of no states would pass any family, here one that fails at 20
    true_path, guess_path = spec_files
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = bad[1, 0] = 1 / np.sqrt(2)
    fam_path = tmp_path / "bad.json"
    fam_path.write_text(emit_family(q.ObservableFamily.from_basis(3, [bad])))
    result = runner.invoke(main, ["verify", str(fam_path), true_path, guess_path, "--states", states])
    assert result.exit_code == 2
    assert "PASS" not in result.output


@pytest.mark.parametrize("name", ["equivalence-covariance", "qutrit-extreme"])
def test_examples_run_needs_at_least_one_state(runner, name):
    assert runner.invoke(main, ["examples", "run", name, "--set", "states=0"]).exit_code == 2


def test_examples_run_needs_at_least_one_tuple(runner):
    # with no tuple every check passed vacuously and the family dimension read -1
    result = runner.invoke(main, ["examples", "run", "equivalence-covariance", "--set", "tuples=0"])
    assert result.exit_code == 2
    assert "tuples must be at least 1" in result.output
    assert "PASS" not in result.output


def test_examples_list(runner):
    result = runner.invoke(main, ["examples", "list"])
    assert result.exit_code == 0
    names = result.output.split()
    assert "qutrit-extreme" in names and len(names) == 8
    as_json = runner.invoke(main, ["--format", "json", "examples", "list"])
    assert json.loads(as_json.output) == names


def test_examples_run_passing_scenario(runner):
    result = runner.invoke(main, ["examples", "run", "ru-two-qubit"])
    assert result.exit_code == 0, result.output
    assert "status: PASS" in result.output


def test_examples_run_failing_scenario_names_check(runner):
    # p=0 makes both channels the identity, so every observable is correctable
    # and the family has all 16 dimensions instead of 12
    result = runner.invoke(main, ["examples", "run", "partial-recovery", "--set", "p=0.0"])
    assert result.exit_code == 1
    assert "[FAIL] family dimension is 12" in result.output
    assert "status: FAIL" in result.output


def test_examples_run_table_prints_plain_floats(runner):
    result = runner.invoke(main, ["examples", "run", "partial-recovery"])
    assert result.exit_code == 0, result.output
    assert "grid_p = [0.05," in result.output
    assert "np.float64" not in result.output


def test_examples_run_with_override(runner):
    result = runner.invoke(
        main, ["--format", "json", "examples", "run", "qutrit-extreme", "--set", "states=5"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["metadata"]["states"] == 5


@pytest.mark.parametrize(
    "name, override, reason",
    [
        ("partial-recovery", "p=1.5", "p must lie in [0, 1], got 1.5"),
        ("partial-recovery", "mu=2", "mu must lie in [0, 1], got 2.0"),
        ("partial-recovery", "x=-3", "x must lie in [-1, 1], got -3.0"),
        ("bitflip-memory", "p=nan", "p must lie in [0, 1], got nan"),
        ("partial-recovery", "x=nan", "x must lie in [-1, 1], got nan"),
        ("pauli-irrep", "prob_draws=0", "prob_draws must be at least 1, got 0"),
        ("qutrit-extreme", "seed=-1", "seed must be at least 0, got -1"),
    ],
    ids=["p=1.5", "mu=2", "x=-3", "p=nan", "x=nan", "prob_draws=0", "seed=-1"],
)
def test_examples_run_out_of_range_override_is_a_usage_error(runner, name, override, reason):
    # p=1.5 used to end in "SVD did not converge", mu=2 in NaN residuals and
    # x=-3 ran on a state that is not positive semidefinite
    result = runner.invoke(main, ["examples", "run", name, "--set", override])
    assert result.exit_code == 2, result.output
    assert reason in result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
    assert "status:" not in result.output


def test_spec_with_non_unitary_member_is_a_usage_error(runner, spec_files, tmp_path):
    true_path, _ = spec_files
    bad = tmp_path / "projectors.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "scaled projectors",
        "unitaries": [[[[np.sqrt(2), 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [np.sqrt(2), 0]]]],
        "probabilities": [0.5, 0.5],
    }))
    result = runner.invoke(main, ["deconvolve", true_path, str(bad)])
    assert result.exit_code == 2, result.output
    assert f"{bad}: member 0 of 'scaled projectors' is not unitary" in result.output


def test_spec_with_an_overflowing_member_is_a_usage_error_without_a_warning(runner, tmp_path):
    # warnings are errors in this suite: the member's U^dag U overflows
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "kind": "random_unitary",
        "dim": 2,
        "name": "r",
        "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]]],
    }))
    result = runner.invoke(main, ["deconvolve", str(bad), str(bad)])
    assert result.exit_code == 2, result.output
    assert f"{bad}: member 1 of 'r' is not unitary" in result.output


@pytest.mark.parametrize("kind", ["random_unitary", "convex_combination"])
def test_mixture_with_a_weight_just_below_zero_deconvolves(runner, tmp_path, kind):
    # -1e-10 is a probability within 1e-9; its square root used to be taken unclipped
    members = [unitary_spec("identity", np.eye(2)).document, unitary_spec("x", SIGMA[1]).document]
    doc = {"schema_version": 1, "kind": kind, "dim": 2, "name": "mixture"}
    if kind == "random_unitary":
        doc.update(unitaries=[m["unitary"] for m in members], probabilities=[1.0000000001, -1e-10])
    else:
        doc.update(parts=members, weights=[1.0000000001, -1e-10])
    spec_path = tmp_path / "mixture.json"
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["deconvolve", str(spec_path), str(spec_path)])
    assert result.exit_code == 0, result.output
    assert parse_family(result.output).n_params == 4


def test_examples_run_singular_guess_is_a_usage_error(runner):
    # the correlated bit-flip guess at p = 1/2 has no inverse
    result = runner.invoke(main, ["examples", "run", "bitflip-memory", "--set", "p=0.5"])
    assert result.exit_code == 2, result.output
    assert "singular" in result.output.lower()


def test_examples_run_library_fault_is_not_a_usage_error(runner, monkeypatch):
    import qdeconv.scenarios as sc

    def broken(*args, **kwargs):
        raise ValueError("fault inside the library")

    monkeypatch.setattr(sc, "common_correctable_family", broken)
    result = runner.invoke(main, ["examples", "run", "bitflip-memory"])
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)
    assert "fault inside the library" in str(result.exception)


def test_examples_run_usage_errors(runner):
    assert runner.invoke(main, ["examples", "run", "nope"]).exit_code == 2
    assert runner.invoke(main, ["examples", "run", "qutrit-extreme", "--set", "x"]).exit_code == 2
    assert (
        runner.invoke(main, ["examples", "run", "qutrit-extreme", "--set", "bogus=1"]).exit_code
        == 2
    )


def test_parse_error_exits_2(runner, tmp_path, spec_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["deconvolve", str(bad), spec_files[1]])
    assert result.exit_code == 2
    missing = runner.invoke(main, ["deconvolve", str(tmp_path / "nope.json"), spec_files[1]])
    assert missing.exit_code == 2


def test_singular_guess_exits_2(runner, tmp_path):
    from qdeconv.scenarios import bitflip_correlated, bitflip_with_memory

    true_path = tmp_path / "true.json"
    guess_path = tmp_path / "guess.json"
    true_path.write_text(
        emit_channel_spec(kraus_spec("memory", bitflip_with_memory(0.5, 0.5).kraus))
    )
    guess_path.write_text(
        emit_channel_spec(kraus_spec("singular", bitflip_correlated(0.5).kraus))
    )
    result = runner.invoke(main, ["deconvolve", str(true_path), str(guess_path)])
    assert result.exit_code == 2
    assert "singular" in result.output.lower()


def test_seed_env_var_and_flag_priority(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    args = ["--format", "json", "verify", str(fam_path), true_path, guess_path, "--states", "5"]
    via_env = runner.invoke(main, args, env={"QDECONV_SEED": "4242"})
    assert json.loads(via_env.output)["seed"] == 4242
    flag_wins = runner.invoke(main, ["--seed", "1", *args], env={"QDECONV_SEED": "4242"})
    assert json.loads(flag_wins.output)["seed"] == 1

    # examples run takes a given seed even when it equals the default, 1234;
    # with none given it keeps the scenario's own seed (11 for qutrit-extreme)
    def scenario_seed(*global_args, env=None):
        result = runner.invoke(
            main, [*global_args, "--format", "json", "examples", "run", "qutrit-extreme"], env=env
        )
        assert result.exit_code == 0, result.output
        return json.loads(result.output)["metadata"]["seed"]

    assert scenario_seed("--seed", "1234", env={"QDECONV_SEED": None}) == 1234
    assert scenario_seed(env={"QDECONV_SEED": "1234"}) == 1234
    assert scenario_seed(env={"QDECONV_SEED": None}) == 11


@pytest.mark.parametrize("subcommand", ["verify", "estimate"])
@pytest.mark.parametrize("via", ["flag", "environment"])
def test_negative_seed_is_a_usage_error(runner, spec_files, tmp_path, subcommand, via):
    true_path, guess_path = spec_files
    fam_path = tmp_path / "fam.json"
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", str(fam_path)])
    obs_path = tmp_path / "obs.json"
    state_path = tmp_path / "state.json"
    obs_path.write_text(emit_hermitian_matrix(np.diag([1.0, -0.5, 0.25])))
    state_path.write_text(emit_hermitian_matrix(np.eye(3) / 3))
    if subcommand == "verify":
        args = ["verify", str(fam_path), true_path, guess_path, "--states", "5"]
    else:
        args = ["estimate", str(obs_path), str(state_path), true_path, guess_path, "--shots", "10"]
    if via == "flag":
        result = runner.invoke(main, ["--seed", "-1", *args])
    else:
        result = runner.invoke(main, args, env={"QDECONV_SEED": "-1"})
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output and "-1" in result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output


BAD_BYTES = {"non-UTF-8": b'{"dim": 3, \xff\xfe}', "not-JSON": b"{not json"}
BAD_MATRICES = {
    "NaN observable": np.diag([np.nan, 1.0, 1.0]),
    "non-Hermitian observable": np.triu(np.ones((3, 3))),
    "wrong-dimension observable": SIGMA[3],
    "trace-2 state": 2 * np.eye(3) / 3,
    "non-PSD state": np.diag([1.5, -0.5, 0.0]),
    "non-Hermitian state": np.eye(3) / 3 + np.triu(np.ones((3, 3)), 1) / 10,
}


@pytest.mark.parametrize(
    "case",
    [
        *(f"{kind} {role}" for kind in BAD_BYTES for role in ("spec", "family", "observable", "state")),
        *BAD_MATRICES,
        "negative shots",
    ],
)
def test_bad_input_is_a_usage_error_naming_the_file(runner, spec_files, tmp_path, case):
    true_path, guess_path = spec_files
    files = {"spec": true_path, "family": str(tmp_path / "fam.json")}
    runner.invoke(main, ["deconvolve", true_path, guess_path, "-o", files["family"]])
    for role, M in (("observable", np.diag([1.0, -0.5, 0.25])), ("state", np.eye(3) / 3)):
        files[role] = str(tmp_path / f"{role}.json")
        (tmp_path / f"{role}.json").write_text(emit_hermitian_matrix(M))

    kind, role = case.split()
    bad = tmp_path / "bad.json"
    if case in BAD_MATRICES:
        bad.write_text(emit_hermitian_matrix(BAD_MATRICES[case]))
    elif kind in BAD_BYTES:
        bad.write_bytes(BAD_BYTES[kind])
    if bad.exists():
        files[role] = str(bad)

    if role == "family":
        args = ["verify", files["family"], files["spec"], guess_path, "--states", "5"]
    else:
        shots = "-1" if case == "negative shots" else "0"
        args = ["estimate", files["observable"], files["state"], files["spec"], guess_path, "--shots", shots]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
    assert (str(bad) if bad.exists() else "--shots") in result.output


def test_sweep_ranks_candidates(runner, spec_files, tmp_path):
    true_path, guess_path = spec_files
    ident_path = tmp_path / "ident.json"
    ident_path.write_text(emit_channel_spec(unitary_spec("identity", np.eye(3))))
    result = runner.invoke(
        main,
        ["--format", "json", "sweep", true_path, guess_path, str(ident_path), true_path],
    )
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert [r["n_params"] for r in rows] == [9, 5, 1]
    assert rows[0]["candidate"] == true_path


def _document(kind: str) -> tuple[str, dict]:
    """A document of each form the schema pass let through to a traceback (exit 1)."""
    if kind == "family":
        doc = json.loads(emit_family(q.ObservableFamily.from_basis(2, [np.eye(2) / np.sqrt(2)])))
        return "$.dim must be an integer in [1, 64], got 2.0", dict(doc, dim=2.0)
    if kind == "matrix":
        return "$.dim must be an integer in [1, 64], got true", {"dim": True, "matrix": [[[1, 0]]]}
    doc = unitary_spec("z", SIGMA[3]).document
    if kind == "spec dim":
        return "$.dim must be an integer in [1, 64], got 2.0", dict(doc, dim=2.0)
    doc["unitary"][1][1][0] = float("nan")
    return "$.unitary[1][1][0] must be a finite number, got non-finite NaN", doc


@pytest.mark.parametrize("kind", ["spec dim", "spec nan", "family", "matrix"])
def test_documents_the_schema_admitted_but_the_program_could_not_read_exit_2(runner, tmp_path, kind):
    # "dim": 2.0 in a spec ended in a TypeError, a NaN entry in a LinAlgError,
    # and "dim": true passed as a 1 x 1 matrix
    reason, doc = _document(kind)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "z.json"
    good.write_text(emit_channel_spec(unitary_spec("z", SIGMA[3])))
    argv = {
        "spec dim": ["deconvolve", str(bad), str(good)],
        "spec nan": ["sweep", str(good), str(bad)],
        "family": ["verify", str(bad), str(good), str(good)],
        "matrix": ["estimate", str(bad), str(bad), str(good), str(good)],
    }[kind]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert f"{bad}: " in result.output and reason in result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output


def test_deeply_nested_spec_exits_2(runner, tmp_path):
    # 300 levels of convex_combination parts ended in a RecursionError traceback (exit 1)
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(deep_spec(300)))
    good = tmp_path / "z.json"
    good.write_text(emit_channel_spec(unitary_spec("z", SIGMA[3])))
    result = runner.invoke(main, ["deconvolve", str(deep), str(good)])
    assert result.exit_code == 2, result.output
    assert f"{deep}: " in result.output and "nests parts deeper than 32 levels" in result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
