"""Command-line interface.

Exit codes: 0 when every check passes, 1 when a check fails, 2 for usage or
parse errors.  Beyond the input checks made here, an error raised inside the
library is a fault of the program, not a usage error, and ends in a traceback.  All subcommands accept ``-`` for
stdin and print JSON or a table to stdout, so they compose in pipelines.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click
import numpy as np
from click.core import ParameterSource

from .channels import DEFAULT_TOL, is_density_matrix, transfer_from_kraus
from .deconvolution import DEFAULT_KERNEL_RTOL, GuessPair, correctable_family, evaluate, guess_sweep, verify_family
from .errors import QdeconvError, SingularChannelError, SpecParseError, UnknownScenarioError
from .quorum import deconvolved_estimate, quorum_basis, tensor_product_quorum
from .serialization import (
    emit_family,
    parse_channel_spec,
    parse_family,
    parse_hermitian_matrix,
)

DEFAULT_SEED = 1234


def _read_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _parse(path: str, parser, *args):
    """``parser(contents of path, *args)``; a malformed file is a usage error naming it."""
    try:
        return parser(_read_source(path), *args)
    except SpecParseError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _load_transfer(path: str):
    return transfer_from_kraus(_parse(path, parse_channel_spec).to_kraus_channel())


def _require_same_dim(true_path: str, phi, guess_path: str, phi_g) -> None:
    if phi.dim != phi_g.dim:
        raise click.UsageError(
            f"{guess_path}: guess dimension {phi_g.dim} does not match dimension {phi.dim} of {true_path}"
        )


def _guess_pair(true_path: str, guess_path: str) -> GuessPair:
    phi = _load_transfer(true_path)
    phi_g = _load_transfer(guess_path)
    _require_same_dim(true_path, phi, guess_path, phi_g)
    try:
        return GuessPair.from_transfers(phi, phi_g)
    except QdeconvError as exc:
        raise click.UsageError(str(exc))


def _non_negative(ctx: click.Context, param: click.Parameter, value: float) -> float:
    # written so that NaN fails too; click.FloatRange(min=0) lets it through
    if not value >= 0:
        raise click.BadParameter(f"must be a non-negative number, got {value}")
    return value


@click.group()
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, callback=_non_negative, help="Tolerance for verification checks (non-negative).")
@click.option("--kernel-tol", type=float, default=DEFAULT_KERNEL_RTOL, show_default=True, callback=_non_negative, help="Relative singular-value threshold for kernel extraction (non-negative): a direction is correctable when its singular value is at most this times the largest.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True, envvar="QDECONV_SEED", help="Random seed, non-negative (flag beats the QDECONV_SEED environment variable).")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True, help="Report format.")
@click.pass_context
def main(ctx: click.Context, tol: float, kernel_tol: float, seed: int, fmt: str) -> None:
    """Recover expectation values under partially known quantum noise."""
    ctx.ensure_object(dict)
    ctx.obj.update(tol=tol, kernel_tol=kernel_tol, seed=seed, fmt=fmt)


@main.command()
@click.argument("true_spec")
@click.argument("guess_spec")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None, help="Write the family JSON here instead of stdout.")
@click.pass_context
def deconvolve(ctx: click.Context, true_spec: str, guess_spec: str, output: Optional[str]) -> None:
    """Extract the correctable observable family for TRUE_SPEC under GUESS_SPEC."""
    gp = _guess_pair(true_spec, guess_spec)
    try:
        fam = correctable_family(gp, ctx.obj["kernel_tol"])
    except QdeconvError as exc:
        raise click.ClickException(str(exc))
    text = emit_family(fam)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write {output}: {exc}")
    else:
        click.echo(text)


@main.command()
@click.argument("family")
@click.argument("true_spec")
@click.argument("guess_spec")
@click.option("--states", type=click.IntRange(min=1), default=100, show_default=True, help="Number of random states to draw.")
@click.pass_context
def verify(ctx: click.Context, family: str, true_spec: str, guess_spec: str, states: int) -> None:
    """Monte-Carlo check that FAMILY is exactly recovered for TRUE/GUESS."""
    fam = _parse(family, parse_family)
    gp = _guess_pair(true_spec, guess_spec)
    if fam.dim != gp.dim:
        raise click.UsageError(f"family dimension {fam.dim} does not match channel dimension {gp.dim}")
    if fam.n_params == 0:
        raise click.UsageError("cannot verify an empty family")
    max_delta = verify_family(gp, fam, states, ctx.obj["seed"])
    passed = max_delta <= ctx.obj["tol"]
    doc = {
        "max_delta_nd": max_delta,
        "states": states,
        "seed": ctx.obj["seed"],
        "tolerance": ctx.obj["tol"],
        "passed": passed,
    }
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(doc, indent=2))
    else:
        marker = "PASS" if passed else "FAIL"
        click.echo(
            f"[{marker}] max recovery deviation {max_delta:.3e} over {states} states "
            f"(tol {ctx.obj['tol']:.1e}, seed {ctx.obj['seed']})"
        )
    if not passed:
        ctx.exit(1)


@main.command()
@click.argument("observable")
@click.argument("state")
@click.argument("true_spec")
@click.argument("guess_spec")
@click.option("--shots", type=click.IntRange(min=0), default=10000, show_default=True, help="Shots per quorum element; 0 uses exact traces.")
@click.option("--quorum-dim", type=click.IntRange(min=2), default=None, help="Tensor-factor dimension for the quorum, at least 2 (the system dimension must be a power of it; defaults to the full dimension).")
@click.pass_context
def estimate(ctx: click.Context, observable: str, state: str, true_spec: str, guess_spec: str, shots: int, quorum_dim: Optional[int]) -> None:
    """Estimate the deconvolved expectation of OBSERVABLE on STATE from shots."""
    A = _parse(observable, parse_hermitian_matrix, "observable")
    rho = _parse(state, parse_hermitian_matrix, "state")
    gp = _guess_pair(true_spec, guess_spec)
    d = gp.dim
    if d < 2:
        raise click.UsageError(f"{true_spec}: estimate needs channel dimension at least 2 for a quorum, got {d}")
    for path, name, M in ((observable, "observable", A), (state, "state", rho)):
        if M.shape[0] != d:
            raise click.UsageError(f"{path}: {name} dimension {M.shape[0]} does not match channel dimension {d}")
    if not is_density_matrix(rho):
        raise click.UsageError(f"{state}: state is not a density matrix (PSD, unit trace) within {DEFAULT_TOL:g}")

    if quorum_dim is None or quorum_dim == d:
        qb = quorum_basis(d)
    else:
        factors = 0
        size = 1
        while size < d:
            size *= quorum_dim
            factors += 1
        if size != d or factors < 1:
            raise click.UsageError(f"--quorum-dim {quorum_dim} is not a tensor root of dimension {d}")
        qb = tensor_product_quorum(quorum_basis(quorum_dim), factors)

    # a finite but huge observable entry overflows the modified observables or their spread
    try:
        with np.errstate(over="raise"):
            est = deconvolved_estimate(gp, A, rho, qb, shots, ctx.obj["seed"])
            exact = evaluate(gp, A, rho)
    except FloatingPointError as exc:
        raise click.UsageError(f"{observable}: observable is too large to estimate: {exc}")
    doc = {
        "mean": est.mean,
        "std_error": est.std_error,
        "shots_per_element": est.shots,
        "seed": est.seed,
        "exact_deconvolved": exact.deconvolved,
        "exact_ideal": exact.ideal,
    }
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(
            f"estimate {est.mean:.6f} +- {est.std_error:.6f} "
            f"(exact deconvolved {exact.deconvolved:.6f}, ideal {exact.ideal:.6f})"
        )


@main.command()
@click.argument("true_spec")
@click.argument("candidates", nargs=-1, required=True)
@click.pass_context
def sweep(ctx: click.Context, true_spec: str, candidates: tuple[str, ...]) -> None:
    """Rank candidate guess channels by correctable-family size."""
    phi = _load_transfer(true_spec)
    cand_transfers = [_load_transfer(path) for path in candidates]
    for path, cand in zip(candidates, cand_transfers):
        _require_same_dim(true_spec, phi, path, cand)
    try:
        ranking = guess_sweep(phi, cand_transfers, ctx.obj["kernel_tol"])
    except QdeconvError as exc:
        raise click.ClickException(str(exc))
    rows = [
        {"rank": i, "candidate": candidates[idx], "index": idx, "n_params": n}
        for i, (idx, n) in enumerate(ranking)
    ]
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(rows, indent=2))
    else:
        for row in rows:
            note = "singular guess" if row["n_params"] < 0 else f"{row['n_params']} parameters"
            click.echo(f"{row['rank']:>3}  {row['candidate']}  {note}")


@main.group()
def examples() -> None:
    """Run or list the built-in reference scenarios."""


@examples.command("list")
@click.pass_context
def examples_list(ctx: click.Context) -> None:
    """List registered scenario names."""
    from .scenarios import scenario_names  # only the examples commands need the scenarios module

    names = scenario_names()
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps(names, indent=2))
    else:
        for name in names:
            click.echo(name)


def _parse_override(kv: str) -> tuple[str, object]:
    if "=" not in kv:
        raise click.UsageError(f"override {kv!r} is not KEY=VALUE")
    key, raw = kv.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    raise click.UsageError(f"override {kv!r} has a non-numeric value")


@examples.command("run")
@click.argument("name")
@click.option("--set", "assignments", multiple=True, metavar="KEY=VALUE", help="Override a scenario parameter (repeatable).")
@click.pass_context
def examples_run(ctx: click.Context, name: str, assignments: tuple[str, ...]) -> None:
    """Run scenario NAME and report its checks."""
    from .scenarios import emit_report, run_scenario, scenario_parameters

    overrides = dict(_parse_override(kv) for kv in assignments)
    # an explicit --seed or QDECONV_SEED reaches the scenario, even when it equals DEFAULT_SEED
    if "seed" not in overrides and ctx.find_root().get_parameter_source("seed") is not ParameterSource.DEFAULT:
        overrides["seed"] = ctx.obj["seed"]
    try:
        params = scenario_parameters(name, overrides)
    except (UnknownScenarioError, ValueError) as exc:
        raise click.UsageError(str(exc))
    try:
        result = run_scenario(name, params, kernel_tol=ctx.obj["kernel_tol"])
    except SingularChannelError as exc:  # a bit-flip guess at p = 1/2 has no inverse
        raise click.UsageError(str(exc))
    click.echo(emit_report(result, ctx.obj["fmt"]))
    if not result.passed:
        ctx.exit(1)


if __name__ == "__main__":
    main()
