"""Command-line front end: relation verification, spectra, eigenchecks.

Exit codes: 0 when every selected check passes, 1 on verification failure
(including negative-control catalogs firing as designed, so CI exercises the
failure path), 2 on usage or configuration errors.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import click

from .errors import BlocksepError, ConfigError, InapplicableRelationError, RelationSyntaxError
from .models import (
    COULOMB,
    OSCILLATOR,
    ModelSpec,
    Zero,
    coulomb_spec,
    oscillator_spec,
    spec_from_json,
    spec_to_json,
)
from .numerics import FDScheme, relation_residual_numeric
from .report import ReportItem, VerificationReport, serialize
from .relations import (
    OperatorEnv,
    RelationSet,
    catalog_coulomb,
    catalog_coulomb_commutativity,
    catalog_coulomb_erratum_wrong,
    catalog_coulomb_sj,
    catalog_coulomb_yx,
    catalog_coulomb_zy,
    catalog_gauge,
    catalog_negative_controls,
    catalog_oscillator,
    catalog_oscillator_algebra,
    catalog_oscillator_commutativity,
    catalog_proposition_A,
    over,
    parse_relation_file,
    settle_groups,
    verify_relation,
    verify_symbolic,
)

CATALOGS = {
    "proposition-A": lambda spec: catalog_proposition_A(),
    "gauge": catalog_gauge,
    "negative-controls": catalog_negative_controls,
    "oscillator": catalog_oscillator,
    "oscillator-algebra": catalog_oscillator_algebra,
    "oscillator-commutativity": catalog_oscillator_commutativity,
    "coulomb": catalog_coulomb,
    "coulomb-commutativity": catalog_coulomb_commutativity,
    "coulomb-erratum-wrong": catalog_coulomb_erratum_wrong,
    "coulomb-sj": catalog_coulomb_sj,
    "coulomb-yx": catalog_coulomb_yx,
    "coulomb-zy": catalog_coulomb_zy,
}
CATALOG_NAMES = list(CATALOGS)

DEFAULT_NUMERIC_PARAMS = {"w2": 1.0, "eta": 2.0}


def _parse_blocks(text: str):
    try:
        sizes = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --blocks value {text!r}") from exc
    if not sizes:
        raise ConfigError("empty --blocks value")
    return sizes


def _config_model(build, arg) -> ModelSpec:
    """``build(arg)`` for a model described by the config; a bad description
    (malformed JSON values, an invalid partition) is a config error."""
    try:
        return build(arg)
    except (BlocksepError, ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _model_for_catalog(catalog: str, blocks, model_json):
    if model_json is not None:
        return _config_model(spec_from_json, model_json)
    if catalog in ("proposition-A", "negative-controls") and blocks is None:
        return None
    if blocks is None:
        raise ConfigError(f"catalog {catalog!r} needs --blocks or a config model")
    return _config_model(coulomb_spec if catalog.startswith("coulomb") else oscillator_spec, blocks)


def build_catalog(catalog: str, spec: ModelSpec | None) -> RelationSet:
    if catalog not in CATALOGS:
        raise ConfigError(f"unknown catalog {catalog!r}; known: {', '.join(CATALOG_NAMES)}")
    return CATALOGS[catalog](spec)


def _mode(config: dict) -> str:
    mode = config.get("mode", "symbolic")
    if mode not in ("symbolic", "numeric", "both"):
        raise ConfigError(f"unknown mode {mode!r}")
    return mode


def _numeric_params_for(spec: ModelSpec) -> dict:
    params = dict(DEFAULT_NUMERIC_PARAMS)
    for name in spec.param_names():
        if name.startswith("beta") or name.startswith("alpha"):
            params.setdefault(name, float(name[-1]) if name[-1].isdigit() else 1.0)
    return params


_WORKER_STATE: dict = {}


def _worker_init(catalog, model_json):
    spec = spec_from_json(model_json) if model_json else None
    _WORKER_STATE["rs"] = build_catalog(catalog, spec)


def _worker_verify(index: int):
    return verify_relation(*_WORKER_STATE["rs"].pairs[index])


def run_verify(config: dict) -> VerificationReport:
    catalog = config.get("catalog")
    if not catalog:
        raise ConfigError("verify needs a catalog name")
    blocks = config.get("blocks")
    spec = _model_for_catalog(catalog, blocks, config.get("model"))
    mode = _mode(config)
    report = VerificationReport(config=_echo_config(config, spec))
    try:
        rs = build_catalog(catalog, spec)
    except BlocksepError as exc:
        # a model the catalog cannot be built over (N too small, index out of range)
        raise ConfigError(str(exc)) from exc
    if not rs.pairs:
        raise ConfigError(f"catalog {catalog!r} has no relations on this model")

    # more workers than cores or relations only cost start-up: fork starts them all at once
    jobs = max(1, min(int(config.get("jobs", 1)), os.cpu_count() or 1, len(rs.pairs)))
    if mode in ("symbolic", "both"):
        if jobs > 1:
            model_json = spec_to_json(spec) if spec is not None else None
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init, initargs=(catalog, model_json)
            ) as pool:
                items = settle_groups(list(pool.map(_worker_verify, range(len(rs.pairs)))))
        else:
            items = verify_symbolic(rs)
        if all(item.status == "inapplicable" for item in items):
            raise ConfigError(f"catalog {catalog!r} has no relation this model can evaluate")
        report.items.extend(items)
    if mode in ("numeric", "both"):
        report.items.extend(_verify_numeric(rs, config))
    return report


def _verify_numeric(rs: RelationSet, config: dict) -> list:
    """Numeric residual items for every relation of ``rs`` that is not a record."""
    scheme = FDScheme(
        order=int(config.get("fd_order", 8)),
        h=float(config.get("fd_step", 1e-2)),
        extended=True,
    )
    tol = float(config.get("tol", 1e-5))
    seed = int(config.get("seed", 20240801))
    items = []
    for rel, env in rs.pairs:
        if rel.expectation == "record":
            continue
        try:
            if env.spec is None:
                raise InapplicableRelationError(
                    f"numeric mode needs a model; {env.label} is an operator table"
                )
            params = _numeric_params_for(env.spec)
            params.update(config.get("params") or {})
            stats = relation_residual_numeric(
                rel,
                env.spec,
                params,
                probes=int(config.get("probes", 5)),
                points_per_probe=int(config.get("points", 10)),
                seed=seed,
                scheme=scheme,
            )
        except ConfigError as exc:
            raise ConfigError(f"fd_step {scheme.h:g} is too large for {rel.name}: {exc}") from exc
        except BlocksepError as exc:
            items.append(
                ReportItem(rel.name, "relation", "numeric", "inapplicable", None,
                           expectation=rel.expectation, note=str(exc)))
            continue
        if rel.expectation == "nonzero":
            ok = stats.max_relative > 1e-2
            status = "residual" if ok else "zero"
        else:
            ok = stats.max_relative <= tol
            status = "zero" if ok else "residual"
        items.append(
            ReportItem(
                name=f"{rel.name}[numeric]",
                kind="relation",
                mode="numeric",
                status=status,
                passed=ok,
                expectation=rel.expectation,
                residual=stats.to_json(),
            )
        )
    return items


def _echo_config(config: dict, spec: ModelSpec | None) -> dict:
    out = {k: v for k, v in config.items() if v is not None}
    if spec is not None and "model" not in out:
        out["model"] = spec_to_json(spec)
    return out


KNOWN_CONFIG_KEYS = {
    "command", "catalog", "blocks", "mode", "seed", "tol", "out", "jobs", "model",
    "probes", "points", "fd_order", "fd_step", "params", "relation_file", "family",
}

# the numbers verify reads: their type, the values it accepts and that rule in words
CONFIG_NUMBERS = {
    "seed": (int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)"),
    "tol": (float, lambda v: 0 < v < math.inf, "a positive finite number"),
    "fd_step": (float, lambda v: 0 < v < math.inf, "a positive finite number"),
    "fd_order": (int, lambda v: v in (4, 6, 8), "4, 6 or 8"),
    "probes": (int, lambda v: v >= 1, "a positive integer"),
    "points": (int, lambda v: v >= 1, "a positive integer"),
    "jobs": (int, lambda v: True, "an integer"),
}


def load_config(path: str | None, overrides: dict) -> dict:
    config: dict = {}
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        unknown = set(config) - KNOWN_CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for k, v in overrides.items():
        if v is not None:
            config[k] = v
    for key, (kind, accepts, rule) in CONFIG_NUMBERS.items():
        try:
            ok = key not in config or accepts(kind(config[key]))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {rule}, not {config[key]!r}")
    return config


def _finish(report: VerificationReport, out_path: str | None, quiet: bool = False) -> int:
    doc = serialize(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
        summary_path = out_path.rsplit(".", 1)[0] + ".txt"
        with open(summary_path, "w") as fh:
            fh.write(report.to_text() + "\n")
    if not quiet:
        click.echo(report.to_text())
    return report.exit_code()


@click.group()
def main():
    """Exact and numeric verification for block-separated quantum models."""


@main.command()
@click.option("--catalog", type=str, default=None,
              help="catalog name; user relations go through --relation-file")
@click.option("--blocks", type=str, default=None, help="comma-separated block sizes")
@click.option("--mode", type=click.Choice(["symbolic", "numeric", "both"]), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--jobs", type=int, default=None)
@click.option("--config", "config_path", type=str, default=None)
@click.option("--relation-file", type=str, default=None,
              help="verify user relations from a text file against --blocks model")
def verify(catalog, blocks, mode, seed, tol, out_path, jobs, config_path, relation_file):
    """Verify a relation catalog exactly (and/or numerically)."""
    try:
        config = load_config(
            config_path,
            {
                "catalog": catalog,
                "blocks": _parse_blocks(blocks) if blocks else None,
                "mode": mode,
                "seed": seed,
                "tol": tol,
                "out": out_path,
                "jobs": jobs,
                "relation_file": relation_file,
            },
        )
        config["command"] = "verify"
        if config.get("relation_file"):
            report = _run_relation_file(config)
        else:
            report = run_verify(config)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    sys.exit(_finish(report, config.get("out")))


def _run_relation_file(config) -> VerificationReport:
    blocks = config.get("blocks")
    model_json = config.get("model")
    if model_json is None and blocks is None:
        raise ConfigError("relation files need --blocks or a config model")
    if model_json:
        spec = _config_model(spec_from_json, model_json)
    else:
        spec = _config_model(coulomb_spec if config.get("family") == COULOMB else oscillator_spec,
                             blocks)
    try:
        with open(config["relation_file"]) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        rels = parse_relation_file(text, param_names=spec.param_names())
    except RelationSyntaxError as exc:
        raise ConfigError(str(exc)) from exc
    mode = _mode(config)
    report = VerificationReport(config=_echo_config(config, spec))
    rs = RelationSet("relation-file", over(OperatorEnv.for_model(spec), rels))
    items = verify_symbolic(rs) if mode in ("symbolic", "both") else []
    if mode in ("numeric", "both"):
        items += _verify_numeric(rs, config)
    for item in items:
        if item.status == "inapplicable":
            # a user line the model cannot evaluate (unknown integral, no constants) is a typo
            raise ConfigError(f"relation {item.name}: {item.note}")
        report.add(item)
    return report


@main.command()
@click.option("--family", type=click.Choice([OSCILLATOR, COULOMB]), required=True)
@click.option("--blocks", type=str, required=True)
@click.option("--kmax", type=int, default=2, help="max radial number per block")
@click.option("--lmax", type=int, default=1, help="max harmonic degree per block")
@click.option("--nrmax", type=int, default=2, help="max N_r (coulomb)")
@click.option("--jmax", type=int, default=1, help="max inter-block number (coulomb)")
@click.option("--omega2", type=str, default="1")
@click.option("--eta", type=str, default="2")
@click.option("--out", "out_path", type=str, default=None)
def spectrum(family, blocks, kmax, lmax, nrmax, jmax, omega2, eta, out_path):
    """Tabulate closed-form energies against the eigenfunction oracle."""
    import itertools

    from .spectra import EigenfunctionSpec, coulomb_spectrum_row, oscillator_spectrum_row

    try:
        sizes = _parse_blocks(blocks)
        if family == OSCILLATOR:
            spec = oscillator_spec(
                sizes, tuple(Zero() for _ in sizes), omega2=Fraction(omega2)
            )
        else:
            spec = coulomb_spec(
                sizes, tuple(Zero() for _ in sizes[:-1]), eta=Fraction(eta)
            )
    except (BlocksepError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    config = {"command": "spectrum", "family": family, "blocks": sizes,
              "kmax": kmax, "lmax": lmax, "nrmax": nrmax, "jmax": jmax}
    report = VerificationReport(config=config)
    rows = []
    part = spec.partition
    try:
        if family == OSCILLATOR:
            lranges = [range(0, (lmax if d > 1 else 0) + 1) for d in sizes]
            for ks in itertools.product(range(kmax + 1), repeat=part.N):
                if sum(ks) > kmax:
                    continue
                for ls in itertools.product(*lranges):
                    q = EigenfunctionSpec(spec, angular=tuple(ls), radial=tuple(ks))
                    row = oscillator_spectrum_row(q)
                    rows.append(row)
                    report.add(ReportItem(
                        name=f"osc-spectrum k={list(ks)} l={list(ls)}",
                        kind="spectrum", mode="numeric",
                        status="ok" if row.exact_ratio_2 else "fail",
                        passed=row.exact_ratio_2, data=row.to_json()))
        else:
            lranges = [range(0, (lmax if d > 1 else 0) + 1) for d in sizes]
            for nr in range(nrmax + 1):
                for js in itertools.product(range(jmax + 1), repeat=part.N - 1):
                    for ls in itertools.product(*lranges):
                        q = EigenfunctionSpec(
                            spec, angular=tuple(ls), radial=(nr,), hyper_J=tuple(js)
                        )
                        row = coulomb_spectrum_row(q)
                        rows.append(row)
                        report.add(ReportItem(
                            name=f"coul-spectrum Nr={nr} J={list(js)} l={list(ls)}",
                            kind="spectrum", mode="numeric",
                            status="ok" if row.exact_ratio_2 else "fail",
                            passed=row.exact_ratio_2, data=row.to_json()))
    except BlocksepError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    click.echo(_spectrum_table(rows, family))
    sys.exit(_finish(report, out_path, quiet=True))


def _spectrum_table(rows, family) -> str:
    head = (
        f"{'quantum numbers':32s} {'printed':>14s} {'oracle':>14s} {'ratio':>8s}"
        if family == OSCILLATOR
        else f"{'quantum numbers':32s} {'printed':>14s} {'oracle':>14s} {'identity':>8s}"
    )
    lines = [head]
    for r in rows:
        label = json.dumps(r.labels, sort_keys=True)
        mark = f"{r.ratio_oracle_over_paper:8.4f}" if family == OSCILLATOR else (
            "exact" if r.exact_ratio_2 else "BROKEN").rjust(8)
        lines.append(f"{label:32s} {r.paper_value:14.8f} {r.oracle_value:14.8f} {mark}")
    return "\n".join(lines)


@main.command()
@click.option("--family", type=click.Choice([OSCILLATOR, COULOMB]), required=True)
@click.option("--blocks", type=str, required=True)
@click.option("--quantum", type=str, required=True,
              help='JSON, e.g. {"angular": [1, 0], "radial": [0, 1]}')
@click.option("--potentials", type=str, default=None,
              help='JSON list of potential objects (models schema)')
@click.option("--omega2", type=str, default="1")
@click.option("--eta", type=str, default="2")
@click.option("--tol", type=float, default=1e-6)
@click.option("--points", "points_per_check", type=click.IntRange(min=1), default=10)
@click.option("--seed", type=int, default=20240801)
@click.option("--out", "out_path", type=str, default=None)
def eigencheck(family, blocks, quantum, potentials, omega2, eta, tol,
               points_per_check, seed, out_path):
    """Assemble a closed-form eigenfunction and check H psi / psi pointwise."""
    import numpy as np

    from .models import build_hamiltonian, operator_context
    from .numerics import apply_numeric, model_point_guards, sample_points
    from .specfun import assemble_eigenfunction, coulomb_energy_value, oscillator_energy
    from .spectra import EigenfunctionSpec

    try:
        sizes = _parse_blocks(blocks)
        qn = json.loads(quantum)
        model_doc = {"family": family, "blocks": sizes}
        if potentials:
            model_doc["potentials"] = json.loads(potentials)
        else:
            model_doc["potentials"] = [{"kind": "zero"}] * (
                len(sizes) if family == OSCILLATOR else len(sizes) - 1
            )
        if family == OSCILLATOR:
            model_doc["omega2"] = omega2
        else:
            model_doc["eta"] = eta
        spec = spec_from_json(model_doc)
        angular = tuple(tuple(a) if isinstance(a, list) else a for a in qn["angular"])
        es = EigenfunctionSpec(
            spec,
            angular=angular,
            radial=tuple(qn["radial"]),
            hyper_J=tuple(qn.get("hyper_J", ())),
        )
        psi = assemble_eigenfunction(es)
        expect = oscillator_energy(es) if family == OSCILLATOR else coulomb_energy_value(es)
    except (BlocksepError, ValueError, KeyError, json.JSONDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    config = {"command": "eigencheck", "family": family, "blocks": sizes,
              "quantum": qn, "tol": tol, "seed": seed}
    report = VerificationReport(config=config)
    scheme = FDScheme(h=4e-3)
    extent = 5 * scheme.h
    rng = np.random.default_rng(seed)
    pts = sample_points(spec, points_per_check, rng, margin_extent=extent,
                        guards=model_point_guards(spec, extent))
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx, mode="symbolic" if spec.is_symbolic() else "numeric")
    vals = []
    for x in pts:
        hv = apply_numeric(H, psi, x, scheme, spec=spec, params={})
        pv = float(psi([np.array(v) for v in x]))
        vals.append(hv / pv)
    arr = np.array(vals)
    spread = float(arr.std() / abs(arr.mean()))
    agree = abs(float(arr.mean()) - expect) / max(1.0, abs(expect))
    ok = spread <= tol and agree <= 10 * tol
    report.add(ReportItem(
        name=f"eigencheck {family} {sizes} {json.dumps(qn, sort_keys=True)}",
        kind="eigencheck", mode="numeric", status="ok" if ok else "fail", passed=ok,
        data={"mean": float(arr.mean()), "spread": spread,
              "closed_form": expect, "points": len(vals)}))
    click.echo(f"H psi / psi: mean {arr.mean():.10f}, spread {spread:.3e}, "
               f"closed form {expect:.10f}")
    sys.exit(_finish(report, out_path, quiet=True))


if __name__ == "__main__":
    main()
