"""Command-line front end: relation verification, spectra, eigenchecks.

Exit codes: 0 when every selected check passes, 1 on verification failure
(including negative-control catalogs firing as designed, so CI exercises the
failure path), 2 on usage or configuration errors.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import click

from .errors import BlocksepError, ConfigError, ExponentOverflowError
from .models import (
    COULOMB,
    OSCILLATOR,
    ModelSpec,
    coulomb_spec,
    oscillator_spec,
    spec_from_json,
    spec_to_json,
)
from .numerics import FDScheme, NumericEnv, relation_residual_numeric
from .report import ReportItem, VerificationReport, serialize
from .relations import (
    CATALOG_NAMES,  # noqa: F401 - re-exported
    OperatorEnv,
    RelationSet,
    build_catalog,
    catalog_family,
    over,
    parse_relation_file,
    settle_groups,
    verify_relation,
    verify_symbolic,
)


def _parse_blocks(text: str):
    try:
        sizes = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --blocks value {text!r}") from exc
    if not sizes:
        raise ConfigError("empty --blocks value")
    return sizes


def _from_input(build, *args):
    """``build(*args)`` on values the user gave; any error in turning them into
    a model or a query (malformed JSON, a value of the wrong type, an invalid
    partition) is a config error."""
    try:
        return build(*args)
    except (BlocksepError, ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _command_model(family: str, blocks: str, potentials: str | None, omega2: str,
                   eta: str) -> ModelSpec:
    """The model of a ``spectrum`` or ``eigencheck`` command line; ``potentials``
    is JSON text, and every potential is zero without it."""
    sizes = _parse_blocks(blocks)
    pots = [{"kind": "zero"}] * (len(sizes) - (family == COULOMB))
    if potentials:
        pots = _from_input(json.loads, potentials)
    doc = {"family": family, "blocks": sizes, "potentials": pots, "omega2": omega2, "eta": eta}
    return _from_input(spec_from_json, doc)


def _source(config: dict) -> str:
    path = config.get("relation_file")
    return f"relation file {path!r}" if path else f"catalog {config['catalog']!r}"


def _verify_model(config: dict) -> ModelSpec | None:
    """The config ``model``, else the ``--blocks`` model of the catalog's family
    (of ``family`` for a relation file); None for a catalog with a model of its own."""
    path, catalog = config.get("relation_file"), config.get("catalog")
    given = config.get("model") is not None or config.get("blocks") is not None
    if given and not path and catalog == "proposition-A":
        raise ConfigError("proposition-A carries its own model")
    if config.get("model") is not None:
        return _from_input(spec_from_json, config["model"])
    if config.get("blocks") is None:
        if not path and catalog in ("proposition-A", "negative-controls"):
            return None
        raise ConfigError(f"{_source(config)} needs --blocks or a config model")
    family = config.get("family") if path else catalog_family(catalog)
    return _from_input(coulomb_spec if family == COULOMB else oscillator_spec, config["blocks"])


def _relation_set(config: dict, spec: ModelSpec | None) -> RelationSet:
    """The relations of the run: the config's relation file over the model's
    environment, or else its catalog over ``spec``."""
    try:
        path = config.get("relation_file")
        if not path:
            return build_catalog(config["catalog"], spec)
        with open(path) as fh:
            rels = parse_relation_file(fh.read(), param_names=spec.param_names())
        return RelationSet(over(OperatorEnv(spec), rels))
    except (OSError, UnicodeError, BlocksepError) as exc:
        # an unreadable file, a malformed line, a catalog the model cannot carry
        raise ConfigError(str(exc)) from exc


def _progress_lines():
    """A progress callback for ``verify_relation`` that writes one stderr line
    per relation: its name, status, wall seconds since the previous line (or
    since this call) and the picture that proved it."""
    import time

    last = [time.perf_counter()]

    def progress(item, picture):
        now = time.perf_counter()
        click.echo(f"{item.name} {item.status} {now - last[0]:.3f}s {picture}", err=True)
        last[0] = now

    return progress


_WORKER_STATE: dict = {}


def _worker_init(config: dict, verbose: bool):
    _WORKER_STATE["rs"] = _relation_set(config, _verify_model(config))
    _WORKER_STATE["verbose"] = verbose


def _worker_verify(indices: list):
    progress = _progress_lines() if _WORKER_STATE["verbose"] else None
    return [verify_relation(*_WORKER_STATE["rs"].pairs[i], progress) for i in indices]


def run_verify(config: dict, verbose: bool = False) -> VerificationReport:
    """Verify the config's catalog or relation file in its mode; ``verbose``
    writes a progress line per symbolic relation to stderr."""
    if not (config.get("catalog") or config.get("relation_file")):
        raise ConfigError("verify needs a catalog name or a relation file")
    spec = _verify_model(config)
    mode = config.get("mode", "symbolic")
    report = VerificationReport(config=_echo_config(config, spec))
    rs = _relation_set(config, spec)
    if not rs.pairs:
        raise ConfigError(f"{_source(config)} has no relations on this model")
    declared = {name for _, env in rs.pairs for name in env.spec.param_names()}
    undeclared = sorted(set(config.get("params") or ()) - declared)
    if undeclared:
        raise ConfigError(f"params {undeclared} name no parameter of {_source(config)}")

    # more workers than cores or relation groups only cost start-up: fork starts them all at once
    jobs = max(1, min(config.get("jobs", 1), os.cpu_count() or 1, len(rs.pairs)))
    if mode in ("symbolic", "both"):
        try:
            if jobs > 1:
                groups: dict = {}  # an image goes with its source, so a worker transports it
                for i, (rel, env) in enumerate(rs.pairs):
                    groups.setdefault((getattr(rel.image, "source", rel.name), env), []).append(i)
                with ProcessPoolExecutor(max_workers=min(jobs, len(groups)),
                                         initializer=_worker_init,
                                         initargs=(config, verbose)) as pool:
                    done = zip(itertools.chain(*groups.values()),
                               itertools.chain(*pool.map(_worker_verify, groups.values())))
                    items = settle_groups([item for _, item in sorted(done)])
            else:
                items = verify_symbolic(rs, _progress_lines() if verbose else None)
        except ExponentOverflowError as exc:
            raise ConfigError(f"{_source(config)}: {exc}") from exc
        report.items.extend(items)
        _check_evaluated(items, config)
        # before the numeric pass, which cannot change this verdict
        if all(item.status == "inapplicable" for item in items):
            raise ConfigError(f"{_source(config)} has no relation this model can evaluate")
    if mode in ("numeric", "both"):
        items = _verify_numeric(rs, config)
        report.items.extend(items)
        _check_evaluated(items, config)
        if mode == "numeric" and items and all(item.status == "inapplicable" for item in items):
            raise ConfigError(f"{_source(config)} has no relation this model can evaluate: "
                              f"{items[0].note}")
    if not report.items:
        raise ConfigError(f"{_source(config)} has only record displays, which numeric mode skips")
    return report


def _check_evaluated(items: list, config: dict):
    """A relation-file line the model cannot evaluate (unknown integral, no
    constants) is a typo, so a config error; a catalog keeps such items."""
    unevaluated = next((item for item in items if item.status == "inapplicable"), None)
    if unevaluated is not None and config.get("relation_file"):
        raise ConfigError(f"relation {unevaluated.name}: {unevaluated.note}")


def _verify_numeric(rs: RelationSet, config: dict) -> list:
    """Numeric residual items for every relation of ``rs`` that is not a record."""
    tol = config.get("tol", 1e-5)
    nenvs: dict = {}  # the numeric view of each OperatorEnv, built on first use
    items = []
    for rel, env in rs.pairs:
        if rel.expectation == "record":
            continue
        try:
            if env not in nenvs:
                nenvs[env] = NumericEnv(env, config.get("params") or {})
            stats = relation_residual_numeric(
                rel,
                nenvs[env],
                probes=config.get("probes", 5),
                points_per_probe=config.get("points", 10),
                seed=config.get("seed", 20240801),
            )
        except OverflowError as exc:
            raise ConfigError(f"{rel.name}: a value of the relation or its model is beyond "
                              "the float range") from exc
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
                residual=asdict(stats),
            )
        )
    return items


def _echo_config(config: dict, spec: ModelSpec | None) -> dict:
    out = {k: v for k, v in config.items() if v is not None}
    if spec is not None and "model" not in out:
        out["model"] = spec_to_json(spec)
    return out


MODES = ("symbolic", "numeric", "both")

def _integer(v) -> bool:
    return type(v) is int  # a JSON integer; neither true nor 2.0 is one


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


# every config field: a test of its value and that rule in words; a test that
# raises (an integer too large for a float) rejects the value too
CONFIG_FIELDS = {
    **{key: (lambda v: isinstance(v, str), "a string")
       for key in ("command", "catalog", "relation_file", "out")},
    "family": (lambda v: v in (OSCILLATOR, COULOMB), f"{OSCILLATOR} or {COULOMB}"),
    "mode": (lambda v: v in MODES, "symbolic, numeric or both"),
    "blocks": (lambda v: isinstance(v, list), "a list of block sizes"),
    "model": (lambda v: isinstance(v, dict), "a model object"),
    "params": (lambda v: isinstance(v, dict) and all(map(_finite, v.values())),
               "an object of finite numbers"),
    "seed": (lambda v: _integer(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
    "tol": (lambda v: _finite(v) and v > 0, "a positive finite number"),
    "probes": (lambda v: _integer(v) and v >= 1, "a positive integer"),
    "points": (lambda v: _integer(v) and v >= 1, "a positive integer"),
    "jobs": (_integer, "an integer"),
}
REMOVED_FIELDS = ("fd_order", "fd_step")  # the stencil settings of numeric mode


def load_config(path: str | None, overrides: dict) -> dict:
    config: dict = {}
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {path!r} is not a JSON object")
    for k, v in overrides.items():
        if v is not None:
            config[k] = v
    removed = sorted(set(config) & set(REMOVED_FIELDS))
    if removed:
        raise ConfigError(f"config field {removed[0]} was removed: numeric mode differentiates "
                          "Taylor jets exactly, with no finite-difference step or order")
    unknown = set(config) - set(CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key, value in config.items():
        accepts, rule = CONFIG_FIELDS[key]
        try:
            ok = accepts(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {rule}, not {value!r}")
    return config


def _fail(exc: Exception):
    """Exit 2 on a usage or configuration error."""
    click.echo(f"config error: {exc}", err=True)
    sys.exit(2)


def _finish(report: VerificationReport, out_path: str | None, text: str | None = None):
    """Write the report to ``out_path`` and its summary next to it, print
    ``text`` (the summary by default), then exit with the report's code; so
    exit 2 on an unwritable ``out_path`` prints no result."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(serialize(report))
            with open(os.path.splitext(out_path)[0] + ".txt", "w") as fh:
                fh.write(report.to_text() + "\n")
        except OSError as exc:
            _fail(exc)
    click.echo(report.to_text() if text is None else text)
    sys.exit(report.exit_code())


@click.group()
def main():
    """Exact and numeric verification for block-separated quantum models."""


@main.command()
@click.option("--catalog", type=str, default=None,
              help="catalog name; user relations go through --relation-file")
@click.option("--blocks", type=str, default=None, help="comma-separated block sizes")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--jobs", type=int, default=None)
@click.option("--config", "config_path", type=str, default=None)
@click.option("--relation-file", type=str, default=None,
              help="verify user relations from a text file against --blocks model")
@click.option("-v", "--verbose", is_flag=True,
              help="one stderr line per symbolic relation: name, status, seconds, picture")
def verify(catalog, blocks, mode, seed, tol, out_path, jobs, config_path, relation_file, verbose):
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
        report = run_verify(config, verbose)
    except ConfigError as exc:
        _fail(exc)
    _finish(report, config.get("out"))


@main.command()
@click.option("--family", type=click.Choice([OSCILLATOR, COULOMB]), required=True)
@click.option("--blocks", type=str, required=True)
@click.option("--kmax", type=click.IntRange(0), default=2, help="max radial number per block")
@click.option("--lmax", type=click.IntRange(0), default=1, help="max harmonic degree per block")
@click.option("--nrmax", type=click.IntRange(0), default=2, help="max N_r (coulomb)")
@click.option("--jmax", type=click.IntRange(0), default=1, help="max inter-block number (coulomb)")
@click.option("--omega2", type=str, default="1")
@click.option("--eta", type=str, default="2")
@click.option("--out", "out_path", type=str, default=None)
def spectrum(family, blocks, kmax, lmax, nrmax, jmax, omega2, eta, out_path):
    """Tabulate closed-form energies against the eigenfunction oracle."""
    from .spectra import EigenfunctionSpec, coulomb_spectrum_row, oscillator_spectrum_row

    try:
        spec = _command_model(family, blocks, None, omega2, eta)
        sizes = list(spec.partition.block_sizes)
        report = VerificationReport(config={
            "command": "spectrum", "family": family, "blocks": sizes,
            "kmax": kmax, "lmax": lmax, "nrmax": nrmax, "jmax": jmax})
        # (label, radial numbers, inter-block numbers) of each row, before its l
        if family == OSCILLATOR:
            queries = [(f"osc-spectrum k={list(ks)}", ks, ())
                       for ks in itertools.product(range(kmax + 1), repeat=len(sizes))
                       if sum(ks) <= kmax]
        else:
            queries = [(f"coul-spectrum Nr={nr} J={list(js)}", (nr,), js) for nr in range(nrmax + 1)
                       for js in itertools.product(range(jmax + 1), repeat=len(sizes) - 1)]
        row_of = oscillator_spectrum_row if family == OSCILLATOR else coulomb_spectrum_row
        lranges = [range((lmax if d > 1 else 0) + 1) for d in sizes]
        rows = []
        for (label, radial, hyper_J), ls in itertools.product(queries, itertools.product(*lranges)):
            row = row_of(EigenfunctionSpec(spec, angular=ls, radial=radial, hyper_J=hyper_J))
            rows.append(row)
            report.add(ReportItem(
                name=f"{label} l={list(ls)}", kind="spectrum", mode="numeric",
                status="ok" if row.exact_ratio_2 else "fail",
                passed=row.exact_ratio_2, data=asdict(row)))
    except BlocksepError as exc:
        _fail(exc)
    _finish(report, out_path, _spectrum_table(rows, family))


def _spectrum_table(rows, family) -> str:
    head = (
        f"{'quantum numbers':32s} {'printed':>14s} {'oracle':>14s} {'ratio':>8s}"
        if family == OSCILLATOR
        else f"{'quantum numbers':32s} {'printed':>14s} {'oracle':>14s} {'identity':>8s}"
    )
    lines = [head]
    for r in rows:
        label = json.dumps(r.quantum_numbers, sort_keys=True)
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

    from .models import build_hamiltonian_raw, operator_context
    from .numerics import apply_numeric, compile_operator, model_point_guards, sample_points
    from .specfun import assemble_eigenfunction, coulomb_energy_value, oscillator_energy
    from .spectra import EigenfunctionSpec

    scheme = FDScheme(h=4e-3)
    extent = 5 * scheme.h
    try:
        load_config(None, {"tol": tol, "seed": seed})
        spec = _command_model(family, blocks, potentials, omega2, eta)
        qn = _from_input(json.loads, quantum)
        if not (isinstance(qn, dict) and all(isinstance(v, list) for v in qn.values())
                and {"angular", "radial"} <= set(qn) <= {"angular", "radial", "hyper_J"}):
            raise ConfigError('--quantum must be an object of lists "angular" and "radial" '
                              'and, optionally, "hyper_J"')
        es = _from_input(lambda: EigenfunctionSpec(
            spec,
            angular=tuple(tuple(a) if isinstance(a, list) else a for a in qn["angular"]),
            radial=tuple(qn["radial"]),
            hyper_J=tuple(qn.get("hyper_J", ())),
        ))
        psi = assemble_eigenfunction(es)
        expect = oscillator_energy(es) if family == OSCILLATOR else coulomb_energy_value(es)
        sizes = list(spec.partition.block_sizes)
        report = VerificationReport(config={"command": "eigencheck", "family": family,
                                            "blocks": sizes, "quantum": qn, "tol": tol,
                                            "seed": seed})
        pts = sample_points(spec, points_per_check, np.random.default_rng(seed),
                            margin_extent=extent, guards=model_point_guards(spec, extent))
        H = build_hamiltonian_raw(spec, operator_context(spec))
        if spec.is_symbolic():
            H = H.symbolic(spec)
        H = compile_operator(H, spec, {}, scheme)
        vals = []
        for x in pts:
            hv, pv = apply_numeric(H, psi, x, scheme), float(psi([np.array(v) for v in x]))
            if pv == 0 or not math.isfinite(pv):
                raise ConfigError(f"psi is {pv} at the sample point {[float(v) for v in x]}")
            vals.append(hv / pv)
    except BlocksepError as exc:
        _fail(exc)
    except OverflowError:
        _fail(ConfigError("a value of the model is beyond the float range"))
    arr = np.array(vals)
    spread = float(arr.std() / abs(arr.mean()))
    agree = abs(float(arr.mean()) - expect) / max(1.0, abs(expect))
    ok = spread <= tol and agree <= 10 * tol
    report.add(ReportItem(
        name=f"eigencheck {family} {sizes} {json.dumps(qn, sort_keys=True)}",
        kind="eigencheck", mode="numeric", status="ok" if ok else "fail", passed=ok,
        data={"mean": float(arr.mean()), "spread": spread,
              "closed_form": expect, "points": len(vals)}))
    _finish(report, out_path, f"H psi / psi: mean {arr.mean():.10f}, spread {spread:.3e}, "
                              f"closed form {expect:.10f}")


if __name__ == "__main__":
    main()
