"""The four benchmark workloads: inputs, set-up, the timed run and the checks.

Each workload has a ``full`` scale (the measured inputs) and a ``tiny`` scale
(the harness smoke check).  ``setup`` is the model and catalog construction
that happens before the first relation or oracle is evaluated; ``run`` is
the timed part and ends with the last report serialized; ``check`` judges
every report item after the clock has stopped.  Package functions are looked
up through their modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

NUMERIC_TOL = 1e-5  # acceptance criterion 7
EIGEN_TOL = 1e-6  # acceptance criteria 8 and 9; agreement within 10x this
EIGEN_POINTS = 10  # the eigencheck command's default
SPECTRUM_TOL = 1e-6


@dataclass
class Item:
    """One report item: its time to a verdict and whether its check held."""

    name: str
    seconds: float
    ok: bool
    observed: str = ""  # the value the check judged; seed-dependent for numeric items
    detail: str = ""


@dataclass
class Workload:
    nominal_pass_s: float  # one pass at the seed commit on the 2-vCPU Xeon reference machine
    setup: object  # (scale, seed) -> state
    run: object  # state -> outputs
    check: object  # (state, outputs, item seconds) -> list[Item]
    clock_target: tuple | None = None  # (module name, function) timed per item
    deterministic: bool = True  # ignores the seed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# -- symbolic workloads: the verify path of the CLI ---------------------------------

SYMBOLIC = {
    "sym-coulomb": {
        "full": (("coulomb", (1, 1, 2)), ("coulomb-erratum-wrong", (2, 2))),
        "tiny": (("proposition-A", None),),
    },
    "sym-oscillator": {
        "full": (("oscillator", (2, 2)), ("oscillator-algebra", (3, 3))),
        "tiny": (("oscillator-algebra", (1, 1)),),
    },
}


def report_key(catalog: str, blocks) -> str:
    return catalog if blocks is None else f"{catalog} {','.join(map(str, blocks))}"


def _spec_for(catalog: str, blocks):
    from blocksep import models

    if blocks is None:
        return None
    build = models.coulomb_spec if catalog.startswith("coulomb") else models.oscillator_spec
    return build(list(blocks))


def make_symbolic_setup(workload: str):
    def setup(scale: str, seed: int) -> tuple:
        """Build each model and catalog once; ``run`` verifies the configs."""
        from blocksep import cli

        configs = SYMBOLIC[workload][scale]
        for catalog, blocks in configs:
            cli.build_catalog(catalog, _spec_for(catalog, blocks))
        return configs

    return setup


def run_symbolic(configs: tuple) -> list:
    from blocksep import cli, report

    reports = []
    for catalog, blocks in configs:
        config = {"catalog": catalog, "mode": "symbolic"}
        if blocks is not None:
            config["blocks"] = list(blocks)
        rep = cli.run_verify(config)
        report.serialize(rep)
        reports.append(rep)
    return reports


def check_symbolic(configs: tuple, reports: list, seconds: list) -> list:
    """Every item passes as its catalog expects, and each report with
    ``runtime_info`` dropped is byte-identical to the golden one."""
    from blocksep import report

    golden = load_golden()
    items = []
    clock = iter(seconds)
    for (catalog, blocks), rep in zip(configs, reports):
        key = report_key(catalog, blocks)
        want = golden.get(key, {"report": None, "items": []})
        whole_ok = digest(report.serialize(rep, drop_runtime=True)) == want["report"]
        found = [digest(json.dumps(i.to_json(), sort_keys=True)) for i in rep.items]
        items_ok = [d in want["items"] for d in found]
        blame_all = not whole_ok and all(items_ok)
        for item, ok_digest in zip(rep.items, items_ok):
            ok = item.passed is True and ok_digest and not blame_all
            detail = "" if ok else f"{key}: passed={item.passed} golden={ok_digest and not blame_all}"
            items.append(Item(item.name, next(clock), ok, item.status, detail))
        missing = len(want["items"]) - len(rep.items)
        items.extend(Item(f"{key}: missing item", 0.0, False) for _ in range(max(missing, 0)))
    return items


def golden_entries(scale: str) -> dict:
    """Digests of the current code's symbolic reports (see golden.py)."""
    from blocksep import report

    out = {}
    for workload in SYMBOLIC:
        configs = make_symbolic_setup(workload)(scale, 0)
        for (catalog, blocks), rep in zip(configs, run_symbolic(configs)):
            out[report_key(catalog, blocks)] = {
                "report": digest(report.serialize(rep, drop_runtime=True)),
                "items": [digest(json.dumps(i.to_json(), sort_keys=True)) for i in rep.items],
            }
    return out


# -- num-residual: the numeric verify path ------------------------------------------


@dataclass
class NumericState:
    config: dict
    expected_items: int


def setup_numeric(scale: str, seed: int) -> NumericState:
    from blocksep import cli, models

    # acceptance criterion 7: trigonometric potential model2(A=4, B=1) on [2,1]
    spec = models.oscillator_spec([2, 1], (models.model2_potential(2, 4, 1), models.Zero()))
    probes, points = (5, 10) if scale == "full" else (1, 2)
    config = {"catalog": "oscillator-algebra", "model": models.spec_to_json(spec),
              "params": {"w2": 1.0}, "probes": probes, "points": points,
              "mode": "numeric", "seed": seed}
    rs = cli.build_catalog(config["catalog"], spec)
    expected = sum(1 for rel in rs.relations if rel.expectation != "record")
    return NumericState(config, expected)


def run_numeric(state: NumericState) -> list:
    from blocksep import cli, report

    rep = cli.run_verify(dict(state.config))
    report.serialize(rep)
    return [rep]


def check_numeric(state: NumericState, reports: list, seconds: list) -> list:
    """Each relation: probes x points samples and max_relative <= 1e-5."""
    samples = state.config["probes"] * state.config["points"]
    items = []
    clock = iter(seconds)
    for item in reports[0].items:
        res = item.residual or {}
        ok = (item.passed is True and item.status == "zero"
              and res.get("samples") == samples
              and res.get("max_relative", math.inf) <= NUMERIC_TOL)
        items.append(Item(item.name, next(clock), ok, json.dumps(res, sort_keys=True)))
    missing = state.expected_items - len(items)
    items.extend(Item("missing numeric item", 0.0, False) for _ in range(max(missing, 0)))
    return items


# -- oracle-eigen: spectra, eigenfunctions and the 1D eigensolver ---------------------


@dataclass
class OracleState:
    seed: int
    rows: list  # (EigenfunctionSpec, closed-form reference EigenfunctionSpec)
    eigen_groups: list  # (ModelSpec, [EigenfunctionSpec, ...]) sharing one Hamiltonian
    solves: list  # (gamma, Eigensolve1DProblem)
    excluded: object = lambda: 0.0  # seconds of the speed sampler so far, kept out of item times


def setup_oracle(scale: str, seed: int) -> OracleState:
    from blocksep import models, numerics, specfun

    Constant, Zero = models.Constant, models.Zero
    Spec = specfun.EigenfunctionSpec
    osc = models.oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    osc_check = Spec(osc, angular=(1, 0), radial=(0, 1))
    if scale == "tiny":
        return OracleState(seed, [], [(osc, [osc_check])], [])
    # the hierarchy block runs the eigensolver chain; the constant block with
    # the same harmonic degree l = m + k gives the exact reference value
    hier = models.oscillator_spec(
        [3, 1], (models.Hierarchy((Zero(), Constant(Fraction(2)))), Zero()), omega2=1)
    flat = models.oscillator_spec([3, 1], (Constant(Fraction(2)), Zero()), omega2=1)
    rows = [(Spec(hier, angular=(mk, 0), radial=(0, 0)), Spec(flat, angular=(sum(mk), 0), radial=(0, 0)))
            for mk in ((0, 0), (0, 1))]
    coul = models.coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    coul_checks = [Spec(coul, angular=(0, 0), radial=(nr,), hyper_J=(j,))
                   for nr in (0, 1) for j in (0, 1)]
    solves = [
        (gamma, numerics.Eigensolve1DProblem(lambda r, c=c: r**2 + c / r**2, L=14.0, n_eigenvalues=4))
        for c, gamma in ((0.0, 1.0), (2.0, 2.0), (15.0 / 4.0, 2.5))
    ]  # acceptance criterion 8: eigenvalues omega (4k + 2 gamma + 1)
    return OracleState(seed, rows, [(osc, [osc_check]), (coul, coul_checks)], solves)


def _eigencheck(spec, H, es, rng):
    """H psi / psi at sampled points, as the ``eigencheck`` command does it."""
    import numpy as np

    from blocksep import numerics, specfun

    psi = specfun.assemble_eigenfunction(es)
    scheme = numerics.FDScheme(h=4e-3)
    extent = 5 * scheme.h
    pts = numerics.sample_points(spec, EIGEN_POINTS, rng, margin_extent=extent,
                                 guards=numerics.model_point_guards(spec, extent))
    return [
        numerics.apply_numeric(H, psi, x, scheme, spec=spec, params={})
        / float(psi([np.array(v) for v in x]))
        for x in pts
    ]


def run_oracle(state: OracleState) -> dict:
    import time

    import numpy as np

    from blocksep import models, numerics, report, spectra

    rng = np.random.default_rng(state.seed)
    now = time.perf_counter
    rep = report.VerificationReport(config={"command": "oracle-eigen", "seed": state.seed})
    out = {"report": rep, "results": []}

    def item(name, kind, fn):
        t0, x0 = now(), state.excluded()
        value = fn()
        seconds = now() - t0 - (state.excluded() - x0)
        out["results"].append((name, seconds, value))
        rep.add(report.ReportItem(name=name, kind=kind, mode="numeric", status="ok",
                                  passed=None, data={"value": repr(value)}))

    for es, _ in state.rows:
        item(f"spectrum-row l={list(es.angular[0])}", "spectrum",
             lambda es=es: spectra.oscillator_spectrum_row(es))
    for spec, checks in state.eigen_groups:
        H = models.build_hamiltonian(spec, models.operator_context(spec))
        for es in checks:
            item(f"eigencheck {spec.family} {list(spec.partition.block_sizes)} "
                 f"angular={list(es.angular)} radial={list(es.radial)} J={list(es.hyper_J)}",
                 "eigencheck", lambda spec=spec, H=H, es=es: _eigencheck(spec, H, es, rng))
    for gamma, problem in state.solves:
        item(f"eigensolve-1d gamma={gamma}", "spectrum",
             lambda problem=problem: numerics.eigensolve_1d(problem))
    report.serialize(rep)
    return out


def check_oracle(state: OracleState, out: dict, seconds: list) -> list:
    """Spectrum identities exact and matching the closed form; radial solves
    at 1e-6.  Oscillator eigencheck: spread <= 1e-6 and agreement <= 1e-5, as
    the ``eigencheck`` command judges it (criterion 8).  Coulomb eigencheck:
    every H psi / psi within 1e-6 of E, relative to max(1, |E|), as criterion 9
    judges it; with |E| < 1 the command's relative spread also counts the
    finite-difference error near the node of a J = 1 eigenfunction."""
    import numpy as np

    from blocksep import spectra, specfun

    results = iter(out["results"])
    items = []
    for _, ref in state.rows:
        name, sec, row = next(results)
        expect = spectra.oscillator_spectrum_row(ref).oracle_value
        ok = row.exact_ratio_2 and abs(row.oracle_value - expect) <= SPECTRUM_TOL * abs(expect)
        items.append(Item(name, sec, ok, repr(row.oracle_value), "" if ok else f"closed form {expect}"))
    for spec, checks in state.eigen_groups:
        for es in checks:
            name, sec, ratios = next(results)
            vals = np.array(ratios)
            mean, spread = float(vals.mean()), float(vals.std() / abs(vals.mean()))
            if spec.family == "oscillator":
                energy = specfun.oscillator_energy(es)
                agree = abs(mean - energy) / max(1.0, abs(energy))
                ok = spread <= EIGEN_TOL and agree <= 10 * EIGEN_TOL
            else:
                energy = specfun.coulomb_energy_value(es)
                agree = float(np.max(np.abs(vals - energy))) / max(1.0, abs(energy))
                ok = agree <= EIGEN_TOL
            ok = ok and len(vals) == EIGEN_POINTS
            items.append(Item(name, sec, ok, f"mean {mean!r} spread {spread:.3e}",
                              "" if ok else f"agreement {agree:.2e} with {energy!r}"))
    for gamma, problem in state.solves:
        name, sec, vals = next(results)
        errs = [abs(v - (4 * k + 2 * gamma + 1)) / (4 * k + 2 * gamma + 1) for k, v in enumerate(vals)]
        ok = len(vals) == problem.n_eigenvalues and max(errs) < EIGEN_TOL
        items.append(Item(name, sec, ok, repr(vals), "" if ok else f"relative errors {errs}"))
    return items


WORKLOADS = {
    "sym-coulomb": Workload(
        13.5, make_symbolic_setup("sym-coulomb"), run_symbolic, check_symbolic,
        clock_target=("blocksep.relations", "verify_relation"),
    ),
    "sym-oscillator": Workload(
        19.4, make_symbolic_setup("sym-oscillator"), run_symbolic, check_symbolic,
        clock_target=("blocksep.relations", "verify_relation"),
    ),
    "num-residual": Workload(
        7.5, setup_numeric, run_numeric, check_numeric,
        clock_target=("blocksep.numerics", "relation_residual_numeric"), deterministic=False,
    ),
    "oracle-eigen": Workload(18.7, setup_oracle, run_oracle, check_oracle, deterministic=False),
}
