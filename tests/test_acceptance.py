"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every check
pins its tolerance here, nothing is deferred to calibration elsewhere.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from blocksep.models import (
    Constant,
    Zero,
    coulomb_spec,
    model2_potential,
    operator_context,
    oscillator_spec,
    build_hamiltonian,
)
from blocksep.numerics import (
    Eigensolve1DProblem,
    FDScheme,
    NumericEnv,
    apply_numeric,
    eigensolve_1d,
    relation_residual_numeric,
    sample_points,
)
from blocksep.relations import (
    OperatorEnv,
    build_catalog,
    catalog_proposition_A,
    oscillator_quadratic_relations,
    verify_symbolic,
)
from blocksep.specfun import EigenfunctionSpec, assemble_eigenfunction, model2_angular_factor
from blocksep.spectra import coulomb_spectrum_row, oscillator_spectrum_row


def report_line(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_seed_proposition():
    rs = catalog_proposition_A()
    ocs = verify_symbolic(rs)
    strict = [o for o in ocs if o.name in ("prop-A-1-def", "prop-A-2", "prop-A-3")]
    ok = len(strict) == 3 and all(o.status == "zero" for o in strict)
    report_line(1, ok, "two-parameter seed system relations reduce to exact zero")


def test_criterion_2_oscillator_quadratic_algebra():
    ok = True
    detail = []
    for sizes in ([1, 1], [1, 2], [2, 2], [1, 1, 1]):
        rs = build_catalog("oscillator-algebra", oscillator_spec(sizes))
        ocs = verify_symbolic(rs)
        good = all(o.status == "zero" for o in ocs)
        ok = ok and good
        detail.append(f"{sizes}:{'ok' if good else 'FAIL'}")
    report_line(2, ok, f"block quadratic algebra exact on {', '.join(detail)}")


def test_criterion_3_oscillator_commutativity():
    ok = True
    for sizes in ([2, 2], [1, 1, 1]):
        rs = build_catalog("oscillator-commutativity", oscillator_spec(sizes))
        ok = ok and all(o.status == "zero" for o in verify_symbolic(rs))
    report_line(3, ok, "oscillator commutativity tables exact on [2,2] and [1,1,1]")


def test_criterion_4_gauge_reduction():
    ok = True
    for sizes in ([1, 2], [2, 2]):
        rs = build_catalog("gauge", oscillator_spec(sizes))
        ok = ok and all(o.status == "zero" for o in verify_symbolic(rs))
    report_line(4, ok, "seed relations under central-element substitution match the "
                       "block algebra exactly (l=2 on [1,2] and [2,2])")


@pytest.mark.slow
def test_criterion_5_coulomb_yx_and_erratum():
    spec = coulomb_spec([2, 2])
    ocs = {o.name: o for o in verify_symbolic(build_catalog("coulomb-yx", spec))}
    ok = all(
        ocs[f"coul-yx-j{j}-{k}"].status == "zero"
        for j in (3, 4)
        for k in ("1-def", "2", "3")
    )
    ok = ok and all(ocs[f"coul-correction-form-j{j}-emended"].status == "zero" for j in (3, 4))
    err = verify_symbolic(build_catalog("coulomb-erratum-wrong", spec))
    ok = ok and len(err) == 1 and err[0].status == "residual"
    report_line(5, ok, "X/W triple and conjugates exact on [2,2]; erratum control nonzero")


def test_criterion_6_coulomb_double_commutators_recorded():
    ok = True
    ocs1 = verify_symbolic(build_catalog("coulomb-zy", coulomb_spec([1, 1, 1])))
    ocs2 = verify_symbolic(build_catalog("coulomb-zy", coulomb_spec([1, 1, 2])))
    ocs3 = verify_symbolic(build_catalog("coulomb-sj", coulomb_spec([1, 1, 2])))
    for ocs in (ocs1, ocs2, ocs3):
        ok = ok and all(o.passed for o in ocs)
        # dual readings present and every constructible outcome diagnosed
        for o in ocs:
            if o.status == "residual":
                ok = ok and "central elements" in o.note
    groups1 = {o.group for o in ocs2}
    ok = ok and {"coul-zy-p2-ZZY", "coul-zy-p2-YZY"} <= groups1
    outcome = (
        "no reading reduces to zero (candidate source typos, residuals decomposed)"
        if all(o.status != "zero" for o in ocs1 + ocs2 + ocs3)
        else "some readings reduce to zero"
    )
    report_line(6, ok, f"Z/Y and S/J double-commutator displays recorded: {outcome}")


@pytest.mark.slow
def test_criterion_7_universality_numeric():
    spec = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))
    rels = oscillator_quadratic_relations(spec, 2)

    def residual(rel):  # in an environment of its own, so nothing carries over
        env = NumericEnv(OperatorEnv(spec), {"w2": 1.0})  # Taylor jets, exact derivatives
        return relation_residual_numeric(rel, env, probes=5, points_per_probe=10, seed=42)

    worst = 0.0
    for rel in rels:
        worst = max(worst, residual(rel).max_relative)
    st2 = residual(rels[1])
    deterministic = st2.max_relative == max(residual(rels[1]).max_relative, 0.0)
    ok = worst <= 1e-5 and deterministic
    report_line(7, ok, f"quadratic algebra holds numerically, on Taylor jets, for the "
                       f"trigonometric potential on [2,1]: max relative residual {worst:.2e} "
                       f"<= 1e-5")


def test_criterion_8_oscillator_spectrum_adjudication():
    ok = True
    for c, gamma in ((0.0, 1.0), (2.0, 2.0), (15.0 / 4.0, 2.5)):
        vals = eigensolve_1d(
            Eigensolve1DProblem(lambda r, c=c: r**2 + c / r**2, L=14.0, n_eigenvalues=4)
        )
        for k, v in enumerate(vals):
            expect = 4 * k + 2 * gamma + 1
            ok = ok and abs(v - expect) / expect < 1e-6
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    es = EigenfunctionSpec(spec, angular=(1, 0), radial=(0, 1))
    psi = assemble_eigenfunction(es)
    scheme = FDScheme(h=4e-3)
    rng = np.random.default_rng(8)
    pts = sample_points(spec, 10, rng, margin_extent=5 * scheme.h)
    H = build_hamiltonian(spec, operator_context(spec))
    vals = np.array([
        apply_numeric(H, psi, x, scheme) / float(psi([np.array(v) for v in x])) for x in pts
    ])
    spread = float(vals.std() / abs(vals.mean()))
    ok = ok and spread <= 1e-6
    row = oscillator_spectrum_row(es)
    ok = ok and row.exact_ratio_2
    report_line(8, ok, f"eigensolver matches omega(4k+2gamma+1) at 1e-6; H psi/psi spread "
                       f"{spread:.1e}; printed/oracle ratio flagged exactly 2")


def test_criterion_9_coulomb_spectrum():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    scheme = FDScheme(h=4e-3)
    rng = np.random.default_rng(9)
    H = build_hamiltonian(spec, operator_context(spec))
    ok = True
    for N_r in (0, 1):
        for J1 in (0, 1):
            es = EigenfunctionSpec(spec, angular=(0, 0), radial=(N_r,), hyper_J=(J1,))
            ok = ok and coulomb_spectrum_row(es).exact_ratio_2
            psi = assemble_eigenfunction(es)
            pts = sample_points(spec, 6, rng, margin_extent=5 * scheme.h)
            vals = np.array([
                apply_numeric(H, psi, x, scheme) / float(psi([np.array(v) for v in x]))
                for x in pts
            ])
            from blocksep.specfun import coulomb_energy_value

            E = coulomb_energy_value(es)
            resid = float(np.max(np.abs(vals - E)) / max(1.0, abs(E)))
            ok = ok and resid <= 1e-6
    report_line(9, ok, "closed-form Coulomb energies confirmed by H psi residuals at 1e-6; "
                       "denominator identity holds exactly")


def test_criterion_10_exceptional_layer():
    from blocksep.models import Model2F11

    pot = Model2F11(4, 1)
    d = 1e-3
    w2 = [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]

    def ode_residual(J, eigenvalue):
        h = model2_angular_factor(4, 1, J)
        hphi = lambda phi: float(h(math.sin(3 * phi)))
        worst = 0.0
        for phi in np.linspace(0.05, 0.45, 20):
            pts = [hphi(phi + d * k) for k in range(-4, 5)]
            hpp = sum(w * p for w, p in zip(w2, pts)) / d**2
            val = -hpp + pot.value_at_s(math.sin(3 * phi)) * hphi(phi) - eigenvalue * hphi(phi)
            worst = max(worst, abs(val) / max(1.0, abs(eigenvalue * hphi(phi))))
        return worst

    ok = True
    for J in (0, 1, 2, 3):
        ok = ok and ode_residual(J, float((4 + 3 * J) ** 2)) <= 1e-8
    ok = ok and ode_residual(0, 16.0 + 1.0) >= 1e-2
    report_line(10, ok, "exceptional angular factors solve their equation with "
                        "eigenvalue (A+3J)^2 at 1e-8; perturbed control fails")


def test_criterion_11_engine_properties():
    from blocksep.opalg import DiffOp
    from oracles import angular_momentum
    from blocksep.ring import Coefficient, Context, Poly, pack

    ok = True
    # associativity and Jacobi, 200 randomized cases each (exact)
    ctx = Context(("x1", "x2", "x3"), norm_radical=True)
    rng = random.Random(20260809)

    def rand_op(with_rad=False):
        op = DiffOp.zero(ctx)
        for _ in range(3):
            alpha = [0, 0, 0]
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(3)] += 1
            mono = [0] * ctx.nvars
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(3)] += 1
            if with_rad and rng.random() < 0.4:
                mono[ctx.norm_slot] += 1
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if not c:
                continue
            coef = Coefficient.make(ctx, Poly(ctx.nvars, {pack(mono): c}))
            op = op.add(DiffOp(ctx, {tuple(alpha): coef}))
        return op

    for case in range(200):
        a, b, c = rand_op(case % 3 == 0), rand_op(), rand_op(case % 5 == 0)
        if not a.mul(b).mul(c) == a.mul(b.mul(c)):
            ok = False
            break
    for _ in range(200):
        a, b, c = rand_op(), rand_op(), rand_op()
        jac = (
            a.commutator(b.commutator(c))
            .add(b.commutator(c.commutator(a)))
            .add(c.commutator(a.commutator(b)))
        )
        if not jac.is_zero():
            ok = False
            break
    # so(d) closure, exact, all triples in d = 4
    ctx4 = Context(tuple(f"x{i}" for i in range(1, 5)))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if len({a, b, c}) < 3:
                    continue
                got = angular_momentum(ctx4, a, b).commutator(angular_momentum(ctx4, b, c))
                if not got == angular_momentum(ctx4, a, c):
                    ok = False
    # FD convergence order on an analytic probe
    ctxf = Context(("x1",))
    d1 = DiffOp.partial(ctxf, 0)
    f = lambda cs: np.sin(cs[0]) * np.exp(cs[0] / 3.0)
    exact = math.cos(0.4) * math.exp(0.4 / 3) + math.sin(0.4) * math.exp(0.4 / 3) / 3
    errs = [abs(apply_numeric(d1, f, (0.4,), FDScheme(order=8, h=h)) - exact) for h in (0.25, 0.125)]
    measured = math.log2(errs[0] / errs[1])
    ok = ok and abs(measured - 8) < 0.5
    report_line(11, ok, "associativity and Jacobi identity pass randomized suites "
                        "(200 cases each); so(d) closure and FD order hold")
