"""Polynomial families and closed-form eigenfunctions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_jacobi, roots_genlaguerre, roots_jacobi

from blocksep.errors import InadmissibleParametersError
from blocksep.models import (
    Constant,
    Hierarchy,
    Model2F11,
    Zero,
    coulomb_spec,
    model2_potential,
    operator_context,
    oscillator_spec,
    build_hamiltonian_raw,
)
from blocksep.numerics import FDScheme, apply_numeric, model_point_guards, sample_points
from blocksep.specfun import (
    EigenfunctionSpec,
    assemble_eigenfunction,
    coulomb_energy_value,
    jacobi,
    laguerre,
    model2_angular_factor,
    oscillator_energy,
    x1_jacobi,
    x1_jacobi_coefficients,
)
from blocksep.spectra import (
    block_gammas,
    coulomb_spectrum_row,
    lambda_chain,
    oscillator_spectrum_row,
)
from oracles import eigensolver_lambda, reference_row_reduce


def test_laguerre_low_degrees():
    assert laguerre(0, Fraction(1, 2), Fraction(3)) == 1
    a, x = Fraction(1, 3), Fraction(2, 5)
    assert laguerre(1, a, x) == 1 + a - x
    # cross-check higher degrees against an independent implementation
    for n in (2, 3, 5):
        got = laguerre(n, 0.75, 1.3)
        assert got == pytest.approx(eval_genlaguerre(n, 0.75, 1.3), rel=1e-12)


def test_jacobi_low_degrees():
    a, b, x = Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4)
    assert jacobi(1, a, b, x) == (a + 1) + (a + b + 2) * (x - 1) / 2
    for n in (2, 3, 6):
        got = jacobi(n, 0.5, 1.25, -0.3)
        assert got == pytest.approx(eval_jacobi(n, 0.5, 1.25, -0.3), rel=1e-12)


def test_laguerre_orthogonality_quadrature():
    alpha = 0.5
    nodes, weights = roots_genlaguerre(12, alpha)
    for m in range(4):
        for n in range(m + 1, 5):
            val = float(np.sum(weights * laguerre(m, alpha, nodes) * laguerre(n, alpha, nodes)))
            assert abs(val) < 1e-8, (m, n, val)


def test_jacobi_orthogonality_quadrature():
    a, b = 0.5, 1.5
    nodes, weights = roots_jacobi(12, a, b)
    for m in range(4):
        for n in range(m + 1, 5):
            val = float(np.sum(weights * jacobi(m, a, b, nodes) * jacobi(n, a, b, nodes)))
            assert abs(val) < 1e-8, (m, n, val)


def test_x1_degree_and_uniqueness():
    alpha, beta = Fraction(1, 2), Fraction(7, 6)
    for n in (1, 2, 3, 4):
        coeffs = x1_jacobi_coefficients(n, alpha, beta)
        assert len(coeffs) == n + 1 and coeffs[-1] > 0
    # primitive integer vectors with a positive leading entry
    assert x1_jacobi_coefficients(1, alpha, beta) == (-11, 2)
    assert x1_jacobi_coefficients(2, alpha, beta) == (22, -89, 22)
    assert x1_jacobi_coefficients(3, alpha, beta) == (43, 54, -246, 68)
    v = x1_jacobi(1, alpha, beta, Fraction(1, 2))
    assert isinstance(v, Fraction)


def _x1_reference_coefficients(n, alpha, beta):
    """The X1 nullspace vector re-derived apart from ``ring``: the angular
    equation of ``x1_jacobi_coefficients`` in sympy, solved by the dense
    column-order elimination oracle."""
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    a, b = sympy.Rational(alpha), sympy.Rational(beta)
    A, B = sympy.Rational(3, 2) * (a + b + 1), sympy.Rational(3, 2) * (b - a)
    E = (A + 3 * (n - 1)) ** 2
    delta, u, one_m_s2 = 2 * A - 3 - 2 * B * s, (2 * B - (2 * A + 3) * s) / 3, 1 - s**2
    a2 = one_m_s2 * delta**2
    a1 = 4 * B * one_m_s2 * delta + u * delta**2
    a0 = (8 * B**2 * one_m_s2 + 2 * B * u * delta + (E - A**2) / 9 * delta**2
          - 2 * (2 * A - 3) * delta + 2 * ((2 * A - 3) ** 2 - 4 * B**2))
    columns = [sympy.Poly(a2 * sympy.diff(s**m, s, 2) + a1 * sympy.diff(s**m, s) + a0 * s**m, s)
               for m in range(n + 1)]
    rows = [[Fraction(int(c.p), int(c.q)) for c in (col.coeff_monomial(s**k) for col in columns)]
            for k in range(max(col.degree() for col in columns) + 1)]
    pivots = reference_row_reduce(rows, n + 1)
    (free,) = [c for c in range(n + 1) if c not in pivots]
    vec = [Fraction(0)] * (n + 1)
    vec[free] = Fraction(1)
    for c, row in zip(pivots, rows):
        vec[c] = -row[free]
    scale = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(v // g for v in ints)


@pytest.mark.parametrize("alpha, beta", [
    (Fraction(1, 2), Fraction(7, 6)), (Fraction(0), Fraction(1)),
    (Fraction(3, 2), Fraction(-1, 2)), (Fraction(-1, 3), Fraction(2, 5)),
    (Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 3)),  # alpha + beta = 0
])
def test_x1_coefficients_match_dense_elimination(alpha, beta):
    for n in range(1, 9):
        assert x1_jacobi_coefficients(n, alpha, beta) == _x1_reference_coefficients(n, alpha, beta)


def test_x1_admissibility():
    with pytest.raises(InadmissibleParametersError):
        x1_jacobi(0, Fraction(1, 2), Fraction(7, 6), 0.3)
    with pytest.raises(InadmissibleParametersError):
        x1_jacobi(1, Fraction(1, 2), Fraction(1, 2), 0.3)  # alpha == beta
    with pytest.raises(InadmissibleParametersError):
        x1_jacobi(1, Fraction(-3, 2), Fraction(1, 2), 0.3)


def _angular_ode_residual(h_of_phi, potential_of_phi, eigenvalue, phis):
    """max |-h'' + V h - E h| / max(1, |E h|) by high-order differences."""
    worst = 0.0
    d = 1e-3
    w2 = [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
    for phi in phis:
        pts = [h_of_phi(phi + d * k) for k in range(-4, 5)]
        hpp = sum(w * p for w, p in zip(w2, pts)) / d**2
        val = -hpp + potential_of_phi(phi) * h_of_phi(phi) - eigenvalue * h_of_phi(phi)
        worst = max(worst, abs(val) / max(1.0, abs(eigenvalue * h_of_phi(phi))))
    return worst


def test_x1_factor_satisfies_angular_equation():
    from blocksep.models import Model2F11

    pot = Model2F11(4, 1)
    for J in range(4):
        h = model2_angular_factor(4, 1, J)
        res = _angular_ode_residual(
            lambda phi: float(h(math.sin(3 * phi))),
            lambda phi: pot.value_at_s(math.sin(3 * phi)),
            float((4 + 3 * J) ** 2),
            np.linspace(0.05, 0.45, 20),
        )
        assert res < 1e-8, (J, res)


def test_x1_perturbed_eigenvalue_control():
    from blocksep.models import Model2F11

    pot = Model2F11(4, 1)
    h = model2_angular_factor(4, 1, 0)
    res = _angular_ode_residual(
        lambda phi: float(h(math.sin(3 * phi))),
        lambda phi: pot.value_at_s(math.sin(3 * phi)),
        float(4**2) + 1.0,
        np.linspace(0.05, 0.45, 20),
    )
    assert res > 1e-2


def test_free_oscillator_eigenfunction_shape():
    spec = oscillator_spec([1, 1], (Zero(), Zero()), omega2=1)
    es = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    psi = assemble_eigenfunction(es)
    assert oscillator_energy(es) == pytest.approx(6.0)
    x = (0.7, -0.5)
    got = float(psi([np.array(v) for v in x]))
    expect = abs(x[0]) * abs(x[1]) * math.exp(-(x[0] ** 2 + x[1] ** 2) / 2)
    assert got == pytest.approx(expect, rel=1e-12)


def test_assembled_eigenfunction_is_float64_on_arrays():
    """A d = 2 harmonic goes through the float Jacobi recurrence, so psi on
    numpy arrays stays float64 rather than becoming an object array."""
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    es = EigenfunctionSpec(spec, angular=(1, 0), radial=(0, 1))
    coords = [np.linspace(0.1, 0.9, 5) + k for k in range(4)]
    assert assemble_eigenfunction(es)(coords).dtype == np.float64


def _h_over_psi_stats(spec, es, n_points=10, seed=3, numeric=False):
    psi = assemble_eigenfunction(es)
    scheme = FDScheme(h=4e-3)
    rng = np.random.default_rng(seed)
    extent = 5 * scheme.h
    pts = sample_points(spec, n_points, rng, margin_extent=extent,
                        guards=model_point_guards(spec, extent))
    ctx = operator_context(spec)
    H = build_hamiltonian_raw(spec, ctx)
    if not numeric:
        H = H.symbolic(spec)
    vals = []
    for x in pts:
        hv = apply_numeric(H, psi, x, scheme, spec=spec, params={})
        pv = float(psi([np.array(v) for v in x]))
        vals.append(hv / pv)
    vals = np.array(vals)
    return float(vals.mean()), float(vals.std() / abs(vals.mean()))


def test_model1_oscillator_2_2_residual():
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    es = EigenfunctionSpec(spec, angular=(1, 0), radial=(0, 1))
    mean, spread = _h_over_psi_stats(spec, es)
    assert spread < 1e-6
    assert mean == pytest.approx(oscillator_energy(es), rel=1e-8)


@pytest.mark.parametrize("es, energy, rel", [
    # gamma_1 = 15/2, gamma_2 = 1
    pytest.param(EigenfunctionSpec(oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()),
                                                   omega2=1), angular=((1,), 0), radial=(0, 0)),
                 19.0, 1e-8, id="osc-2,1"),
    # the tower angle phi_2 has Jacobi parameter r_1 = A + 3 J_1: gamma = 8, then 13
    pytest.param(EigenfunctionSpec(oscillator_spec([3], (model2_potential(3, 4, 1),), omega2=1),
                                   angular=((1, 0),), radial=(1,)),
                 21.0, 1e-8, id="osc-3-J10"),
    pytest.param(EigenfunctionSpec(oscillator_spec([3], (model2_potential(3, 4, 1),), omega2=1),
                                   angular=((2, 1),), radial=(1,)),
                 31.0, 1e-8, id="osc-3-J21"),
    # kappa = 13: E = -eta^2 / (4 (N_r + kappa)^2)
    pytest.param(EigenfunctionSpec(coulomb_spec([3, 2], (model2_potential(3, 4, 1),), eta=2),
                                   angular=((1, 1), 0), radial=(1,), hyper_J=(1,)),
                 -1.0 / 196.0, 1e-7, id="coul-3,2"),
])
def test_model2_oscillator_2_1_residual(es, energy, rel):
    mean, spread = _h_over_psi_stats(es.model, es, numeric=True)
    assert spread < 1e-6
    assert mean == pytest.approx(energy, rel=rel)


def test_coulomb_2_2_residual_and_energy():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    es = EigenfunctionSpec(spec, angular=(0, 0), radial=(0,), hyper_J=(0,))
    assert block_gammas(es) == [1.0, 0.0]
    assert coulomb_energy_value(es) == pytest.approx(-4.0 / 25.0)
    mean, spread = _h_over_psi_stats(spec, es)
    assert spread < 1e-6
    assert mean == pytest.approx(-0.16, rel=1e-7)


def test_coulomb_excited_state_residual():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    es = EigenfunctionSpec(spec, angular=(0, 0), radial=(1,), hyper_J=(1,))
    mean, spread = _h_over_psi_stats(spec, es)
    assert spread < 1e-6
    assert mean == pytest.approx(coulomb_energy_value(es), rel=1e-7)


def test_coulomb_theta_equation_eigenvalues():
    """The printed inter-block factors satisfy their separated equations with
    eigenvalues kappa_i^2 - (i-1)^2/4."""
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    es = EigenfunctionSpec(spec, angular=(0, 0), radial=(0,), hyper_J=(1,))
    g1, g2 = block_gammas(es)
    J1 = es.hyper_J[0]
    kappa0 = g1
    kappa1 = 2 * J1 + 1 + g1 + g2
    lam1 = g1**2 - 0.25
    lam2 = g2**2 - 0.25

    def y1(theta):
        c = math.cos(theta)
        return (
            math.sin(theta) ** (kappa0 + 0.5)
            * c ** (g2 + 0.5)
            * float(jacobi(J1, kappa0, g2, 2 * c * c - 1))
        )

    b1 = kappa1**2  # i = 1: (i-1)^2/4 = 0
    res = _angular_ode_residual(
        y1,
        lambda th: lam2 / math.cos(th) ** 2 + lam1 / math.sin(th) ** 2,
        b1,
        np.linspace(0.3, 1.2, 15),
    )
    assert res < 1e-8


def test_admissibility_errors():
    spec = oscillator_spec([2, 1], (Constant(Fraction(1)), Zero()), omega2=1)
    with pytest.raises(InadmissibleParametersError):
        EigenfunctionSpec(spec, angular=(0, 1), radial=(0, 0))  # l != 0 on 1-block
    with pytest.raises(InadmissibleParametersError):
        EigenfunctionSpec(spec, angular=(0, 0), radial=(0, -1))
    bad = oscillator_spec([2, 1], (Constant(Fraction(-10)), Zero()), omega2=1)
    es = EigenfunctionSpec(bad, angular=(0, 0), radial=(0, 0))
    with pytest.raises(InadmissibleParametersError):
        block_gammas(es)  # discriminant 1 + 4(-10) - 1 < 0


def test_symbolic_parameters_rejected_for_eigenfunctions():
    spec = oscillator_spec([2, 2])  # omega2 and betas symbolic
    es = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    with pytest.raises(InadmissibleParametersError):
        oscillator_energy(es)


def test_closed_form_needs_a_model2_tower():
    """Constants above a trigonometric innermost level have no closed-form
    eigenfunction: assembly refuses, while the lambda chain's root recursion
    still gives their eigenvalue exactly."""
    pot = Hierarchy((Model2F11(4, 1), Constant(Fraction(5))))
    spec = oscillator_spec([3], (pot,), omega2=1)
    es = EigenfunctionSpec(spec, angular=((1, 0),), radial=(0,))
    with pytest.raises(InadmissibleParametersError):
        assemble_eigenfunction(es)
    lam = lambda_chain(pot, 3, (1, 0))
    assert type(lam) is Fraction and lam == 61  # (7 + 1/2)^2 + 5 - 1/4


@pytest.mark.parametrize("d, Js, expect", [
    (3, (0, 1), 42), (3, (1, 1), 90), (3, (2, 1), 156), (3, (0, 2), 72), (4, (1, 1, 1), 143),
])
def test_lambda_chain_counts_even_states_above_a_tower(d, Js, expect):
    """Constant(0) above a trigonometric level is the Zero() tower: the root
    recursion takes the k-th even state of each angle above it, as the
    eigensolver chain does, and gives the same exact value."""
    zero_above = Hierarchy((Model2F11(4, 1),) + (Zero(),) * (d - 2))
    constant_above = Hierarchy((Model2F11(4, 1),) + (Constant(Fraction(0)),) * (d - 2))
    assert lambda_chain(zero_above, d, Js) == expect
    assert type(lambda_chain(zero_above, d, Js)) is Fraction
    assert lambda_chain(constant_above, d, Js) == expect
    assert type(lambda_chain(constant_above, d, Js)) is Fraction
    assert eigensolver_lambda(constant_above, d, Js) == pytest.approx(expect, rel=1e-6)


_OSC_CONSTANTS = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
_OSC_TOWER = oscillator_spec([3], (model2_potential(3, 4, 1),), omega2=1)
_COUL_CONSTANT = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)


@pytest.mark.parametrize("es", [
    *(EigenfunctionSpec(_OSC_CONSTANTS, angular=(l1, l2), radial=(k1, 0))
      for l1 in (0, 1) for l2 in (0, 2) for k1 in (0, 1)),
    *(EigenfunctionSpec(_OSC_TOWER, angular=(Js,), radial=(k,))
      for Js in ((0, 0), (1, 0), (2, 1)) for k in (0, 1)),
    *(EigenfunctionSpec(_COUL_CONSTANT, angular=(l1, 0), radial=(nr,), hyper_J=(j,))
      for l1 in (0, 1) for nr in (0, 1) for j in (0, 1)),
], ids=lambda es: f"{es.model.family}-{es.model.partition.block_sizes}-"
                  f"{es.angular}-{es.radial}-{es.hyper_J}")
def test_eigenfunction_energy_is_the_spectrum_oracle_value(es):
    """The eigenfunctions' energy and the spectrum row come from one exact chain."""
    if es.model.family == "oscillator":
        assert oscillator_energy(es) == oscillator_spectrum_row(es).oracle_value
    else:
        assert coulomb_energy_value(es) == coulomb_spectrum_row(es).oracle_value
