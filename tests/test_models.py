"""Model construction: Hamiltonians, angular potentials, JSON round trip."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from blocksep.errors import (
    EvaluationSingularityError,
    InvalidPartitionError,
    UnsupportedSymbolicPotentialError,
)
from blocksep.models import (
    Constant,
    Hierarchy,
    Model2F11,
    Zero,
    RawOperator,
    block_hamiltonian_raw,
    build_hamiltonian,
    build_hamiltonian_raw,
    coulomb_spec,
    model2_potential,
    operator_context,
    oscillator_spec,
    potential_cartesian_evaluator,
    potential_term,
    spec_from_json,
    spec_to_json,
)
from blocksep.opalg import DiffOp
from blocksep.ring import Coefficient
from oracles import coefficient_mul, eval_angular_potential, formal_transpose


def test_free_oscillator_1_1():
    spec = oscillator_spec([1, 1], (Zero(), Zero()), omega2=1)
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx)
    expect = ctx.laplacian(range(2)).neg().add(
        DiffOp.from_poly(ctx, ctx.sum_of_squares(range(2)))
    )
    assert H == expect


def test_model1_oscillator_2_2():
    spec = oscillator_spec([2, 2])
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx)
    S1 = ctx.sum_of_squares([0, 1])
    S2 = ctx.sum_of_squares([2, 3])
    expect = ctx.laplacian(range(4)).neg()
    expect = expect.add(DiffOp.from_poly(ctx, ctx.param("w2").mul(ctx.sum_of_squares(range(4)))))
    expect = expect.add(
        DiffOp.from_coefficient(ctx, Coefficient.from_poly(ctx, ctx.param("beta1")).div_poly(S1))
    )
    expect = expect.add(
        DiffOp.from_coefficient(ctx, Coefficient.from_poly(ctx, ctx.param("beta2")).div_poly(S2))
    )
    assert H == expect


def test_coulomb_1_1_1():
    spec = coulomb_spec([1, 1, 1])
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx)
    S = ctx.sum_of_squares(range(3))
    inv_r = Coefficient.from_poly(ctx, ctx.radical_poly()).div_poly(S)
    eta = Coefficient.from_poly(ctx, ctx.param("eta"))
    coulomb = DiffOp.from_coefficient(ctx, coefficient_mul(eta, inv_r))
    expect = ctx.laplacian(range(3)).neg().sub(coulomb)
    for i, name in enumerate(("alpha1", "alpha2")):
        c = Coefficient.from_poly(ctx, ctx.param(name)).div_poly(ctx.x(i, 2))
        expect = expect.add(DiffOp.from_coefficient(ctx, c))
    assert H == expect


def test_block_sum_equals_hamiltonian():
    spec = oscillator_spec([2, 1, 2])
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx)
    total = DiffOp.zero(ctx)
    for i in range(3):
        total = total.add(block_hamiltonian_raw(spec, ctx, i).symbolic(spec))
    assert total == H


def test_hermiticity_formal_transpose():
    for spec in (oscillator_spec([2, 2]), coulomb_spec([2, 1])):
        ctx = operator_context(spec)
        H = build_hamiltonian(spec, ctx)
        assert formal_transpose(H) == H


def _potential_operator(spec, i, ctx):
    """The multiplication operator f_i / r_i^2 of block i (0-based)."""
    return RawOperator(DiffOp.zero(ctx), (potential_term(ctx, spec, i, ctx.const_poly(1)),))


def test_potential_operator_forms():
    spec = oscillator_spec([2, 1], (Constant(Fraction(5)), Constant("beta2")))
    ctx = operator_context(spec)
    op = _potential_operator(spec, 0, ctx).symbolic(spec)
    expect = DiffOp.from_coefficient(
        ctx, Coefficient.const(ctx, 5).div_poly(ctx.sum_of_squares([0, 1]))
    )
    assert op == expect
    op2 = _potential_operator(spec, 1, ctx).symbolic(spec)
    expect2 = DiffOp.from_coefficient(
        ctx, Coefficient.from_poly(ctx, ctx.param("beta2")).div_poly(ctx.x(2, 2))
    )
    assert op2 == expect2
    zero_spec = oscillator_spec([2, 1], (Zero(), Zero()))
    assert _potential_operator(zero_spec, 0, ctx).symbolic(zero_spec).is_zero()


def test_model2_symbolic_mode_rejected():
    spec = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))
    ctx = operator_context(spec)
    with pytest.raises(UnsupportedSymbolicPotentialError):
        build_hamiltonian(spec, ctx)
    raw = build_hamiltonian_raw(spec, ctx)
    assert raw.attachments


def test_eval_angular_potential_cases():
    assert eval_angular_potential(Constant(Fraction(5)), (0.3,)) == 5.0
    # one recursion step: c / sin^2(phi_2)
    h = Hierarchy((Constant(Fraction(3)), Zero()))
    phi = (0.4, 1.1)
    got = eval_angular_potential(h, phi)
    assert got == pytest.approx(3.0 / math.sin(1.1) ** 2)


def test_model2_f11_value_at_zero():
    """F(phi=0) for A=4, B=1 equals 197/25."""
    pot = Model2F11(4, 1)
    assert pot.value_at_s(0.0) == pytest.approx(197.0 / 25.0, abs=1e-13)
    h = model2_potential(2, 4, 1)
    assert eval_angular_potential(h, (0.0,)) == pytest.approx(197.0 / 25.0, abs=1e-13)


def test_model2_denominator_guard():
    # 2A-3-2Bs = 0 at s = (2A-3)/(2B); realizable when |s| <= 1
    pot = Model2F11(Fraction(3, 2), 1)  # delta = -2s
    with pytest.raises(EvaluationSingularityError):
        pot.value_at_s(0.0)


def test_hierarchy_singularity_guard():
    spec = oscillator_spec([3, 1], (Hierarchy((Constant(Fraction(1)), Zero())), Zero()))
    with pytest.raises(EvaluationSingularityError):  # y1 = y2 = 0: sin(phi_2) = 0
        potential_cartesian_evaluator(spec, 0)([np.array(0.0), np.array(0.0), np.array(1.0)])


@pytest.mark.parametrize("pot", [
    Hierarchy((Constant(Fraction(1)), Constant(Fraction(2)))),
    Hierarchy((Zero(), Constant(Fraction(2)))),
], ids=["constant-inner", "zero-inner"])
def test_hierarchy_guard_refuses_the_block_origin(pot):
    """At y = 0 every sub-norm vanishes, so sin^2(phi_2) = 0/0 is a NaN: the
    evaluator refuses the point, also inside an array, and numpy stays quiet."""
    f = potential_cartesian_evaluator(oscillator_spec([3, 1], (pot, Zero())), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in ([np.array(0.0)] * 3, [np.array([0.0, 0.5])] * 3):
            with pytest.raises(EvaluationSingularityError):
                f(y)


def test_zero_inner_level_adds_nothing_where_sin_vanishes():
    """A zero inner level contributes 0 / sin^2 = 0 even where sin(phi_2) = 0,
    quietly, so the tower is its outer constant there."""
    pot = Hierarchy((Zero(), Constant(Fraction(2))))
    f = potential_cartesian_evaluator(oscillator_spec([3, 1], (pot, Zero())), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f([np.array([0.0, 0.3]), np.array([0.0, -0.4]), np.array([1.0, 0.5])])
    assert got.tolist() == [2.0, 2.0]


def test_nonzero_guard_refuses_a_nan():
    with pytest.raises(EvaluationSingularityError):
        Model2F11(4, 1).value_at_s(np.array([0.1, np.nan]))


@pytest.mark.parametrize("d, pot", [
    (3, Hierarchy((Constant(Fraction(2)), Constant(Fraction(5))))),
    (3, Hierarchy((Model2F11(4, 1), Constant(Fraction(5, 7))))),
    (4, Hierarchy((Constant(Fraction(1, 3)), Zero(), Constant(Fraction(2))))),
    (1, Zero()),
    (1, Constant(Fraction(3, 2))),
], ids=["constant-tower-3", "model2-under-constant-3", "constant-tower-4", "zero-1", "constant-1"])
def test_cartesian_evaluator_matches_angle_recursion(d, pot):
    """A size-1 block has no angle; the recursion reads its one level at a
    dummy angle, which a constant ignores."""
    rng = random.Random(11)
    spec = oscillator_spec([d, 1], (pot, Zero()))
    f = potential_cartesian_evaluator(spec, 0)
    for _ in range(25):
        phis = [rng.uniform(0, 2 * math.pi)]
        phis += [rng.uniform(0.2, math.pi - 0.2) for _ in range(d - 2)]
        r = rng.uniform(0.5, 2.0)
        # y_1, y_2 = s_2 (sin, cos)(phi_1); s_k = s_{k+1} sin(phi_k), y_{k+1} = s_{k+1} cos(phi_k)
        y = [math.sin(phis[0]), math.cos(phis[0])] if d > 1 else [1.0]
        for phi in phis[1:]:
            y = [v * math.sin(phi) for v in y] + [math.cos(phi)]
        via_cart = f([np.array(r * v) for v in y])
        via_ang = eval_angular_potential(pot, phis)
        assert float(via_cart) == pytest.approx(via_ang, rel=1e-12)


def test_zero_is_the_zero_constant():
    """Zero folds like Constant(0) yet keeps its identity, repr and JSON kind."""
    assert isinstance(Zero(), Constant) and Zero().value == 0
    assert Zero() != Constant(0) and Zero() == Zero()
    assert repr(Zero()) == "Zero()"
    assert repr(model2_potential(3, 4, 1)) == (
        "Hierarchy(levels=(Model2F11(A=Fraction(4, 1), B=Fraction(1, 1)), Zero()))")
    spec = oscillator_spec([2, 1], (Zero(), Zero()))
    assert spec_to_json(spec)["potentials"] == [{"kind": "zero"}] * 2
    assert spec_from_json(spec_to_json(spec)) == spec
    ctx = operator_context(spec)
    zeros = oscillator_spec([2, 1], (Constant(0), Constant(0)))
    assert build_hamiltonian(spec, ctx) == build_hamiltonian(zeros, ctx)


def test_symbolic_numeric_agreement_constant():
    """Constant potentials: symbolic coefficient equals numeric evaluator."""
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    ctx = operator_context(spec)
    rng = random.Random(5)
    H = build_hamiltonian(spec, ctx)
    pot_coef = H.terms[(0, 0, 0, 0)]
    for _ in range(20):
        x = [rng.uniform(0.3, 1.5) for _ in range(4)]
        got = pot_coef.eval_numeric(x, {})
        r1sq = x[0] ** 2 + x[1] ** 2
        r2sq = x[2] ** 2 + x[3] ** 2
        expect = sum(v * v for v in x) + 1.0 / r1sq + 2.0 / r2sq
        assert got == pytest.approx(expect, rel=1e-12)


def test_spec_validation():
    with pytest.raises(InvalidPartitionError):
        oscillator_spec([2, 2], (Zero(),))  # wrong count
    with pytest.raises(InvalidPartitionError):
        coulomb_spec([2, 2], (Zero(), Zero()))  # coulomb: N-1 potentials
    with pytest.raises(InvalidPartitionError):
        oscillator_spec([1, 1], (Hierarchy((Constant(1),)), Zero()))  # 1-block hierarchy
    with pytest.raises(InvalidPartitionError):
        Hierarchy((Zero(), Model2F11(4, 1)))  # model2 not innermost


def test_json_round_trip():
    specs = [
        oscillator_spec([2, 2]),
        oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()), omega2=1),
        coulomb_spec([2, 2], (Constant(Fraction(1, 2)),), eta=2),
        oscillator_spec([3, 1], (Hierarchy((Constant(Fraction(2)), Zero())), Constant("beta2"))),
    ]
    for spec in specs:
        j = spec_to_json(spec)
        back = spec_from_json(j)
        assert back == spec


def test_json_unknown_field_rejected():
    with pytest.raises(InvalidPartitionError):
        spec_from_json({"family": "oscillator", "blocks": [1, 1], "bogus": 1})
