"""Integral builders: displays, counts, commutation with the Hamiltonian."""

from fractions import Fraction

import pytest

from blocksep.errors import InvalidIntegralError
from blocksep.integrals import (
    IntegralName,
    build_integral,
    conjugate_by_transposition,
    enumerate_integrals,
    structural_constant,
)
from blocksep.models import (
    Constant,
    Hierarchy,
    RawOperator,
    Zero,
    build_hamiltonian,
    coulomb_spec,
    model2_potential,
    operator_context,
    oscillator_spec,
)
from blocksep.opalg import DiffOp, angular_momentum, angular_momentum_squared_sum
from blocksep.ring import Coefficient


def sym(spec, ctx, kind, *indices):
    return build_integral(IntegralName(kind, *indices), spec, ctx).symbolic(spec)


def test_T_is_L2_minus_constant():
    spec = oscillator_spec([2, 1])
    ctx = operator_context(spec)
    T1 = sym(spec, ctx, "T", 1)
    L2 = angular_momentum_squared_sum(ctx, [0, 1])
    expect = L2.sub(DiffOp.from_poly(ctx, ctx.param("beta1")))
    assert T1 == expect


def test_Z2_display_on_1_1():
    """Z[2] on [1,1] = L_12^2 - (x1^2+x2^2)(b1/x1^2 + b2/x2^2)."""
    spec = oscillator_spec([1, 1])
    ctx = operator_context(spec)
    Z2 = sym(spec, ctx, "Z", 2)
    L12 = angular_momentum(ctx, 0, 1)
    S = ctx.sum_of_squares([0, 1])
    b1 = Coefficient.from_poly(ctx, ctx.param("beta1")).div_poly(ctx.x(0, 2))
    b2 = Coefficient.from_poly(ctx, ctx.param("beta2")).div_poly(ctx.x(1, 2))
    pot = b1.add(b2).mul_poly(S).neg()
    expect = L12.mul(L12).add(DiffOp.from_coefficient(ctx, pot))
    assert Z2 == expect


def test_G_top_equals_T():
    spec = oscillator_spec([3, 2])
    ctx = operator_context(spec)
    assert sym(spec, ctx, "G", 1, 3) == sym(spec, ctx, "T", 1)
    # definitional alias Z[1] = T[1], including on a 1-block leading partition
    assert sym(spec, ctx, "Z", 1) == sym(spec, ctx, "T", 1)
    spec12 = oscillator_spec([1, 2])
    ctx12 = operator_context(spec12)
    assert sym(spec12, ctx12, "Z", 1) == sym(spec12, ctx12, "T", 1)


def test_coulomb_J_bottom_is_block_L2():
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    J3 = sym(spec, ctx, "J", 3)
    assert J3 == angular_momentum_squared_sum(ctx, [2, 3])
    assert J3 == sym(spec, ctx, "T", 2)
    assert sym(spec, ctx, "Z", 2) == sym(spec, ctx, "Y", 1)


def test_coulomb_Y_and_J_at_the_end_of_their_ranges():
    """Y[N] = L^2_N and J[D] = 0 are the general formulas at p = N and p = D."""
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    assert sym(spec, ctx, "Y", 2) == angular_momentum_squared_sum(ctx, [2, 3])
    assert sym(spec, ctx, "J", 4).is_zero()


def test_integral_count_oscillator():
    for sizes in ([2, 2], [1, 1, 1], [3, 1, 2]):
        spec = oscillator_spec(sizes)
        names = enumerate_integrals(spec)
        D = spec.partition.D
        N = spec.partition.N
        assert len(names) == D + N - 1


def test_structural_constants_2_2():
    spec = coulomb_spec([2, 2])
    assert structural_constant(spec, "M", 1) == Fraction(3, 4)
    assert structural_constant(spec, "U", 3) == Fraction(1, 4)
    spec3 = coulomb_spec([1, 1, 1])
    assert structural_constant(spec3, "N", 2) == 0
    assert structural_constant(spec3, "M", 3) == 0  # empty sums at the boundary


def test_index_range_errors():
    spec = oscillator_spec([2, 2])
    ctx = operator_context(spec)
    for bad in (("Z", 5), ("G", 1, 1), ("G", 1, 5), ("H", 3), ("T", 0)):
        with pytest.raises(InvalidIntegralError):
            build_integral(IntegralName(*bad), spec, ctx)
    cspec = coulomb_spec([2, 2])
    cctx = operator_context(cspec)
    for bad in (("X", 1), ("S", 4), ("Y", 0), ("Y", 3), ("J", 2), ("J", 5)):
        with pytest.raises(InvalidIntegralError):
            build_integral(IntegralName(*bad), cspec, cctx)


def test_build_integral_returns_an_operator_or_refuses():
    """Any kind with 0 to 2 indices in -1..D+2, on any model, builds a
    RawOperator or raises InvalidIntegralError, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = ("H", "Hsum", "T", "G", "Z", "X", "S", "Y", "J", "sigmaS", "Hfull", "Hcoul", "Q")
    models = [(spec, operator_context(spec)) for make in (oscillator_spec, coulomb_spec)
              for spec in map(make, ([1], [2, 2], [1, 3], [2, 1, 2]))]

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        spec, ctx = data.draw(st.sampled_from(models))
        kind = data.draw(st.sampled_from(kinds))
        indices = data.draw(st.lists(st.integers(-1, spec.partition.D + 2), max_size=2))
        try:
            got = build_integral(IntegralName(kind, *indices), spec, ctx)
        except InvalidIntegralError:
            return
        assert isinstance(got, RawOperator)

    check()


def test_all_oscillator_integrals_commute_with_H():
    for sizes in ([2, 2], [1, 1, 1]):
        spec = oscillator_spec(sizes)
        ctx = operator_context(spec)
        H = build_hamiltonian(spec, ctx)
        for name in enumerate_integrals(spec):
            I = build_integral(name, spec, ctx).symbolic(spec)
            assert H.commutator(I).is_zero(), f"[H, {name}] != 0 on {sizes}"


def test_all_coulomb_integrals_commute_with_H():
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    H = build_hamiltonian(spec, ctx)
    for name in enumerate_integrals(spec):
        I = build_integral(name, spec, ctx).symbolic(spec)
        assert H.commutator(I).is_zero(), f"[H, {name}] != 0"


def test_sigma_conjugation_claims():
    """sigma_jD maps X[D] to X[j] and fixes Y[1] and the Hamiltonian."""
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    XD = build_integral(IntegralName("X", 4), spec, ctx)
    for j in (3, 4):
        conj = conjugate_by_transposition(XD, j, spec, ctx).symbolic(spec)
        assert conj == sym(spec, ctx, "X", j)
    Y1 = build_integral(IntegralName("Y", 1), spec, ctx)
    assert conjugate_by_transposition(Y1, 3, spec, ctx).symbolic(spec) == sym(spec, ctx, "Y", 1)
    Hraw = build_integral(IntegralName("Hcoul"), spec, ctx)
    assert conjugate_by_transposition(Hraw, 3, spec, ctx).symbolic(spec) == build_hamiltonian(
        spec, ctx
    )
    with pytest.raises(InvalidIntegralError):
        conjugate_by_transposition(XD, 2, spec, ctx)


def test_sigma_S_closed_form():
    """sigma_jD S[D-1] sigma_jD^{-1} equals the dilation-form display with
    x_j d_j (the printed variant with a bare d_j is dimensionally off and is
    checked as a candidate typo in the relation catalog)."""
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    D = 4
    j = 3
    got = sym(spec, ctx, "sigmaS", j)
    # (r^2 - x_j^2)(sum_i d_i^2 - d_j^2) - (E - x_j d_j)^2 - (D-3)(E - x_j d_j)
    #   - (r^2 - x_j^2) * sum_a g_a / r_a^2
    from blocksep.opalg import euler_operator, laplacian

    r2_minus = ctx.sum_of_squares(range(D)).sub(ctx.x(j - 1, 2))
    lap = laplacian(ctx, range(D)).sub(DiffOp.partial(ctx, j - 1, 2))
    E = euler_operator(ctx, range(D)).sub(
        DiffOp(ctx, {tuple(1 if k == j - 1 else 0 for k in range(D)): Coefficient.from_poly(ctx, ctx.x(j - 1))})
    )
    expect = DiffOp.from_poly(ctx, r2_minus).mul(lap).sub(E.mul(E)).sub(E.scale(D - 3))
    g1 = Coefficient.from_poly(ctx, ctx.param("alpha1")).div_poly(ctx.sum_of_squares([0, 1]))
    expect = expect.sub(DiffOp.from_coefficient(ctx, g1.mul_poly(r2_minus)))
    assert got == expect


def test_inner_G_on_a_three_block_sees_no_constant_potential():
    """A constant potential sits on the outermost level of the block, outside
    the sub-chain of G[1,2], so G[1,2] is the bare partial Casimir."""
    spec = oscillator_spec([3])
    ctx = operator_context(spec)
    G = sym(spec, ctx, "G", 1, 2)
    assert G == angular_momentum_squared_sum(ctx, [0, 1])
    for other in ("H", "T"):
        assert G.commutator(sym(spec, ctx, other, 1)).is_zero(), other


def test_inner_G_on_hierarchy_potentials():
    inner = oscillator_spec([3], (model2_potential(3, 5, 1),), omega2=1)
    raw = build_integral(IntegralName("G", 1, 2), inner, operator_context(inner))
    assert len(raw.attachments) == 1  # the innermost level lies inside the sub-chain
    outer = oscillator_spec([3], (Hierarchy((Zero(), Constant(Fraction(2)))),), omega2=1)
    with pytest.raises(InvalidIntegralError, match="outside the sub-chain"):
        build_integral(IntegralName("G", 1, 2), outer, operator_context(outer))
