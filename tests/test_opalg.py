"""Differential operator algebra: normal ordering, commutators, worked
examples.  Randomized properties of the product are in
``test_product_property``."""

import pytest

from blocksep.errors import ContextMismatchError
from blocksep.models import CartesianContext
from blocksep.opalg import DiffOp, angular_momentum
from blocksep.ring import Coefficient, Context
from oracles import (apply_coefficient, formal_transpose, substitute_params, termwise_product,
                     two_product_composition)


@pytest.fixture
def ctx3():
    return CartesianContext(("x1", "x2", "x3"))


@pytest.fixture
def ctx2r():
    return CartesianContext(("x1", "x2"), norm_radical=True)


def test_weyl_relation(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    prod = d1.mul(x1)
    expect = x1.mul(d1).add(DiffOp.scalar(ctx3, 1))
    assert prod == expect


def test_add_cancels(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    assert d1.add(d1.neg()).is_zero()
    t = DiffOp.from_poly(ctx3, ctx3.x(0)).mul(DiffOp.partial(ctx3, 1))
    assert t.add(t) == t.scale(2)


def test_commutator_partial_x1sq(ctx3):
    """[d1, x1^2] = 2 x1."""
    d1 = DiffOp.partial(ctx3, 0)
    x1sq = DiffOp.from_poly(ctx3, ctx3.x(0, 2))
    assert d1.commutator(x1sq) == DiffOp.from_poly(ctx3, ctx3.x(0).scale(2))


def test_anticommutator(ctx3):
    """{d1, x1} = 2 x1 d1 + 1."""
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    got = d1.anticommutator(x1)
    expect = x1.mul(d1).scale(2).add(DiffOp.scalar(ctx3, 1))
    assert got == expect


def test_partial_of_radical(ctx2r):
    """d1 o r = r d1 + x1 rho / S in normal order."""
    ctx = ctx2r
    d1 = DiffOp.partial(ctx, 0)
    r = DiffOp.from_poly(ctx, ctx.radical_poly())
    prod = d1.mul(r)
    S = ctx.sum_of_squares([0, 1])
    chain = Coefficient.from_poly(ctx, ctx.x(0).mul(ctx.radical_poly())).div_poly(S)
    expect = r.mul(d1).add(DiffOp.from_coefficient(ctx, chain))
    assert prod == expect


def test_so3_closure(ctx3):
    """[L_12, L_23] = L_13 and the full closure over index triples."""
    got = angular_momentum(ctx3, 0, 1).commutator(angular_momentum(ctx3, 1, 2))
    assert got == angular_momentum(ctx3, 0, 2)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if len({a, b, c}) < 3:
                    continue
                got = angular_momentum(ctx3, a, b).commutator(angular_momentum(ctx3, b, c))
                assert got == angular_momentum(ctx3, a, c)


def test_L2_commutes_with_own_radius():
    """[L^2_block, r_block^2] = 0 for 2- and 3-coordinate blocks."""
    for d in (2, 3):
        ctx = CartesianContext(tuple(f"x{i+1}" for i in range(d)))
        L2 = ctx.casimir(range(d))
        r2 = DiffOp.from_poly(ctx, ctx.sum_of_squares(range(d)))
        assert L2.commutator(r2).is_zero()


def test_is_zero_examples(ctx3):
    d1 = DiffOp.partial(ctx3, 0)
    x1 = DiffOp.from_poly(ctx3, ctx3.x(0))
    one = DiffOp.scalar(ctx3, 1)
    assert d1.mul(x1).sub(x1.mul(d1)).sub(one).is_zero()
    assert not d1.mul(x1).sub(x1.mul(d1)).is_zero()


def test_context_mismatch(ctx3, ctx2r):
    d = DiffOp.partial(ctx3, 0)
    e = DiffOp.partial(ctx2r, 0)
    with pytest.raises(ContextMismatchError):
        d.add(e)
    with pytest.raises(ContextMismatchError):
        d.mul(e)


def test_substitute_params_operator():
    ctx = Context(("x1",), ("g1", "w2"))
    g_over_x2 = DiffOp.from_coefficient(
        ctx, Coefficient.from_poly(ctx, ctx.param("g1")).div_poly(ctx.x(0, 2))
    )
    assert substitute_params(g_over_x2, {"g1": 0}).is_zero()
    w2r2 = DiffOp.from_poly(ctx, ctx.param("w2").mul(ctx.x(0, 2)))
    assert substitute_params(w2r2, {"w2": 1}) == DiffOp.from_poly(ctx, ctx.x(0, 2))


def test_formal_transpose_involution(ctx3):
    lap = ctx3.laplacian(range(3))
    assert formal_transpose(lap) == lap
    d1 = DiffOp.partial(ctx3, 0)
    assert formal_transpose(d1) == d1.neg()


def test_swap_coordinates(ctx3):
    L12 = angular_momentum(ctx3, 0, 1)
    assert L12.swap_coordinates(1, 2) == angular_momentum(ctx3, 0, 2)
    assert L12.swap_coordinates(0, 0) == L12


def test_to_text_deterministic(ctx3):
    op = ctx3.laplacian(range(3)).neg().add(
        DiffOp.from_poly(ctx3, ctx3.sum_of_squares(range(3)))
    )
    txt = op.to_text()
    assert txt.splitlines()[0].startswith("1 ::")
    assert txt == op.to_text()


def test_to_text_golden():
    """Frozen serialization of a small angular operator."""
    ctx = Context(("x1", "x2"))
    L = angular_momentum(ctx, 0, 1)
    got = L.mul(L).to_text()
    expect = (
        "dx2 :: -x2\n"
        "dx1 :: -x1\n"
        "dx2^2 :: x1^2\n"
        "dx1*dx2 :: -2*x1*x2\n"
        "dx1^2 :: x2^2"
    )
    assert got == expect


def test_to_text_golden_with_radical():
    ctx = Context(("x1", "x2"), ("eta",), norm_radical=True)
    inv_r = Coefficient.from_poly(ctx, ctx.param("eta").mul(ctx.radical_poly())).div_poly(
        ctx.sum_of_squares([0, 1])
    )
    op = DiffOp.from_coefficient(ctx, inv_r).neg()
    assert op.to_text() == "1 :: (-eta*r) / [(x1^2 + x2^2)]"


def test_jets_stay_with_their_operand(ctx2r):
    """One left operator composed with two right operands that have the same
    keys and different coefficients, in turn and again: every product and
    commutator equals the oracles', so the derivatives one operand keeps in
    its ``jets`` never serve the other."""
    ctx = ctx2r
    r, x1, x2 = ctx.radical_poly(), ctx.x(0), ctx.x(1)
    a = ctx.laplacian([0, 1]).add(DiffOp.from_poly(ctx, x1).mul(DiffOp.partial(ctx, 1)))
    b1 = DiffOp(ctx, {(1, 0): Coefficient.from_poly(ctx, r), (0, 0): Coefficient.from_poly(ctx, x2.mul(x2))})
    b2 = DiffOp(ctx, {(1, 0): Coefficient.from_poly(ctx, x1.mul(x1).mul(x1)),
                      (0, 0): Coefficient.from_poly(ctx, r).div_poly(x2)})
    g = Coefficient.from_poly(ctx, x1.mul(x2).add(r))
    for b in (b1, b2, b1, b2):
        ab = a.mul(b)
        assert ab == termwise_product(a, b)[0]
        assert apply_coefficient(ab, g) == apply_coefficient(a, apply_coefficient(b, g))
        assert a.commutator(b) == two_product_composition(a, b, -1)
    shared = b1.jets.keys() & b2.jets.keys()
    assert shared and all(b1.jets[k] != b2.jets[k] for k in shared)
