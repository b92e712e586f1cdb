"""Integral builders: displays, counts, commutation with the Hamiltonian,
the pinned refusals, term orders and atom orders of the one builder, and the
pieces of the operator context against the Cartesian operators."""

import hashlib
import json
from fractions import Fraction

import pytest

from blocksep.errors import InvalidIntegralError
from blocksep.integrals import (
    IntegralName,
    build_integral,
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
from blocksep.opalg import DiffOp
from blocksep.relations import OperatorEnv, _dilation_form, correction_closed_form
from blocksep.ring import Coefficient, unpack
from oracles import angular_momentum, euler_operator


def sym(spec, ctx, kind, *indices):
    return build_integral(IntegralName(kind, *indices), spec, ctx).symbolic(spec)


def test_T_is_L2_minus_constant():
    spec = oscillator_spec([2, 1])
    ctx = operator_context(spec)
    T1 = sym(spec, ctx, "T", 1)
    L2 = ctx.casimir([0, 1])
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
    assert J3 == ctx.casimir([2, 3])
    assert J3 == sym(spec, ctx, "T", 2)
    assert sym(spec, ctx, "Z", 2) == sym(spec, ctx, "Y", 1)


def test_coulomb_Y_and_J_at_the_end_of_their_ranges():
    """Y[N] = L^2_N and J[D] = 0 are the general formulas at p = N and p = D."""
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    assert sym(spec, ctx, "Y", 2) == ctx.casimir([2, 3])
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
    """sigma_jD maps X[D] to X[j] and fixes Y[1] and the Hamiltonian; sigmaS[j]
    refuses a j outside the last block."""
    spec = coulomb_spec([2, 2])
    ctx = operator_context(spec)
    XD = sym(spec, ctx, "X", 4)
    for j in (3, 4):
        assert XD.swap_coordinates(j - 1, 3) == sym(spec, ctx, "X", j)
    Y1 = sym(spec, ctx, "Y", 1)
    assert Y1.swap_coordinates(2, 3) == Y1
    H = build_hamiltonian(spec, ctx)
    assert H.swap_coordinates(2, 3) == H
    with pytest.raises(InvalidIntegralError, match="outside the last block"):
        sym(spec, ctx, "sigmaS", 2)


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
    r2_minus = ctx.sum_of_squares(range(D)).sub(ctx.x(j - 1, 2))
    lap = ctx.laplacian(range(D)).sub(DiffOp.partial(ctx, j - 1, 2))
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
    assert G == ctx.casimir([0, 1])
    for other in ("H", "T"):
        assert G.commutator(sym(spec, ctx, other, 1)).is_zero(), other


def test_inner_G_on_hierarchy_potentials():
    inner = oscillator_spec([3], (model2_potential(3, 5, 1),), omega2=1)
    raw = build_integral(IntegralName("G", 1, 2), inner, operator_context(inner))
    assert len(raw.attachments) == 1  # the innermost level lies inside the sub-chain
    outer = oscillator_spec([3], (Hierarchy((Zero(), Constant(Fraction(2)))),), omega2=1)
    with pytest.raises(InvalidIntegralError, match="outside the sub-chain"):
        build_integral(IntegralName("G", 1, 2), outer, operator_context(outer))


KINDS = ("Hfull", "Hsum", "H", "T", "G", "Z", "Hcoul", "X", "S", "Y", "J", "sigmaS")


def _every_name(spec):
    """Each kind with no index, with i in 0..D+1, and with i and j in 0..D+1."""
    reach = range(spec.partition.D + 2)
    for kind in KINDS:
        yield IntegralName(kind)
        for i in reach:
            yield IntegralName(kind, i)
            yield from (IntegralName(kind, i, j) for j in reach)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _build_or_refuse(name, spec, ctx):
    try:
        return build_integral(name, spec, ctx)
    except InvalidIntegralError as exc:
        return f"InvalidIntegralError: {exc}"


def test_every_refusal_is_pinned():
    """Every refusal of build_integral, message included, and every name it
    builds, as recorded before the block-radial picture came to share the
    Cartesian builder.  sigmaS[j] still needs S[D-1]."""
    table = {}
    for spec in (coulomb_spec([1, 1]), coulomb_spec([2]), coulomb_spec([1, 2]),
                 coulomb_spec([2, 3]), oscillator_spec([3]), oscillator_spec([1, 2, 3])):
        ctx = operator_context(spec)
        rows = [(str(name), _build_or_refuse(name, spec, ctx)) for name in _every_name(spec)]
        table[f"{spec.family} {list(spec.partition.block_sizes)}"] = [
            (name, got if isinstance(got, str) else "ok") for name, got in rows]
    assert dict(table["coulomb [1, 1]"])["sigmaS[2]"] == (
        "InvalidIntegralError: S index 1 out of [2,1]")
    assert _digest(table) == "cab2a80d1f189497b365eb5952c4f500682bf9ef5a8abd3d6299f8cb9962cc5f"


def _stored(raw: RawOperator):
    """A raw operator in its stored order: derivative keys, then each
    coefficient's monomials and values and its denominator atoms, each by its
    polynomial rather than its id, which follows registration order."""
    ctx = raw.base.ctx

    def terms(p):
        return [(unpack(p.n, m), str(v)) for m, v in p.terms.items()]

    def coef(c):
        return terms(c.num), [(sorted(terms(ctx.atom_by_id(a).poly)), e) for a, e in c.den]

    return ([(list(k), coef(c)) for k, c in raw.base.terms.items()],
            [(att.block, coef(att.coef)) for att in raw.attachments])


# sigmaS[j < D] is left out: it is the Casimir of every coordinate but x_j,
# whose terms sit in another order than the conjugated S[D-1] they were
# recorded from
STORED_ORDERS = {
    "oscillator-2,2": "3e1bec76da26b1dc0f6c250c0381dfd1cdd3ac9b34eaf06f1d8696a087e42032",
    "oscillator-1,2,3": "c495254a425a8a595fe7b582976bd6dcb260ada7359d3fe9bbf43432ae350237",
    "coulomb-1,1,2": "ae5f3878299573788e97d909680a204adab676b1d7c7743d14670418f31b1784",
    "coulomb-2,3": "b5b5a55f0155df70005f1bbb355a0756cb7404926f4685fee585e739cc26360b",
    "coulomb-2,2,2": "7a72170f39b22cb5cd1483ca85b3ab7e44f03938a9e2a57fc26e6055b834fa5c",
}


@pytest.mark.parametrize("key", STORED_ORDERS)
def test_cartesian_integrals_keep_their_stored_order(key):
    """Numeric mode sums a coefficient's terms in their stored order, so every
    Cartesian integral keeps the order it was recorded in, each built in a
    context of its own."""
    family, blocks = key.split("-")
    spec = (coulomb_spec if family == "coulomb" else oscillator_spec)(
        [int(b) for b in blocks.split(",")])
    got = {}
    for name in _every_name(spec):
        if name.kind == "sigmaS" and name.i is not None and name.i < spec.partition.D:
            continue
        raw = _build_or_refuse(name, spec, operator_context(spec))
        if not isinstance(raw, str):
            got[str(name)] = _stored(raw)
    assert _digest(got) == STORED_ORDERS[key]


SIGMA_STORED_ORDERS = {
    "2,3": "4b384bbf16f96acef088aed092c83fa8edc4895107d40b326378945764425007",
    "1,2,2": "e169aaf39ee06eb30f426033ce65d6454389a33fe8c160372f950ab44dbb26ae",
    "1,1,2": "f8857e295028cc8f72eec183bafa9de34ba0538684b84defe4f147f6e792a47f",
}


@pytest.mark.parametrize("blocks", SIGMA_STORED_ORDERS)
def test_sigma_S_keeps_its_stored_order(blocks):
    """sigmaS[j < D], which the test above leaves out, keeps the stored order
    of the Casimir of every coordinate but x_j, each built in a context of its
    own."""
    spec = coulomb_spec([int(b) for b in blocks.split(",")])
    D = spec.partition.D
    got = {j: _stored(build_integral(IntegralName("sigmaS", j), spec, operator_context(spec)))
           for j in range(D - spec.partition.block_sizes[-1] + 1, D)}
    assert _digest(got) == SIGMA_STORED_ORDERS[blocks]


ATOM_ORDERS = {
    "oscillator-2,2": "973c4a8d883634322e7883a4c12596ce6466a643543a8c107f91159ee5ed560d",
    "oscillator-1,2,3": "96436799a08169572a134faaefbe37293f1ed98f1fbe296ee3c3e21f21b2c196",
    "coulomb-1,1,2": "fc478a090f68f285f26717de321427a6b4da1bedb3436bfc3200c302c882fae3",
    "coulomb-2,3": "01abc714dd50f0a2f2e9a0af7155e4dcdeeac7a58e3a231bd1b42ed469b1ffd8",
    "coulomb-2,2,2": "c22d681cc6842cef327bafee98b774eafd797abd834675bfaf780584db2c5151",
}


@pytest.mark.parametrize("key", ATOM_ORDERS)
def test_atoms_keep_their_registration_order(key):
    """Numeric mode divides a coefficient by its atoms in id order, so one
    context that builds every integral registers the same atoms, each with its
    terms in their stored order, in the same order."""
    family, blocks = key.split("-")
    spec = (coulomb_spec if family == "coulomb" else oscillator_spec)(
        [int(b) for b in blocks.split(",")])
    ctx = operator_context(spec)
    for name in _every_name(spec):
        _build_or_refuse(name, spec, ctx)
    atoms = []
    while True:
        try:
            p = ctx.atom_by_id(len(atoms)).poly
        except IndexError:
            break
        atoms.append([(unpack(p.n, m), str(v)) for m, v in p.terms.items()])
    assert _digest(atoms) == ATOM_ORDERS[key]


@pytest.mark.parametrize("spec", [oscillator_spec([1, 2, 3]), coulomb_spec([1, 1, 2]),
                                  coulomb_spec([2, 3])],
                         ids=["oscillator-1,2,3", "coulomb-1,1,2", "coulomb-2,3"])
def test_pieces_of_the_operator_context_are_the_cartesian_operators(spec):
    """The pieces the integrals are built from equal the Cartesian operators
    built from the oracles: the Laplacian, the sum of d_a^2, and the Casimir,
    the sum of L_ab^2, over every run of coordinates and every set of all
    coordinates but one; X's term {L_ks, d_s} for every k != s; and the Euler
    operator, the sum of x_a d_a, in both dilation forms of the conjugated S."""
    ctx = operator_context(spec)
    D = spec.partition.D
    runs = [range(lo, hi) for lo in range(D) for hi in range(lo + 1, D + 1)]
    for idx in runs + [[a for a in range(D) if a != j] for j in range(D)]:
        lap, L2 = DiffOp.zero(ctx), DiffOp.zero(ctx)
        for a in idx:
            lap = lap.add(DiffOp.partial(ctx, a, 2))
            for b in idx:
                if a < b:
                    L = angular_momentum(ctx, a, b)
                    L2 = L2.add(L.mul(L))
        assert ctx.laplacian(idx) == lap, list(idx)
        assert ctx.casimir(idx) == L2, list(idx)
    for k in range(D):
        for s in range(D):
            if k != s:
                expect = angular_momentum(ctx, k, s).anticommutator(DiffOp.partial(ctx, s))
                assert ctx.x_term(k, s) == expect, (k, s)
    env = OperatorEnv(spec, ctx)
    for j in range(1, D + 1):
        idx = [a for a in range(D) if a != j - 1]
        printed = euler_operator(ctx, range(D)).sub(DiffOp.partial(ctx, j - 1))
        for literal, E in ((False, euler_operator(ctx, idx)), (True, printed)):
            assert correction_closed_form(spec, env, j, literal) == _dilation_form(
                spec, ctx, idx, E), (j, literal)


@pytest.mark.parametrize("blocks", [[2, 3], [1, 2, 2, 2]], ids=["2,3", "1,2,2,2"])
def test_sigma_S_is_the_conjugated_S(blocks):
    """sigmaS[j], the Casimir of every coordinate but x_j, is S[D-1] conjugated
    by the x_j <-> x_D transposition, for every j of the last block; each
    earlier block's own alpha_b keeps the folded potentials apart."""
    spec = coulomb_spec(blocks)
    ctx = operator_context(spec)
    D = spec.partition.D
    S = sym(spec, ctx, "S", D - 1)
    for j in range(D - blocks[-1] + 1, D + 1):
        assert sym(spec, ctx, "sigmaS", j) == S.swap_coordinates(j - 1, D - 1), j
