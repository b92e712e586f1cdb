"""Relation catalogs, the exact verifier, and the relation-file grammar."""

from fractions import Fraction

import pytest
from click.testing import CliRunner

from blocksep.cli import main
from blocksep.errors import (BlocksepError, ConfigError, InapplicableRelationError,
                             RelationSyntaxError)
from blocksep.integrals import IntegralName, enumerate_integrals
from blocksep.models import coulomb_spec, oscillator_spec
from blocksep.relations import (
    CATALOG_NAMES,
    MAX_NESTING,
    Acomm,
    Comm,
    Image,
    Prod,
    Scalar,
    Sum,
    OperatorEnv,
    Relation,
    RelationSet,
    build_catalog,
    catalog_family,
    catalog_negative_controls,
    catalog_proposition_A,
    eval_node,
    gauge_relations,
    num,
    op,
    oscillator_quadratic_relations,
    over,
    parse_relation_file,
    parse_relation_line,
    verify_relation,
    verify_symbolic,
)
from oracles import eval_termwise, planar_seed_operators, substitute_params


def outcomes_by_name(ocs):
    return {o.name: o for o in ocs}


def test_proposition_A_all_zero():
    rs = catalog_proposition_A()
    ocs = outcomes_by_name(verify_symbolic(rs))
    for name in ("prop-A-1-def", "prop-A-2", "prop-A-3", "prop-A-Z-second-form"):
        assert ocs[name].status == "zero" and ocs[name].passed
    # its control, prop-A-3 plus 1, is the first of the negative controls
    control, env = catalog_negative_controls().pairs[0]
    neg = verify_relation(control, env)
    assert neg.name == "prop-A-3-negative"
    assert neg.status == "residual" and neg.passed
    # the catalog keeps strict relations only (exit 0 surface)
    assert all(r.expectation == "zero" for r in rs.relations)


def test_oscillator_algebra_minimal_partitions():
    for sizes in ([1, 1], [1, 2]):
        rs = build_catalog("oscillator-algebra", oscillator_spec(sizes))
        assert all(o.status == "zero" for o in verify_symbolic(rs))


def test_oscillator_full_catalog_2_2():
    rs = build_catalog("oscillator", oscillator_spec([2, 2]))
    ocs = verify_symbolic(rs)
    assert all(o.passed for o in ocs)
    assert all(o.status == "zero" for o in ocs)


def test_oscillator_negative_control():
    rs = catalog_negative_controls(oscillator_spec([2, 2]))
    ocs = verify_symbolic(rs)
    assert ocs
    for o in ocs:
        assert o.status == "residual" and o.passed, o.name


def test_gauge_identities_l2():
    for sizes in ([1, 2], [2, 2], [1, 1]):
        rs = build_catalog("gauge", oscillator_spec(sizes))  # N = 2: the level l = 2 alone
        assert all(o.status == "zero" for o in verify_symbolic(rs))


def test_planar_model_carries_the_printed_seed_operators():
    """proposition-A and the gauge levels run on the oscillator model on blocks
    1,1 with couplings g1, g2: its H[1], H[2], Hsum[2] and Z[2] are the printed
    seed operators, written out apart from the model builders."""
    (_, env), *_ = catalog_proposition_A().pairs
    assert env.spec.param_names() == ("w2", "g1", "g2")
    names = [IntegralName("H", 1), IntegralName("H", 2), IntegralName("Hsum", 2),
             IntegralName("Z", 2)]
    for name, printed in zip(names, planar_seed_operators(env.ctx)):
        assert env.operator(name) == printed, name
    for _, gauge_env in build_catalog("gauge", oscillator_spec([2, 3, 2])).pairs:
        assert gauge_env.spec == env.spec


def test_seed_display_plus_a_product_is_refuted():
    """[Z, Y] = its printed right-hand side plus Z[2] Hsum[2] does not reduce to zero."""
    rs = catalog_proposition_A()
    (rel, env), = [(r, e) for r, e in rs.pairs if r.name == "prop-A-2"]
    perturbed = Relation("prop-A-2-plus-ZH", Sum((rel.expr, op("Z", 2) * op("Hsum", 2))),
                         expectation="nonzero")
    item = verify_relation(perturbed, env)
    assert item.status == "residual" and item.passed


@pytest.mark.parametrize("l", [2, 3])
def test_gauge_match_with_a_shifted_dimension_is_refuted(monkeypatch, l):
    """Built with D_{l-1} + 1 in the block-algebra coefficients, both gauge
    matches at level l of [2,3,2] leave a residual; the seed relations, which
    do not read D_{l-1}, still reduce to zero."""
    from blocksep import relations

    real = relations._block_rhs
    monkeypatch.setattr(relations, "_block_rhs",
                        lambda *args: real(*args[:-2], args[-2] + 1, args[-1]))
    items = {o.name: o for o in verify_symbolic(build_catalog("gauge", oscillator_spec([2, 3, 2])))}
    for k in (2, 3):
        assert items[f"gauge-l{l}-match-{k}"].status == "residual"
        assert items[f"gauge-l{l}-seed-{k}"].status == "zero"


def test_gauge_rejects_bad_level():
    with pytest.raises(InapplicableRelationError):
        gauge_relations(oscillator_spec([2, 2]), 5)
    with pytest.raises(ConfigError, match="written for the oscillator family"):
        build_catalog("gauge", coulomb_spec([2, 2]))


@pytest.mark.slow
def test_coulomb_yx_2_2():
    rs = build_catalog("coulomb-yx", coulomb_spec([2, 2]))
    ocs = outcomes_by_name(verify_symbolic(rs))
    for j in (3, 4):
        for k in ("1-def", "2", "3"):
            o = ocs[f"coul-yx-j{j}-{k}"]
            assert o.status == "zero", o.name
    assert ocs["coul-sigma-X[3]"].status == "zero"
    assert ocs["coul-sigma-Y1"].status == "zero"
    assert ocs["coul-sigma-H"].status == "zero"
    for j in (3, 4):
        assert ocs[f"coul-correction-form-j{j}-printed"].status == "residual"
        assert ocs[f"coul-correction-form-j{j}-printed"].passed
        assert ocs[f"coul-correction-form-j{j}-emended"].status == "zero"


@pytest.mark.slow
def test_coulomb_erratum_control_2_2():
    rs = build_catalog("coulomb-erratum-wrong", coulomb_spec([2, 2]))
    ocs = verify_symbolic(rs)
    assert len(ocs) == 1
    assert ocs[0].status == "residual" and ocs[0].passed


TRANSPORT_BLOCKS = [[1, 3], [2, 2], [1, 1, 2], [2, 3]]


@pytest.mark.parametrize("blocks", TRANSPORT_BLOCKS,
                         ids=[",".join(map(str, b)) for b in TRANSPORT_BLOCKS])
def test_transported_residual_equals_direct_reduction(blocks):
    """Each j < D X/W relation is the image of its j = D relation: the swap maps
    every integral pair, and the swapped residual of the source equals by
    to_text() a direct reduction in a cold env; so does the nonzero W."""
    spec = coulomb_spec(blocks)
    rs = build_catalog("coulomb-yx", spec)
    env = rs.pairs[0][1]
    source = {rel.name: rel for rel in rs.relations}
    images = [rel for rel in rs.relations if rel.image is not None]
    D = spec.partition.D
    assert len(images) == 3 * (spec.partition.block_sizes[-1] - 1)
    for rel in images:
        slots = rel.image.slots
        assert all(env.operator(a).swap_coordinates(*slots) == env.operator(b)
                   for a, b in rel.image.leaves), rel.name
        moved = eval_node(source[rel.image.source].expr, env).swap_coordinates(*slots)
        assert moved.to_text() == eval_node(rel.expr, OperatorEnv(spec)).to_text()
    for i, j in {rel.image.slots for rel in images}:
        W = eval_node(Comm(op("Y", 1), op("X", D)), env).swap_coordinates(i, j)
        direct = eval_node(Comm(op("Y", 1), op("X", i + 1)), OperatorEnv(spec))
        assert not W.is_zero() and W.to_text() == direct.to_text()


def _reduced_roots(monkeypatch) -> list:
    """Every tree node that eval_node is called on from now on."""
    from blocksep import relations

    nodes, original = [], relations.eval_node
    monkeypatch.setattr(relations, "eval_node",
                        lambda node, env: nodes.append(node) or original(node, env))
    return nodes


def test_verify_symbolic_transports_every_image(monkeypatch):
    """No j < D X/W relation is reduced, and each item equals a direct reduction's."""
    rs = build_catalog("coulomb-yx", coulomb_spec([1, 3]))
    env = rs.pairs[0][1]
    nodes = _reduced_roots(monkeypatch)
    items = verify_symbolic(rs)
    images = [rel for rel in rs.relations if rel.image is not None]
    assert len(images) == 6 and not any(n is rel.expr for n in nodes for rel in images)
    monkeypatch.undo()
    for rel, item in zip(rs.relations, items):
        if rel.image is not None:
            assert item.to_json() == verify_relation(rel, env).to_json()


def test_image_of_a_nonzero_source_is_reduced_directly(monkeypatch):
    """An env proves only what reduced to zero, so the image of the nonzero W
    is reduced itself, to the item of a cold env."""
    spec = coulomb_spec([2, 3])
    leaves = ((IntegralName("X", 5), IntegralName("X", 4)), (IntegralName("Y", 1),) * 2)
    src = Relation("W[5]", Comm(op("Y", 1), op("X", 5)))
    img = Relation("W[4]", Comm(op("Y", 1), op("X", 4)), image=Image("W[5]", (3, 4), leaves))
    nodes = _reduced_roots(monkeypatch)
    _, got = verify_symbolic(RelationSet(over(OperatorEnv(spec), [src, img])))
    assert any(n is img.expr for n in nodes)
    monkeypatch.undo()
    direct = verify_relation(img, OperatorEnv(spec))
    assert got.status == "residual" and got.to_json() == direct.to_json()


def test_broken_premise_falls_back_to_direct_reduction(monkeypatch):
    """An X[3] built without its transposition makes coul-sigma-X[3] a residual;
    the j = 3 triple is then reduced directly, and its third display, which a
    transport would have proved, no longer vanishes."""
    from blocksep import relations

    real = relations.build_integral
    monkeypatch.setattr(relations, "build_integral", lambda name, spec, ctx: real(
        IntegralName("X", 4) if name == IntegralName("X", 3) else name, spec, ctx))
    rs = build_catalog("coulomb-yx", coulomb_spec([2, 2]))
    env = rs.pairs[0][1]
    nodes = _reduced_roots(monkeypatch)
    ocs = outcomes_by_name(verify_symbolic(rs))
    assert ocs["coul-sigma-X[3]"].status == "residual"
    assert ocs["coul-yx-j4-3"].status == "zero" and ocs["coul-yx-j3-3"].status == "residual"
    for rel in rs.relations:
        if rel.image is not None:
            assert any(n is rel.expr for n in nodes), rel.name
            assert ocs[rel.name].to_json() == verify_relation(rel, env).to_json()


@pytest.mark.parametrize("catalog, blocks", [("oscillator-algebra", [3, 3]), ("oscillator", [2, 2])])
def test_a_proof_in_the_picture_builds_no_cartesian_integral(monkeypatch, catalog, blocks):
    """Every relation here is proved in the block-radial picture, which builds
    each integral it reads in its own context, one with a group of two or more
    coordinates, and none in the Cartesian one."""
    from blocksep import relations

    real, contexts, pictures = relations.build_integral, [], []

    def recording(name, spec, ctx):
        contexts.append(max(ctx.d))
        return real(name, spec, ctx)

    monkeypatch.setattr(relations, "build_integral", recording)
    items = verify_symbolic(build_catalog(catalog, oscillator_spec(blocks)),
                            lambda item, picture: pictures.append(picture))
    assert all(item.passed for item in items) and set(pictures) == {"radial"}
    assert contexts and min(contexts) > 1


def test_coulomb_zy_recorded_with_diagnosis():
    rs = build_catalog("coulomb-zy", coulomb_spec([1, 1, 1]))
    ocs = verify_symbolic(rs)
    assert {o.name for o in ocs} == {
        "coul-zy-p2-ZZY",
        "coul-zy-p2-YZY-printed",
        "coul-zy-p2-YZY-emended",
    }
    for o in ocs:
        assert o.passed  # record-class: outcome on file
        assert o.status == "residual"
        assert "central elements" in o.note


def test_central_diagnoser_builds_its_basis_once_per_env(monkeypatch):
    """The readings of a group share one basis, whose central products the
    env builds once and reuses for every later reading."""
    from blocksep import relations

    bases = []
    original = relations.decompose_residual
    monkeypatch.setattr(relations, "decompose_residual",
                        lambda residual, basis: bases.append(basis) or original(residual, basis))
    spec = coulomb_spec([1, 1, 1])
    rs = build_catalog("coulomb-zy", spec)
    notes = [o.note for o in verify_symbolic(rs)]
    assert len(bases) == 3 and all(b is bases[0] for b in bases)
    rel, env = rs.pairs[0]
    assert list(env.products) == [rel.basis] and env.products[rel.basis] is bases[0]
    cold = OperatorEnv(spec)
    assert relations.central_diagnosis(eval_node(rel.expr, cold), rel.basis, cold) in notes[0]
    assert bases[-1] is not bases[0] and list(bases[-1]) == list(bases[0])


def test_readings_of_two_builds_are_equal_and_share_one_basis_per_env(monkeypatch):
    """Two builds of the reading catalogs give equal relations, hashing
    equal; verified in one env, each basis's products are built once and
    kept under one entry.  (On coulomb 1,1,1 coulomb-sj has no readings.)"""
    from blocksep import relations

    bases = []
    original = relations.decompose_residual
    monkeypatch.setattr(relations, "decompose_residual",
                        lambda residual, basis: bases.append(basis) or original(residual, basis))
    spec = coulomb_spec([1, 1, 2])
    first, second = ([rel for catalog in ("coulomb-zy", "coulomb-sj")
                      for rel in build_catalog(catalog, spec).relations] for _ in range(2))
    assert first == second and [hash(r) for r in first] == [hash(r) for r in second]
    env = OperatorEnv(spec)
    items = verify_symbolic(RelationSet(over(env, first + second)))
    assert [i.note for i in items[:len(first)]] == [i.note for i in items[len(first):]]
    assert len(env.products) == 2 == len({rel.basis for rel in first})
    assert len({id(b) for b in bases}) == 2
    assert all(any(b is p for p in env.products.values()) for b in bases)


def test_coulomb_sj_recorded():
    rs = build_catalog("coulomb-sj", coulomb_spec([1, 1, 2]))
    ocs = outcomes_by_name(verify_symbolic(rs))
    assert ocs["coul-sj-p3-SSJ-printed"].status == "inapplicable"
    assert ocs["coul-sj-p3-SSJ-emended"].status == "residual"
    assert all(o.passed for o in ocs.values())


def test_coulomb_commutativity_catalog():
    rs = build_catalog("coulomb-commutativity", coulomb_spec([2, 2]))
    ocs = verify_symbolic(rs)
    assert ocs and all(o.status == "zero" for o in ocs)


def test_one_block_coulomb_lists_no_S1():
    """On one block the S list starts at 2, where build_integral starts it,
    so the commutativity catalog has no inapplicable S[1] item."""
    spec = coulomb_spec([2])
    assert [str(n) for n in enumerate_integrals(spec)] == ["T[1]", "X[1]", "X[2]", "J[1]"]
    ocs = verify_symbolic(build_catalog("coulomb-commutativity", spec))
    assert len(ocs) == 4 and all(o.status == "zero" and o.passed for o in ocs)


@pytest.mark.slow
def test_coulomb_umbrella_catalog():
    rs = build_catalog("coulomb", coulomb_spec([1, 1, 2]))
    ocs = verify_symbolic(rs)
    assert len(ocs) > 20
    assert all(o.passed is not False for o in ocs)
    kinds = {o.name.split("-")[1] for o in ocs}
    assert {"yx", "comm", "zy", "sj"} <= kinds


def test_parameter_substitution_commutes_with_construction():
    """Binding beta_i after building equals building with rational values."""
    from blocksep.models import Constant
    from blocksep.relations import eval_node, op

    sym_spec = oscillator_spec([1, 2])
    sym_env = OperatorEnv(sym_spec)
    num_spec = oscillator_spec(
        [1, 2], (Constant(Fraction(3, 4)), Constant(Fraction(2))), omega2=Fraction(1)
    )
    num_env = OperatorEnv(num_spec)
    for name in (("Z", 2), ("T", 1), ("Hfull",)):
        sym = substitute_params(
            eval_node(op(*name), sym_env),
            {"beta1": Fraction(3, 4), "beta2": Fraction(2), "w2": Fraction(1)},
        )
        # rebuild in the parameter-free context for comparison
        lifted = eval_node(op(*name), num_env)
        assert sym.to_text() == lifted.to_text()


@pytest.mark.parametrize("catalog, blocks", [
    ("coulomb-zy", [2, 2]),  # Z/Y displays need N >= 3
    ("coulomb-sj", [2, 1]),  # S/J displays need d_N >= 2
])
def test_catalog_requirements(catalog, blocks):
    assert build_catalog(catalog, coulomb_spec(blocks)).pairs == ()
    res = CliRunner().invoke(main, ["verify", "--catalog", catalog,
                                    "--blocks", ",".join(map(str, blocks))])
    assert res.exit_code == 2, res.output
    assert f"config error: catalog {catalog!r} has no relations on this model" in res.output


@pytest.mark.parametrize("umbrella, parts, spec", [
    ("coulomb", ["coulomb-yx", "coulomb-commutativity", "coulomb-zy", "coulomb-sj"],
     coulomb_spec([1, 1, 2])),
    ("oscillator", ["oscillator-algebra", "oscillator-commutativity"], oscillator_spec([2, 2])),
])
def test_umbrella_catalog_joins_its_parts_in_one_env(umbrella, parts, spec):
    rs = build_catalog(umbrella, spec)
    assert [r.name for r in rs.relations] == [
        r.name for part in parts for r in build_catalog(part, spec).relations]
    assert len({id(env) for _, env in rs.pairs}) == 1


@pytest.mark.parametrize("catalog", CATALOG_NAMES)
def test_a_catalog_has_one_env_per_model(catalog):
    """Relations share work through their env, so a catalog builds one env for
    each model it runs on: the planar one for proposition-A and every gauge
    level, that and the block model's for negative-controls."""
    spec = (coulomb_spec if catalog_family(catalog) == "coulomb" else oscillator_spec)([1, 1, 2])
    rs = build_catalog(catalog, spec)
    envs = {id(env): env for _, env in rs.pairs}.values()
    models = {env.spec for env in envs}
    assert len(envs) == len(models) == (2 if catalog == "negative-controls" else 1)


# -- relation-file grammar -------------------------------------------------------


def test_parse_and_verify_user_relation():
    spec = oscillator_spec([2, 2])
    env = OperatorEnv(spec)
    rel = parse_relation_line("my-check: [Z[2], Hsum[2]]", param_names=("w2",))
    assert rel.name == "my-check"
    assert eval_node(rel.expr, env).is_zero()


def test_parse_equation_form():
    spec = oscillator_spec([2, 2])
    env = OperatorEnv(spec)
    rel = parse_relation_line("alias: G[1,2] == T[1]")
    assert eval_node(rel.expr, env).is_zero()


def test_parse_scalars_and_anticommutator():
    spec = oscillator_spec([1, 1])
    env = OperatorEnv(spec)
    text = """
    # two lines, one comment
    a: {T[1], H[1]} - T[1]*H[1] - H[1]*T[1]
    b: 3/4*H[1] - 3/4*H[1]
    """
    rels = parse_relation_file(text, param_names=("w2", "beta1", "beta2"))
    assert len(rels) == 2
    for rel in rels:
        assert eval_node(rel.expr, env).is_zero()


def test_parse_structural_constants():
    spec = coulomb_spec([2, 2])
    env = OperatorEnv(spec)
    rel = parse_relation_line("c: Mc[1] - 3/4")
    assert eval_node(rel.expr, env).is_zero()


def test_parse_param_reference():
    spec = oscillator_spec([1, 1])
    env = OperatorEnv(spec)
    rel = parse_relation_line("p: w2*H[1] - w2*H[1]", param_names=("w2",))
    assert eval_node(rel.expr, env).is_zero()


def test_parse_errors():
    with pytest.raises(RelationSyntaxError):
        parse_relation_line("bad: [T[1], ")
    with pytest.raises(RelationSyntaxError):
        parse_relation_line("bad: T[1] $ T[1]")
    with pytest.raises(RelationSyntaxError):
        parse_relation_file("x: (T[1]\n")


@pytest.mark.parametrize("line", [
    "0x10", "0.5*H[1]", "True", "H[1]**2", "H[1] @ H[2]", "a == b == c", "G[1,2,3]",
    "Nc[1,2]", "[H[1]]", "f(x)",
])
def test_parse_rejects_python_outside_the_grammar(line):
    with pytest.raises(RelationSyntaxError):
        parse_relation_line(line)


def test_parse_division_by_an_integer_anywhere():
    env = OperatorEnv(oscillator_spec([1, 1]))
    for line in ("H[1]/2 - 1/2*H[1]", "1/2/3 - 1/6", "-(T[1] + H[1])/4 + T[1]/4 + 1/4*H[1]"):
        assert eval_node(parse_relation_line(line).expr, env).is_zero(), line
    with pytest.raises(RelationSyntaxError, match="not an integer"):
        parse_relation_line("H[1]/H[2]")


def test_parse_nesting_bound():
    env = OperatorEnv(oscillator_spec([1, 1]))
    deepest = parse_relation_line("-" * MAX_NESTING + "H[1]")
    assert eval_node(deepest.expr, env) == env.operator(IntegralName("H", 1))
    with pytest.raises(RelationSyntaxError, match=f"deeper than {MAX_NESTING}"):
        parse_relation_line("-" * (MAX_NESTING + 1) + "H[1]")


def test_node_operators_build_the_prefix_shapes():
    """A Sum or Prod on the left is extended, anything else is nested, and a
    number becomes a Scalar."""
    a, b, c, x = op("H", 1), op("H", 2), op("T", 1), op("Z", 2)
    assert 8 * a * b == Prod((Scalar(Fraction(8)), a, b))
    assert a + b + c == Sum((a, b, c))
    assert a + (b + c) == Sum((a, Sum((b, c))))
    assert a - b == Sum((a, -b)) and -b == Prod((Scalar(Fraction(-1)), b))
    assert -2 * x == Prod((Scalar(Fraction(-2)), x))
    assert -(2 * x) == Prod((Scalar(Fraction(-1)), Prod((Scalar(Fraction(2)), x))))
    assert -2 * x != -(2 * x)
    assert x * Fraction(1, 2) == Prod((x, Scalar(Fraction(1, 2))))
    assert num(x) is x and num(3) == Scalar(Fraction(3))


def test_block_display_typed_as_a_line_is_the_catalog_tree():
    """[Z_2, Y_2] of the oscillator 2,2 as the paper prints it."""
    _, zy, _ = oscillator_quadratic_relations(oscillator_spec([2, 2]), 2)
    line = ("[Z[2], [Z[2], H[2]]] - (8*(Z[2] - 1)*Hsum[2] - 8*{Z[2] - 1, H[2]}"
            " + 8*(-Z[1] + T[2] + 1)*Hsum[2] - 16*H[2])")
    assert zy.name == "osc-alg-l2-ZY"
    assert parse_relation_line(line).expr == zy.expr


def test_nonzero_user_relation_reports_residual():
    spec = oscillator_spec([1, 1])
    env = OperatorEnv(spec)
    rel = parse_relation_line("n: [T[1], H[1]] + 1")
    res = eval_node(rel.expr, env)
    assert not res.is_zero()


@pytest.mark.parametrize("residual, basis, expect", [
    ({"x1": 2, "x2": 5}, {"A": {"x1": 3}, "B": {"x2": -6}},
     {"A": Fraction(2, 3), "B": Fraction(-5, 6)}),
    # B = 2 A is dependent: pivots run in column order, so A and C carry the residual
    ({"x1": 1, "x2": 1}, {"A": {"x1": 1}, "B": {"x1": 2}, "C": {"x2": 1}},
     {"A": Fraction(1), "C": Fraction(1)}),
    ({}, {}, {}),
    ({"x1": 1}, {}, None),
    # the x2 key sorts before the x1 key, so the out-of-span row comes first
    ({"x1": 4, "x2": 1}, {"A": {"x1": 2}}, None),
], ids=["pivot-3", "dependent-basis", "empty-basis-zero", "empty-basis-nonzero",
        "out-of-span-key-first"])
def test_decompose_residual_non_unit_pivot_is_exact(residual, basis, expect):
    """Exact Fraction coefficients, never floats; a dependent basis keeps
    column-order pivots; None when the residual is outside the span."""
    from blocksep.opalg import DiffOp
    from blocksep.relations import decompose_residual
    from blocksep.ring import Context

    ctx = Context(("x1", "x2"))

    def linear(coeffs):
        out = ctx.zero_poly()
        for name, c in coeffs.items():
            out = out.add(ctx.x(ctx.var_names.index(name)).scale(c))
        return DiffOp.from_poly(ctx, out)

    sol = decompose_residual(linear(residual), {k: linear(v) for k, v in basis.items()})
    if expect is None:
        assert sol is None
        return
    assert sol == expect
    assert list(sol) == list(expect)
    assert all(isinstance(v, Fraction) for v in sol.values())


def test_equal_brackets_share_one_memo_entry():
    env = OperatorEnv(oscillator_spec([2, 2]))
    first = Comm(op("Z", 2), op("H", 1))
    second = Comm(op("Z", 2), op("H", 1))  # built apart, equal as frozen nodes
    assert first is not second
    got = eval_node(first, env)
    assert eval_node(second, env) is got
    assert len(env.brackets) == 1
    eval_node(Acomm(op("Z", 2), op("H", 1)), env)
    assert len(env.brackets) == 2


def test_warm_memo_matches_a_cold_env():
    spec = oscillator_spec([2, 2])
    rels = build_catalog("oscillator", spec).relations
    warm = OperatorEnv(spec)
    for rel in rels:
        eval_node(rel.expr, warm)
    assert warm.brackets
    for rel in rels:
        cold = OperatorEnv(spec)
        assert eval_node(rel.expr, warm).to_text() == eval_node(rel.expr, cold).to_text(), rel.name


def _text_or_error(evaluate, node, env) -> str:
    try:
        return evaluate(node, env).to_text()
    except BlocksepError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("catalog, spec", [
    ("oscillator", oscillator_spec([2, 2])),
    ("oscillator-algebra", oscillator_spec([2, 1])),
    ("coulomb", coulomb_spec([1, 2])),
], ids=["oscillator-2,2", "oscillator-algebra-2,1", "coulomb-1,2"])
def test_fused_sum_matches_termwise_evaluation(catalog, spec):
    """Normalizing each output key of a Sum once gives the normal form that
    folding the tree one normalized node at a time gives."""
    pairs = build_catalog(catalog, spec).pairs
    assert pairs
    for rel, env in pairs:
        assert (_text_or_error(eval_node, rel.expr, env)
                == _text_or_error(eval_termwise, rel.expr, env)), rel.name


@pytest.mark.parametrize("spec, line", [
    (oscillator_spec([2, 2]), "zero: 0*Z[2]*H[1] + 0*[Z[2], T[1]] + H[1]*0 - 0"),
    (oscillator_spec([2, 2]), "three: T[1]*H[1]*Z[2] - 2*Z[2]*T[1]*H[1]/3 + w2*H[1]*3/4*T[1]"),
    (oscillator_spec([2, 2]), "negs: -(-(-Z[2]*H[1])) + -[T[1], -Z[2]] - {H[1], -(-T[1])}"),
    (oscillator_spec([2, 2]), "prod: 2*T[1]*-H[1]*3"),
    (coulomb_spec([2, 2]), "consts: Mc[1]*Z[2]*H[1] - Nc[2]*[Z[2], H[1]]*Uc[3] + 3/4*Mc[1]"),
], ids=["zero-factor", "three-factors", "nested-minus", "top-level-product", "constants"])
def test_fused_sum_matches_termwise_evaluation_on_parsed_lines(spec, line):
    env = OperatorEnv(spec)
    rel = parse_relation_line(line, param_names=spec.param_names())
    got = eval_node(rel.expr, env)
    assert got.to_text() == eval_termwise(rel.expr, env).to_text()
    assert got.is_zero() == line.startswith("zero")
