"""Finite-difference application, residual sampling, eigensolver oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from blocksep.errors import OracleUnconvergedError
from blocksep.jets import Jet
from blocksep.models import (
    Constant,
    Zero,
    coulomb_spec,
    model2_potential,
    oscillator_spec,
    spec_to_json,
)
from blocksep.numerics import (
    Eigensolve1DProblem,
    FDScheme,
    NumericEnv,
    ProbeFunction,
    Sampling,
    _ring_eigenvalues,
    _stencil_axis,
    apply_numeric,
    central_weights,
    eigensolve_1d,
    eigensolve_periodic,
    relation_residual_numeric,
    sample_points,
)
from blocksep.opalg import DiffOp
from blocksep.relations import (OperatorEnv, catalog_negative_controls, coulomb_yx_relations,
                                oscillator_quadratic_relations)
from blocksep.ring import Context
from oracles import reference_row_reduce, stencil_axis_reference


def test_central_weights_three_point():
    assert central_weights(1, 2) == (1, (-0.5, 0.0, 0.5))
    assert central_weights(2, 2) == (1, (1.0, -2.0, 1.0))


def test_central_weights_order_eight_classic():
    """The classic eighth-order central weights for the first and second derivative."""
    first = [Fraction(4, 5), Fraction(-1, 5), Fraction(4, 105), Fraction(-1, 280)]
    second = [Fraction(8, 5), Fraction(-1, 5), Fraction(8, 315), Fraction(-1, 560)]
    assert central_weights(1, 8) == (4, tuple(map(float, [-w for w in first[::-1]] + [0] + first)))
    assert central_weights(2, 8) == (4, tuple(map(float, second[::-1] + [Fraction(-205, 72)]
                                                  + second)))


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("m", range(1, 9))
def test_central_weights_match_a_dense_moment_solve(m, order):
    """The weights solve sum_j w_j j^k = m! [k = m], k = 0..2s, on offsets -s..s;
    a dense Gauss-Jordan of that system gives the same floats."""
    s, w = central_weights(m, order)
    offsets = range(-s, s + 1)
    rows = [[Fraction(j) ** k for j in offsets] + [Fraction(math.factorial(m) if k == m else 0)]
            for k in range(2 * s + 1)]
    assert reference_row_reduce(rows, 2 * s + 1) == list(range(2 * s + 1))
    assert w == tuple(float(row[-1]) for row in rows)


def test_central_weights_sum():
    for m in (1, 2, 3):
        s, w = central_weights(m, 8)
        assert len(w) == 2 * s + 1
        assert abs(sum(w)) < 1e-12  # derivatives kill constants


def test_apply_partial_to_square():
    ctx = Context(("x1", "x2"))
    d1 = DiffOp.partial(ctx, 0)
    got = apply_numeric(d1, lambda cs: cs[0] ** 2, (1.0, 0.7))
    assert got == pytest.approx(2.0, abs=1e-10)


def test_apply_laplacian_gaussian():
    ctx = Context(("x1", "x2", "x3"))
    lap = DiffOp.zero(ctx)
    for i in range(3):
        lap = lap.add(DiffOp.partial(ctx, i, 2))
    x = (0.3, 0.3, 0.3)
    got = apply_numeric(lap, lambda cs: np.exp(-(cs[0] ** 2 + cs[1] ** 2 + cs[2] ** 2)), x)
    r2 = sum(v * v for v in x)
    expect = (4 * r2 - 6) * math.exp(-r2)
    assert got == pytest.approx(expect, rel=1e-8)


def test_fd_convergence_order():
    """Halving h reduces the error by about 2^order on analytic probes."""
    f = lambda cs: np.sin(cs[0]) * np.exp(cs[0] / 3.0)
    ctx = Context(("x1",))
    x = (0.4,)

    def exact_d1(t):
        return math.cos(t) * math.exp(t / 3) + math.sin(t) * math.exp(t / 3) / 3

    for order, h0 in ((4, 0.2), (6, 0.2), (8, 0.25)):
        d1 = DiffOp.partial(ctx, 0)
        errs = []
        for h in (h0, h0 / 2):
            got = apply_numeric(d1, f, x, FDScheme(order=order, h=h))
            errs.append(abs(got - exact_d1(0.4)))
        measured = math.log2(errs[0] / errs[1])
        assert abs(measured - order) < 0.5, (order, measured)


def test_probe_function_seeded():
    p1 = ProbeFunction.from_seed(3, 11, 0)
    p2 = ProbeFunction.from_seed(3, 11, 0)
    p3 = ProbeFunction.from_seed(3, 11, 1)
    x = [np.array(0.4), np.array(-0.2), np.array(0.9)]
    assert float(p1(x)) == float(p2(x))
    assert float(p1(x)) != float(p3(x))


def test_sample_points_deterministic_and_admissible():
    spec = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))
    from blocksep.numerics import model_point_guards

    guards = model_point_guards(spec, 0.15)
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    pts1 = sample_points(spec, 20, rng1, margin_extent=0.15, guards=guards)
    pts2 = sample_points(spec, 20, rng2, margin_extent=0.15, guards=guards)
    assert pts1 == pts2
    for x in pts1:
        assert all(abs(v) >= 0.3 for v in x)
        assert math.hypot(x[0], x[1]) >= 1.0


def test_symbolic_zero_implies_numeric_small():
    """Relations proved exactly zero stay below 1e-6 numerically."""
    spec = oscillator_spec([2, 2], (Constant(1), Constant(2)), omega2=1)
    rels = oscillator_quadratic_relations(spec, 2)
    env = NumericEnv(OperatorEnv(spec), {}, FDScheme(extended=True))
    for rel in rels[1:]:
        st = relation_residual_numeric(rel, env, probes=2, points_per_probe=5, seed=5)
        assert st.max_relative < 1e-6, (rel.name, st)


@pytest.mark.slow
def test_coulomb_yx_numeric_agreement():
    spec = coulomb_spec([2, 2], (Constant(1),), eta=2)
    rels = coulomb_yx_relations(spec, 4)  # the un-conjugated triple, j = D
    rel2 = next(r for r in rels if r.name.endswith("-2"))
    env = NumericEnv(OperatorEnv(spec), {}, FDScheme(extended=True))
    st = relation_residual_numeric(rel2, env, probes=1, points_per_probe=3, seed=9)
    assert st.max_relative < 1e-6


def test_leibniz_numeric_consistency():
    """Normal-ordered products agree with nested numeric application."""
    from oracles import angular_momentum
    from blocksep.ring import Coefficient, Context

    ctx = Context(("x1", "x2"))
    a = angular_momentum(ctx, 0, 1)
    S = ctx.sum_of_squares([0, 1])
    b = DiffOp.partial(ctx, 0, 2).add(
        DiffOp.from_coefficient(ctx, Coefficient.const(ctx, 1).div_poly(S))
    )
    prod = a.mul(b)
    f = lambda cs: np.exp(-((cs[0] - 0.2) ** 2 + cs[1] ** 2)) * (1 + cs[0] * cs[1])
    scheme = FDScheme(h=5e-3)
    for x in ((0.7, 0.4), (-0.6, 0.9), (0.5, -1.1)):
        direct = apply_numeric(prod, f, x, scheme)
        # nested: apply b then a on one grid large enough for both
        from blocksep.numerics import _axis_coords, apply_on_grid, compile_operator

        na = compile_operator(a, None, {}, scheme)
        nb = compile_operator(b, None, {}, scheme)
        R = na.margin + nb.margin
        coords = _axis_coords(x, scheme.h, R, 2)
        values = f(np.broadcast_arrays(*coords))
        inner = apply_on_grid(nb, values, x, scheme.h, R, scheme)
        outer = apply_on_grid(na, inner, x, scheme.h, R - nb.margin, scheme)
        nested = float(outer.reshape(-1)[outer.size // 2])
        assert direct == pytest.approx(nested, rel=1e-8, abs=1e-10)


def test_perturbed_relation_flags_large_residual():
    spec = oscillator_spec([2, 2], (Constant(1), Constant(2)), omega2=1)
    rel, env = catalog_negative_controls(spec).pairs[1]
    assert rel.name == "osc-alg-l2-ZY-negative" and rel.expectation == "nonzero"
    env = NumericEnv(env, {}, FDScheme(extended=True))
    st = relation_residual_numeric(rel, env, probes=2, points_per_probe=5, seed=5)
    assert st.max_relative > 1e-2


def _model2_grid(radius, scheme, seed=3):
    """The criterion 7 model, its oscillator-algebra relations, and probe samples
    on the grid of the given radius around an admissible point."""
    from blocksep.numerics import _axis_coords

    spec = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))
    rels = oscillator_quadratic_relations(spec, 2)
    x = sample_points(spec, 1, np.random.default_rng(seed), margin_extent=0.2)[0]
    coords = _axis_coords(x, scheme.h, radius, spec.partition.D, scheme.dtype)
    values = ProbeFunction.from_seed(spec.partition.D, seed)(np.broadcast_arrays(*coords))
    return spec, rels, x, values


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("R", [0, 3])
def test_apply_on_grid_is_exact_on_a_larger_grid(extended, R):
    """Cropping before differentiating changes no bit: the output of radius R
    equals the cropped output of a grid of radius R + k."""
    from blocksep.numerics import _crop, apply_on_grid
    from blocksep.integrals import IntegralName

    scheme = FDScheme(extended=extended)
    big_radius = R + 4 + 2  # every operator below has margin 4
    spec, _, x, big = _model2_grid(big_radius, scheme)
    env = NumericEnv(OperatorEnv(spec), {"w2": 1.0}, scheme)
    for kind in ("Z", "H", "Hsum"):
        nop = env.operator(IntegralName(kind, 2))
        m = nop.margin
        assert m == 4
        want = apply_on_grid(nop, _crop(big, big_radius, [R + m] * 3), x, scheme.h, R + m, scheme)
        for k in (1, 2):
            values = _crop(big, big_radius, [R + m + k] * 3)
            got = apply_on_grid(nop, values, x, scheme.h, R + m + k, scheme)
            assert np.array_equal(_crop(got, R + k, [R] * 3), want), (kind, k)


def test_stencil_pass_matches_the_shifted_slice_loop():
    """One stencil pass against the loop over shifted slices it replaced, on
    cropped inputs of 1 to 4 dimensions, strided or in Fortran order: bit-equal
    on longdouble, within a few ulp of the sum of its terms' magnitudes on
    float64, and in both dtypes the same on a crop as the crop of the pass
    over the whole array."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        order = data.draw(st.sampled_from((4, 6, 8)))
        m = data.draw(st.integers(1, 4))
        ndim = data.draw(st.integers(1, 4))
        axis = data.draw(st.integers(0, ndim - 1))
        s, w = central_weights(m, order)
        sizes = [data.draw(st.integers(1, 4)) + (2 * s if k == axis else 0) for k in range(ndim)]
        lo = [data.draw(st.integers(0, 2)) for _ in range(ndim)]
        full = [n + a + data.draw(st.integers(0, 2)) for n, a in zip(sizes, lo)]
        layout = data.draw(st.sampled_from(("C", "F", "strided")))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scheme, h = FDScheme(order=order), 1e-2
        for dtype in (np.longdouble, np.float64):
            big = rng.standard_normal([*full[:-1], 2 * full[-1]]).astype(dtype)
            if dtype is np.longdouble:  # use every significand bit
                big += rng.standard_normal(big.shape).astype(dtype) * dtype(2.0**-60)
            big = {"C": big[..., : full[-1]], "strided": big[..., ::2],
                   "F": np.asfortranarray(big[..., : full[-1]])}[layout]
            values = big[tuple(slice(a, a + n) for a, n in zip(lo, sizes))]
            got = _stencil_axis(values, axis, m, h, scheme)
            want = stencil_axis_reference(values, axis, m, h, order)
            assert got.dtype == dtype and got.shape == want.shape
            if dtype is np.longdouble:
                assert np.array_equal(got, want)
            else:
                n = got.shape[axis]
                scale = sum(abs(wj) * np.abs(np.take(values, range(j, j + n), axis=axis))
                            for j, wj in enumerate(w)) / h**m
                assert np.all(np.abs(got - want) <= 4 * np.finfo(dtype).eps * scale)
            whole = _stencil_axis(big, axis, m, h, scheme)
            assert np.array_equal(got, whole[tuple(slice(a, a + n) for a, n in zip(lo, got.shape))])

    check()


def test_eval_tree_on_grid_is_exact_on_a_larger_grid():
    """The center value and every recorded magnitude of a relation tree are
    the same, bit for bit, when the tree is evaluated from a larger grid."""
    from blocksep.numerics import _crop, eval_tree_on_grid

    scheme = FDScheme(extended=True)
    spec, rels, x, big = _model2_grid(12 + 3, scheme)
    rel = next(r for r in rels if r.name == "osc-alg-l2-ZY")
    env = NumericEnv(OperatorEnv(spec), {"w2": 1.0}, scheme)
    margin = env.compiled(rel.expr)[0]
    assert margin == 12
    results = []
    for radius in (margin, margin + 1, margin + 3):
        mags: list = []
        values = _crop(big, 15, [radius] * 3)
        out, rad = eval_tree_on_grid(rel.expr, env, values, x, radius, mags)
        assert rad == radius - margin and out.shape == (2 * rad + 1,) * 3
        results.append((out.reshape(-1)[out.size // 2], mags))
    assert all(center == results[0][0] for center, _ in results)
    assert all(mags == results[0][1] for _, mags in results)
    assert len(results[0][1]) > 10


def _criterion_7_env(scheme):
    spec = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))
    return spec, NumericEnv(OperatorEnv(spec), {"w2": 1.0}, scheme)


@pytest.mark.parametrize("extended", [False, True], ids=["float64", "longdouble"])
def test_point_tables_stay_with_their_point(extended):
    """Each relation evaluated at two points in a row through one env equals,
    bit for bit, its evaluation through a fresh env at each point: no
    coordinate mesh or coefficient array outlives the point it was made at."""
    from blocksep.numerics import _axis_coords, eval_tree_on_grid

    scheme = FDScheme(extended=extended)
    spec, shared = _criterion_7_env(scheme)
    probe = ProbeFunction.from_seed(3, 3)
    points = sample_points(spec, 2, np.random.default_rng(3), margin_extent=0.2)
    for rel in oscillator_quadratic_relations(spec, 2):
        margin = shared.compiled(rel.expr)[0]
        for x in points:
            values = probe(_axis_coords(x, scheme.h, margin, 3, scheme.dtype))
            runs = []
            for env in (shared, NumericEnv(shared.env, {"w2": 1.0}, scheme)):
                mags: list = []
                out, _ = eval_tree_on_grid(rel.expr, env, values, x, margin, mags)
                runs.append((out, mags))
            (out, mags), (fresh_out, fresh_mags) = runs
            assert out.dtype == scheme.dtype and np.array_equal(out, fresh_out), (rel.name, x)
            assert mags == fresh_mags, (rel.name, x)


def _values(got):
    """A coefficient's values: its jet's coefficients, or the float of a constant."""
    return got.coef if isinstance(got, Jet) else np.asarray(got)


def test_one_coefficient_at_two_degrees_has_two_entries():
    """One sampling serves coefficients at two degrees: each coefficient gets
    an entry per degree, and each equals a fresh sampling's one."""
    from blocksep.integrals import IntegralName

    spec, env = _criterion_7_env(FDScheme(extended=True))
    nop = env.operator(IntegralName("H", 2))
    assert nop.order == 2
    sampling = Sampling(spec, 1, 2, 3)
    for degree in (2, 0):
        for term in nop.terms:
            got = sampling.coefficient(term, degree)
            assert np.array_equal(_values(got),
                                  _values(Sampling(spec, 1, 2, 3).coefficient(term, degree)))
    keys = {t.key for t in nop.terms}
    assert set(sampling._coefficients) == {(k, d) for k in keys for d in (2, 0)}
    assert set(sampling._coords) == {2, 0}
    for k in keys:
        assert sampling._coefficients[k, 2] is not sampling._coefficients[k, 0]


def test_attachment_and_bare_coefficient_keep_their_own_entries():
    """A potential attachment c(x) f(y) and a bare multiplication by the same
    c(x) share a sampling without reading each other's entry, in either order."""
    from blocksep.models import build_hamiltonian_raw, operator_context
    from blocksep.numerics import apply_on_jets, compile_operator

    scheme = FDScheme(extended=True)
    spec, _ = _criterion_7_env(scheme)
    ctx = operator_context(spec)
    H = build_hamiltonian_raw(spec, ctx)
    att = H.attachments[0]
    nops = [compile_operator(op, spec, {"w2": 1.0}, scheme)
            for op in (H, DiffOp.from_coefficient(ctx, att.coef))]
    assert len({t.key for t in nops[0].terms} & {t.key for t in nops[1].terms}) == 0

    def apply(nop, sampling):
        return apply_on_jets(nop, sampling.field(nop.order + 2), 2, sampling).coef

    fresh = [apply(nop, Sampling(spec, 1, 2, 3)) for nop in nops]
    for order in ((0, 1), (1, 0)):
        sampling = Sampling(spec, 1, 2, 3)
        for i in order:
            assert np.array_equal(apply(nops[i], sampling), fresh[i]), order


def test_equal_coefficients_in_another_term_order_keep_their_own_entries():
    """Equal coefficients whose terms sit in another order sum them in another
    order, so each keeps its entry and its own rounding."""
    from blocksep.numerics import compile_operator
    from blocksep.ring import Coefficient, Poly

    ctx = Context(("x1", "x2"))
    x1, x2 = ctx.x(0), ctx.x(1)
    num = (x1.mul(x1).mul(x1).scale(Fraction(1, 3)).add(x2.mul(x2).scale(Fraction(7, 11)))
           .add(x1.mul(x2).scale(Fraction(5, 13))).add(ctx.const_poly(Fraction(1, 7))))
    coef = Coefficient.from_poly(ctx, num)
    flipped = Coefficient(ctx, Poly(num.n, dict(reversed(list(coef.num.terms.items())))), coef.den)
    assert coef == flipped
    spec, degree = oscillator_spec([2]), 2
    terms = [compile_operator(DiffOp.from_coefficient(ctx, c), None, {}, FDScheme()).terms[0]
             for c in (coef, flipped)]
    fresh = [Sampling(spec, 2, 5, 3).coefficient(t, degree).coef for t in terms]
    assert not np.array_equal(*fresh)  # the two orders round differently somewhere
    sampling = Sampling(spec, 2, 5, 3)
    for term, want in zip(terms, fresh):
        assert np.array_equal(sampling.coefficient(term, degree).coef, want)
    assert len(sampling._coefficients) == 2


def test_each_coefficient_once_per_point_and_only_nonzero_passes(monkeypatch):
    """On the criterion 7 model, the relations of one env evaluate each
    (coefficient key, degree) once, at every sample point at once, and every
    residual is at rounding level; the stencil reference differentiates each
    applied term once per nonzero order, and never with m = 0."""
    import dataclasses

    from blocksep import numerics
    from blocksep.numerics import _axis_coords, eval_tree_on_grid

    real_compile, real_apply = numerics.compile_operator, numerics.apply_on_grid
    real_stencil = numerics._stencil_axis
    seen, counts = set(), {"evaluations": 0, "passes": 0, "planned": 0}

    def counting_compile(*args):
        nop = real_compile(*args)

        def counted(term):
            def fn(coords):
                if isinstance(coords[0], np.ndarray):  # a grid of the reference
                    return term.coef_fn(coords)
                key = (term.key, coords[0].degree)
                assert key not in seen and coords[0].coef.shape[1] == 2
                seen.add(key)
                counts["evaluations"] += 1
                return term.coef_fn(coords)

            return dataclasses.replace(term, coef_fn=fn)

        return dataclasses.replace(nop, terms=tuple(counted(t) for t in nop.terms))

    def counting_apply(nop, *args):
        counts["planned"] += sum(1 for t in nop.terms for m in t.alpha if m)
        return real_apply(nop, *args)

    def counting_stencil(values, axis, m, h, scheme):
        assert m >= 1
        counts["passes"] += 1
        return real_stencil(values, axis, m, h, scheme)

    monkeypatch.setattr(numerics, "compile_operator", counting_compile)
    monkeypatch.setattr(numerics, "apply_on_grid", counting_apply)
    monkeypatch.setattr(numerics, "_stencil_axis", counting_stencil)
    scheme = FDScheme(extended=True)
    spec, env = _criterion_7_env(scheme)
    rels = oscillator_quadratic_relations(spec, 2)
    for rel in rels:
        st = relation_residual_numeric(rel, env, probes=1, points_per_probe=2, seed=3)
        assert st.samples == 2 and st.max_relative < 1e-12
    assert 0 < counts["evaluations"] == len(seen)
    # every leaf has order 2 and every tree order 4 or 6, so a leaf's output
    # degree is 0, 2 or 4
    assert {degree for _, degree in seen} == {0, 2, 4}
    assert counts["planned"] == 0  # no stencil in numeric verification
    x = sample_points(spec, 1, np.random.default_rng(3), margin_extent=0.2)[0]
    for rel in rels:
        margin = env.compiled(rel.expr)[0]
        values = ProbeFunction.from_seed(3, 3)(_axis_coords(x, scheme.h, margin, 3, scheme.dtype))
        eval_tree_on_grid(rel.expr, env, values, x, margin, [])
    assert counts["passes"] == counts["planned"] > 0


def test_fixed_node_compiled_once_per_relation(monkeypatch):
    """A Fixed leaf is compiled once per residual evaluation, not at every point."""
    from blocksep import numerics
    from blocksep.integrals import IntegralName
    from blocksep.relations import Fixed, OpRef, Prod, Relation, Scalar, Sum

    spec = oscillator_spec([2, 2], (Constant(1), Constant(2)), omega2=1)
    name = IntegralName("Z", 2)
    env = OperatorEnv(spec)
    fixed = Fixed(env.operator(name))
    rel = Relation("Z-minus-fixed-Z", Sum((OpRef(name), Prod((Scalar(-1), fixed)))))
    compiled = []
    real = numerics.compile_operator

    def counting(op, *args):
        compiled.append(op)
        return real(op, *args)

    monkeypatch.setattr(numerics, "compile_operator", counting)
    st = relation_residual_numeric(rel, NumericEnv(env, {}, FDScheme()), probes=2,
                                   points_per_probe=3, seed=5)
    assert st.samples == 6 and st.max_relative < 1e-12
    assert sum(1 for op in compiled if op is fixed.diffop) == 1


def test_numeric_run_builds_and_compiles_each_integral_once(monkeypatch):
    """Relations paired with one OperatorEnv share its numeric view: a numeric
    run builds each named integral once and compiles that build once."""
    from blocksep import numerics, relations
    from blocksep.cli import run_verify
    from blocksep.models import RawOperator

    built, compiled = [], []
    real_build, real_compile = relations.build_integral, numerics.compile_operator

    def counting_build(name, *args):
        built.append(real_build(name, *args))
        return built[-1]

    def counting_compile(op, *args):
        compiled.append(op)
        return real_compile(op, *args)

    monkeypatch.setattr(relations, "build_integral", counting_build)
    monkeypatch.setattr(numerics, "compile_operator", counting_compile)
    report = run_verify({"catalog": "oscillator-algebra", "blocks": [2, 2], "mode": "numeric",
                         "probes": 1, "points": 1})
    assert len(report.items) == 3 and all(item.passed for item in report.items)
    raws = [op for op in compiled if isinstance(op, RawOperator)]
    assert len(built) >= 3 and [id(op) for op in raws] == [id(op) for op in built]


def _outcome(call):
    """The stats a residual call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


_CRITERION_7_SPEC = oscillator_spec([2, 1], (model2_potential(2, 4, 1), Zero()))


@pytest.mark.parametrize("extended", [False, True], ids=["float64", "longdouble"])
@pytest.mark.parametrize("catalog, spec", [
    ("oscillator-algebra", _CRITERION_7_SPEC),
    ("oscillator-commutativity", oscillator_spec([2, 2])),
], ids=["criterion-7", "commutativity-2,2"])
def test_grouped_stats_equal_each_relation_alone(extended, catalog, spec):
    """Each relation's stats through an env that its catalog's other
    relations use too, so that they share sample points, probe jets,
    coefficient jets and operator applications, equal its stats from a fresh
    env that samples it alone, float for float; run_verify's report holds the
    same stats.  The envs carry a float64 or a longdouble stencil scheme,
    which serves the stencil reference alone and so changes no jet stat."""
    from blocksep.cli import build_catalog, run_verify
    from blocksep.numerics import ResidualStats

    scheme, sampling = FDScheme(extended=extended), (2, 2, 7)
    pairs = [(rel, env) for rel, env in build_catalog(catalog, spec).pairs
             if rel.expectation != "record"]
    nenvs = {env: NumericEnv(env, {"w2": 1.0}, scheme) for _, env in pairs}
    alone, fresh_applications = {}, 0
    for rel, env in pairs:
        shared = _outcome(lambda: relation_residual_numeric(rel, nenvs[env], *sampling))
        fresh = NumericEnv(env, {"w2": 1.0}, scheme)
        alone[rel.name] = _outcome(lambda: relation_residual_numeric(rel, fresh, *sampling))
        assert shared == alone[rel.name], rel.name
        fresh_applications += sum(len(s.applied) for s in fresh.samplings.values())
    tables = [s for n in nenvs.values() for s in n.samplings.values()]
    assert len(tables) == len(nenvs)  # every relation of an env samples the same points
    assert sum(len(s.applied) for s in tables) < fresh_applications  # some were shared
    report = run_verify({"catalog": catalog, "model": spec_to_json(spec), "mode": "numeric",
                         "params": {"w2": 1.0}, "probes": 2, "points": 2, "seed": 7})
    for item in report.items:
        if item.residual is not None:
            assert ResidualStats(**item.residual) == alone[item.name.removesuffix("[numeric]")]


@pytest.mark.parametrize("raiser", [0, 1], ids=["lead", "peer"])
def test_a_relation_raising_at_its_fourth_point_ends_as_alone(monkeypatch, raiser):
    """A relation whose Fixed leaf's coefficient refuses the fourth of six
    sample points, as a potential's guard refuses a singular point, raises
    that error from its own call, whether or not it is the first relation of
    its env to be sampled; its peers' stats and its outcome equal those of
    each relation sampled alone."""
    import dataclasses
    from fractions import Fraction

    from blocksep import numerics
    from blocksep.errors import EvaluationSingularityError
    from blocksep.integrals import IntegralName
    from blocksep.jets import at_points
    from blocksep.numerics import ResidualStats, model_point_guards
    from blocksep.relations import Comm, Fixed, OpRef, Relation
    from blocksep.ring import Coefficient

    spec = oscillator_spec([2, 2], (Constant(1), Constant(2)), omega2=1)
    env = OperatorEnv(spec)
    Z, Hs = OpRef(IntegralName("Z", 2)), OpRef(IntegralName("Hsum", 2))
    marker = DiffOp.from_coefficient(env.ctx, Coefficient.const(env.ctx, Fraction(7, 3)))
    fourth = sample_points(spec, 6, np.random.default_rng(5), guards=model_point_guards(spec, 0.0))[3]
    real = numerics.compile_operator

    def compile_raising(op, *args):
        nop = real(op, *args)
        if op is not marker:
            return nop
        term, = nop.terms

        def fn(coords):
            if fourth[0] in at_points(coords[0]):
                raise EvaluationSingularityError("the fourth point")
            return term.coef_fn(coords)

        return dataclasses.replace(nop, terms=(dataclasses.replace(term, coef_fn=fn),))

    monkeypatch.setattr(numerics, "compile_operator", compile_raising)
    rels = [Relation("lead", Comm(Z, Hs)), Relation("peer", Comm(Hs, Z)),
            Relation("other-order", Z - Z)]
    rels.insert(raiser, Relation("raises", Comm(Z, Hs) + Fixed(marker), expectation="nonzero"))
    sampling = (2, 3, 5)
    shared = NumericEnv(env, {})
    for rel in rels:
        got = _outcome(lambda: relation_residual_numeric(rel, shared, *sampling))
        assert got == _outcome(lambda: relation_residual_numeric(
            rel, NumericEnv(env, {}), *sampling)), rel.name
        if rel.name == "raises":
            assert got == (EvaluationSingularityError, "the fourth point")
        else:
            assert isinstance(got, ResidualStats) and got.max_relative < 1e-12


_NUM_RESIDUAL = {"catalog": "oscillator-algebra", "model": spec_to_json(_CRITERION_7_SPEC),
                 "params": {"w2": 1.0}, "mode": "numeric"}


def test_run_verify_calls_the_residual_through_cli_once_per_relation(monkeypatch):
    """The per-item clock of a numeric benchmark wraps relation_residual_numeric
    as the cli module holds it: run_verify calls it once per relation that is
    not a record, in report order."""
    from blocksep import cli

    calls = []
    real = cli.relation_residual_numeric

    def spy(rel, *args, **kwargs):
        calls.append(rel.name)
        return real(rel, *args, **kwargs)

    monkeypatch.setattr(cli, "relation_residual_numeric", spy)
    for source in (_NUM_RESIDUAL, {"catalog": "coulomb", "blocks": [1, 2], "mode": "numeric"}):
        calls.clear()
        report = cli.run_verify(source | {"probes": 1, "points": 2, "seed": 3})
        rels = cli.build_catalog(source["catalog"], cli._verify_model(source)).relations
        assert calls == [rel.name for rel in rels if rel.expectation != "record"]
        assert calls == [item.name.removesuffix("[numeric]") for item in report.items]


def test_relations_of_one_env_share_probe_jets_and_applications(monkeypatch):
    """On the criterion 7 benchmark config (probes 5, points 10) the three
    relations share one set of sample points: each probe is evaluated once
    per degree (4 and 6), and each operator application to a shared jet
    once: 30 applications, not the 35 of each relation alone, and no
    stencil."""
    from blocksep import cli, numerics

    counts = {"probe": 0, "apply": 0, "grid": 0}
    real_call, real_apply = ProbeFunction.__call__, numerics.apply_on_jets
    real_grid = numerics.apply_on_grid

    def counting_call(self, coords):
        counts["probe"] += 1
        return real_call(self, coords)

    def counting_apply(*args):
        counts["apply"] += 1
        return real_apply(*args)

    def counting_grid(*args):
        counts["grid"] += 1
        return real_grid(*args)

    monkeypatch.setattr(ProbeFunction, "__call__", counting_call)
    monkeypatch.setattr(numerics, "apply_on_jets", counting_apply)
    monkeypatch.setattr(numerics, "apply_on_grid", counting_grid)
    report = cli.run_verify(_NUM_RESIDUAL | {"probes": 5, "points": 10, "seed": 3})
    assert [item.residual["samples"] for item in report.items] == [50] * 3
    assert counts == {"probe": 10, "apply": 30, "grid": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 49, 50, 199])
def test_max_and_median_are_numpys_bit_for_bit(n):
    """The residual's max and median equal np.max and np.median bit for bit
    on one and two values and on odd and even lengths, magnitudes 1e-300 to
    1e300, with ties."""
    from blocksep.numerics import _max_and_median

    rng = np.random.default_rng(n)
    for _ in range(50):
        values = 10.0 ** rng.uniform(-300, 300, size=n) * rng.uniform(1, 10, size=n)
        if n > 2:
            values[rng.integers(n)] = values[rng.integers(n)]
        got = _max_and_median(values)
        assert [v.hex() for v in got] == [float(np.max(values)).hex(),
                                          float(np.median(values)).hex()]


def test_coefficient_values_equal_a_tuple_exponent_evaluation():
    """Coefficient.eval_numeric gives the bits of a term-by-term evaluation
    over exponent tuples in the same multiplication order, on its first call,
    which unpacks the monomials, and on the next, which reuses them.  The
    coefficients are those of a Coulomb model with a model2 block; the X
    integrals hold r.  With eta = 3 some coefficients are not powers of two,
    so another order of the factors changes the bits."""
    from blocksep.integrals import enumerate_integrals
    from blocksep.ring import unpack

    spec = coulomb_spec([2, 2], (model2_potential(2, 4, 1),), eta=3)
    env = OperatorEnv(spec)
    ctx = env.ctx
    coefs = []
    for name in enumerate_integrals(spec):
        raw = env.raw(name)
        coefs += [*raw.base.terms.values(), *(att.coef for att in raw.attachments)]
    assert any(not c.num.select_slot(ctx.norm_slot, 1).is_zero() for c in coefs)

    def tuple_value(p, values):
        total = 0.0
        for m, c in p.terms.items():
            term = float(c)
            for slot, e in enumerate(unpack(p.n, m)):
                if e:
                    term = term * values[slot] ** e
            total = total + term
        return total

    coords = list(np.random.default_rng(7).uniform(0.3, 1.5, size=(ctx.nx, 16)))
    values = coords + [sum(v**2 for v in coords) ** 0.5]
    for c in coefs:
        want = tuple_value(c.num, values)
        for aid, e in c.den:
            want = want / tuple_value(ctx.atom_by_id(aid).poly, values) ** e
        for _ in range(2):
            assert np.array_equal(c.eval_numeric(coords, {}), want)


_REFERENCE_CONFIGS = [
    pytest.param({"catalog": "oscillator-algebra", "model": spec_to_json(_CRITERION_7_SPEC),
                  "params": {"w2": 1.0}}, id="oscillator-algebra-model2-2,1"),
    pytest.param({"catalog": "oscillator", "blocks": [2, 2],
                  "params": {"w2": 1.0, "beta1": 0.5, "beta2": 0.75}}, id="oscillator-2,2"),
    pytest.param({"catalog": "coulomb-commutativity", "blocks": [1, 2]},
                 id="coulomb-commutativity-1,2"),
    pytest.param({"catalog": "coulomb-yx", "blocks": [2, 2]}, id="coulomb-yx-2,2"),
]


@pytest.mark.parametrize("source", _REFERENCE_CONFIGS)
def test_jets_agree_with_the_stencil_reference(source):
    """Each relation's value at each sample point, from jets, agrees with the
    order-8 longdouble stencil reference (eval_tree_on_grid) to 1e-5 of the
    residual's denominator there; a point whose grid box the model's guards
    refuse is left out.  Every relation expected zero has a jet residual of
    at most 1e-12."""
    from blocksep import cli
    from blocksep.numerics import (_axis_coords, eval_tree_on_grid, eval_tree_on_jets,
                                   model_point_guards)

    scheme = FDScheme(order=8, extended=True)
    spec = cli._verify_model(source)
    pairs = [(rel, env) for rel, env in cli.build_catalog(source["catalog"], spec).pairs
             if rel.expectation != "record"]
    for rel, env in pairs:
        nenv = NumericEnv(env, source.get("params", {}), scheme)
        margin, order = nenv.compiled(rel.expr)[:2]
        guards = model_point_guards(env.spec, margin * scheme.h)
        sampling = nenv.sampling(2, 3, 7)
        mags = np.zeros(6)
        jets = eval_tree_on_jets(rel.expr, nenv, sampling, sampling.field(order), 0, mags)
        checked = 0
        for p in range(6):
            x = tuple(float(v) for v in sampling.points[:, p])
            if not all(g(x) for g in guards):
                continue
            probe = sampling.probes[p // sampling.per_probe]
            values = probe(_axis_coords(x, scheme.h, margin, len(x), scheme.dtype))
            out, _ = eval_tree_on_grid(rel.expr, nenv, values, x, margin, [])
            grid = float(out.reshape(-1)[out.size // 2])
            assert abs(jets.coef[0, p] - grid) <= 1e-5 * (1 + mags[p]), (rel.name, p)
            checked += 1
        assert checked >= 2, rel.name
        if rel.expectation == "zero":
            assert relation_residual_numeric(rel, nenv, 2, 3, 7).max_relative <= 1e-12, rel.name


def test_eigensolver_calibration():
    for c, gamma in ((0.0, 1.0), (2.0, 2.0), (15.0 / 4.0, 2.5)):
        prob = Eigensolve1DProblem(lambda r, c=c: r**2 + c / r**2, L=14.0, n_eigenvalues=4)
        vals = eigensolve_1d(prob)
        for k, v in enumerate(vals):
            expect = 4 * k + 2 * gamma + 1
            assert abs(v - expect) / expect < 1e-6, (c, k, v)


def test_eigensolver_hydrogen():
    prob = Eigensolve1DProblem(lambda r: -2.0 / r, L=40.0, n_eigenvalues=1, M=800)
    vals = eigensolve_1d(prob)
    assert vals[0] == pytest.approx(-1.0, rel=1e-6)


def test_eigensolver_unconverged_raises():
    prob = Eigensolve1DProblem(
        lambda r: r**2, L=14.0, n_eigenvalues=2, M=200, tol=1e-14, max_doublings=1
    )
    with pytest.raises(OracleUnconvergedError):
        eigensolve_1d(prob)


def test_periodic_eigensolver_free_circle():
    vals = eigensolve_periodic(lambda phi: 0.0 * phi, n_eigenvalues=5)
    expect = [0.0, 1.0, 1.0, 4.0, 4.0]
    for v, e in zip(vals, expect):
        assert v == pytest.approx(e, abs=1e-6)


@pytest.mark.parametrize("M", [10, 11])
def test_ring_band_matches_dense_ring(M):
    """The permuted band matrix has the dense periodic matrix's spectrum."""
    h = 2 * math.pi / M
    phi = h * np.arange(M)
    V = 1 + np.cos(phi) + 0.3 * np.sin(3 * phi) + 0.1 * phi
    dense = np.diag(2.0 / h**2 + V)
    idx = np.arange(M)
    dense[idx, (idx + 1) % M] = -1.0 / h**2
    dense[idx, (idx - 1) % M] = -1.0 / h**2
    np.testing.assert_allclose(_ring_eigenvalues(V, h, M), np.linalg.eigvalsh(dense),
                               rtol=0, atol=1e-9)
