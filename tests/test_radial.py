"""The block-radial picture: each reduced integral against sympy, and every
verdict of the reduced picture against the direct reduction."""

import pytest

from blocksep.integrals import IntegralName, RadialContext, enumerate_integrals, radial_groups
from blocksep.models import Constant, Hierarchy, Zero, coulomb_spec, oscillator_spec
from blocksep.relations import (OperatorEnv, build_catalog, catalog_negative_controls, eval_node,
                                radial_picture)
from blocksep.ring import unpack

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

ORACLE_SPECS = [oscillator_spec([2, 2]), oscillator_spec([3, 2]),
                coulomb_spec([1, 2, 2]), coulomb_spec([2, 3])]


def _leaves(spec) -> list:
    """Every integral the reduced picture builds, at every index: H, T, Hsum, G,
    Z, Hfull, and for the coulomb family Hcoul, Y, S, J, X and sigmaS."""
    part = spec.partition
    N, D = part.N, part.D
    names = [IntegralName(k, i) for k in ("H", "T", "Hsum") for i in range(1, N + 1)]
    names += [IntegralName("G", i, j) for i in range(1, N + 1)
              for j in range(part.offsets[i - 1] + 2, part.offsets[i] + 1)]
    names += [n for n in enumerate_integrals(spec) if n.kind in ("Z", "Y", "S", "J", "X")]
    names.append(IntegralName("Hfull"))
    if spec.family == "coulomb":
        names.append(IntegralName("Hcoul"))
        names += [IntegralName("sigmaS", x.i) for x in enumerate_integrals(spec) if x.kind == "X"]
    return names


def _harmonic(xs, degree):
    """A harmonic polynomial of the given degree in the coordinates xs."""
    return (1, xs[0], xs[0] * xs[1])[degree]


def _value(coef, slots, K):
    """A ring coefficient in the sympy rational function field K, with
    ``slots`` the polynomial of K's ring at each slot of its context."""
    def poly(p):
        out = K.ring.zero
        for m, c in p.terms.items():
            term = K.ring(QQ(c.numerator, c.denominator))
            for s, e in zip(slots, unpack(p.n, m)):
                term = term * s**e
            out += term
        return out

    den = K.ring.one
    for aid, e in coef.den:
        den = den * poly(coef.ctx.atom_by_id(aid).poly) ** e
    return K.new(poly(coef.num), den)


def _apply(op, slots, K, twisted):
    """op applied to g u and divided by g: ``twisted(alpha)`` is d^alpha (g u) / g."""
    return sum((_value(coef, slots, K) * twisted(alpha) for alpha, coef in op.terms.items()),
               K.zero)


def _twisted(coords, weights, u):
    """alpha -> d^alpha (g u) / g, where weights[a] = d_a log g: each d_a
    becomes d_a + weights[a], and these commute."""
    memo = {}

    def twisted(alpha):
        if alpha not in memo:
            a = next((k for k, e in enumerate(alpha) if e), None)
            if a is None:
                memo[alpha] = u
            else:
                lower = twisted(alpha[:a] + (alpha[a] - 1,) + alpha[a + 1:])
                memo[alpha] = lower.diff(coords[a]) + weights[a] * lower
        return memo[alpha]

    return twisted


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=lambda s: f"{s.family}-{s.partition.block_sizes}")
def test_each_reduced_integral_acts_as_its_cartesian_one(spec):
    """Every reduced leaf applied to g(rho), at l_g = deg h_g, equals its
    Cartesian integral applied to g(rho) h(x) and divided by h, for h a product
    of harmonics h_g of degree 0, 1 and 2 in turn, one in each group of two or
    more coordinates.  g is the product of rho_g^(2 t_g) over those groups and
    of x_a^(t_a) over the single coordinates, with every t symbolic: d^alpha g / g
    are polynomials in the t's of distinct degrees, so g is as good as generic.
    Both sides are exact rational functions; rho_g^2 is the sum of its squares."""
    D = spec.partition.D
    params = spec.param_names()
    coulomb = spec.family == "coulomb"
    env = OperatorEnv(spec)
    partitions: dict = {}  # each leaf in the coarsest partition it respects
    for name in _leaves(spec):
        partitions.setdefault(radial_groups(spec, [name]), []).append(name)
    for groups, names in partitions.items():
        assert any(len(g) > 1 for g in groups), names
        k = len(groups)
        # the Cartesian field: x's, t's, parameters and r
        K, *_ = field([f"x{a + 1}" for a in range(D)] + [f"t{n + 1}" for n in range(k)]
                      + list(params) + ["r"], QQ)
        gens = K.ring.gens
        xs, ts, ps, r = gens[:D], gens[D:D + k], list(gens[D + k:-1]), gens[-1]
        squares = [sum(xs[a] ** 2 for a in g) for g in groups]
        weights = [0] * D
        for n, g in enumerate(groups):
            for a in g:
                weights[a] = K.new(2 * ts[n] * xs[a], squares[n]) if len(g) > 1 else K.new(
                    ts[n], xs[a])
        # the reduced field: one coordinate per group, t's, parameters and r
        F, *_ = field([f"y{n + 1}" for n in range(k)] + [f"t{n + 1}" for n in range(k)]
                      + list(params) + ["r"], QQ)
        rgens = F.ring.gens
        ys, rts, rps, rr = rgens[:k], rgens[k:2 * k], list(rgens[2 * k:-1]), rgens[-1]
        rweights = [F.new(rts[n] * (2 if len(g) > 1 else 1), ys[n]) for n, g in enumerate(groups)]
        renv = OperatorEnv(spec, RadialContext(spec, groups))
        wide = [n for n, g in enumerate(groups) if len(g) > 1]
        reduced_twisted = _twisted([F(y) for y in ys], rweights, F.one)
        images = {n: squares[n] if len(groups[n]) > 1 else xs[groups[n][0]] for n in range(k)}

        def to_cartesian(f):
            """A reduced field value with rho_g^2 read as the group's sum of squares."""
            def poly(p):
                out = K.ring.zero
                for monom, c in p.terms():
                    term = K.ring(c)
                    for n, e in enumerate(monom[:k]):
                        wide_group = len(groups[n]) > 1
                        assert not (wide_group and e % 2), "an odd power of a radius"
                        term = term * images[n] ** (e // 2 if wide_group else e)
                    for gen, e in zip(gens[D:], monom[k:]):
                        term = term * gen**e
                    out += term
                return out
            return K.new(poly(f.numer), poly(f.denom))

        for shift in range(3):
            degrees = {n: (shift + m) % 3 for m, n in enumerate(wide)}
            h = K.ring.one
            for n in wide:
                h = h * _harmonic([xs[a] for a in groups[n]], degrees[n])
            twisted = _twisted([K(x) for x in xs], weights, K(h))
            for name in names:
                lhs = _apply(env.operator(name), [*xs, *ps] + [r] * coulomb, K, twisted)
                rhs = _apply(renv.operator(name), [*ys, *rps, *(degrees[n] for n in wide)]
                             + [rr] * coulomb, F, reduced_twisted)
                assert lhs == h * to_cartesian(rhs), (name, degrees)


# perfbench's symbolic configurations, those of tests/test_cli.py's PINNED_REPORTS,
# oscillator 2,3 and coulomb 2,2,2
CROSS_CHECKS = [
    ("coulomb", [1, 1, 2]), ("coulomb-erratum-wrong", [2, 2]), ("oscillator", [2, 2]),
    ("oscillator-algebra", [3, 3]), ("proposition-A", None), ("oscillator-algebra", [1, 1]),
    ("gauge", [1, 1, 1]), ("negative-controls", [2, 2]), ("negative-controls", [1, 1]),
    ("gauge", [2, 2, 2]), ("oscillator", [1, 1, 1]), ("coulomb", [1, 2, 2]), ("coulomb", [1, 3]),
    ("coulomb", [2, 3]), ("oscillator", [2, 3]),
    ("coulomb", [2, 2, 2]),
]


def _spec(catalog, blocks):
    if blocks is None:
        return None
    return (coulomb_spec if catalog.startswith("coulomb") else oscillator_spec)(blocks)


@pytest.mark.parametrize("catalog, blocks", CROSS_CHECKS,
                         ids=[c if b is None else f"{c}-{','.join(map(str, b))}"
                              for c, b in CROSS_CHECKS])
def test_reduced_and_direct_verdicts_agree(catalog, blocks):
    """A relation expected zero that has a radial group reduces to zero in the
    reduced picture exactly when it does directly, in an env of its own.  So
    does a negative control or the erratum display, forced through the reduced
    picture even with no radial group: each is nonzero there."""
    rs = build_catalog(catalog, _spec(catalog, blocks))
    for rel, env in rs.pairs:
        if rel.expectation == "record":
            continue
        renv = radial_picture(rel.expr, env)
        control = rel.expectation == "nonzero"
        assert renv is not None or not control, rel.name
        if renv is None or not (control or max(renv.ctx.d) > 1):
            continue
        reduced = eval_node(rel.expr, renv)
        direct = eval_node(rel.expr, OperatorEnv(env.spec))
        assert reduced.is_zero() == direct.is_zero(), rel.name
        if control:
            assert not reduced.is_zero(), rel.name


def test_a_control_fails_in_every_partition_of_its_display():
    """On 3,3 the block-algebra display is proved, and its control refuted, in
    each partition its block-aligned leaves allow, down to the Cartesian one."""
    spec = oscillator_spec([3, 3])
    control = catalog_negative_controls(spec).pairs[1][0]
    display = build_catalog("oscillator-algebra", spec).pairs[1][0]
    assert display.name == "osc-alg-l2-ZY"
    G12, G25 = IntegralName("G", 1, 2), IntegralName("G", 2, 5)
    partitions = [radial_groups(spec, names) for names in ([], [G12], [G25], [G12, G25])]
    for groups in partitions + [tuple((a,) for a in range(6))]:
        renv = OperatorEnv(spec, RadialContext(spec, groups))
        assert eval_node(display.expr, renv).is_zero(), groups
        assert not eval_node(control.expr, renv).is_zero(), groups


def test_radial_groups():
    """coul-yx-j{D} splits the last block into the block minus x_D and x_D; a
    sub-chain splits its block where it ends or starts; a hierarchy block is
    one group per coordinate."""
    spec = coulomb_spec([2, 2, 3])
    names = [IntegralName("X", 7), IntegralName("Y", 1), IntegralName("Hcoul"),
             IntegralName("sigmaS", 7)]
    assert radial_groups(spec, names) == ((0, 1), (2, 3), (4, 5), (6,))
    assert radial_groups(spec, [IntegralName("G", 3, 6), IntegralName("J", 6)]) == (
        (0, 1), (2, 3), (4,), (5,), (6,))
    tower = oscillator_spec([3, 2], (Hierarchy((Zero(), Constant(2))), Constant(1)))
    assert radial_groups(tower, [IntegralName("Hfull")]) == ((0,), (1,), (2,), (3, 4))
