"""Catalog of operator identities and the exact verifier.

Every identity is an expression tree over named integrals, structural
constants, parameters, and rationals.  Verification reduces LHS - RHS to
normal form; the outcome is exact.  Three expectation kinds appear:

* ``zero``     the relation must reduce to the zero operator,
* ``nonzero``  negative controls that must NOT reduce to zero,
* ``record``   printed displays with questionable terms; these come in
               reading groups (printed form plus plausible emendations) and
               the group passes when at least one constructible reading
               reduces to zero, with every outcome reported.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ConfigError, InapplicableRelationError, InvalidIntegralError,
                     RelationSyntaxError, UnsupportedSymbolicPotentialError)
from .integrals import (
    IntegralName,
    build_integral,
    conjugate_by_transposition,
    enumerate_integrals,
    name_from_string,
    structural_constants,
)
from .models import (
    COULOMB,
    OSCILLATOR,
    ModelSpec,
    RawOperator,
    operator_context,
    oscillator_spec,
    potential_term,
)
from .opalg import DiffOp, angular_momentum, euler_operator, laplacian
from .report import ReportItem
from .ring import Coefficient, Context, row_reduce


# -- expression trees -----------------------------------------------------------


@dataclass(frozen=True)
class OpRef:
    name: IntegralName


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class ConstRef:
    kind: str  # "N" | "M" | "U"
    p: int


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Comm:
    a: object
    b: object


@dataclass(frozen=True)
class Acomm:
    a: object
    b: object


class Fixed:
    """Leaf carrying an operator that was already built outside the tree."""

    def __init__(self, diffop: DiffOp):
        self.diffop = diffop


def op(text: str) -> OpRef:
    return OpRef(name_from_string(text))


def num(v) -> Scalar:
    return Scalar(Fraction(v))


def par(name: str) -> ParamRef:
    return ParamRef(name)


def sc(kind: str, p: int) -> ConstRef:
    return ConstRef(kind, p)


def add(*terms) -> Sum:
    return Sum(tuple(terms))


def neg(t) -> Prod:
    return Prod((Scalar(Fraction(-1)), t))


def sub(a, b) -> Sum:
    return Sum((a, neg(b)))


def mul(*factors) -> Prod:
    return Prod(tuple(factors))


def comm(a, b) -> Comm:
    return Comm(a, b)


def acomm(a, b) -> Acomm:
    return Acomm(a, b)


@dataclass(frozen=True)
class Relation:
    name: str
    expr: object  # tree expected to reduce to zero
    expectation: str = "zero"  # zero | nonzero | record
    group: str | None = None  # reading-group id for record items
    note: str = ""
    diagnose: object = None  # optional callable(residual, env) -> str


@dataclass
class RelationSet:
    name: str
    pairs: tuple  # (Relation, OperatorEnv) in report order

    @property
    def relations(self) -> tuple:
        return tuple(rel for rel, _ in self.pairs)


def over(env: "OperatorEnv", rels) -> tuple:
    """Pair every relation with the one environment it is evaluated in."""
    return tuple((rel, env) for rel in rels)


# -- evaluation environment ------------------------------------------------------


class OperatorEnv:
    """Resolves integral names and structural constants over one context: the
    integrals of a model, or a fixed table of operators."""

    def __init__(self, ctx: Context, spec=None, constants=None, label: str = "", table=()):
        self.ctx = ctx
        self.spec = spec  # the model behind the operators; None for a table env
        self._constants = constants
        self._cache: dict = dict(table)  # str(name) -> DiffOp
        self._raw: dict = {}
        self.brackets: dict = {}  # Comm/Acomm node -> its value here; nodes are frozen
        self.label = label

    @staticmethod
    def for_model(spec: ModelSpec) -> "OperatorEnv":
        consts = structural_constants(spec) if spec.partition.N >= 2 else None
        return OperatorEnv(operator_context(spec), spec, consts,
                           f"{spec.family}{spec.partition.block_sizes}")

    @staticmethod
    def from_table(ctx: Context, table: dict, label: str = "") -> "OperatorEnv":
        return OperatorEnv(ctx, label=label, table=table)

    def operator(self, name: IntegralName) -> DiffOp:
        key = str(name)
        got = self._cache.get(key)
        if got is None:
            if self.spec is None:
                raise InvalidIntegralError(f"unknown operator {key!r} in {self.label or 'table env'}")
            got = self._cache[key] = self.raw(name).symbolic(self.spec)
        return got

    def raw(self, name: IntegralName) -> RawOperator:
        """The model's integral with its potentials still attached, built once
        for the symbolic operator and the numeric one alike."""
        key = str(name)
        got = self._raw.get(key)
        if got is None:
            got = self._raw[key] = build_integral(name, self.spec, self.ctx)
        return got

    def constant(self, kind: str, p: int) -> Fraction:
        if self._constants is None:
            raise InapplicableRelationError("no structural constants in this environment")
        return {"N": self._constants.N, "M": self._constants.M, "U": self._constants.U}[kind](p)


def eval_node(node, env: OperatorEnv) -> DiffOp:
    ctx = env.ctx
    if isinstance(node, Fixed):
        return node.diffop
    if isinstance(node, OpRef):
        return env.operator(node.name)
    if isinstance(node, Scalar):
        return DiffOp.scalar(ctx, node.value)
    if isinstance(node, ParamRef):
        return DiffOp.from_poly(ctx, ctx.param(node.name))
    if isinstance(node, ConstRef):
        return DiffOp.scalar(ctx, env.constant(node.kind, node.p))
    if isinstance(node, Sum):
        out = DiffOp.zero(ctx)
        for t in node.terms:
            out = out.add(eval_node(t, env))
        return out
    if isinstance(node, Prod):
        out = None
        for f in node.factors:
            cur = eval_node(f, env)
            out = cur if out is None else out.mul(cur)
        return out if out is not None else DiffOp.scalar(ctx, 1)
    if isinstance(node, (Comm, Acomm)):
        got = env.brackets.get(node)
        if got is None:
            a, b = eval_node(node.a, env), eval_node(node.b, env)
            got = a.commutator(b) if isinstance(node, Comm) else a.anticommutator(b)
            env.brackets[node] = got
        return got
    raise TypeError(f"unknown relation node {node!r}")


# -- verification -----------------------------------------------------------------


def verify_relation(rel: Relation, env: OperatorEnv) -> ReportItem:
    item = ReportItem(rel.name, "relation", "symbolic", "zero", None,
                      expectation=rel.expectation, group=rel.group, note=rel.note)
    try:
        residual = eval_node(rel.expr, env)
    except (InvalidIntegralError, InapplicableRelationError,
            UnsupportedSymbolicPotentialError) as exc:
        item.status, item.note = "inapplicable", str(exc)
        return item
    if residual.is_zero():
        item.passed = rel.expectation != "nonzero"
        return item
    item.status = "residual"
    item.passed = rel.expectation == "nonzero" if rel.expectation != "record" else None
    item.residual = {"terms": residual.term_count(), "order": residual.order(),
                     "leading": "; ".join(residual.to_text().splitlines()[:2])}
    diag = rel.diagnose(residual, env) if rel.diagnose is not None else ""
    if diag:
        item.note = f"{item.note}; {diag}" if item.note else diag
    return item


def verify_symbolic(rs: RelationSet) -> list[ReportItem]:
    """Run every relation in its own environment; then settle reading groups."""
    return settle_groups([verify_relation(rel, env) for rel, env in rs.pairs])


def settle_groups(items: list) -> list:
    """Record-class items pass once their outcome is on file; the group note
    states whether any constructible reading reduced to zero."""
    groups: dict = {}
    for item in items:
        if item.group:
            groups.setdefault(item.group, []).append(item)
    for members in groups.values():
        any_zero = any(m.status == "zero" for m in members)
        verdict = (
            "group: at least one reading reduces to zero"
            if any_zero
            else "group: no reading reduces to zero; candidate source typo"
        )
        for m in members:
            if m.expectation == "record":
                m.passed = True
                m.note = f"{m.note}; {verdict}" if m.note else verdict
    return items


# -- exact residual decomposition (diagnostic) ---------------------------------------


def flatten_operators(ops: list) -> list:
    """DiffOps -> exact vectors over shared (derivative, monomial) keys.

    Per derivative index the coefficients are brought to the least common
    denominator so that linear algebra over Fractions is exact.
    """
    alphas = set()
    for o in ops:
        alphas.update(o.terms)
    vectors = [dict() for _ in ops]
    for alpha in alphas:
        target: dict = {}
        for o in ops:
            c = o.terms.get(alpha)
            if c is None:
                continue
            for aid, e in c.den:
                target[aid] = max(target.get(aid, 0), e)
        for vec, o in zip(vectors, ops):
            c = o.terms.get(alpha)
            if c is None:
                continue
            cofactor = o.ctx.den_cofactor(c.den, target)
            scaled = c.num if cofactor is None else c.num.mul(cofactor)
            for mono, val in scaled.terms.items():
                vec[(alpha, mono)] = val
    return vectors


def decompose_residual(residual: DiffOp, basis: dict):
    """Write residual = sum c_b * basis_b exactly; None when not in the span."""
    names = list(basis)
    vecs = flatten_operators([residual] + [basis[n] for n in names])
    rvec, bvecs = vecs[0], vecs[1:]
    keys = sorted(set().union(rvec, *bvecs)) if bvecs else sorted(rvec)
    rows = [[bv.get(k, Fraction(0)) for bv in bvecs] + [rvec.get(k, Fraction(0))] for k in keys]
    pivots = row_reduce(rows, len(names))
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    sol = {names[c]: row[-1] for c, row in zip(pivots, rows)}
    return {n: sol[n] for n in names if sol.get(n, 0) != 0}


# -- catalog: two-coordinate seed system ------------------------------------------


def _singular(ctx: Context, g, k: int) -> Coefficient:
    """g / x_k^2 for a polynomial g."""
    return Coefficient.from_poly(ctx, g).div_poly(ctx.x(k, 2))


def _seed_env(ctx: Context, g1, g2, label: str) -> OperatorEnv:
    """Planar singular oscillator H = H1 + H2 over the two coordinates of ctx:
    H_k = -d_k^2 + w2 x_k^2 + g_k / x_k^2 for polynomials g1, g2, with
    Z = L^2 - (g1/x^2 + g2/y^2)(x^2 + y^2) and Y = [Z, H2]."""
    w2 = ctx.param("w2")
    f1, f2 = _singular(ctx, g1, 0), _singular(ctx, g2, 1)
    H1, H2 = (
        DiffOp.partial(ctx, k, 2)
        .neg()
        .add(DiffOp.from_poly(ctx, w2.mul(ctx.x(k, 2))))
        .add(DiffOp.from_coefficient(ctx, f))
        for k, f in ((0, f1), (1, f2))
    )
    L = angular_momentum(ctx, 0, 1)
    Z = L.mul(L).sub(DiffOp.from_coefficient(ctx, f1.add(f2).mul_poly(ctx.sum_of_squares([0, 1]))))
    table = {"H": H1.add(H2), "H1": H1, "H2": H2, "Z": Z, "Y": Z.commutator(H2)}
    return OperatorEnv.from_table(ctx, table, label=label)


def proposition_env() -> OperatorEnv:
    """Planar singular oscillator with parameters g1, g2 and w2 = omega^2."""
    ctx = Context(("x", "y"), ("g1", "g2", "w2"))
    return _seed_env(ctx, ctx.param("g1"), ctx.param("g2"), "proposition-A")


def _seed_rhs(g1, g2, w2) -> tuple:
    """Right-hand sides of [Z,Y] and [H2,Y] in the seed algebra, over trees
    g1, g2, w2 for the singular couplings and omega^2."""
    rhs2 = add(
        mul(num(8), op("Z"), op("H")),
        neg(mul(num(8), acomm(op("Z"), op("H2")))),
        mul(num(8), add(g1, neg(g2), num(1)), op("H")),
        neg(mul(num(16), op("H2"))),
    )
    rhs3 = add(
        neg(mul(num(8), op("H"), op("H2"))),
        mul(num(8), op("H2"), op("H2")),
        neg(mul(num(16), w2, op("Z"))),
        neg(mul(num(8), w2, add(mul(num(2), g1), mul(num(2), g2), num(-1)))),
    )
    return rhs2, rhs3


def catalog_proposition_A(include_negative: bool = False) -> RelationSet:
    env = proposition_env()
    rhs2, rhs3 = _seed_rhs(par("g1"), par("g2"), par("w2"))
    # second printed form of Z: r^2 Laplacian - Euler^2 - (g1/x^2 + g2/y^2) r^2
    ctx = env.ctx
    r2 = ctx.sum_of_squares([0, 1])
    E = euler_operator(ctx, [0, 1])
    pot = _singular(ctx, ctx.param("g1"), 0).add(_singular(ctx, ctx.param("g2"), 1)).mul_poly(r2)
    alt = DiffOp.from_poly(ctx, r2).mul(laplacian(ctx, [0, 1])).sub(E.mul(E))
    alt = alt.sub(DiffOp.from_coefficient(ctx, pot))
    rels = [
        Relation("prop-A-1-def", sub(comm(op("Z"), op("H2")), op("Y")),
                 note="defining relation for Y"),
        Relation("prop-A-2", sub(comm(op("Z"), op("Y")), rhs2)),
        Relation("prop-A-3", sub(comm(op("H2"), op("Y")), rhs3)),
        Relation("prop-A-Z-second-form", sub(op("Z"), Fixed(alt)),
                 note="the two printed forms of Z coincide"),
    ]
    if include_negative:
        rels.append(
            Relation(
                "prop-A-3-negative",
                add(sub(comm(op("H2"), op("Y")), rhs3), num(1)),
                expectation="nonzero",
                note="constant +1 injected; must not reduce to zero",
            )
        )
    return RelationSet("proposition-A", over(env, rels))


# -- catalog: oscillator family -----------------------------------------------------


def _hsum(l: int):
    return op(f"Hsum[{l}]")


def _block_rhs(Z, Hsum, Hl, Zprev, Tl, w2, Dlm1: int, dl: int, eight: int) -> tuple:
    """Right-hand sides of [Z_l,Y_l] and [H_l,Y_l] as printed for the block
    algebra at level l, over trees for the shifted Z_l - (D_l-2)^2/4, H_1+..+H_l,
    H_l, Z_{l-1}, T_l and omega^2; ``eight`` is the leading coefficient of the
    first display (7 for the negative control)."""
    rhs2 = add(
        mul(num(eight), Z, Hsum),
        neg(mul(num(8), acomm(Z, Hl))),
        mul(
            num(8),
            add(neg(Zprev), Tl, num(Fraction((Dlm1 - 2) ** 2, 4) - Fraction((dl - 2) ** 2, 4) + 1)),
            Hsum,
        ),
        neg(mul(num(16), Hl)),
    )
    rhs3 = add(
        neg(mul(num(8), Hsum, Hl)),
        mul(num(8), Hl, Hl),
        neg(mul(num(16), w2, Z)),
        neg(
            mul(
                num(8),
                w2,
                add(
                    mul(num(-2), Zprev),
                    mul(num(-2), Tl),
                    num(
                        Fraction((Dlm1 - 1) * (Dlm1 - 3), 2)
                        + Fraction((dl - 1) * (dl - 3), 2)
                        - 1
                    ),
                ),
            )
        ),
    )
    return rhs2, rhs3


def oscillator_quadratic_relations(spec: ModelSpec, l: int, perturb_8_to_7: bool = False):
    """The three relations of the block quadratic algebra at level l."""
    part = spec.partition
    if not 2 <= l <= part.N:
        raise InapplicableRelationError(f"level l={l} needs 2 <= l <= N={part.N}")
    Zl, Hl = op(f"Z[{l}]"), op(f"H[{l}]")
    Yl = comm(Zl, Hl)
    w2 = par(spec.omega2) if isinstance(spec.omega2, str) else num(spec.omega2)
    rhs2, rhs3 = _block_rhs(
        sub(Zl, num(Fraction(part.offsets[l] - 2, 1) ** 2 / 4)),
        _hsum(l),
        Hl,
        op(f"Z[{l - 1}]"),
        op(f"T[{l}]"),
        w2,
        part.offsets[l - 1],
        part.block_sizes[l - 1],
        7 if perturb_8_to_7 else 8,
    )
    suffix = "-negative" if perturb_8_to_7 else ""
    tag = f"osc-alg-l{l}"
    rels = [
        Relation(f"{tag}-def{suffix}", sub(comm(Zl, Hl), Yl), note="defining relation for Y_l"),
        Relation(
            f"{tag}-ZY{suffix}",
            sub(comm(Zl, Yl), rhs2),
            expectation="nonzero" if perturb_8_to_7 else "zero",
            note="coefficient 8 perturbed to 7" if perturb_8_to_7 else "",
        ),
    ]
    if not perturb_8_to_7:
        rels.append(Relation(f"{tag}-HY", sub(comm(Hl, Yl), rhs3)))
    return rels


def oscillator_commutativity_relations(env: OperatorEnv):
    part = env.spec.partition
    N = part.N
    rels = []

    def gnames():
        for i in range(1, N + 1):
            lo = part.offsets[i - 1] + 1
            for j in range(lo + 1, part.offsets[i] + 1):
                yield f"G[{i},{j}]"

    gs = list(gnames())
    for g in gs:
        for k in range(1, N + 1):
            rels.append(Relation(f"osc-comm-[{g},T[{k}]]", comm(op(g), op(f"T[{k}]"))))
    for p in range(1, N + 1):
        for q in range(1, N + 1):
            rels.append(Relation(f"osc-comm-[T[{p}],H[{q}]]", comm(op(f"T[{p}]"), op(f"H[{q}]"))))
    for m in range(1, N + 1):
        for g in gs:
            rels.append(Relation(f"osc-comm-[H[{m}],{g}]", comm(op(f"H[{m}]"), op(g))))
    for a in range(len(gs)):
        for b in range(a + 1, len(gs)):
            rels.append(Relation(f"osc-comm-[{gs[a]},{gs[b]}]", comm(op(gs[a]), op(gs[b]))))
    for i in range(2, N + 1):
        for j in range(i + 1, N + 1):
            rels.append(Relation(f"osc-comm-[Z[{i}],Z[{j}]]", comm(op(f"Z[{i}]"), op(f"Z[{j}]"))))
    for m in range(2, N + 1):
        for n in range(m + 1, N + 1):
            rels.append(Relation(f"osc-comm-[Z[{m}],H[{n}]]", comm(op(f"Z[{m}]"), op(f"H[{n}]"))))
    for l in range(2, N + 1):
        rels.append(Relation(f"osc-comm-[Z[{l}],Hsum[{l}]]", comm(op(f"Z[{l}]"), _hsum(l))))
        for g in gs:
            rels.append(Relation(f"osc-comm-[Z[{l}],{g}]", comm(op(f"Z[{l}]"), op(g))))
    for name in ("Hfull",):
        for l in range(2, N + 1):
            rels.append(Relation(f"osc-comm-[{name},Z[{l}]]", comm(op(name), op(f"Z[{l}]"))))
    return rels


def _algebra_relations(env: OperatorEnv) -> list:
    levels = range(2, env.spec.partition.N + 1)
    return [r for l in levels for r in oscillator_quadratic_relations(env.spec, l)]


# -- catalog: gauge reduction ---------------------------------------------------------


def catalog_gauge_identities(spec: ModelSpec, l: int) -> RelationSet:
    """The seed algebra over the two radii of level l (of blocks 1..l-1 and
    of block l), with the central elements Z_{l-1} and T_l as parameters zc,
    tc, reproduces the printed block algebra coefficients identically."""
    part = spec.partition
    if not 2 <= l <= part.N:
        raise InapplicableRelationError(f"gauge level l={l} out of range")
    Dlm1 = part.offsets[l - 1]
    dl = part.block_sizes[l - 1]
    g1 = Fraction((Dlm1 - 1) * (Dlm1 - 3), 4)
    g2 = Fraction((dl - 1) * (dl - 3), 4)
    ctx = Context(("rp", "rl"), ("zc", "tc", "w2"))
    tag = f"gauge-l{l}"
    env = _seed_env(
        ctx, ctx.const_poly(g1).sub(ctx.param("zc")), ctx.const_poly(g2).sub(ctx.param("tc")), tag
    )
    zc, tc, w2 = par("zc"), par("tc"), par("w2")
    seed2, seed3 = _seed_rhs(add(neg(zc), num(g1)), add(neg(tc), num(g2)), w2)
    # Z_l - (D_l-2)^2/4 -> Z, Hsum[l] -> H, H_l -> H2, Z_{l-1} -> zc, T_l -> tc
    block2, block3 = _block_rhs(op("Z"), op("H"), op("H2"), zc, tc, w2, Dlm1, dl, 8)
    rels = (
        Relation(f"{tag}-seed-2", sub(comm(op("Z"), op("Y")), seed2)),
        Relation(f"{tag}-seed-3", sub(comm(op("H2"), op("Y")), seed3)),
        Relation(f"{tag}-match-2", sub(seed2, block2),
                 note="seed RHS equals block-algebra RHS term by term"),
        Relation(f"{tag}-match-3", sub(seed3, block3),
                 note="seed RHS equals block-algebra RHS term by term"),
    )
    return RelationSet(tag, over(env, rels))


def catalog_gauge(spec: ModelSpec) -> RelationSet:
    """The gauge identities of every level l = 2..N."""
    levels = range(2, spec.partition.N + 1)
    pairs = tuple(p for l in levels for p in catalog_gauge_identities(spec, l).pairs)
    return RelationSet("gauge", pairs)


# -- catalog: coulomb family ------------------------------------------------------------


def _tshift(spec: ModelSpec, p: int):
    """-T_p + (d_p-1)(d_p-3)/4, the central combination of block p."""
    dp = spec.partition.block_sizes[p - 1]
    return add(neg(op(f"T[{p}]")), num(Fraction((dp - 1) * (dp - 3), 4)))


def coulomb_yx_relations(spec: ModelSpec, j: int | None = None, erratum_wrong: bool = False):
    """The X/W triple; j = None means the un-conjugated display at j = D."""
    part = spec.partition
    N, D = part.N, part.D
    jj = D if j is None else j
    X = op(f"X[{jj}]")
    W = comm(op("Y[1]"), X)
    eta = par(spec.eta) if isinstance(spec.eta, str) else num(spec.eta)
    tag = f"coul-yx-j{jj}" + ("-erratum-wrong" if erratum_wrong else "")
    rels = [
        Relation(
            f"{tag}-1-def",
            sub(comm(op("Y[1]"), X), W),
            note="defining relation for W",
        ),
        Relation(
            f"{tag}-2",
            sub(
                comm(op("Y[1]"), W),
                add(
                    neg(mul(num(2), acomm(op("Y[1]"), X))),
                    mul(num((D - 1) * (D - 3)), X),
                ),
            ),
            expectation="zero",
        ),
    ]
    sigma_term = op(f"sigmaS[{jj}]") if not erratum_wrong else op(f"Z[{N - 1}]")
    rel3 = Relation(
        f"{tag}-3",
        sub(
            comm(X, W),
            add(
                mul(num(2), X, X),
                neg(mul(num(8), sub(sigma_term, sc("U", D - 1)), op("Hcoul"))),
                mul(num(16), sub(op("Y[1]"), sc("M", 1)), op("Hcoul")),
                neg(mul(num(2 * (N + part.block_sizes[-1] - 2) ** 2), op("Hcoul"))),
                neg(mul(num(2), eta, eta)),
            ),
        ),
        expectation="nonzero" if erratum_wrong else "zero",
        note=(
            "substituting Z[N-1] for the conjugated S[D-1] (the corrected erratum) must fail"
            if erratum_wrong
            else ""
        ),
    )
    rels.append(rel3)
    return rels


def correction_closed_form(spec: ModelSpec, env: OperatorEnv, j: int, literal: bool) -> DiffOp:
    """The dilation form display of sigma_jD S[D-1] sigma_jD^{-1}.

    The printed display carries a bare d_j inside the dilation bracket;
    ``literal=False`` uses the dimensionally consistent reading x_j d_j.
    """
    part = spec.partition
    D = part.D
    ctx = env.ctx
    r2m = ctx.sum_of_squares(range(D)).sub(ctx.x(j - 1, 2))
    lap = laplacian(ctx, range(D)).sub(DiffOp.partial(ctx, j - 1, 2))
    E = euler_operator(ctx, range(D))
    E = E.sub(DiffOp.partial(ctx, j - 1) if literal else euler_operator(ctx, [j - 1]))
    out = DiffOp.from_poly(ctx, r2m).mul(lap).sub(E.mul(E)).sub(E.scale(D - 3))
    terms = tuple(potential_term(ctx, spec, b, r2m) for b in range(part.N - 1))
    return out.sub(RawOperator(DiffOp.zero(ctx), terms).symbolic(spec))


def _yx_catalog(env: OperatorEnv) -> list:
    """The X/W triples, the transposition claims and both readings of the
    dilation form of the conjugated S."""
    spec, part = env.spec, env.spec.partition
    if part.N < 2:
        raise InapplicableRelationError("yx catalog needs N >= 2")
    if not spec.is_symbolic():
        raise InapplicableRelationError("symbolic yx catalog needs zero/constant potentials")
    rels = coulomb_yx_relations(spec)
    D = part.D
    for j in range(D - part.block_sizes[-1] + 1, D):
        rels.extend(coulomb_yx_relations(spec, j))
        # sigma covariance claims
        rels.append(
            Relation(
                f"coul-sigma-X[{j}]",
                sub(_conjugated(env, "X[%d]" % D, j), op(f"X[{j}]")),
                note="transposition maps X[D] to X[j]",
            )
        )
    rels.append(
        Relation(
            "coul-sigma-Y1",
            sub(_conjugated(env, "Y[1]", D - part.block_sizes[-1] + 1), op("Y[1]")),
            note="transposition fixes Y[1]",
        )
    )
    rels.append(
        Relation(
            "coul-sigma-H",
            sub(_conjugated(env, "Hcoul", D - part.block_sizes[-1] + 1), op("Hcoul")),
            note="transposition fixes the Hamiltonian",
        )
    )
    # closed dilation form of the conjugated S, printed and emended readings
    for j in range(D - part.block_sizes[-1] + 1, D + 1):
        printed = correction_closed_form(spec, env, j, literal=True)
        emended = correction_closed_form(spec, env, j, literal=False)
        sS = env.operator(name_from_string(f"sigmaS[{j}]"))
        grp = f"coul-correction-form-j{j}"
        rels.append(
            Relation(
                f"{grp}-printed",
                Fixed(sS.sub(printed)),
                expectation="record",
                group=grp,
                note="display with a bare d_j in the dilation bracket",
            )
        )
        rels.append(
            Relation(
                f"{grp}-emended",
                Fixed(sS.sub(emended)),
                note="reading with x_j d_j in the dilation bracket",
            )
        )
    return rels


def _conjugated(env: OperatorEnv, name: str, j: int) -> Fixed:
    raw = env.raw(name_from_string(name))
    return Fixed(conjugate_by_transposition(raw, j, env.spec, env.ctx).symbolic(env.spec))


def _erratum_relations(env: OperatorEnv) -> list:
    part = env.spec.partition
    j = part.D - 1 if part.block_sizes[-1] >= 2 else part.D
    rels = coulomb_yx_relations(env.spec, j, erratum_wrong=True)
    return [r for r in rels if r.name.endswith("-3")]


def _central_diagnoser(atom_trees: dict):
    """Diagnoser expressing a residual over products of central elements."""

    def diagnose(residual: DiffOp, env: OperatorEnv) -> str:
        atoms = {k: eval_node(t, env) for k, t in atom_trees.items()}
        names = list(atoms)
        basis = {}
        for i, a in enumerate(names):
            for b in names[i:]:
                if a == "1" and b == "1":
                    basis["1"] = atoms["1"]
                elif a == "1":
                    basis[b] = atoms[b]
                else:
                    basis[f"{a}*{b}"] = atoms[a].mul(atoms[b])
        sol = decompose_residual(residual, basis)
        if sol is None:
            return "residual not spanned by central-element products"
        body = " + ".join(f"({v})*{k}" for k, v in sol.items())
        return f"residual = {body} over shifted central elements"

    return diagnose


def _readings(group: str, lhs, readings, diagnose) -> list:
    """The record relations lhs - rhs of one reading group, one for each
    (name suffix, rhs, note) of ``readings``."""
    return [Relation(group + suffix, sub(lhs, rhs), expectation="record", group=group,
                     note=note, diagnose=diagnose) for suffix, rhs, note in readings]


def coulomb_zy_relations(spec: ModelSpec, p: int):
    """Double-commutator relations for Z_p / Y_p; printed + emended readings."""
    part = spec.partition
    N = part.N
    dN = part.block_sizes[-1]
    if not 2 <= p <= N - 1:
        raise InapplicableRelationError(f"zy relations need 2 <= p <= N-1, got p={p}")
    Zp = sub(op(f"Z[{p}]"), sc("N", p))
    Zpm1 = sub(op(f"Z[{p - 1}]"), sc("N", p - 1))
    Yp = sub(op(f"Y[{p}]"), sc("M", p))
    Yp1 = sub(op(f"Y[{p + 1}]"), sc("M", p + 1))
    Y1 = sub(op("Y[1]"), sc("M", 1))
    Ts = _tshift(spec, p)
    inner = comm(op(f"Z[{p}]"), op(f"Y[{p}]"))
    diagnose = _central_diagnoser(
        {"Zp": Zp, "Yp": Yp, "Y1": Y1, "Zm": Zpm1, "Yn": Yp1, "Ts": Ts, "1": num(1)}
    )
    big_bracket = num((p - 2) * (N + dN - 1) - p * p + p + 4)
    rhs1 = add(
        neg(mul(num(8), Zp, Zp)),
        neg(mul(num(8), acomm(Zp, Yp))),
        neg(mul(num(4), add(big_bracket, mul(num(2), Ts)), Zp)),
        mul(num(4 * (N + dN - p) * (N + dN - p - 4)), Yp),
        mul(num(8), add(Y1, Zpm1), Zp),
        neg(mul(num(4), add(num(N + dN - p - 4), mul(num(2), Ts)), Y1)),
        neg(
            mul(
                num(4),
                add(num((N + dN - p - 1) * (N + dN - p - 4)), neg(mul(num(2), Ts))),
                Zpm1,
            )
        ),
        mul(num(4 * (N + dN - p) * (N + dN - 5)), Ts),
        mul(num(4 * (p - 1) * (N + dN - p)), Yp1),
        neg(mul(num(8), Y1, Yp1)),
        mul(num(8), Zp, Yp1),
        mul(num(8), Zpm1, Yp1),
    )
    rels = _readings(f"coul-zy-p{p}-ZZY", comm(op(f"Z[{p}]"), inner),
                     [("", rhs1, "printed display")], diagnose)

    def rhs2(second_line_target):
        return add(
            mul(num(8), Yp, Yp),
            mul(num(8), acomm(Zp, Yp)),
            neg(mul(num(4 * p * (p - 4)), Zp)),
            mul(num(4), add(big_bracket, mul(num(2), Ts)), second_line_target),
            neg(mul(num(8), Zpm1, Yp)),
            neg(mul(num(8), Y1, Yp)),
            mul(num(4), add(num(p - 4), mul(num(2), Ts)), Y1),
            mul(num(8), Zpm1, Y1),
            neg(mul(num(4 * p * (N + dN - p - 1)), Zpm1)),
            neg(mul(num(4 * p * (N + dN - 5)), Ts)),
            mul(num(4), add(num((p - 4) * (p - 1)), neg(mul(num(2), Ts))), Yp1),
            neg(mul(num(8), Zpm1, Yp1)),
            neg(mul(num(8), Yp1, Yp)),
        )

    return rels + _readings(f"coul-zy-p{p}-YZY", comm(op(f"Y[{p}]"), inner), [
        ("-printed", rhs2(sub(op("Y[1]"), sc("M", p))),
         "printed second line ends with (Y_1 - M_p)"),
        ("-emended", rhs2(Yp), "reading with (Y_p - M_p) in the second line"),
    ], diagnose)


def coulomb_sj_relations(spec: ModelSpec, p: int):
    """Double-commutator relations for S_p / J_p; printed + emended readings."""
    part = spec.partition
    N, D = part.N, part.D
    dN = part.block_sizes[-1]
    if not part.offsets[N - 1] + 1 <= p <= D - 1:
        raise InapplicableRelationError(
            f"sj relations need n_(N-1)+1 <= p <= D-1, got p={p}"
        )
    q = p + N + dN - D
    Sp = sub(op(f"S[{p}]"), sc("U", p))
    Spm1 = sub(op(f"S[{p - 1}]"), sc("U", p - 1))
    Jp = op(f"J[{p}]")
    Jp1 = op(f"J[{p + 1}]")
    Y1 = sub(op("Y[1]"), sc("M", 1))
    inner = comm(op(f"S[{p}]"), op(f"J[{p}]"))
    bracket = num((q - 3) * (N + dN - 1) - (q - 1) ** 2 + q + 3)
    diagnose = _central_diagnoser(
        {"Sp": Sp, "Jp": Jp, "Y1": Y1, "Sm": Spm1, "Jn": Jp1, "1": num(1)}
    )

    def rhs1(y_target, z_term):
        return add(
            neg(mul(num(8), Sp, Sp)),
            neg(mul(num(8), acomm(Sp, Jp))),
            neg(mul(num(4), bracket, Sp)),
            mul(num(4 * (D - p + 1) * (D - p - 3)), Jp),
            mul(num(8), add(Y1, Spm1), Sp),
            neg(mul(num(4 * (D - p - 3)), Y1)),
            neg(mul(num(4 * (D - p) * (D - p - 3)), Spm1)),
            mul(num(4 * (q - 2) * (D - p + 1)), Jp1),
            neg(mul(num(8), Y1, Jp1)),
            mul(num(8), Sp, y_target),
            mul(num(8), z_term, Jp1),
        )

    rels = _readings(f"coul-sj-p{p}-SSJ", comm(op(f"S[{p}]"), inner), [
        ("-printed", rhs1(op(f"Y[{p + 1}]"), sub(op(f"Z[{p - 1}]"), sc("N", p - 1))),
         "printed display mixes Y[p+1] and Z[p-1] into the coordinate chain"),
        ("-emended", rhs1(Jp1, Spm1),
         "coordinate-chain reading: J[p+1] for Y[p+1], S[p-1]-U[p-1] for Z[p-1]-N[p-1]"),
    ], diagnose)

    def rhs2(target):
        return add(
            mul(num(8), Jp, Jp),
            mul(num(8), acomm(Sp, Jp)),
            neg(mul(num(4 * (q - 1) * (q - 5)), Sp)),
            mul(num(4), bracket, target),
            neg(mul(num(8), Spm1, Jp)),
            neg(mul(num(8), Y1, Jp)),
            mul(num(4 * (q - 5)), Y1),
            mul(num(8), Spm1, Y1),
            neg(mul(num(4 * (q - 1) * (D - p)), Spm1)),
            mul(num(4 * (q - 5) * (q - 2)), Jp1),
            neg(mul(num(8), Spm1, Jp1)),
            neg(mul(num(8), Jp1, Jp)),
        )

    return rels + _readings(f"coul-sj-p{p}-JSJ", comm(Jp, inner), [
        ("-printed", rhs2(sub(op(f"Y[{p}]"), sc("M", p))), "printed display carries (Y_p - M_p)"),
        ("-emended", rhs2(Jp), "reading with J_p in place of (Y_p - M_p)"),
    ], diagnose)


def coulomb_commutativity_relations(env: OperatorEnv):
    part = env.spec.partition
    N, D = part.N, part.D
    rels = []
    zrange = list(range(2, N))
    srange = list(range(part.offsets[N - 1] + 1, D))
    yrange = list(range(1, N))
    jrange = srange
    for a in zrange:
        for b in zrange:
            if a < b:
                rels.append(Relation(f"coul-comm-[Z[{a}],Z[{b}]]", comm(op(f"Z[{a}]"), op(f"Z[{b}]"))))
    for i in srange:
        for jj in zrange:
            rels.append(Relation(f"coul-comm-[S[{i}],Z[{jj}]]", comm(op(f"S[{i}]"), op(f"Z[{jj}]"))))
    for a in yrange:
        for b in yrange:
            if a < b:
                rels.append(Relation(f"coul-comm-[Y[{a}],Y[{b}]]", comm(op(f"Y[{a}]"), op(f"Y[{b}]"))))
    for k in jrange:
        for ll in yrange:
            rels.append(Relation(f"coul-comm-[J[{k}],Y[{ll}]]", comm(op(f"J[{k}]"), op(f"Y[{ll}]"))))
    for i in zrange:
        rels.append(Relation(f"coul-comm-[Y[1],Z[{i}]]", comm(op("Y[1]"), op(f"Z[{i}]"))))
    for name in enumerate_integrals(env.spec):
        rels.append(Relation(f"coul-comm-[Hcoul,{name}]", comm(op("Hcoul"), OpRef(name))))
    return rels


def _zy_relations(env: OperatorEnv) -> list:
    return [r for p in range(2, env.spec.partition.N) for r in coulomb_zy_relations(env.spec, p)]


def _sj_relations(env: OperatorEnv) -> list:
    part = env.spec.partition
    ps = range(part.offsets[part.N - 1] + 1, part.D)
    return [r for p in ps for r in coulomb_sj_relations(env.spec, p)]


def catalog_negative_controls(spec: ModelSpec | None = None) -> RelationSet:
    """Controls that must be flagged nonzero: perturbed seed and block algebra."""
    if spec is None:
        spec = oscillator_spec([2, 2])
    prop = catalog_proposition_A(include_negative=True)
    osc_rels = oscillator_quadratic_relations(spec, 2, perturb_8_to_7=True)
    pairs = prop.pairs + over(OperatorEnv.for_model(spec), osc_rels)
    controls = tuple(p for p in pairs if p[0].expectation == "nonzero")
    return RelationSet("negative-controls", controls)


# -- every catalog by name --------------------------------------------------------------

# A model catalog is its relation builders, env -> [Relation] in report order,
# whose relations share one environment of the model; any other catalog is a
# builder spec -> RelationSet that pairs its relations with environments of its own.
CATALOGS = {
    "proposition-A": lambda spec: catalog_proposition_A(),
    "gauge": catalog_gauge,
    "negative-controls": catalog_negative_controls,
    "oscillator": (_algebra_relations, oscillator_commutativity_relations),
    "oscillator-algebra": (_algebra_relations,),
    "oscillator-commutativity": (oscillator_commutativity_relations,),
    "coulomb": (_yx_catalog, coulomb_commutativity_relations, _zy_relations, _sj_relations),
    "coulomb-commutativity": (coulomb_commutativity_relations,),
    "coulomb-erratum-wrong": (_erratum_relations,),
    "coulomb-sj": (_sj_relations,),
    "coulomb-yx": (_yx_catalog,),
    "coulomb-zy": (_zy_relations,),
}
CATALOG_NAMES = list(CATALOGS)


def catalog_family(name: str) -> str:
    """The model family a catalog is written for: coulomb for a coulomb* name."""
    return COULOMB if name.startswith(COULOMB) else OSCILLATOR


def build_catalog(name: str, spec: ModelSpec | None) -> RelationSet:
    """The named catalog over ``spec``, which must be of the catalog's family
    (``proposition-A`` has a model of its own and ignores it)."""
    build = CATALOGS.get(name)
    if build is None:
        raise ConfigError(f"unknown catalog {name!r}; known: {', '.join(CATALOG_NAMES)}")
    family = catalog_family(name)
    if spec is not None and name != "proposition-A" and spec.family != family:
        raise ConfigError(f"catalog {name!r} is written for the {family} family, not {spec.family}")
    if callable(build):
        return build(spec)
    env = OperatorEnv.for_model(spec)
    return RelationSet(name, over(env, [rel for make in build for rel in make(env)]))


# -- relation file grammar -----------------------------------------------------------
#
# A line is ``[name ":"] expr ["==" expr]``; "#" starts a comment.  Python's own
# expression parser reads ``expr``, which must stay inside this subset of Python
# expression syntax:
#
#   [a, b]   commutator              {a, b}   anticommutator
#   a + b    a - b    -a    a * b    (a)      sums, negation, products, grouping
#   a / n    division by a decimal integer literal n, so 3/4 is a rational
#   n        a decimal integer literal
#   name     name[i]    name[i, j]   an integral (H[1], G[1,2], sigmaS[3], Hcoul, ...),
#            a parameter of the model, or a structural constant Nc[p], Mc[p], Uc[p];
#            indices are decimal integer literals
#
# Every other syntax, and nesting deeper than MAX_NESTING, is a RelationSyntaxError.

MAX_NESTING = 100
_CONSTANTS = ("Nc", "Mc", "Uc")


def _relation_tree(body: str, param_names) -> object:
    """The relation tree of one line's expression (LHS - RHS for an equation)."""
    if not body.isascii():
        raise RelationSyntaxError("non-ASCII character")
    try:
        top = ast.parse(body, mode="eval").body
    except SyntaxError as exc:
        raise RelationSyntaxError(f"{exc.msg} at column {exc.offset}") from None
    except (ValueError, RecursionError, MemoryError):
        raise RelationSyntaxError("expression too long or too deeply nested to parse") from None
    params = set(param_names)

    def shown(node) -> str:
        """The node's source text for an error message, clipped to 40 characters."""
        text = ast.get_source_segment(body, node)
        return repr(text if len(text) <= 40 else text[:37] + "...")

    def integer(node) -> int | None:
        """The value of a decimal integer literal; None for any other node."""
        decimal = isinstance(node, ast.Constant) and type(node.value) is int
        return node.value if decimal and ast.get_source_segment(body, node).isdigit() else None

    def chain(node, ops) -> list:
        """[(operator, operand), ...] of a left-nested chain, leftmost first."""
        links = []
        while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
            links.append((node.op, node.right))
            node = node.left
        return [(None, node)] + links[::-1]

    def convert(node, depth: int):
        if depth > MAX_NESTING:
            raise RelationSyntaxError(f"expression nested deeper than {MAX_NESTING} levels")
        depth += 1
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            terms = ((op_, convert(t, depth)) for op_, t in chain(node, (ast.Add, ast.Sub)))
            return Sum(tuple(neg(t) if isinstance(op_, ast.Sub) else t for op_, t in terms))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            factors = []
            for op_, f in chain(node, (ast.Mult, ast.Div)):
                if not isinstance(op_, ast.Div):
                    factors.append(convert(f, depth))
                    continue
                n = integer(f)
                if n is None:
                    raise RelationSyntaxError(f"division by {shown(f)}, not an integer")
                if n == 0:
                    raise RelationSyntaxError(f"bad rational {shown(node)}")
                last = factors.pop() if isinstance(factors[-1], Scalar) else num(1)
                factors.append(Scalar(last.value / n))
            return factors[0] if len(factors) == 1 else Prod(tuple(factors))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return neg(convert(node.operand, depth))
        if isinstance(node, (ast.List, ast.Set)) and len(node.elts) == 2:
            a, b = (convert(e, depth) for e in node.elts)
            return Comm(a, b) if isinstance(node, ast.List) else Acomm(a, b)
        if integer(node) is not None:
            return num(node.value)
        if isinstance(node, ast.Name) and node.id in params:
            return ParamRef(node.id)
        if isinstance(node, ast.Name):
            name, indices = node.id, ()
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            name, index = node.value.id, node.slice
            indices = index.elts if isinstance(index, ast.Tuple) and index.elts else (index,)
        else:
            raise RelationSyntaxError(f"unsupported syntax {shown(node)}")
        for i in indices:
            if integer(i) is None:
                raise RelationSyntaxError(f"bad index {shown(i)} on {name!r}")
        if name in _CONSTANTS and len(indices) == 1:
            return ConstRef(name[0], indices[0].value)
        if name in _CONSTANTS or len(indices) > 2:
            raise RelationSyntaxError(f"wrong number of indices on {name!r}")
        return OpRef(IntegralName(name, *(i.value for i in indices)))

    if not isinstance(top, ast.Compare):
        return convert(top, 0)
    if len(top.ops) != 1 or not isinstance(top.ops[0], ast.Eq):
        raise RelationSyntaxError("one '==' at most, and no other comparison")
    return sub(convert(top.left, 0), convert(top.comparators[0], 0))


def parse_relation_line(line: str, param_names=()) -> Relation | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    name = None
    if ":" in body:
        name, body = body.split(":", 1)
        name = name.strip()
    expr = _relation_tree(body.strip(), param_names)
    return Relation(name or f"user-{hashlib.sha256(line.encode()).hexdigest()[:8]}", expr)


def parse_relation_file(text: str, param_names=()) -> list[Relation]:
    rels = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            rel = parse_relation_line(line, param_names)
        except RelationSyntaxError as exc:
            raise RelationSyntaxError(f"line {lineno}: {exc}") from exc
        if rel is not None:
            rels.append(rel)
    return rels
