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

A display is written as the paper prints it, with ``+ - *`` on tree nodes and
``Comm``/``Acomm`` for brackets: ``8 * Z * H - 8 * Acomm(Z, H2) - 16 * H2``.
A number becomes a ``Scalar``; a ``Sum`` or ``Prod`` on the left of ``+`` or
``*`` is extended, so a chain of terms is one ``Sum``, and ``Sum((a, b))``
writes a sum ``a`` that stays one term.  ``-x`` is ``(-1) * x``, so
``-(2 * x)`` and ``-2 * x`` are different trees of the same operator.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (ConfigError, InapplicableRelationError, InvalidIntegralError,
                     RelationSyntaxError, UnsupportedSymbolicPotentialError)
from .integrals import (
    IntegralName,
    RadialContext,
    build_integral,
    enumerate_integrals,
    radial_groups,
    structural_constant,
)
from .models import (
    COULOMB,
    OSCILLATOR,
    Constant,
    ModelSpec,
    RawOperator,
    operator_context,
    oscillator_spec,
    potential_term,
)
from .opalg import DiffOp, LinearCombination, euler_operator
from .report import ReportItem
from .ring import row_reduce


# -- expression trees -----------------------------------------------------------


class Node:
    """A relation-tree node; ``+ - *`` build trees as the module docstring says."""

    def __add__(self, other) -> "Sum":
        return Sum((self.terms if isinstance(self, Sum) else (self,)) + (num(other),))

    def __sub__(self, other) -> "Sum":
        return self + -num(other)

    def __neg__(self) -> "Prod":
        return Prod((Scalar(Fraction(-1)), self))

    def __mul__(self, other) -> "Prod":
        return Prod((self.factors if isinstance(self, Prod) else (self,)) + (num(other),))

    def __rmul__(self, other) -> "Prod":
        return Prod((num(other), self))


@dataclass(frozen=True)
class OpRef(Node):
    name: IntegralName


@dataclass(frozen=True)
class Scalar(Node):
    value: Fraction


@dataclass(frozen=True)
class ParamRef(Node):
    name: str


@dataclass(frozen=True)
class ConstRef(Node):
    kind: str  # "N" | "M" | "U"
    p: int


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple


@dataclass(frozen=True)
class Prod(Node):
    factors: tuple


@dataclass(frozen=True)
class Comm(Node):
    a: object
    b: object


@dataclass(frozen=True)
class Acomm(Node):
    a: object
    b: object


class Fixed(Node):
    """Leaf carrying an operator that was already built outside the tree."""

    def __init__(self, diffop: DiffOp):
        self.diffop = diffop


def op(kind: str, *indices: int) -> OpRef:
    return OpRef(IntegralName(kind, *indices))


def num(v) -> Node:
    """A node as it is; a number as its ``Scalar``."""
    return v if isinstance(v, Node) else Scalar(Fraction(v))


@dataclass(frozen=True)
class Image:
    """Marks a relation as the tree of relation ``source`` with each left integral
    of ``leaves`` replaced by its right one.  A swap of coordinate slots is an
    algebra automorphism and the normal form is unique, so if the swap maps each
    left integral onto its right one, this relation is zero where the source is."""

    source: str
    slots: tuple  # (i, j), 0-based
    leaves: tuple  # (IntegralName, IntegralName) pairs


@dataclass(frozen=True)
class Relation:
    name: str
    expr: object  # tree expected to reduce to zero
    expectation: str = "zero"  # zero | nonzero | record
    group: str | None = None  # reading-group id for record items
    note: str = ""
    diagnose: object = None  # optional callable(residual, env) -> str
    image: Image | None = None  # set when the relation is another's transposed image


@dataclass
class RelationSet:
    pairs: tuple  # (Relation, OperatorEnv) in report order

    @property
    def relations(self) -> tuple:
        return tuple(rel for rel, _ in self.pairs)


def over(env: "OperatorEnv", rels) -> tuple:
    """Pair every relation with the one environment it is evaluated in."""
    return tuple((rel, env) for rel in rels)


# -- evaluation environment ------------------------------------------------------


class OperatorEnv:
    """Resolves integral names and structural constants over the context of one
    model: its Cartesian context, or a block-radial one (``RadialContext``)."""

    def __init__(self, spec: ModelSpec, ctx=None):
        self.spec = spec
        self.ctx = operator_context(spec) if ctx is None else ctx
        self._cache: dict = {}  # str(name) -> DiffOp
        self._raw: dict = {}
        self.brackets: dict = {}  # Comm/Acomm node -> its value here; nodes are frozen
        self.proved: set = set()  # names of the relations reduced to zero here
        self.pictures: dict = {}  # radial groups -> the OperatorEnv of that picture

    def operator(self, name: IntegralName) -> DiffOp:
        key = str(name)
        got = self._cache.get(key)
        if got is None:
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
        if self.spec.partition.N < 2:
            raise InapplicableRelationError("no structural constants in this environment")
        return structural_constant(self.spec, kind, p)


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
    if isinstance(node, (Sum, Prod)):
        # one linear combination, each output key normalized once: rational
        # factors fold into a scale, and a product's last step stays unnormalized
        acc = LinearCombination(ctx)
        for term in node.terms if isinstance(node, Sum) else (node,):
            scale, ops = Fraction(1), []
            for f in term.factors if isinstance(term, Prod) else (term,):
                if isinstance(f, Scalar):
                    scale *= f.value
                elif isinstance(f, ConstRef):
                    scale *= env.constant(f.kind, f.p)
                else:
                    ops.append(eval_node(f, env))
            if scale == 0:
                continue
            if len(ops) < 2:
                acc.add(ops[0] if ops else DiffOp.scalar(ctx, 1), scale)
            else:
                acc.add_product(reduce(DiffOp.mul, ops[:-1]), ops[-1], scale)
        return acc.result()
    if isinstance(node, (Comm, Acomm)):
        got = env.brackets.get(node)
        if got is None:
            a, b = eval_node(node.a, env), eval_node(node.b, env)
            got = a.commutator(b) if isinstance(node, Comm) else a.anticommutator(b)
            env.brackets[node] = got
        return got
    raise TypeError(f"unknown relation node {node!r}")


# -- verification -----------------------------------------------------------------


def _integral_names(node) -> list | None:
    """The integral names of the tree's leaves in the order eval_node reads
    them; None when a leaf is Fixed.  Nothing is built or checked."""
    if isinstance(node, Fixed):
        return None
    if isinstance(node, OpRef):
        return [node.name]
    if not isinstance(node, (Sum, Prod, Comm, Acomm)):
        return []
    names = []
    for child in (node.terms if isinstance(node, Sum) else node.factors
                  if isinstance(node, Prod) else (node.a, node.b)):
        got = _integral_names(child)
        if got is None:
            return None
        names += got
    return names


def radial_picture(expr, env: OperatorEnv) -> OperatorEnv | None:
    """The env of the block-radial picture over the coarsest partition the
    tree's leaves respect (``radial_groups``), which ``env`` keeps for every
    relation on that partition; None when a leaf is Fixed.  No leaf is built,
    so a name that no env can build may raise anything here."""
    names = _integral_names(expr)
    if names is None:
        return None
    groups = radial_groups(env.spec, names)
    renv = env.pictures.get(groups)
    if renv is None:
        renv = env.pictures[groups] = OperatorEnv(env.spec, RadialContext(env.spec, groups))
    return renv


def _radially_zero(expr, env: OperatorEnv) -> bool:
    """Whether the tree is zero because its image in its block-radial picture
    is, where a group has two or more coordinates."""
    try:
        renv = radial_picture(expr, env)
        return renv is not None and max(renv.ctx.d) > 1 and eval_node(expr, renv).is_zero()
    except Exception:  # not proved here: the direct reduction gives the verdict, or raises
        return False


def verify_relation(rel: Relation, env: OperatorEnv, progress=None) -> ReportItem:
    """Reduce one relation, building only what the proof reads.  An image
    whose source ``env`` has proved is zero once the swap maps each of its
    integral pairs.  A relation expected zero is zero when its block-radial
    image is (see ``RadialContext``), and then builds no integral in ``env``.
    Any other relation, and one whose image is not zero, is reduced directly,
    so every residual and every inapplicable note in a report is Cartesian.
    ``progress(item, picture)`` hears of the item, with how it was settled:
    "transport", "radial" or "cartesian"."""
    item = ReportItem(rel.name, "relation", "symbolic", "zero", None,
                      expectation=rel.expectation, group=rel.group, note=rel.note)
    picture = "cartesian"
    im = rel.image
    try:
        if im and im.source in env.proved and all(env.operator(a).swap_coordinates(*im.slots)
                                                  == env.operator(b) for a, b in im.leaves):
            residual, picture = DiffOp.zero(env.ctx), "transport"
        elif rel.expectation == "zero" and _radially_zero(rel.expr, env):
            residual, picture = DiffOp.zero(env.ctx), "radial"
        else:
            residual = eval_node(rel.expr, env)
    except (InvalidIntegralError, InapplicableRelationError,
            UnsupportedSymbolicPotentialError) as exc:
        item.status, item.note = "inapplicable", str(exc)
    else:
        if residual.is_zero():
            env.proved.add(rel.name)
            item.passed = rel.expectation != "nonzero"
        else:
            item.status = "residual"
            item.passed = rel.expectation == "nonzero" if rel.expectation != "record" else None
            item.residual = {"terms": residual.term_count(), "order": residual.order(),
                             "leading": "; ".join(residual.to_text().splitlines()[:2])}
            diag = rel.diagnose(residual, env) if rel.diagnose is not None else ""
            if diag:
                item.note = f"{item.note}; {diag}" if item.note else diag
    if progress is not None:
        progress(item, picture)
    return item


def verify_symbolic(rs: RelationSet, progress=None) -> list[ReportItem]:
    """Verify the pairs in report order; then settle reading groups."""
    return settle_groups([verify_relation(rel, env, progress) for rel, env in rs.pairs])


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
    """Write residual = sum c_b * basis_b exactly; None when not in the span.

    One sparse row per (derivative, monomial) key, in sorted key order:
    column j holds basis j's entry and the last column the residual's.  The
    residual is outside the span exactly when that column is a pivot of the
    row-reduced system; otherwise the pivot rows carry the coefficients.
    """
    names = list(basis)
    vecs = flatten_operators([basis[n] for n in names] + [residual])
    rhs = len(names)
    keys = sorted(set().union(*vecs))
    pivots = row_reduce({j: vec[k] for j, vec in enumerate(vecs) if k in vec} for k in keys)
    if rhs in pivots:
        return None
    return {names[c]: Fraction(row[rhs]) for c, row in sorted(pivots.items()) if rhs in row}


# -- catalog: two-coordinate seed system ------------------------------------------


# Proposition A's planar singular oscillator is the oscillator model on blocks
# 1,1 with couplings g1, g2: its H[1], H[2], Hsum[2] and Z[2] are the printed H1,
# H2, H = H1 + H2 and Z = L^2 - (g1/x^2 + g2/y^2)(x^2 + y^2), and Y = [Z, H2].
PLANAR = oscillator_spec([1, 1], (Constant("g1"), Constant("g2")))
_Z, _H, _H2 = op("Z", 2), op("Hsum", 2), op("H", 2)
_Y = Comm(_Z, _H2)


def _seed_rhs(g1, g2, w2) -> tuple:
    """Right-hand sides of [Z,Y] and [H2,Y] in the seed algebra, over trees
    g1, g2, w2 for the singular couplings and omega^2."""
    rhs2 = 8 * _Z * _H - 8 * Acomm(_Z, _H2) + 8 * Sum((g1, -g2, num(1))) * _H - 16 * _H2
    rhs3 = -(8 * _H * _H2) + 8 * _H2 * _H2 - 16 * w2 * _Z - 8 * w2 * (2 * g1 + 2 * g2 + -1)
    return rhs2, rhs3


def catalog_proposition_A() -> RelationSet:
    env = OperatorEnv(PLANAR)
    rhs2, rhs3 = _seed_rhs(ParamRef("g1"), ParamRef("g2"), ParamRef("w2"))
    # second printed form of Z: r^2 Laplacian - Euler^2 - (g1/x^2 + g2/y^2) r^2
    alt = _dilation_form(PLANAR, env.ctx, [0, 1], euler_operator(env.ctx, [0, 1]))
    rels = [
        Relation("prop-A-1-def", Comm(_Z, _H2) - _Y, note="defining relation for Y"),
        Relation("prop-A-2", Comm(_Z, _Y) - rhs2),
        Relation("prop-A-3", Comm(_H2, _Y) - rhs3),
        Relation("prop-A-Z-second-form", _Z - Fixed(alt),
                 note="the two printed forms of Z coincide"),
    ]
    return RelationSet(over(env, rels))


# -- catalog: oscillator family -----------------------------------------------------


def _integrals(spec: ModelSpec, kind: str) -> list:
    """The ``kind`` integrals of ``spec`` over the index range that
    ``enumerate_integrals`` declares for them, in its order."""
    return [name for name in enumerate_integrals(spec) if name.kind == kind]


def _zshift(spec: ModelSpec, l: int):
    """Z_l - (D_l-2)^2/4, the shifted Casimir of level l."""
    return op("Z", l) - Fraction(spec.partition.offsets[l] - 2, 1) ** 2 / 4


def _block_rhs(Z, Hsum, Hl, Zprev, Tl, w2, Dlm1: int, dl: int) -> tuple:
    """Right-hand sides of [Z_l,Y_l] and [H_l,Y_l] as printed for the block
    algebra at level l, over trees for the shifted Z_l - (D_l-2)^2/4, H_1+..+H_l,
    H_l, Z_{l-1}, T_l and omega^2."""
    c2 = Fraction((Dlm1 - 2) ** 2, 4) - Fraction((dl - 2) ** 2, 4) + 1
    c3 = Fraction((Dlm1 - 1) * (Dlm1 - 3), 2) + Fraction((dl - 1) * (dl - 3), 2) - 1
    rhs2 = 8 * Z * Hsum - 8 * Acomm(Z, Hl) + 8 * (-Zprev + Tl + c2) * Hsum - 16 * Hl
    rhs3 = -(8 * Hsum * Hl) + 8 * Hl * Hl - 16 * w2 * Z - 8 * w2 * (-2 * Zprev + -2 * Tl + c3)
    return rhs2, rhs3


def oscillator_quadratic_relations(spec: ModelSpec, l: int):
    """The three relations of the block quadratic algebra at level l."""
    part = spec.partition
    if not 2 <= l <= part.N:
        raise InapplicableRelationError(f"level l={l} needs 2 <= l <= N={part.N}")
    Zl, Hl = op("Z", l), op("H", l)
    Yl = Comm(Zl, Hl)
    w2 = ParamRef(spec.omega2) if isinstance(spec.omega2, str) else num(spec.omega2)
    rhs2, rhs3 = _block_rhs(_zshift(spec, l), op("Hsum", l), Hl, op("Z", l - 1), op("T", l), w2,
                            part.offsets[l - 1], part.block_sizes[l - 1])
    tag = f"osc-alg-l{l}"
    return [
        Relation(f"{tag}-def", Comm(Zl, Hl) - Yl, note="defining relation for Y_l"),
        Relation(f"{tag}-ZY", Comm(Zl, Yl) - rhs2),
        Relation(f"{tag}-HY", Comm(Hl, Yl) - rhs3),
    ]


def _commutators(tag: str, pairs) -> list:
    """The relation [a, b] = 0, named ``tag-[a,b]``, of each pair of integral names."""
    return [Relation(f"{tag}-[{a},{b}]", Comm(OpRef(a), OpRef(b))) for a, b in pairs]


def oscillator_commutativity_relations(env: OperatorEnv):
    H, G, Z = (_integrals(env.spec, kind) for kind in ("H", "G", "Z"))
    T = [IntegralName("T", h.i) for h in H]  # one T per block, as for H
    pairs = [(g, t) for g in G for t in T]
    pairs += [(t, h) for t in T for h in H]
    pairs += [(h, g) for h in H for g in G]
    pairs += [(a, b) for k, a in enumerate(G) for b in G[k + 1:]]
    pairs += [(a, b) for k, a in enumerate(Z) for b in Z[k + 1:]]
    pairs += [(z, h) for z in Z for h in H if h.i > z.i]
    for z in Z:
        pairs += [(z, IntegralName("Hsum", z.i))] + [(z, g) for g in G]
    pairs += [(IntegralName("Hfull"), z) for z in Z]
    return _commutators("osc-comm", pairs)


def _algebra_relations(env: OperatorEnv) -> list:
    spec = env.spec
    return [r for z in _integrals(spec, "Z") for r in oscillator_quadratic_relations(spec, z.i)]


# -- catalog: gauge reduction ---------------------------------------------------------


def gauge_relations(spec: ModelSpec, l: int) -> list:
    """The seed algebra over the planar model, whose two radii stand for those
    of blocks 1..l-1 and of block l: with the central elements Z_{l-1} and T_l
    written as zc = c1 - g1 and tc = c2 - g2, it reproduces the printed block
    algebra coefficients identically."""
    part = spec.partition
    if not 2 <= l <= part.N:
        raise InapplicableRelationError(f"gauge level l={l} out of range")
    Dlm1 = part.offsets[l - 1]
    dl = part.block_sizes[l - 1]
    g1, g2, w2 = ParamRef("g1"), ParamRef("g2"), ParamRef("w2")
    zc = num(Fraction((Dlm1 - 1) * (Dlm1 - 3), 4)) - g1
    tc = num(Fraction((dl - 1) * (dl - 3), 4)) - g2
    tag = f"gauge-l{l}"
    seed2, seed3 = _seed_rhs(g1, g2, w2)
    # Z_l - (D_l-2)^2/4 -> Z, Hsum[l] -> H, H_l -> H2
    block2, block3 = _block_rhs(_Z, _H, _H2, zc, tc, w2, Dlm1, dl)
    return [
        Relation(f"{tag}-seed-2", Comm(_Z, _Y) - seed2),
        Relation(f"{tag}-seed-3", Comm(_H2, _Y) - seed3),
        Relation(f"{tag}-match-2", Sum((seed2, -block2)),
                 note="seed RHS equals block-algebra RHS term by term"),
        Relation(f"{tag}-match-3", Sum((seed3, -block3)),
                 note="seed RHS equals block-algebra RHS term by term"),
    ]


def catalog_gauge(spec: ModelSpec) -> RelationSet:
    """The gauge relations of every level l = 2..N, in one planar environment."""
    rels = [r for z in _integrals(spec, "Z") for r in gauge_relations(spec, z.i)]
    return RelationSet(over(OperatorEnv(PLANAR), rels))


# -- catalog: coulomb family ------------------------------------------------------------


def _tshift(spec: ModelSpec, p: int):
    """-T_p + (d_p-1)(d_p-3)/4, the central combination of block p."""
    dp = spec.partition.block_sizes[p - 1]
    return -op("T", p) + Fraction((dp - 1) * (dp - 3), 4)


def _xw_display(spec: ModelSpec, j: int, sigma):
    """[X_j, W] minus its printed right-hand side, W = [Y_1, X_j], with the
    tree ``sigma`` in the slot of the conjugated S[D-1]."""
    part = spec.partition
    N, D = part.N, part.D
    X, Y1, H = op("X", j), op("Y", 1), op("Hcoul")
    eta = ParamRef(spec.eta) if isinstance(spec.eta, str) else num(spec.eta)
    return Comm(X, Comm(Y1, X)) - (2 * X * X - 8 * (sigma - ConstRef("U", D - 1)) * H
                                   + 16 * (Y1 - ConstRef("M", 1)) * H
                                   - 2 * (N + part.block_sizes[-1] - 2) ** 2 * H - 2 * eta * eta)


def coulomb_yx_relations(spec: ModelSpec, j: int):
    """The X/W triple at X[j]; j = D is the un-conjugated display, and at j < D
    each relation is the x_j <-> x_D image of its j = D one."""
    D = spec.partition.D
    X, Y1 = op("X", j), op("Y", 1)
    W = Comm(Y1, X)
    tag = f"coul-yx-j{j}"
    leaves = tuple((IntegralName(k, D), IntegralName(k, j)) for k in ("X", "sigmaS"))
    leaves += ((Y1.name,) * 2, (IntegralName("Hcoul"),) * 2)

    def image(k):
        return Image(f"coul-yx-j{D}-{k}", (j - 1, D - 1), leaves) if j < D else None

    return [
        Relation(f"{tag}-1-def", Comm(Y1, X) - W, note="defining relation for W",
                 image=image("1-def")),
        Relation(f"{tag}-2", Comm(Y1, W) - (-(2 * Acomm(Y1, X)) + (D - 1) * (D - 3) * X),
                 image=image(2)),
        Relation(f"{tag}-3", _xw_display(spec, j, op("sigmaS", j)), image=image(3)),
    ]


def _dilation_form(spec: ModelSpec, ctx, idx, E: DiffOp) -> DiffOp:
    """The second printed form of the Casimir over the coordinates idx, with
    the Euler operator E: r^2 Laplacian - E^2 - (|idx| - 2) E, minus
    r^2 f_b / r_b^2 for each potential block b, all over idx."""
    r2 = ctx.r2(idx)
    out = DiffOp.from_poly(ctx, r2).mul(ctx.laplacian(idx))
    out = out.sub(E.mul(E)).sub(E.scale(len(idx) - 2))
    terms = tuple(potential_term(ctx, spec, b, r2) for b in range(spec.potential_blocks))
    return out.sub(RawOperator(DiffOp.zero(ctx), terms).symbolic(spec))


def correction_closed_form(spec: ModelSpec, env: OperatorEnv, j: int, literal: bool) -> DiffOp:
    """The dilation form display of sigma_jD S[D-1] sigma_jD^{-1}.

    The printed display carries a bare d_j inside the dilation bracket, so
    its Euler operator is E - d_j; ``literal=False`` uses the dimensionally
    consistent reading x_j d_j, the Euler operator of every coordinate but x_j.
    """
    D = spec.partition.D
    ctx = env.ctx
    idx = [a for a in range(D) if a != j - 1]
    E = (euler_operator(ctx, range(D)).sub(DiffOp.partial(ctx, j - 1)) if literal
         else euler_operator(ctx, idx))
    return _dilation_form(spec, ctx, idx, E)


def _yx_catalog(env: OperatorEnv) -> list:
    """The X/W triples, the transposition claims and both readings of the
    dilation form of the conjugated S."""
    spec, part = env.spec, env.spec.partition
    if part.N < 2:
        raise InapplicableRelationError("yx catalog needs N >= 2")
    if part.D < 3:
        raise InapplicableRelationError(
            f"yx catalog needs D >= 3 for S[D-1]; the model has D = {part.D}")
    if not spec.is_symbolic():
        raise InapplicableRelationError("symbolic yx catalog needs zero/constant potentials")
    xs = [x.i for x in _integrals(spec, "X")]  # the last block's coordinates, up to D
    D = xs[-1]
    rels = coulomb_yx_relations(spec, D)
    for j in xs[:-1]:
        rels.extend(coulomb_yx_relations(spec, j))
        # sigma covariance claims
        rels.append(_sigma_claim(env, f"coul-sigma-X[{j}]", IntegralName("X", D), j, op("X", j),
                                 "transposition maps X[D] to X[j]"))
    rels.append(_sigma_claim(env, "coul-sigma-Y1", IntegralName("Y", 1), xs[0], op("Y", 1),
                             "transposition fixes Y[1]"))
    rels.append(_sigma_claim(env, "coul-sigma-H", IntegralName("Hcoul"), xs[0], op("Hcoul"),
                             "transposition fixes the Hamiltonian"))
    # closed dilation form of the conjugated S, printed and emended readings
    for j in xs:
        printed = correction_closed_form(spec, env, j, literal=True)
        emended = correction_closed_form(spec, env, j, literal=False)
        sS = env.operator(IntegralName("sigmaS", j))
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


def _sigma_claim(env: OperatorEnv, label: str, name: IntegralName, j: int, image, note: str):
    """The claim that the x_j <-> x_D transposition maps the integral ``name`` to
    ``image``: the swap the transport checks, of the symbolic integral."""
    conjugated = env.operator(name).swap_coordinates(j - 1, env.spec.partition.D - 1)
    return Relation(label, Fixed(conjugated) - image, note=note)


def _erratum_relations(env: OperatorEnv) -> list:
    """The third X/W display with Z[N-1], as the corrected erratum reads it,
    in place of the conjugated S[D-1]; refused on a last block of one
    coordinate, where Z[N-1] is S[D-1] and the display holds."""
    part = env.spec.partition
    if part.block_sizes[-1] < 2:
        raise InapplicableRelationError(
            "the erratum control needs a last block of two or more coordinates: "
            "on one, Z[N-1] is S[D-1] and the display holds")
    j = part.D - 1
    note = "substituting Z[N-1] for the conjugated S[D-1] (the corrected erratum) must fail"
    return [Relation(f"coul-yx-j{j}-erratum-wrong-3", _xw_display(env.spec, j, op("Z", part.N - 1)),
                     expectation="nonzero", note=note)]


def _central_diagnoser(atom_trees: dict):
    """Diagnoser expressing a residual over products of central elements; the
    products are built once per env and shared by every reading over it."""
    bases: dict = {}  # OperatorEnv -> {product name: DiffOp}

    def diagnose(residual: DiffOp, env: OperatorEnv) -> str:
        basis = bases.get(env)
        if basis is None:
            atoms = {k: eval_node(t, env) for k, t in atom_trees.items()}
            names = list(atoms)
            basis = {}
            for i, a in enumerate(names):
                for b in names[i:]:  # "1" is the last atom, so it pairs only with itself
                    if a == "1":
                        basis["1"] = atoms["1"]
                    else:
                        basis[f"{a}*{b}"] = atoms[a].mul(atoms[b])
            bases[env] = basis
        sol = decompose_residual(residual, basis)
        if sol is None:
            return "residual not spanned by central-element products"
        body = " + ".join(f"({v})*{k}" for k, v in sol.items())
        return f"residual = {body} over shifted central elements"

    return diagnose


def _readings(group: str, lhs, readings, diagnose) -> list:
    """The record relations lhs - rhs of one reading group, one for each
    (name suffix, rhs, note) of ``readings``."""
    return [Relation(group + suffix, lhs - rhs, expectation="record", group=group,
                     note=note, diagnose=diagnose) for suffix, rhs, note in readings]


def coulomb_zy_relations(spec: ModelSpec, p: int):
    """Double-commutator relations for Z_p / Y_p; printed + emended readings."""
    part = spec.partition
    N = part.N
    dN = part.block_sizes[-1]
    if not 2 <= p <= N - 1:
        raise InapplicableRelationError(f"zy relations need 2 <= p <= N-1, got p={p}")
    Zp = op("Z", p) - ConstRef("N", p)
    Zpm1 = op("Z", p - 1) - ConstRef("N", p - 1)
    Yp = op("Y", p) - ConstRef("M", p)
    Yp1 = op("Y", p + 1) - ConstRef("M", p + 1)
    Y1 = op("Y", 1) - ConstRef("M", 1)
    Ts = _tshift(spec, p)
    inner = Comm(op("Z", p), op("Y", p))
    diagnose = _central_diagnoser(
        {"Zp": Zp, "Yp": Yp, "Y1": Y1, "Zm": Zpm1, "Yn": Yp1, "Ts": Ts, "1": num(1)}
    )
    big_bracket = num((p - 2) * (N + dN - 1) - p * p + p + 4)
    n = N + dN - p  # the display's N + d_N - p
    rhs1 = (-(8 * Zp * Zp) - 8 * Acomm(Zp, Yp) - 4 * (big_bracket + 2 * Ts) * Zp
            + 4 * n * (n - 4) * Yp + 8 * Sum((Y1, Zpm1)) * Zp - 4 * (num(n - 4) + 2 * Ts) * Y1
            - 4 * (num((n - 1) * (n - 4)) - 2 * Ts) * Zpm1 + 4 * n * (N + dN - 5) * Ts
            + 4 * (p - 1) * n * Yp1 - 8 * Y1 * Yp1 + 8 * Zp * Yp1 + 8 * Zpm1 * Yp1)
    rels = _readings(f"coul-zy-p{p}-ZZY", Comm(op("Z", p), inner),
                     [("", rhs1, "printed display")], diagnose)

    def rhs2(second_line_target):
        return (8 * Yp * Yp + 8 * Acomm(Zp, Yp) - 4 * p * (p - 4) * Zp
                + 4 * (big_bracket + 2 * Ts) * second_line_target - 8 * Zpm1 * Yp - 8 * Y1 * Yp
                + 4 * (num(p - 4) + 2 * Ts) * Y1 + 8 * Zpm1 * Y1 - 4 * p * (n - 1) * Zpm1
                - 4 * p * (N + dN - 5) * Ts + 4 * (num((p - 4) * (p - 1)) - 2 * Ts) * Yp1
                - 8 * Zpm1 * Yp1 - 8 * Yp1 * Yp)

    return rels + _readings(f"coul-zy-p{p}-YZY", Comm(op("Y", p), inner), [
        ("-printed", rhs2(op("Y", 1) - ConstRef("M", p)),
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
    Sp = op("S", p) - ConstRef("U", p)
    Spm1 = op("S", p - 1) - ConstRef("U", p - 1)
    Jp = op("J", p)
    Jp1 = op("J", p + 1)
    Y1 = op("Y", 1) - ConstRef("M", 1)
    inner = Comm(op("S", p), op("J", p))
    bracket = num((q - 3) * (N + dN - 1) - (q - 1) ** 2 + q + 3)
    diagnose = _central_diagnoser(
        {"Sp": Sp, "Jp": Jp, "Y1": Y1, "Sm": Spm1, "Jn": Jp1, "1": num(1)}
    )
    m = D - p  # the display's D - p

    def rhs1(y_target, z_term):
        return (-(8 * Sp * Sp) - 8 * Acomm(Sp, Jp) - 4 * bracket * Sp + 4 * (m + 1) * (m - 3) * Jp
                + 8 * Sum((Y1, Spm1)) * Sp - 4 * (m - 3) * Y1 - 4 * m * (m - 3) * Spm1
                + 4 * (q - 2) * (m + 1) * Jp1 - 8 * Y1 * Jp1 + 8 * Sp * y_target + 8 * z_term * Jp1)

    rels = _readings(f"coul-sj-p{p}-SSJ", Comm(op("S", p), inner), [
        ("-printed", rhs1(op("Y", p + 1), op("Z", p - 1) - ConstRef("N", p - 1)),
         "printed display mixes Y[p+1] and Z[p-1] into the coordinate chain"),
        ("-emended", rhs1(Jp1, Spm1),
         "coordinate-chain reading: J[p+1] for Y[p+1], S[p-1]-U[p-1] for Z[p-1]-N[p-1]"),
    ], diagnose)

    def rhs2(target):
        return (8 * Jp * Jp + 8 * Acomm(Sp, Jp) - 4 * (q - 1) * (q - 5) * Sp + 4 * bracket * target
                - 8 * Spm1 * Jp - 8 * Y1 * Jp + 4 * (q - 5) * Y1 + 8 * Spm1 * Y1
                - 4 * (q - 1) * m * Spm1 + 4 * (q - 5) * (q - 2) * Jp1
                - 8 * Spm1 * Jp1 - 8 * Jp1 * Jp)

    return rels + _readings(f"coul-sj-p{p}-JSJ", Comm(Jp, inner), [
        ("-printed", rhs2(op("Y", p) - ConstRef("M", p)), "printed display carries (Y_p - M_p)"),
        ("-emended", rhs2(Jp), "reading with J_p in place of (Y_p - M_p)"),
    ], diagnose)


def coulomb_commutativity_relations(env: OperatorEnv):
    Z, S, Y, J = (_integrals(env.spec, kind) for kind in ("Z", "S", "Y", "J"))
    pairs = [(a, b) for k, a in enumerate(Z) for b in Z[k + 1:]]
    pairs += [(s, z) for s in S for z in Z]
    pairs += [(a, b) for k, a in enumerate(Y) for b in Y[k + 1:]]
    pairs += [(j, y) for j in J for y in Y]
    pairs += [(IntegralName("Y", 1), z) for z in Z]
    pairs += [(IntegralName("Hcoul"), name) for name in enumerate_integrals(env.spec)]
    return _commutators("coul-comm", pairs)


def _zy_relations(env: OperatorEnv) -> list:
    return [r for z in _integrals(env.spec, "Z") for r in coulomb_zy_relations(env.spec, z.i)]


def _sj_relations(env: OperatorEnv) -> list:
    return [r for s in _integrals(env.spec, "S") for r in coulomb_sj_relations(env.spec, s.i)]


def _control(rel: Relation, delta, note: str) -> Relation:
    """The negative control ``rel-negative``: ``rel`` perturbed by the tree
    ``delta``, so that it must not reduce to zero."""
    return Relation(f"{rel.name}-negative", Sum((rel.expr, delta)), expectation="nonzero", note=note)


def catalog_negative_controls(spec: ModelSpec | None = None) -> RelationSet:
    """Controls that must be flagged nonzero: the seed algebra's [H2, Y]
    display plus 1, and the block algebra's [Z_2, Y_2] display with its
    leading 8 perturbed to 7, which adds (Z_2 - (D_2-2)^2/4) Hsum[2]."""
    if spec is None:
        spec = oscillator_spec([2, 2])
    _, _, (prop3, prop_env), _ = catalog_proposition_A().pairs
    _, zy, _ = oscillator_quadratic_relations(spec, 2)
    return RelationSet((
        (_control(prop3, num(1), "constant +1 injected; must not reduce to zero"), prop_env),
        (_control(zy, _zshift(spec, 2) * op("Hsum", 2), "coefficient 8 perturbed to 7"),
         OperatorEnv(spec)),
    ))


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
    env = OperatorEnv(spec)
    return RelationSet(over(env, [rel for make in build for rel in make(env)]))


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
            return Sum(tuple(-t if isinstance(op_, ast.Sub) else t for op_, t in terms))
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
            return -convert(node.operand, depth)
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
    return Sum((convert(top.left, 0), -convert(top.comparators[0], 0)))


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
