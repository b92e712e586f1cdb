"""Reference implementations the tests check blocksep against.

Each oracle is written apart from the code it checks and uses only the
public ring, operator, model, relation-tree, stencil-weight and grid
eigensolver API (``substitute_params`` also reads the context's parameter
slots), so a fault in the Leibniz product, the relation evaluator, the
stencil pass, the Cartesian potential evaluator, the closed-form spectra or
the report writer does not also hide in its oracle.  None of this runs in
production.
"""

import itertools
import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np

from blocksep.models import Hierarchy, Model2F11, Zero
from blocksep.numerics import central_weights, eigensolve_periodic, eigensolve_weighted_polar
from blocksep.opalg import DiffOp
from blocksep.relations import (Acomm, Comm, ConstRef, Fixed, OpRef, ParamRef, Prod, Scalar,
                                Sum)
from blocksep.ring import Coefficient, Poly, den_product, pack, unpack


def coefficient_mul(a: Coefficient, b: Coefficient) -> Coefficient:
    """The normal form of the product of two coefficients."""
    a.ctx.check_same(b.ctx)
    if a.is_zero() or b.is_zero():
        return Coefficient(a.ctx, a.ctx.zero_poly(), ())
    return Coefficient.make(a.ctx, a.num.mul(b.num), den_product(a.den, b.den))


def apply_coefficient(op: DiffOp, c: Coefficient) -> Coefficient:
    """Act with ``op`` on ``c`` viewed as a scalar field: sum c_a d^a(c).

    Independent of the Leibniz normal-ordering path, so it is an exact
    oracle for products: nf(a o b) applied to g equals a(b(g)).
    """
    op.ctx.check_same(c.ctx)
    out = Coefficient.const(op.ctx, 0)
    for alpha, ca in op.terms.items():
        cur = c
        for i, e in enumerate(alpha):
            for _ in range(e):
                cur = cur.deriv(i)
        out = out.add(coefficient_mul(ca, cur))
    return out


def termwise_product(a: DiffOp, b: DiffOp):
    """Leibniz product a o b normalized term by term: each term through
    ``coefficient_mul`` and Coefficient scale, each output key accumulated with
    Coefficient.add.  Also says whether some key cancelled to zero along
    the way."""
    out = {}
    cancelled = False
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            for gamma in itertools.product(*(range(k + 1) for k in alpha)):
                dcb = cb
                for i, (k, g) in enumerate(zip(alpha, gamma)):
                    for _ in range(k - g):
                        dcb = dcb.deriv(i)
                binom = 1
                for k, g in zip(alpha, gamma):
                    binom *= math.comb(k, g)
                coef = coefficient_mul(ca, dcb).scale(binom)
                if coef.is_zero():
                    continue
                key = tuple(g + e for g, e in zip(gamma, beta))
                total = out[key].add(coef) if key in out else coef
                if total.is_zero():
                    del out[key]
                    cancelled = True
                else:
                    out[key] = total
    return DiffOp(a.ctx, out), cancelled


def two_product_composition(a: DiffOp, b: DiffOp, sign: int) -> DiffOp:
    """a o b + sign * b o a from two whole term-by-term products, added
    after each is normalized."""
    ab = termwise_product(a, b)[0]
    return ab if sign == 0 else ab.add(termwise_product(b, a)[0].scale(sign))


def eval_termwise(node, env) -> DiffOp:
    """A relation tree folded one node at a time: every factor, product,
    bracket and partial sum brought to normal form before the next step.
    Brackets are two products and an add or subtract, never memoized."""
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
            out = out.add(eval_termwise(t, env))
        return out
    if isinstance(node, Prod):
        out = DiffOp.scalar(ctx, 1)
        for f in node.factors:
            out = out.mul(eval_termwise(f, env))
        return out
    if isinstance(node, (Comm, Acomm)):
        a, b = eval_termwise(node.a, env), eval_termwise(node.b, env)
        return a.mul(b).sub(b.mul(a)) if isinstance(node, Comm) else a.mul(b).add(b.mul(a))
    raise TypeError(f"unknown relation node {node!r}")


def formal_transpose(op: DiffOp) -> DiffOp:
    """sum c_a d^a  ->  sum (-1)^|a| d^a o c_a, normal-ordered."""
    ctx = op.ctx
    out = DiffOp.zero(ctx)
    for alpha, c in op.terms.items():
        piece = DiffOp(ctx, {alpha: Coefficient.const(ctx, 1)}).mul(DiffOp.from_coefficient(ctx, c))
        out = out.add(piece.neg() if sum(alpha) % 2 else piece)
    return out


def substitute_params(x, bindings: dict):
    """Bind parameters of a Coefficient, or of every coefficient of a DiffOp,
    to rational values; an operator term whose coefficient vanishes drops."""
    if isinstance(x, DiffOp):
        terms = {a: substitute_params(c, bindings) for a, c in x.terms.items()}
        return DiffOp(x.ctx, {a: c for a, c in terms.items() if not c.is_zero()})
    ctx, num = x.ctx, x.num
    for name, value in bindings.items():
        ctx.param(name)  # raises UndeclaredParameterError on an undeclared name
        slot = ctx._param_slots[name]
        out = ctx.zero_poly()
        for m, c in num.terms.items():
            exps = unpack(num.n, m)
            rest = pack(exps[:slot] + (0,) + exps[slot + 1:])
            out = out.add(Poly(num.n, {rest: c}).scale(Fraction(value) ** exps[slot]))
        num = out
    return Coefficient.make(ctx, num, x.den)


def planar_seed_operators(ctx) -> tuple:
    """Proposition A's printed H1, H2, H and Z over a context of two coordinates
    with parameters w2, g1 and g2: H_k = -d_k^2 + w2 x_k^2 + g_k / x_k^2,
    H = H1 + H2 and Z = L^2 - (g1/x1^2 + g2/x2^2)(x1^2 + x2^2), with
    L = x1 d_2 - x2 d_1 built from its derivatives."""
    f = [Coefficient.from_poly(ctx, ctx.param(f"g{k + 1}")).div_poly(ctx.x(k, 2)) for k in (0, 1)]
    H1, H2 = (DiffOp.partial(ctx, k, 2).neg()
              .add(DiffOp.from_poly(ctx, ctx.param("w2").mul(ctx.x(k, 2))))
              .add(DiffOp.from_coefficient(ctx, f[k])) for k in (0, 1))
    L = DiffOp.from_poly(ctx, ctx.x(0)).mul(DiffOp.partial(ctx, 1))
    L = L.sub(DiffOp.from_poly(ctx, ctx.x(1)).mul(DiffOp.partial(ctx, 0)))
    r2 = ctx.x(0, 2).add(ctx.x(1, 2))
    Z = L.mul(L).sub(DiffOp.from_coefficient(ctx, f[0].add(f[1]).mul_poly(r2)))
    return H1, H2, H1.add(H2), Z


def reference_row_reduce(rows: list, ncols: int) -> list:
    """Column-order Gauss-Jordan over dense rows, in place, over the first
    ``ncols`` columns; returns the pivot columns in order.  Entries past
    ``ncols`` (a right-hand side) ride along.  This is the elimination loop
    blocksep ran before its sparse ``ring.row_reduce``."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1, rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def stencil_axis_reference(values, axis: int, m: int, h: float, order: int):
    """The m-th central difference of ``values`` along ``axis`` at every point
    with a full stencil, as one multiply-add over a shifted slice per nonzero
    weight, in offset order.  This is the stencil pass blocksep ran before its
    strided contraction."""
    if m == 0:
        return values
    s, w = central_weights(m, order)
    length = values.shape[axis] - 2 * s
    out = tmp = None
    for j, wj in enumerate(w):
        if wj == 0.0:
            continue
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(j, j + length)
        if out is None:
            out = values[tuple(sl)] * wj
            tmp = np.empty_like(out)
        else:
            np.multiply(values[tuple(sl)], wj, out=tmp)
            out += tmp
    out /= h**m
    return out


def _level_value(level, phi) -> float:
    if isinstance(level, Model2F11):
        return level.value_at_s(math.sin(3 * phi))
    return 0.0 if isinstance(level, Zero) else float(level.value)


def eval_angular_potential(pot, angles) -> float:
    """f_i at the block angles phi_1..phi_k by the nested recursion
    f = F_k(phi_k) + f_{k-1} / sin^2(phi_k), with f_1 = F_1(phi_1)."""
    levels = pot.levels if isinstance(pot, Hierarchy) else (pot,)
    value = 0.0
    for level, phi in zip(levels, angles, strict=True):
        value = _level_value(level, phi) + (value / math.sin(phi) ** 2 if value else 0.0)
    return value


def eigensolver_lambda(pot: Hierarchy, d: int, angular) -> float:
    """Angular eigenvalue of a tower by a chain of grid eigensolvers through
    the separated one-angle equations, the reference for the closed-form
    root recursion of ``spectra.tower_roots``."""
    lvl0 = pot.levels[0]
    m = angular[0]
    # above a trigonometric level the tower (the closed form, the assembled psi)
    # counts only the even states of each angle: the k-th is eigenvalue 2k
    stride = 2 if isinstance(lvl0, Model2F11) else 1
    if isinstance(lvl0, Model2F11):
        alpha = float((lvl0.A + 3 * m) ** 2)
    else:
        c = float(lvl0.value)
        vals = eigensolve_periodic(lambda phi: c + 0.0 * phi, n_eigenvalues=2 * m + 2)
        alpha = vals[2 * m] if m else vals[0]
    for j in range(2, d):
        c = float(pot.levels[j - 1].value)
        k = angular[j - 1]
        vals = eigensolve_weighted_polar(
            lambda t, c=c, a=alpha: c + a / np.sin(t) ** 2,
            weight_power=j - 1,
            n_eigenvalues=stride * k + 1,
        )
        alpha = vals[stride * k]
    return alpha


def validate_report(doc: dict):
    """Check a report against the JSON schema shipped in the package data."""
    import jsonschema

    path = resources.files("blocksep").joinpath("schema/verification_report.schema.json")
    jsonschema.validate(doc, json.loads(path.read_text()))
