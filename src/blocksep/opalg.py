"""Normal-ordered linear differential operators with exact coefficients.

A DiffOp is a finite map from derivative multi-indices (over the context's
coordinates) to :class:`~blocksep.ring.Coefficient`, representing
sum_alpha c_alpha(x) d^alpha with every coefficient to the left of every
derivative.  Products are normal-ordered through the Leibniz rule; two
operators are equal exactly when their maps coincide, so ``is_zero`` is a
purely syntactic check.

Normalization happens once per output key of a product, a bracket or a
relation's ``Sum``: a :class:`LinearCombination` collects the unnormalized
Leibniz numerators of every term, and ``DiffOp.compose`` builds a product,
commutator or anticommutator in one such pass.  The derivatives the Leibniz
rule takes of a right operand's coefficients are kept on that operand
(``DiffOp.jets``), and each coefficient derivative in the context's table.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb

from .ring import Coefficient, Context, Poly, den_product


def _submonomials(alpha: tuple):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head = alpha[0]
    for rest in _submonomials(alpha[1:]):
        for g in range(head + 1):
            yield (g,) + rest


def _multi_binom(alpha: tuple, gamma: tuple) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= comb(a, g)
    return out


class DiffOp:
    """Normal-form differential operator over a shared context."""

    __slots__ = ("ctx", "terms", "jets")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms  # alpha tuple (len ctx.nx) -> Coefficient, no zeros
        self.jets: dict = {}  # (beta, delta) -> d^delta of the coefficient at beta

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "DiffOp":
        return DiffOp(ctx, {})

    @staticmethod
    def from_coefficient(ctx: Context, c: Coefficient) -> "DiffOp":
        if c.is_zero():
            return DiffOp(ctx, {})
        return DiffOp(ctx, {(0,) * ctx.nx: c})

    @staticmethod
    def from_poly(ctx: Context, p: Poly) -> "DiffOp":
        return DiffOp.from_coefficient(ctx, Coefficient.from_poly(ctx, p))

    @staticmethod
    def scalar(ctx: Context, c) -> "DiffOp":
        return DiffOp.from_coefficient(ctx, Coefficient.const(ctx, c))

    @staticmethod
    def partial(ctx: Context, i: int, order: int = 1) -> "DiffOp":
        alpha = tuple(order if k == i else 0 for k in range(ctx.nx))
        return DiffOp(ctx, {alpha: Coefficient.const(ctx, 1)})

    # -- linear structure ------------------------------------------------------

    def add(self, other: "DiffOp") -> "DiffOp":
        self.ctx.check_same(other.ctx)
        out = dict(self.terms)
        for a, c in other.terms.items():
            cur = out.get(a)
            nc = c if cur is None else cur.add(c)
            if nc.is_zero():
                out.pop(a, None)
            else:
                out[a] = nc
        return DiffOp(self.ctx, out)

    def neg(self) -> "DiffOp":
        return DiffOp(self.ctx, {a: c.neg() for a, c in self.terms.items()})

    def sub(self, other: "DiffOp") -> "DiffOp":
        return self.add(other.neg())

    def scale(self, c) -> "DiffOp":
        c = Fraction(c)
        if c == 0:
            return DiffOp(self.ctx, {})
        return DiffOp(self.ctx, {a: cc.scale(c) for a, cc in self.terms.items()})

    # -- composition --------------------------------------------------------

    def compose(self, other: "DiffOp", sign: int = 0) -> "DiffOp":
        """self o other + sign * other o self, each output key normalized once."""
        acc = LinearCombination(self.ctx)
        acc.add_product(self, other, skip_top=sign == -1)
        if sign:
            acc.add_product(other, self, sign, skip_top=sign == -1)
        return acc.result()

    def mul(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other, -1)

    def anticommutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other, 1)

    def jet(self, beta: tuple, delta: tuple) -> Coefficient:
        """d^delta applied to the coefficient at key beta, kept in ``jets``."""
        if not any(delta):
            return self.terms[beta]
        c = self.jets.get((beta, delta))
        if c is None:
            i = next(k for k, v in enumerate(delta) if v)
            lower = delta[:i] + (delta[i] - 1,) + delta[i + 1:]
            c = self.jets[beta, delta] = self.jet(beta, lower).deriv(i)
        return c

    # -- predicates and transforms ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((a, hash(c)) for a, c in self.terms.items()))

    def swap_coordinates(self, i: int, j: int) -> "DiffOp":
        """Conjugate by the transposition x_i <-> x_j (which fixes the norm r)."""
        ctx = self.ctx
        if i == j:
            return self
        out = {}
        for alpha, c in self.terms.items():
            num = c.num.swap_slots(i, j)
            den = {}
            for aid, e in c.den:
                sp = ctx.atom_by_id(aid).poly.swap_slots(i, j)
                scale, factors = ctx.den_factors(sp)
                for aid2, e2 in factors.items():
                    den[aid2] = den.get(aid2, 0) + e * e2
                if scale != 1:
                    num = num.scale(Fraction(1) / scale**e)
            nc = Coefficient.make(ctx, num, den)
            key = list(alpha)
            key[i], key[j] = alpha[j], alpha[i]
            if not nc.is_zero():
                out[tuple(key)] = nc
        return DiffOp(ctx, out)

    # -- display --------------------------------------------------------------

    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def term_count(self) -> int:
        return len(self.terms)

    def to_text(self) -> str:
        """Deterministic plain-text form for golden files and reports."""
        if not self.terms:
            return "0"
        ctx = self.ctx
        lines = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            ds = []
            for i, e in enumerate(alpha):
                if not e:
                    continue
                name = f"d{ctx.var_names[i]}"
                ds.append(name if e == 1 else f"{name}^{e}")
            head = "*".join(ds) if ds else "1"
            lines.append(f"{head} :: {self.terms[alpha].to_text()}")
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.terms)
        return f"DiffOp({n} terms, order {self.order()})"


class LinearCombination:
    """A sum of scaled operators and operator products, kept unnormalized:
    output key -> {summed denominator: numerator}.  ``result`` normalizes each
    output key once, after every term has been added."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sums: dict = {}

    def _put(self, key: tuple, den: tuple, num: Poly):
        buckets = self.sums.setdefault(key, {})
        cur = buckets.get(den)
        buckets[den] = num if cur is None else cur.add(num)

    def add(self, op: "DiffOp", scale=1):
        self.ctx.check_same(op.ctx)
        for key, c in op.terms.items():
            self._put(key, c.den, c.num.scale(scale))

    def add_product(self, a: "DiffOp", b: "DiffOp", scale=1, skip_top: bool = False):
        """Add scale * (a o b) by the Leibniz rule.  ``skip_top`` leaves out the
        gamma = alpha terms a_alpha b_beta d^(alpha+beta), which cancel in a commutator."""
        self.ctx.check_same(a.ctx)
        self.ctx.check_same(b.ctx)
        for alpha, ca in a.terms.items():
            for gamma in _submonomials(alpha):
                if skip_top and gamma == alpha:
                    continue
                delta = tuple(x - g for x, g in zip(alpha, gamma))
                num_a = ca.num.scale(scale * _multi_binom(alpha, gamma))
                for beta in b.terms:
                    dcb = b.jet(beta, delta)
                    if not dcb.is_zero():
                        key = tuple(map(operator.add, gamma, beta))
                        self._put(key, den_product(ca.den, dcb.den), num_a.mul(dcb.num))

    def result(self) -> "DiffOp":
        out = {}
        for key, buckets in self.sums.items():
            c = Coefficient.sum_over_dens(self.ctx, buckets.items())
            if not c.is_zero():
                out[key] = c
        return DiffOp(self.ctx, out)
