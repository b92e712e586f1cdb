"""Normal-ordered linear differential operators with exact coefficients.

A DiffOp is a finite map from derivative multi-indices (over the context's
coordinates) to :class:`~blocksep.ring.Coefficient`, representing
sum_alpha c_alpha(x) d^alpha with every coefficient to the left of every
derivative.  Products are normal-ordered through the Leibniz rule; two
operators are equal exactly when their maps coincide, so ``is_zero`` is a
purely syntactic check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .ring import Coefficient, Context, Poly, _deglex, _mono_add, den_product


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

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms  # alpha tuple (len ctx.nx) -> Coefficient, no zeros

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

    def mul(self, other: "DiffOp") -> "DiffOp":
        """Operator composition self then other, i.e. self o other."""
        self.ctx.check_same(other.ctx)
        ctx = self.ctx
        deriv_cache: dict = {}

        def iter_deriv(beta, delta):
            """d^delta applied to other's coefficient at key beta, memoized."""
            key = (beta, delta)
            got = deriv_cache.get(key)
            if got is not None:
                return got
            if sum(delta) == 0:
                got = other.terms[beta]
            else:
                i = next(k for k, v in enumerate(delta) if v)
                prev = iter_deriv(beta, tuple(v - 1 if k == i else v for k, v in enumerate(delta)))
                got = prev.deriv(i)
            deriv_cache[key] = got
            return got

        # output key -> {summed denominator: unnormalized numerator}; each key
        # is normalized once, after every Leibniz term has been collected
        sums: dict = {}
        for alpha, ca in self.terms.items():
            for beta in other.terms:
                for gamma in _submonomials(alpha):
                    delta = tuple(a - g for a, g in zip(alpha, gamma))
                    dcb = iter_deriv(beta, delta)
                    if dcb.is_zero():
                        continue
                    num = ca.num.mul(dcb.num).scale(_multi_binom(alpha, gamma))
                    den = den_product(ca.den, dcb.den)
                    buckets = sums.setdefault(_mono_add(gamma, beta), {})
                    cur = buckets.get(den)
                    buckets[den] = num if cur is None else cur.add(num)
        out = {}
        for key, buckets in sums.items():
            c = Coefficient.sum_over_dens(ctx, buckets.items())
            if not c.is_zero():
                out[key] = c
        return DiffOp(ctx, out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.mul(other).sub(other.mul(self))

    def anticommutator(self, other: "DiffOp") -> "DiffOp":
        return self.mul(other).add(other.mul(self))

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

        def swap_mono(m: tuple) -> tuple:
            lst = list(m)
            lst[i], lst[j] = lst[j], lst[i]
            return tuple(lst)

        out = {}
        for alpha, c in self.terms.items():
            num = Poly(c.num.n, {swap_mono(m): v for m, v in c.num.terms.items()})
            den = {}
            for aid, e in c.den:
                ap = ctx.atom_by_id(aid).poly
                sp = Poly(ap.n, {swap_mono(m): v for m, v in ap.terms.items()})
                scale, factors = ctx.den_factors(sp)
                for aid2, e2 in factors.items():
                    den[aid2] = den.get(aid2, 0) + e * e2
                if scale != 1:
                    num = num.scale(Fraction(1) / scale**e)
            nc = Coefficient.make(ctx, num, den)
            key = swap_mono(alpha)
            if not nc.is_zero():
                out[key] = nc
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
        for alpha in sorted(self.terms, key=_deglex):
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


# -- common geometric operators ------------------------------------------------


def angular_momentum(ctx: Context, a: int, b: int) -> DiffOp:
    """L_ab = x_a d_b - x_b d_a (zero when a == b)."""
    if a == b:
        return DiffOp.zero(ctx)
    xa_db = DiffOp(ctx, {_unit(ctx, b): Coefficient.from_poly(ctx, ctx.x(a))})
    xb_da = DiffOp(ctx, {_unit(ctx, a): Coefficient.from_poly(ctx, ctx.x(b))})
    return xa_db.sub(xb_da)


def _unit(ctx: Context, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(ctx.nx))


def angular_momentum_squared_sum(ctx: Context, indices) -> DiffOp:
    """sum_{a<b in indices} L_ab^2."""
    idx = sorted(indices)
    out = DiffOp.zero(ctx)
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            L = angular_momentum(ctx, idx[p], idx[q])
            out = out.add(L.mul(L))
    return out


def laplacian(ctx: Context, indices) -> DiffOp:
    out = {}
    for i in indices:
        alpha = tuple(2 if k == i else 0 for k in range(ctx.nx))
        out[alpha] = Coefficient.const(ctx, 1)
    return DiffOp(ctx, out)


def euler_operator(ctx: Context, indices) -> DiffOp:
    out = DiffOp.zero(ctx)
    for i in indices:
        out = out.add(DiffOp(ctx, {_unit(ctx, i): Coefficient.from_poly(ctx, ctx.x(i))}))
    return out
