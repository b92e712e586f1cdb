"""Exact coefficient arithmetic for differential operators.

Coefficients live in Q(params)(x_1..x_D)[r], where the one radical
symbol r, when a context has it, is the norm r = |x| with
r^2 = x_1^2 + ... + x_D^2.  A coefficient is stored as a numerator
polynomial over all slots (coordinates, parameters, r) divided by a
product of registered irreducible denominator atoms, each an exact
polynomial in the coordinates alone.  Normal form:

* the exponent of r is 0 or 1 in the numerator (r^2 -> |x|^2),
* no denominator atom divides the numerator,
* denominator atoms are primitive integer polynomials with positive
  leading coefficient, so the representation of a value is unique and
  equality is a syntactic check.

Denominators are never factored: they only ever arise as products of the
atoms the callers divide by (single coordinates and block norms), which
are irreducible over Q, so cancellation by repeated exact division is
complete.

A monomial over n slots is one packed ``int`` (Monagan and Pearce, CASC
2007): n + 1 fields of ``W`` bits, the total degree in the top field, then
slot 0, slot 1 and so on down to the last slot (r, when there is one) in the
lowest.  Integer order is then deglex order ``(sum(m), m)``.  The top bit of
each field is a guard bit that no exponent reaches, so no field carries into
the next: a product's key is the sum of its factors', a quotient's their
difference, and d divides m exactly when ``m - d`` has no guard bit set.
Every exponent is at most the degree, so a product or new monomial whose
degree reaches its guard bit raises ``ExponentOverflowError`` instead of
wrapping; no quotient or remainder outgrows the dividend's degree.

Rational numbers are held as ``int`` when integral and as ``Fraction``
only otherwise, so the inner loops run on machine-backed integers.  Every
entry point (constructors, scaling, division, substitution) brings its
values to that form.  ``int / int`` is a float, so no division between two
plain integers appears here: exact quotients go through :func:`_div` or
``Fraction(a, b)``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import ContextMismatchError, ExponentOverflowError, UndeclaredParameterError

W = 16  # bits per exponent field, its top bit the guard bit
_MASK = (1 << W) - 1


def _exact(c):
    """The exact rational ``c`` as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a / b of two rationals, in the form of :func:`_exact`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(Fraction(a) / b)


def _shift(n: int, slot: int) -> int:
    """The bit offset of ``slot``'s field in an n-slot key."""
    return W * (n - 1 - slot)


def _unit(n: int, slot: int) -> int:
    """The key of the monomial of degree one in ``slot``."""
    return 1 << W * n | 1 << _shift(n, slot)


def _checked(key: int, n: int) -> int:
    """``key``, unless its degree field has reached its guard bit."""
    if key >> W * n + W - 1:
        raise ExponentOverflowError(
            f"a monomial's degree exceeds {(1 << W - 1) - 1}, the exponent limit of the ring")
    return key


def pack(exps) -> int:
    """The key of the monomial with the exponent tuple ``exps``."""
    key = sum(exps)
    for e in exps:
        key = key << W | e
    return _checked(key, len(exps))


def unpack(n: int, key: int) -> tuple:
    """The exponent tuple of an n-slot key."""
    return tuple(key >> _shift(n, slot) & _MASK for slot in range(n))


def den_product(a: tuple, b: tuple) -> tuple:
    """The sorted (atom id, exponent) tuple of the product of two denominators."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for aid, e in b:
        exps[aid] = exps.get(aid, 0) + e
    return tuple(sorted(exps.items()))


def row_reduce(rows) -> dict:
    """The reduced row echelon form of the span of ``rows``, exact and sparse.

    Each row is a dict column -> nonzero rational; the result maps each pivot
    column to its pivot row, which is 1 at its pivot and absent at every
    other pivot, with values in the form of :func:`_exact`.  Rows arrive one
    at a time.  An incoming row is cleared at every held pivot in one pass,
    since a held row is zero at the others.  A nonzero remainder is divided
    by its entry at its lowest column, and that column is cleared from the
    held rows.  The RREF of a row space is unique, so the result does not
    depend on row order and equals column-order Gauss–Jordan.
    """
    held: dict = {}
    for row in rows:
        row = dict(row)
        for c, prow in held.items():
            if c in row:
                _sub_multiple(row, row[c], prow)
        if not row:
            continue
        lead = min(row)
        pv = row[lead]
        row = {k: _div(v, pv) for k, v in row.items()}
        for prow in held.values():
            if lead in prow:
                _sub_multiple(prow, prow[lead], row)
        held[lead] = row
    return held


def _sub_multiple(row: dict, f, prow: dict) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = _exact(w)
        else:
            del row[k]


def _terms_desc(p: "Poly") -> list:
    """Terms of ``p``, deglex-descending, with exponent tuples; a key that orders polynomials."""
    return [(unpack(p.n, m), c) for m, c in sorted(p.terms.items(), reverse=True)]


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    A coefficient is an ``int`` when it is integral and a ``Fraction`` only
    otherwise; no zero coefficient is stored.  Monomials are packed keys over
    ``n`` slots; the surrounding context decides which slots are
    coordinates, parameters, or the norm radical.
    """

    __slots__ = ("n", "terms", "_hash", "_factors")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = terms
        self._hash = None
        self._factors = None  # the unpacked terms, on the first eval_numeric

    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n, {})

    @staticmethod
    def const(n: int, c) -> "Poly":
        c = _exact(c)
        return Poly(n, {} if c == 0 else {0: c})

    @staticmethod
    def var(n: int, slot: int, exp: int = 1) -> "Poly":
        return Poly(n, {_checked(exp * _unit(n, slot), n): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        return self.terms[0]

    def add(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc if type(nc) is int else _exact(nc)
            else:
                out.pop(m, None)
        return Poly(self.n, out)

    def neg(self) -> "Poly":
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def scale(self, c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return Poly.zero(self.n)
        if c == 1:
            return self
        return Poly(self.n, {m: _exact(cc * c) for m, cc in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly.zero(self.n)
        # the largest product key has the largest degree
        _checked(max(self.terms) + max(other.terms), self.n)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        for m, c in out.items():
            if type(c) is not int:
                out[m] = _exact(c)
        return Poly(self.n, out)

    def deriv_slot(self, slot: int) -> "Poly":
        """Formal partial derivative treating every slot as independent."""
        shift, step = _shift(self.n, slot), _unit(self.n, slot)
        # m -> m - e_slot is one-to-one and c * e != 0, so no term collides or cancels
        return Poly(self.n, {m - step: c * e if type(c) is int else _exact(c * e)
                             for m, c in self.terms.items() if (e := m >> shift & _MASK)})

    def select_slot(self, slot: int, exp: int) -> "Poly":
        """Sub-polynomial of terms whose exponent in ``slot`` equals ``exp``."""
        shift = _shift(self.n, slot)
        return Poly(self.n, {m: c for m, c in self.terms.items() if m >> shift & _MASK == exp})

    def max_exp(self, slot: int) -> int:
        shift = _shift(self.n, slot)
        return max((m >> shift & _MASK for m in self.terms), default=0)

    def swap_slots(self, i: int, j: int) -> "Poly":
        """The polynomial with the exponents of slots i and j exchanged."""
        si, sj = _shift(self.n, i), _shift(self.n, j)
        out = {}
        for m, c in self.terms.items():
            d = (m >> si & _MASK) - (m >> sj & _MASK)
            out[m - (d << si) + (d << sj)] = c
        return Poly(self.n, out)

    def leading(self):
        m = max(self.terms)
        return m, self.terms[m]

    def exact_div(self, d: "Poly"):
        """Quotient self/d when the division is exact, else None.

        The quotient's terms are inserted in descending deglex order, so
        ``list(q.terms)`` is the same for every caller and every run.  The
        remainder's monomials sit in a max-heap beside the remainder dict:
        each step pops the leading monomial instead of rescanning, so a
        division costs one heap operation per remainder term, besides the
        ``len(d) - 1`` coefficient updates of each step.  A one-term divisor
        takes a single pass that shifts every exponent.  Division stops with
        None at the first leading monomial that ``d``'s leading monomial
        does not divide, which sets a guard bit of their difference.
        """
        if self.is_zero():
            return self
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dm, dc = d.leading()
        # the guard bit of each of the n + 1 fields
        guard = ((1 << W * (self.n + 1)) - 1) // _MASK << W - 1
        # atoms have unit coefficients: skip dividing by dc == 1, and
        # subtract rc * (c2 / dc) == q * c2 without a product when c2 == dc
        unit = dc == 1
        if len(d.terms) == 1:
            out = {}
            for m, c in self.terms.items():
                qm = m - dm
                if qm & guard:
                    return None
                out[qm] = c if unit else _div(c, dc)
            return Poly(self.n, {m: out[m] for m in sorted(out, reverse=True)})
        rest = [(m2, None if c2 == dc else _div(c2, dc)) for m2, c2 in d.terms.items() if m2 != dm]
        rem = dict(self.terms)
        heap = [-m for m in rem]  # a min-heap of -m pops the deglex-largest m
        heapify(heap)
        out = {}
        while heap:
            rm = -heappop(heap)
            rc = rem.pop(rm, None)
            if rc is None:
                continue  # cancelled after it was pushed
            qm = rm - dm
            if qm & guard:
                return None
            out[qm] = (rc if type(rc) is int else _exact(rc)) if unit else _div(rc, dc)
            for m2, ratio in rest:
                t = rc if ratio is None else rc * ratio
                mm = qm + m2
                old = rem.get(mm)
                if old is None:
                    rem[mm] = -t
                    heappush(heap, -mm)
                else:
                    nc = old - t
                    if nc:
                        rem[mm] = nc
                    else:
                        del rem[mm]
        return Poly(self.n, out)

    def eval_numeric(self, values):
        """Evaluate at numeric slot values (scalars or numpy arrays); unpacks once."""
        if self._factors is None:
            self._factors = [(float(c), [(s, e) for s, e in enumerate(unpack(self.n, m)) if e])
                             for m, c in self.terms.items()]
        total = 0.0
        for term, factors in self._factors:
            for slot, e in factors:
                term = term * values[slot] ** e
            total = total + term
        return total

    def normalized_integer(self) -> "Poly":
        """Scale to primitive integer coefficients, positive leading coeff."""
        if self.is_zero():
            return self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
        _, lead = self.leading()
        if lead < 0:
            num_gcd = -num_gcd
        # each numerator times den_lcm / its denominator is a multiple of num_gcd
        return Poly(self.n, {m: c.numerator * (den_lcm // c.denominator) // num_gcd
                             for m, c in self.terms.items()})

    def key(self):
        if self._hash is None:
            self._hash = frozenset(self.terms.items())
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Poly({len(self.terms)} terms)"


class Atom:
    """Registered irreducible denominator polynomial."""

    __slots__ = ("aid", "poly", "derivs", "_powers")

    def __init__(self, aid: int, poly: Poly, nx: int):
        self.aid = aid
        self.poly = poly
        self.derivs = tuple(poly.deriv_slot(i) for i in range(nx))
        self._powers = [Poly.const(poly.n, 1), poly]

    def pow(self, e: int) -> Poly:
        while len(self._powers) <= e:
            self._powers.append(self._powers[-1].mul(self.poly))
        return self._powers[e]


class Context:
    """Slot layout and registries (denominator atoms, coefficient
    derivatives) shared by all operators of a computation.

    Slots are ordered coordinates, then parameters, then (with
    ``norm_radical``) the norm r = |x|, printed ``r``.  Two operators
    interoperate only if they share the same Context object.
    """

    def __init__(self, var_names, param_names=(), norm_radical=False):
        self.var_names = tuple(var_names)
        self.param_names = tuple(param_names)
        self.nx = len(self.var_names)
        self.np = len(self.param_names)
        self.nvars = self.nx + self.np + bool(norm_radical)
        # the slot of r and the memoized powers (r^2)^e, or None without r
        self.norm_slot = self.nvars - 1 if norm_radical else None
        self._norm_powers = ([self.const_poly(1), self.sum_of_squares(range(self.nx))]
                             if norm_radical else None)
        self._atoms: dict = {}
        self._atom_list: list = []
        self._derivs: dict = {}  # (Coefficient, slot) -> its derivative, see Coefficient.deriv
        self._param_slots = {p: self.nx + i for i, p in enumerate(self.param_names)}

    # -- polynomial constructors ------------------------------------------

    def zero_poly(self) -> Poly:
        return Poly.zero(self.nvars)

    def const_poly(self, c) -> Poly:
        return Poly.const(self.nvars, c)

    def x(self, i: int, exp: int = 1) -> Poly:
        if not 0 <= i < self.nx:
            raise IndexError(f"coordinate index {i} out of range")
        return Poly.var(self.nvars, i, exp)

    def param(self, name: str) -> Poly:
        try:
            slot = self._param_slots[name]
        except KeyError:
            raise UndeclaredParameterError(f"parameter {name!r} not declared") from None
        return Poly.var(self.nvars, slot)

    def radical_poly(self) -> Poly:
        """The norm radical r."""
        if self.norm_slot is None:
            raise ValueError("context has no norm radical")
        return Poly.var(self.nvars, self.norm_slot)

    def norm_square(self, e: int = 1) -> Poly:
        """(r^2)^e = (x_1^2 + ... + x_D^2)^e."""
        powers = self._norm_powers
        while len(powers) <= e:
            powers.append(powers[-1].mul(powers[1]))
        return powers[e]

    def sum_of_squares(self, indices) -> Poly:
        return Poly(self.nvars, {2 * _unit(self.nvars, i): 1 for i in indices})

    # -- denominator atoms --------------------------------------------------

    def atom_and_scale(self, poly: Poly):
        """Canonicalize ``poly`` = scale * atom with atom primitive-integer."""
        if poly.is_zero():
            raise ZeroDivisionError("zero denominator")
        for slot in range(self.nx, self.nvars):
            if poly.max_exp(slot):
                raise ValueError("denominator atoms must be coordinate polynomials")
        norm = poly.normalized_integer()
        # scale * norm == poly
        m, c = norm.leading()
        scale = _div(poly.terms[m], c)
        key = norm.key()
        a = self._atoms.get(key)
        if a is None:
            a = Atom(len(self._atom_list), norm, self.nx)
            self._atoms[key] = a
            self._atom_list.append(a)
        return a, scale

    def atom_by_id(self, aid: int) -> Atom:
        return self._atom_list[aid]

    def den_factors(self, poly: Poly):
        """Decompose a divisor into (scalar, {atom id: exponent}).

        Monomials split into single-variable atoms; anything else must be a
        scalar multiple of one irreducible atom (the callers only ever divide
        by coordinates and block norms, which are irreducible over Q).
        """
        if poly.is_zero():
            raise ZeroDivisionError("zero denominator")
        if poly.is_const():
            return poly.const_value(), {}
        if len(poly.terms) == 1:
            mono, c = poly.leading()
            factors: dict = {}
            for slot, e in enumerate(unpack(self.nvars, mono)):
                if not e:
                    continue
                if slot >= self.nx:
                    raise ValueError("denominator atoms must be coordinate polynomials")
                a, _ = self.atom_and_scale(Poly.var(self.nvars, slot))
                factors[a.aid] = factors.get(a.aid, 0) + e
            return c, factors
        a, scale = self.atom_and_scale(poly)
        return scale, {a.aid: 1}

    def den_cofactor(self, den, target: dict):
        """prod atom^(target[aid] - exp in den), which brings ``den`` to
        ``target``; None when that product is 1."""
        own = dict(den)
        out = None
        for aid, e in target.items():
            diff = e - own.get(aid, 0)
            if diff:
                p = self.atom_by_id(aid).pow(diff)
                out = p if out is None else out.mul(p)
        return out

    # -- normalization helpers ----------------------------------------------

    def reduce_radicals(self, p: Poly) -> Poly:
        """Rewrite r^e with e >= 2 using r^2 = |x|^2."""
        s = self.norm_slot
        if s is None or p.max_exp(s) < 2:
            return p
        total = Poly.zero(self.nvars)
        step = _unit(self.nvars, s)
        for m, c in p.terms.items():
            e = m & _MASK  # r is the last slot
            base = Poly(self.nvars, {m - (e - e % 2) * step: c})
            total = total.add(base.mul(self.norm_square(e // 2)) if e >= 2 else base)
        # |x|^2 has no r, so one pass suffices
        return total

    def check_same(self, other: "Context"):
        if self is not other:
            raise ContextMismatchError("operands built over different contexts")

    # -- display --------------------------------------------------------------

    def slot_name(self, slot: int) -> str:
        if slot < self.nx:
            return self.var_names[slot]
        if slot < self.nx + self.np:
            return self.param_names[slot - self.nx]
        return "r"

    def poly_text(self, p: Poly) -> str:
        if p.is_zero():
            return "0"
        bits = []
        for m in sorted(p.terms, reverse=True):
            c = p.terms[m]
            factors = []
            for slot, e in enumerate(unpack(p.n, m)):
                if e == 1:
                    factors.append(self.slot_name(slot))
                elif e > 1:
                    factors.append(f"{self.slot_name(slot)}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}"
            bits.append(piece)
        text = " + ".join(bits)
        return text.replace("+ -", "- ")


class Coefficient:
    """Normal-form rational coefficient num / prod(atom_i^e_i)."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: Context, num: Poly, den: tuple):
        self.ctx = ctx
        self.num = num
        self.den = den  # sorted tuple of (atom_id, exp)

    @staticmethod
    def make(ctx: Context, num: Poly, den=()) -> "Coefficient":
        num = ctx.reduce_radicals(num)
        if num.is_zero():
            return Coefficient(ctx, num, ())
        exps: dict = {}
        for aid, e in dict(den).items():
            if e:
                exps[aid] = exps.get(aid, 0) + e
        out = []
        for aid in sorted(exps):
            e = exps[aid]
            apoly = ctx.atom_by_id(aid).poly
            while e > 0:
                q = num.exact_div(apoly)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                out.append((aid, e))
        return Coefficient(ctx, num, tuple(out))

    @staticmethod
    def from_poly(ctx: Context, p: Poly) -> "Coefficient":
        return Coefficient.make(ctx, p)

    @staticmethod
    def const(ctx: Context, c) -> "Coefficient":
        return Coefficient(ctx, ctx.const_poly(c), ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def sum_over_dens(ctx: Context, parts) -> "Coefficient":
        """Normal form of the sum of num / prod(atom^e) over a collection of
        (den, num) pairs.

        Each numerator is brought to the least common denominator and the
        sum is normalized once.
        """
        target: dict = {}
        for den, _ in parts:
            for aid, e in den:
                if e > target.get(aid, 0):
                    target[aid] = e
        total = None
        for den, num in parts:
            cofactor = ctx.den_cofactor(den, target)
            if cofactor is not None:
                num = num.mul(cofactor)
            total = num if total is None else total.add(num)
        return Coefficient.make(ctx, total, target)

    def add(self, other: "Coefficient") -> "Coefficient":
        self.ctx.check_same(other.ctx)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return Coefficient.sum_over_dens(self.ctx, ((self.den, self.num), (other.den, other.num)))

    def neg(self) -> "Coefficient":
        return Coefficient(self.ctx, self.num.neg(), self.den)

    def scale(self, c) -> "Coefficient":
        c = _exact(c)
        if c == 0:
            return Coefficient(self.ctx, self.ctx.zero_poly(), ())
        return Coefficient(self.ctx, self.num.scale(c), self.den)

    def mul_poly(self, p: Poly) -> "Coefficient":
        return Coefficient.make(self.ctx, self.num.mul(p), dict(self.den))

    def div_poly(self, p: Poly) -> "Coefficient":
        """Divide by a monomial or by a scalar multiple of a single atom."""
        scale, factors = self.ctx.den_factors(p)
        den = dict(self.den)
        for aid, e in factors.items():
            den[aid] = den.get(aid, 0) + e
        return Coefficient.make(self.ctx, self.num.scale(_div(1, scale)), den)

    def deriv(self, i: int) -> "Coefficient":
        """Derivative with respect to coordinate i, read from the context's
        table, so equal coefficients are differentiated once per context."""
        table = self.ctx._derivs
        d = table.get((self, i))
        if d is None:
            d = table[self, i] = self._deriv(i)
        return d

    def _deriv(self, i: int) -> "Coefficient":
        """Derivative with respect to coordinate i, radical-aware; its parts
        are summed over one denominator and normalized once."""
        ctx = self.ctx
        parts = []
        p1 = self.num.deriv_slot(i)
        if not p1.is_zero():
            parts.append((self.den, p1))
        sub = ctx.zero_poly() if ctx.norm_slot is None else self.num.select_slot(ctx.norm_slot, 1)
        if not sub.is_zero():
            # d r/dx_i = x_i r / |x|^2 keeps r in the numerator; |x|^2 has scale 1
            norm_den = tuple(ctx.den_factors(ctx.norm_square())[1].items())
            parts.append((den_product(self.den, norm_den), sub.mul(ctx.x(i))))
        for aid, e in self.den:
            ad = ctx.atom_by_id(aid).derivs[i]
            if not ad.is_zero():
                parts.append((den_product(self.den, ((aid, 1),)), self.num.mul(ad).scale(-e)))
        if not parts:
            return Coefficient(ctx, ctx.zero_poly(), ())
        return Coefficient.sum_over_dens(ctx, parts)

    def eval_numeric(self, coord_values, param_values: dict):
        """Evaluate at numeric coordinates (scalars or numpy arrays)."""
        ctx = self.ctx
        values = list(coord_values)
        for name in ctx.param_names:
            if name not in param_values:
                raise UndeclaredParameterError(f"no numeric value bound for {name!r}")
            values.append(param_values[name])
        if ctx.norm_slot is not None:
            values.append(sum(v**2 for v in coord_values) ** 0.5)
        num = self.num.eval_numeric(values)
        for aid, e in self.den:
            num = num / ctx.atom_by_id(aid).poly.eval_numeric(values) ** e
        return num

    def __eq__(self, other):
        return (
            isinstance(other, Coefficient)
            and self.ctx is other.ctx
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num.key(), self.den))

    def to_text(self) -> str:
        ctx = self.ctx
        num = ctx.poly_text(self.num)
        if not self.den:
            return num
        # atoms by their polynomials, not by their ids: ids follow registration order,
        # which differs between processes
        den = [(ctx.atom_by_id(aid).poly, e) for aid, e in self.den]
        den.sort(key=lambda pe: _terms_desc(pe[0]), reverse=True)
        bits = []
        for poly, e in den:
            at = ctx.poly_text(poly)
            at = at if len(poly.terms) == 1 else f"({at})"
            bits.append(at if e == 1 else f"{at}^{e}")
        return f"({num}) / [{'*'.join(bits)}]"

    def __repr__(self):
        return f"Coefficient({self.to_text()})"
