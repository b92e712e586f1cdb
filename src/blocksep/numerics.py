"""Numeric application of operators: Taylor jets for verification, stencils
for eigenchecks and as the reference; and the 1D grid eigensolvers.

``verify --mode numeric`` applies each relation tree to the jets
(:mod:`jets`) of seeded probe functions, every sample point of a run at
once.  A probe's jet has the degree of the tree's total order; each operator
leaf applies its terms c d^alpha, with c's jet computed once per degree and
sampling, and truncates its output to the degree its parent still needs,
and the tree's value is the degree-0 coefficient.  Derivatives are exact, so
a relation that holds comes out at rounding level.  The relations of one env
share its sample points, probe jets, coefficient jets and operator
applications through the env's table for their sampling.  Residuals are
normalized by the largest intermediate magnitude to absorb the cancellation
inherent in double commutators of fourth-order products.

``eigencheck`` applies H by central-difference stencils composed axis by
axis on a local tensor grid around each point, and ``eval_tree_on_grid``
applies a relation tree so, as the reference the jets are checked against.
Each stencil's weights are solved exactly from their moment system by
``ring.row_reduce``, the package's one exact linear solver, and rounded once
to float.  Each subtree and each operator term gets only the grid points its
parent's result needs, that result's radius plus the stencil margin it
consumes; stencils and coefficient products act point by point, so the
cropping changes no bit of any result.  A stencil pass is one ``np.vecdot``
of the weights with a window view of each point's samples along the axis; on
longdouble each sum runs in order from the first offset.
The 1D grid eigensolvers import scipy; no command runs them, and the tests
and the benchmark check the closed forms of :mod:`spectra` against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    OracleUnconvergedError,
    SingularPointError,
    UndeclaredParameterError,
)
from .jets import Jet
from .models import ModelSpec, RawOperator, potential_cartesian_evaluator
from .relations import (
    Acomm,
    Comm,
    ConstRef,
    Fixed,
    OperatorEnv,
    OpRef,
    ParamRef,
    Prod,
    Relation,
    Scalar,
    Sum,
)
from .ring import row_reduce


# -- stencil weights -------------------------------------------------------------


@lru_cache(maxsize=None)
def central_weights(m: int, order: int) -> tuple:
    """(half width s, float weights on offsets -s..s) for derivative m.

    Symmetric stencils sized so the truncation order equals ``order``
    exactly: 2s+1-m for odd m, 2s+2-m for even m (parity bonus).  The exact
    weights w_j are the unique solution of the moment system
    sum_j w_j j^k = m! [k = m] for k = 0..2s, a Vandermonde system that
    ``ring.row_reduce`` brings to the identity: w_j is pivot row j's entry in
    the right-hand column."""
    if m == 0:
        return 0, (1.0,)
    s = (order + m - 1) // 2 if m % 2 else (order + m) // 2 - 1
    rhs = 2 * s + 1  # column j holds offset j - s, column rhs the right-hand side
    moments = [{j: (j - s) ** k for j in range(rhs) if j != s or k == 0} for k in range(rhs)]
    moments[m][rhs] = math.factorial(m)
    pivots = row_reduce(moments)
    return s, tuple(float(pivots[j].get(rhs, 0)) for j in range(rhs))


@lru_cache(maxsize=None)
def _weight_array(m: int, order: int, dtype) -> np.ndarray:
    """The weights of ``central_weights`` as an array of ``dtype``."""
    return np.array(central_weights(m, order)[1], dtype=dtype)


@dataclass(frozen=True)
class FDScheme:
    order: int = 8
    h: float = 1e-2
    extended: bool = False  # x86 extended precision for deep nested pipelines

    def __post_init__(self):
        if self.order not in (4, 6, 8):
            raise ValueError("stencil order must be 4, 6, or 8")
        if self.h <= 0:
            raise ValueError("step must be positive")

    def half_width(self, m: int) -> int:
        return central_weights(m, self.order)[0]

    @property
    def dtype(self):
        return np.longdouble if self.extended else np.float64


# -- probe functions -------------------------------------------------------------


@dataclass(frozen=True)
class ProbeFunction:
    """Gaussian bump times a seeded low-degree polynomial."""

    center: tuple
    scale: float
    poly: tuple  # ((exponent tuple, coefficient), ...)

    @staticmethod
    def from_seed(dim: int, seed: int, index: int = 0) -> "ProbeFunction":
        rng = np.random.default_rng([seed, index])
        center = tuple(rng.uniform(-0.3, 0.3, size=dim))
        scale = float(rng.uniform(0.8, 1.4))
        terms = []
        terms.append(((0,) * dim, float(rng.uniform(0.5, 1.5))))
        for _ in range(3):
            mono = [0] * dim
            for _ in range(rng.integers(1, 3)):
                mono[rng.integers(0, dim)] += 1
            terms.append((tuple(mono), float(rng.uniform(-1, 1))))
        return ProbeFunction(center, scale, tuple(terms))

    def __call__(self, coords):
        """The probe at coordinate arrays or jets."""
        q = 0.0
        for c, c0 in zip(coords, self.center):
            q = q + (c - c0) ** 2
        poly = 0.0
        for mono, coeff in self.poly:
            t = coeff
            for c, e in zip(coords, mono):
                if e:
                    t = t * c**e
            poly = poly + t
        return poly * np.exp(-q / self.scale**2)


# -- numeric operators -------------------------------------------------------------


@dataclass(frozen=True)
class NumericTerm:
    """c(x) d^alpha; ``key`` names the coefficient's values (the coefficient
    with its term order, which fixes its rounding, and the block of a
    potential attachment)."""

    alpha: tuple
    coef_fn: object  # callable(list of coordinate arrays or jets) -> values
    key: object


@dataclass(frozen=True)
class NumericOperator:
    terms: tuple
    margin: int  # stencil half-width budget per application
    order: int  # the largest total order of a term


def compile_operator(op, spec: ModelSpec | None, params: dict, scheme: FDScheme) -> NumericOperator:
    """DiffOp or RawOperator -> evaluable terms with bound parameter values."""
    if isinstance(op, RawOperator):
        base, attachments = op.base, op.attachments
    else:
        base, attachments = op, ()
    terms = []
    for alpha, coef in base.terms.items():
        def make(coef=coef):
            return lambda coords: coef.eval_numeric(coords, params)

        terms.append(NumericTerm(alpha, make(), (coef, tuple(coef.num.terms))))
    zero_alpha = (0,) * base.ctx.nx
    for att in attachments:
        f_eval = potential_cartesian_evaluator(spec, att.block, params)
        block = list(spec.partition.block_range(att.block))

        def make_att(coef=att.coef, f_eval=f_eval, block=block):
            def fn(coords):
                c = coef.eval_numeric(coords, params)
                return c * f_eval([coords[k] for k in block])

            return fn

        terms.append(NumericTerm(zero_alpha, make_att(),
                                 (att.coef, tuple(att.coef.num.terms), att.block)))
    margin = max((scheme.half_width(m) for t in terms for m in t.alpha), default=0)
    order = max((sum(t.alpha) for t in terms), default=0)
    return NumericOperator(tuple(terms), margin, order)


# -- local grid application ----------------------------------------------------------


def _axis_coords(x0, h, radius, dim, dtype=np.float64):
    """Coordinate meshes for the cube x0 + h*[-radius, radius]^dim."""
    out = []
    for k in range(dim):
        ax = dtype(x0[k]) + dtype(h) * np.arange(-radius, radius + 1, dtype=dtype)
        shape = [1] * dim
        shape[k] = 2 * radius + 1
        out.append(ax.reshape(shape))
    return out


def _stencil_axis(values: np.ndarray, axis: int, m: int, h: float, scheme: FDScheme):
    """The m-th derivative (m >= 1) along ``axis`` at every point with a full stencil."""
    w = _weight_array(m, scheme.order, values.dtype)
    shape = list(values.shape)
    shape[axis] -= len(w) - 1
    windows = np.lib.stride_tricks.as_strided(
        values, (*shape, len(w)), (*values.strides, values.strides[axis]), writeable=False)
    out = np.vecdot(windows, w)
    out /= h**m
    return out


def _crop(values: np.ndarray, radius: int, halves) -> np.ndarray:
    """Central box of a radius-``radius`` grid with the given half width per
    axis; the array itself when nothing is cropped, which ``eval_tree_on_grid``
    then recognises as an input it has already applied an operator to."""
    if all(r == radius for r in halves):
        return values
    return values[tuple(slice(radius - r, radius + r + 1) for r in halves)]


def apply_on_grid(nop: NumericOperator, values: np.ndarray, x0, h: float, radius: int,
                  scheme: FDScheme) -> np.ndarray:
    """Apply an operator to samples on the grid x0 + h*[-radius, radius]^dim.

    The output has radius ``radius - nop.margin``.  Each term differentiates
    only the samples that output needs: the input is cropped, axis by axis,
    to the output radius plus the term's stencil half width on that axis,
    and only its passes with m > 0 run.  The coordinate meshes of the output
    are built once per call, and each term's coefficient array once.
    """
    dim = values.ndim
    r_out = radius - nop.margin
    if r_out < 0:
        raise ValueError("grid too small for requested application")
    coords = _axis_coords(x0, h, r_out, dim, values.dtype.type)
    total = np.zeros((2 * r_out + 1,) * dim, dtype=values.dtype)
    for term in nop.terms:
        arr = _crop(values, radius, [r_out + scheme.half_width(m) for m in term.alpha])
        for axis, m in enumerate(term.alpha):
            if m:
                arr = _stencil_axis(arr, axis, m, h, scheme)
        total += term.coef_fn(coords) * arr
    return total


# -- single-point application -----------------------------------------------------------


def apply_numeric(op, f, x, scheme: FDScheme = FDScheme(), spec: ModelSpec | None = None,
                  params: dict | None = None) -> float:
    """sum_a c_a(x) (d^a f)(x) via central differences at one point; ``op``
    may be compiled once beforehand, with the same ``scheme``."""
    nop = op if isinstance(op, NumericOperator) else compile_operator(op, spec, params or {}, scheme)
    radius = nop.margin
    coords = _axis_coords(x, scheme.h, radius, len(x), scheme.dtype)
    values = f(np.broadcast_arrays(*coords))
    out = apply_on_grid(nop, values, x, scheme.h, radius, scheme)
    return float(out.reshape(-1)[0])


# -- numeric relation evaluation ----------------------------------------------------------


class NumericEnv:
    """Numeric view of a model's OperatorEnv: its integrals compiled at bound
    parameter values, its structural constants as floats, and one
    :class:`Sampling` per (probes, points per probe, seed), the table its
    relations share there.  ``scheme`` serves the stencil reference
    ``eval_tree_on_grid`` alone."""

    def __init__(self, env: OperatorEnv, params: dict, scheme: FDScheme = FDScheme()):
        self.env = env
        self.spec = env.spec
        # parameters left unbound take defaults; ``params`` overrides them by name
        self.params = {"w2": 1.0, "eta": 2.0}
        for name in env.spec.param_names():
            if name.startswith(("beta", "alpha")):
                self.params[name] = float(name[-1]) if name[-1].isdigit() else 1.0
        self.params.update(params)
        unbound = [name for name in env.spec.param_names() if name not in self.params]
        if unbound:  # the couplings g1, g2 of the planar model have no default
            raise UndeclaredParameterError(f"no numeric value bound for {unbound[0]!r}")
        self.scheme = scheme
        self._cache: dict = {}
        self._nodes: dict = {}
        self.samplings: dict = {}

    def operator(self, name) -> NumericOperator:
        key = str(name)
        if key not in self._cache:
            self._cache[key] = compile_operator(self.env.raw(name), self.spec, self.params,
                                                self.scheme)
        return self._cache[key]

    def sampling(self, probes: int, points_per_probe: int, seed: int) -> "Sampling":
        key = (probes, points_per_probe, seed)
        if key not in self.samplings:
            self.samplings[key] = Sampling(self.spec, probes, points_per_probe, seed)
        return self.samplings[key]

    def compiled(self, node) -> tuple:
        """(margin, order, scalar, operator) of a tree node, worked out once per env.

        ``margin`` is the stencil half width the node consumes when applied
        to a field and ``order`` the number of derivatives it takes at most;
        ``scalar`` is the value of a node without operators and None
        otherwise; ``operator`` is the compiled operator of an OpRef or
        Fixed leaf and None otherwise."""
        got = self._nodes.get(id(node))
        if got is None:  # storing the node keeps its id from being reused
            got = self._nodes[id(node)] = (node, *self._compile_node(node))
        return got[1:]

    def _compile_node(self, node) -> tuple:
        if isinstance(node, (OpRef, Fixed)):
            nop = (self.operator(node.name) if isinstance(node, OpRef)
                   else compile_operator(node.diffop, self.spec, self.params, self.scheme))
            return nop.margin, nop.order, None, nop
        if isinstance(node, Scalar):
            return 0, 0, float(node.value), None
        if isinstance(node, ParamRef):
            if node.name not in self.params:
                raise UndeclaredParameterError(f"no numeric value bound for {node.name!r}")
            return 0, 0, float(self.params[node.name]), None
        if isinstance(node, ConstRef):
            return 0, 0, float(self.env.constant(node.kind, node.p)), None
        if isinstance(node, (Comm, Acomm)):
            a, b = self.compiled(node.a), self.compiled(node.b)
            return a[0] + b[0], a[1] + b[1], None, None
        if not isinstance(node, (Sum, Prod)):
            raise TypeError(f"unknown node {node!r}")
        parts = [self.compiled(t) for t in (node.terms if isinstance(node, Sum) else node.factors)]
        if any(scalar is None for _, _, scalar, _ in parts):
            combine = max if isinstance(node, Sum) else sum
            return combine(p[0] for p in parts), combine(p[1] for p in parts), None, None
        if isinstance(node, Sum):
            return 0, 0, sum(scalar for _, _, scalar, _ in parts), None
        value = 1.0
        for _, _, scalar, _ in parts:
            value *= scalar
        return 0, 0, value, None


def eval_tree_on_grid(node, env: NumericEnv, values, x0, radius, magnitudes: list,
                      applied: dict | None = None):
    """Apply the tree (as an operator) to samples of a field on the grid
    x0 + h*[-radius, radius]^dim, with h the step of ``env.scheme``; returns
    the result and its radius, which is ``radius`` minus the node's margin.

    A Sum hands each term only the samples within the Sum's output radius
    plus that term's margin, and ``apply_on_grid`` crops before it
    differentiates, so no subtree computes a point its parent discards.  An
    operator applied again to the same array, as the inner and outer
    commutator of [Z, [Z, H]] both apply Z to the field, is read from
    ``applied``, which one top-level call shares with all its recursive
    calls; results are therefore shared, and no caller writes into one.  The
    center value of every operator leaf and product this call evaluates,
    shared or not, is appended to ``magnitudes``.
    """

    def record(arr):
        center = arr.reshape(-1)[arr.size // 2]
        magnitudes.append(abs(float(center)))
        return arr

    applied = {} if applied is None else applied
    margin, _, scalar, nop = env.compiled(node)
    if nop is not None:
        key = (id(nop), id(values))
        if key not in applied:  # storing the input keeps its id from being reused
            applied[key] = values, apply_on_grid(nop, values, x0, env.scheme.h, radius,
                                                 env.scheme)
        return record(applied[key][1]), radius - margin
    if scalar is not None:
        return values * scalar, radius
    target = radius - margin
    if isinstance(node, Sum):
        total = np.zeros((2 * target + 1,) * values.ndim, dtype=values.dtype)
        for t in node.terms:
            rad = target + env.compiled(t)[0]
            arr, _ = eval_tree_on_grid(t, env, _crop(values, radius, [rad] * values.ndim),
                                       x0, rad, magnitudes, applied)
            total += arr
        return total, target
    if isinstance(node, Prod):
        arr, rad = values, radius
        for f in reversed(node.factors):
            if env.compiled(f)[2] is None:
                arr, rad = eval_tree_on_grid(f, env, arr, x0, rad, magnitudes, applied)
        for f in node.factors:
            factor = env.compiled(f)[2]
            if factor is not None:
                arr = arr * factor
        return record(arr), rad
    sign = -1.0 if isinstance(node, Comm) else 1.0
    ab, rad = eval_tree_on_grid(node.b, env, values, x0, radius, magnitudes, applied)
    ab, _ = eval_tree_on_grid(node.a, env, ab, x0, rad, magnitudes, applied)
    ba, rad = eval_tree_on_grid(node.a, env, values, x0, radius, magnitudes, applied)
    ba, _ = eval_tree_on_grid(node.b, env, ba, x0, rad, magnitudes, applied)
    return ab + sign * ba, target


@dataclass
class ResidualStats:
    max_relative: float
    median_relative: float
    samples: int


def model_point_guards(spec: ModelSpec, margin_extent: float):
    """Admissibility guards keeping grid boxes away from potential singularities.

    Coordinate hyperplanes are handled by the sampler's magnitude bounds; the
    trigonometric potential adds zeros of cos(3 phi) and of the linear
    denominator, guarded at the box center with slack for the angle swing a
    box of the given extent can produce.
    """
    from .models import Hierarchy, Model2F11

    guards = []
    for i, pot in enumerate(spec.potentials):
        if not isinstance(pot, Hierarchy) or not isinstance(pot.levels[0], Model2F11):
            continue
        lvl = pot.levels[0]
        A, B = float(lvl.A), float(lvl.B)
        i0, i1 = spec.partition.offsets[i], spec.partition.offsets[i] + 1

        def guard(x, A=A, B=B, i0=i0, i1=i1):
            y1, y2 = x[i0], x[i1]
            r = math.hypot(y1, y2)
            if r < 1.0:
                return False
            swing = 3.0 * margin_extent * math.sqrt(2.0) / r
            s = y1 / r
            c3 = 1.0 - (3 * s - 4 * s**3) ** 2
            if c3 < (0.35 + swing) ** 2:
                return False
            s3 = 3 * s - 4 * s**3
            return abs(2 * A - 3 - 2 * B * s3) >= 0.1 + 2 * B * swing

        guards.append(guard)
    return guards


_DELTA = 0.05  # the gap every grid box keeps from a coordinate hyperplane


def sample_points(spec: ModelSpec, count: int, rng, margin_extent: float = 0.0, guards=()):
    """Seeded admissible points: every coordinate bounded away from zero by
    _DELTA plus the local grid extent, with random signs; rejection sampling
    keeps the stream deterministic for a fixed generator state.  Magnitudes
    stay below 1.45, so an extent of 1.45 - _DELTA - 0.05 or more is a
    ConfigError."""
    lo = max(0.35, _DELTA + margin_extent + 0.05)
    if lo >= 1.45:
        raise ConfigError(f"a grid of extent {margin_extent:g} needs coordinate magnitudes "
                          f"in [{lo:g}, 1.45), which is empty")
    D = spec.partition.D
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise SingularPointError("admissible-point sampling keeps rejecting")
        mag = rng.uniform(lo, 1.45, size=D)
        sign = rng.choice([-1.0, 1.0], size=D)
        x = tuple(mag * sign)
        if all(g(x) for g in guards):
            points.append(x)
    return points


class Sampling:
    """The seeded sample points of one (probes, points per probe, seed) and
    the jets the relations of one env share there, each made on first use:
    the coordinates' and the probes' jets per degree, each coefficient's jet
    per (term key, degree), and each operator application per (operator,
    input jet, output degree).  Probe i serves points i * points_per_probe
    onwards, as many as ``points_per_probe``."""

    def __init__(self, spec: ModelSpec, probes: int, points_per_probe: int, seed: int):
        D = spec.partition.D
        pts = sample_points(spec, probes * points_per_probe, np.random.default_rng(seed),
                            guards=model_point_guards(spec, 0.0))
        self.points = np.array(pts).T  # one row of values per coordinate
        self.probes = [ProbeFunction.from_seed(D, seed, i) for i in range(probes)]
        self.per_probe = points_per_probe
        self._coords: dict = {}
        self._fields: dict = {}
        self._coefficients: dict = {}
        self.applied: dict = {}

    def coordinates(self, degree: int) -> list:
        if degree not in self._coords:
            D = len(self.points)
            self._coords[degree] = [Jet.variable(v, k, D, degree) for k, v in enumerate(self.points)]
        return self._coords[degree]

    def field(self, degree: int) -> Jet:
        """The probes' jet to ``degree``, each probe at its own points."""
        if degree not in self._fields:
            n, coords = self.per_probe, self.coordinates(degree)
            coef = np.concatenate([
                probe([Jet(c.coef[:, i * n:(i + 1) * n], c.dim, degree) for c in coords]).coef
                for i, probe in enumerate(self.probes)], axis=1)
            self._fields[degree] = Jet(coef, len(coords), degree)
        return self._fields[degree]

    def coefficient(self, term: NumericTerm, degree: int):
        """The jet of a term's coefficient to ``degree``, or its float if constant."""
        key = (term.key, degree)
        if key not in self._coefficients:
            self._coefficients[key] = term.coef_fn(self.coordinates(degree))
        return self._coefficients[key]


def apply_on_jets(nop: NumericOperator, field: Jet, degree: int, sampling: Sampling) -> Jet:
    """sum_a c_a d^a applied to ``field``, whose degree is at least ``degree``
    plus the operator's order, to ``degree``."""
    parts = [sampling.coefficient(t, degree) * field.derive(t.alpha, degree) for t in nop.terms]
    return sum(parts[1:], parts[0]) if parts else 0.0 * field.truncate(degree)


def eval_tree_on_jets(node, env: NumericEnv, sampling: Sampling, field: Jet, degree: int,
                      magnitudes: np.ndarray) -> Jet:
    """Apply the tree (as an operator) to ``field``, whose degree is at least
    ``degree`` plus the node's order, and return the result to ``degree``.

    Each subtree gets its output degree plus the order of the operators
    still to be applied after it.  An operator application is read from the
    sampling's table when the same operator was applied to the same jet, to
    the same degree, before, as the inner and outer commutator of
    [Z, [Z, H]] both apply Z to the field, or another relation of the env
    did; no caller writes into a jet.  ``magnitudes`` is raised, point by
    point, to the absolute value of every operator leaf and product this
    call evaluates, shared or not."""

    def record(jet):
        np.maximum(magnitudes, np.abs(jet.coef[0]), out=magnitudes)
        return jet

    _, order, scalar, nop = env.compiled(node)
    if nop is not None:
        key = (id(nop), id(field), degree)
        if key not in sampling.applied:  # storing the input keeps its id from being reused
            sampling.applied[key] = field, apply_on_jets(nop, field, degree, sampling)
        return record(sampling.applied[key][1])
    if scalar is not None:
        return field.truncate(degree) * scalar
    if isinstance(node, Sum):
        total = None
        for t in node.terms:
            part = eval_tree_on_jets(t, env, sampling, field, degree, magnitudes)
            total = part if total is None else total + part
        return total
    if isinstance(node, Prod):
        jet, rest = field, order
        for f in reversed(node.factors):
            f_order, factor = env.compiled(f)[1:3]
            if factor is None:
                rest -= f_order
                jet = eval_tree_on_jets(f, env, sampling, jet, degree + rest, magnitudes)
        for f in node.factors:
            factor = env.compiled(f)[2]
            if factor is not None:
                jet = jet * factor
        return record(jet)
    a_order, b_order = env.compiled(node.a)[1], env.compiled(node.b)[1]
    ab = eval_tree_on_jets(node.b, env, sampling, field, degree + a_order, magnitudes)
    ab = eval_tree_on_jets(node.a, env, sampling, ab, degree, magnitudes)
    ba = eval_tree_on_jets(node.a, env, sampling, field, degree + b_order, magnitudes)
    ba = eval_tree_on_jets(node.b, env, sampling, ba, degree, magnitudes)
    return ab - ba if isinstance(node, Comm) else ab + ba


def relation_residual_numeric(rel: Relation, env: NumericEnv, probes: int,
                              points_per_probe: int, seed: int) -> ResidualStats:
    """Evaluate (LHS - RHS) f at seeded probe/point pairs, every point at once.

    The tree is applied to the probes' jet of the degree of its total order.
    The relative residual at a point is |value| / (1 + the largest magnitude
    there of any operator leaf or product of the tree); reported are max and
    median.  A value or scale beyond the float range raises OverflowError.
    The sample points and jets come from ``env``'s table for this sampling,
    which the env's relations share, and each entry is what this relation
    alone would compute.
    """
    order = env.compiled(rel.expr)[1]
    sampling = env.sampling(probes, points_per_probe, seed)
    magnitudes = np.zeros(probes * points_per_probe)
    with np.errstate(all="ignore"):  # a value beyond the float range raises below
        out = eval_tree_on_jets(rel.expr, env, sampling, sampling.field(order), 0, magnitudes)
    value, denom = out.coef[0], 1.0 + magnitudes
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(denom))):
        raise OverflowError(f"a value of {rel.name} is not finite")
    relative = np.abs(value) / denom
    return ResidualStats(*_max_and_median(relative), len(relative))


def _max_and_median(values: np.ndarray) -> tuple:
    """np.max and np.median of finite values, bit for bit, from one sort:
    np.median would import numpy.ma in every fresh run."""
    ordered = np.sort(values)
    n = len(ordered)
    middle = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    return float(ordered[-1]), float(middle)


# -- 1D grid eigensolvers ---------------------------------------------------------------


@dataclass
class Eigensolve1DProblem:
    """Dirichlet problem -u'' + V(r) u = E u on (0, L]."""

    potential: object  # vectorized callable V(r)
    L: float
    n_eigenvalues: int = 4
    M: int = 400
    tol: float = 1e-6
    max_doublings: int = 6

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("domain length must be positive")
        if self.M < 200:
            raise ValueError("grid size must be at least 200")


def _richardson(eigenvalues_at, M: int, tol: float, max_doublings: int, message: str) -> list:
    """Richardson-extrapolate ``eigenvalues_at(M)``, a second-order scheme on M
    points, over grid doubling until the extrapolated values change by less
    than ``tol`` (relative) between doublings."""
    prev = None
    prev_extrap = None
    for _ in range(max_doublings + 1):
        vals = eigenvalues_at(M)
        if prev is not None:
            extrap = (4.0 * vals - prev) / 3.0
            if prev_extrap is not None:
                # floor the scale at 1 so near-zero eigenvalues do not stall
                scale = np.maximum(np.abs(extrap), 1.0)
                if np.max(np.abs(extrap - prev_extrap) / scale) < tol:
                    return [float(v) for v in extrap]
            prev_extrap = extrap
        prev = vals
        M *= 2
    raise OracleUnconvergedError(message)


def eigensolve_1d(problem: Eigensolve1DProblem) -> list:
    """Lowest eigenvalues of the Dirichlet problem, extrapolated over grid doubling."""
    from scipy.linalg import eigvalsh_tridiagonal

    k = problem.n_eigenvalues

    def eigenvalues_at(M):
        h = problem.L / M
        r = h * np.arange(1, M)
        V = np.asarray(problem.potential(r), dtype=float)
        diag = 2.0 / h**2 + V
        off = np.full(M - 2, -1.0 / h**2)
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))

    return _richardson(
        eigenvalues_at, problem.M, problem.tol, problem.max_doublings,
        f"eigensolver did not converge to {problem.tol} within {problem.max_doublings} doublings",
    )


def eigensolve_weighted_polar(potential, weight_power: int, n_eigenvalues: int = 4) -> list:
    """Eigenvalues of -h'' - p cot(t) h' + V(t) h = a h on (0, pi).

    Cell-centered conservative discretization in the weight sin(t)^p keeps the
    natural boundary behavior at both ends (the weight flux vanishes), then a
    similarity transform makes the matrix symmetric tridiagonal.  Grids start
    at 400 cells and double at most 7 times, to a relative change below 1e-6.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    p = weight_power

    def eigenvalues_at(M):
        h = math.pi / M
        t = (np.arange(M) + 0.5) * h
        w = np.sin(t) ** p
        w_half = np.sin(np.arange(M + 1) * h) ** p  # vanishes at both ends
        V = np.asarray(potential(t), dtype=float)
        diag = (w_half[:-1] + w_half[1:]) / (w * h**2) + V
        off = -w_half[1:-1] / (h**2 * np.sqrt(w[:-1] * w[1:]))
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_eigenvalues - 1))

    return _richardson(eigenvalues_at, 400, 1e-6, 7, "weighted polar eigensolver did not converge")


def _ring_eigenvalues(V: np.ndarray, h: float, k: int) -> np.ndarray:
    """Lowest k eigenvalues of -u'' + V on the ring of len(V) nodes, step h."""
    from scipy.linalg import eigvals_banded

    M = len(V)
    i = np.arange(1, M)
    order = np.concatenate(([0], np.where(i % 2, (i + 1) // 2, M - i // 2)))
    band = np.zeros((3, M))  # lower form: band[d, p] = A[p + d, p]
    band[0] = 2.0 / h**2 + V[order]
    band[1, [0, M - 2]] = -1.0 / h**2
    band[2, : M - 2] = -1.0 / h**2
    return eigvals_banded(band, lower=True, select="i", select_range=(0, k - 1))


def eigensolve_periodic(potential, n_eigenvalues: int = 6) -> list:
    """Lowest eigenvalues of -u'' + V on the circle [0, 2 pi).

    The ring nodes are taken in the order 0, 1, M-1, 2, M-2, ...: nodes two
    places apart are then always ring neighbours, and the remaining two ring
    edges join places 0, 1 and M-2, M-1.  So the periodic matrix, permuted,
    is symmetric banded with bandwidth 2, for even and odd M, and the band
    solver's reduction costs O(M^2) where a dense solve costs O(M^3).  Grids
    start at 512 nodes and double at most 4 times, to a relative change below 1e-6.
    """

    def eigenvalues_at(M):
        h = 2 * math.pi / M
        V = np.asarray(potential(h * np.arange(M)), dtype=float)
        return _ring_eigenvalues(V, h, n_eigenvalues)

    return _richardson(eigenvalues_at, 512, 1e-6, 4, "periodic eigensolver did not converge")
