"""Finite-difference application of operators and the 1D eigensolver oracle.

Operators act on scalar fields through central-difference stencils composed
axis by axis on a local tensor grid around the evaluation point, so nested
applications (commutators, operator products) reuse the same probe values.
Evaluation is demand-driven: a relation's residual needs only the center
value of its tree, and each subtree and each operator term gets only the
grid points its parent's result needs, that result's radius plus the stencil
margin it consumes.  Stencils and coefficient products act point by point,
so no value depends on how far the grid around it extends, and the cropping
changes no bit of any result.  Residuals are normalized by the largest
intermediate magnitude to absorb the cancellation inherent in double
commutators of fourth-order products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    InapplicableRelationError,
    OracleUnconvergedError,
    SingularPointError,
    UndeclaredParameterError,
)
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


# -- stencil weights -------------------------------------------------------------


def fornberg_weights(m: int, offsets) -> list:
    """Exact weights for the m-th derivative at 0 from the given offsets."""
    x = [Fraction(o) for o in offsets]
    n = len(x)
    d = [[[Fraction(0)] * (m + 1) for _ in range(n)] for _ in range(n)]
    d[0][0][0] = Fraction(1)
    c1 = Fraction(1)
    for i in range(1, n):
        c2 = Fraction(1)
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            for k in range(min(i, m) + 1):
                prev = d[i - 1][j][k]
                prev_k = d[i - 1][j][k - 1] if k else Fraction(0)
                d[i][j][k] = (x[i] * prev - k * prev_k) / c3
        for k in range(min(i, m) + 1):
            prev = d[i - 1][i - 1][k]
            prev_k = d[i - 1][i - 1][k - 1] if k else Fraction(0)
            d[i][i][k] = (c1 / c2) * (k * prev_k - x[i - 1] * prev)
        c1 = c2
    return [d[n - 1][j][m] for j in range(n)]


@lru_cache(maxsize=None)
def central_weights(m: int, order: int) -> tuple:
    """(half width s, float weights on offsets -s..s) for derivative m.

    Symmetric stencils sized so the truncation order equals ``order``
    exactly: 2s+1-m for odd m, 2s+2-m for even m (parity bonus)."""
    if m == 0:
        return 0, (1.0,)
    s = (order + m - 1) // 2 if m % 2 else (order + m) // 2 - 1
    w = fornberg_weights(m, range(-s, s + 1))
    return s, tuple(float(v) for v in w)


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
        coords = [np.asarray(c) for c in coords]
        coords = [c.astype(float) if c.dtype.kind != "f" else c for c in coords]
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
    alpha: tuple
    coef_fn: object  # callable(list of coordinate arrays) -> array


@dataclass(frozen=True)
class NumericOperator:
    terms: tuple
    margin: int  # stencil half-width budget per application


def compile_operator(op, spec: ModelSpec | None, params: dict, scheme: FDScheme) -> NumericOperator:
    """DiffOp or RawOperator -> evaluable terms with bound parameter values."""
    terms = []
    if isinstance(op, RawOperator):
        base, attachments = op.base, op.attachments
    else:
        base, attachments = op, ()
    for alpha, coef in base.terms.items():
        def make(coef=coef):
            return lambda coords: coef.eval_numeric(coords, params)

        terms.append(NumericTerm(alpha, make()))
    zero_alpha = (0,) * base.ctx.nx
    for att in attachments:
        f_eval = potential_cartesian_evaluator(spec, att.block, params)
        block = list(spec.partition.block_range(att.block))

        def make_att(coef=att.coef, f_eval=f_eval, block=block):
            def fn(coords):
                c = coef.eval_numeric(coords, params)
                return c * f_eval([coords[k] for k in block])

            return fn

        terms.append(NumericTerm(zero_alpha, make_att()))
    margin = max(
        (max(scheme.half_width(m) for m in t.alpha) if sum(t.alpha) else 0 for t in terms),
        default=0,
    )
    return NumericOperator(tuple(terms), margin)


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
    if m == 0:
        return values
    s, w = central_weights(m, scheme.order)
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
    to the output radius plus the term's stencil half width on that axis.
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
            arr = _stencil_axis(arr, axis, m, h, scheme)
        total += term.coef_fn(coords) * arr
    return total


# -- single-point application -----------------------------------------------------------


def apply_numeric(op, f, x, scheme: FDScheme = FDScheme(), spec: ModelSpec | None = None,
                  params: dict | None = None) -> float:
    """sum_a c_a(x) (d^a f)(x) via central differences at one point."""
    params = params or {}
    nop = compile_operator(op, spec, params, scheme)
    radius = nop.margin
    coords = _axis_coords(x, scheme.h, radius, len(x), scheme.dtype)
    values = f(np.broadcast_arrays(*coords))
    out = apply_on_grid(nop, values, x, scheme.h, radius, scheme)
    return float(out.reshape(-1)[0])


# -- numeric relation evaluation ----------------------------------------------------------


class NumericEnv:
    """Numeric view of a model's OperatorEnv: its integrals compiled to grid
    operators at bound parameter values, its structural constants as floats."""

    def __init__(self, env: OperatorEnv, params: dict, scheme: FDScheme):
        if env.spec is None:
            raise InapplicableRelationError(
                f"numeric mode needs a model; {env.label} is an operator table")
        self.env = env
        self.spec = env.spec
        # parameters left unbound take defaults; ``params`` overrides them by name
        self.params = {"w2": 1.0, "eta": 2.0}
        for name in env.spec.param_names():
            if name.startswith(("beta", "alpha")):
                self.params[name] = float(name[-1]) if name[-1].isdigit() else 1.0
        self.params.update(params)
        self.scheme = scheme
        self._cache: dict = {}
        self._nodes: dict = {}

    def operator(self, name) -> NumericOperator:
        key = str(name)
        if key not in self._cache:
            self._cache[key] = compile_operator(self.env.raw(name), self.spec, self.params,
                                                self.scheme)
        return self._cache[key]

    def compiled(self, node) -> tuple:
        """(margin, scalar, operator) of a tree node, worked out once per env.

        ``margin`` is the stencil half width the node consumes when applied
        to a field; ``scalar`` is the value of a node without operators and
        None otherwise; ``operator`` is the compiled operator of an OpRef or
        Fixed leaf and None otherwise."""
        got = self._nodes.get(id(node))
        if got is None:  # storing the node keeps its id from being reused
            got = self._nodes[id(node)] = (node, *self._compile_node(node))
        return got[1:]

    def _compile_node(self, node) -> tuple:
        if isinstance(node, (OpRef, Fixed)):
            nop = (self.operator(node.name) if isinstance(node, OpRef)
                   else compile_operator(node.diffop, self.spec, self.params, self.scheme))
            return nop.margin, None, nop
        if isinstance(node, Scalar):
            return 0, float(node.value), None
        if isinstance(node, ParamRef):
            if node.name not in self.params:
                raise UndeclaredParameterError(f"no numeric value bound for {node.name!r}")
            return 0, float(self.params[node.name]), None
        if isinstance(node, ConstRef):
            return 0, float(self.env.constant(node.kind, node.p)), None
        if isinstance(node, (Comm, Acomm)):
            return self.compiled(node.a)[0] + self.compiled(node.b)[0], None, None
        if not isinstance(node, (Sum, Prod)):
            raise TypeError(f"unknown node {node!r}")
        parts = [self.compiled(t) for t in (node.terms if isinstance(node, Sum) else node.factors)]
        if any(scalar is None for _, scalar, _ in parts):
            margins = [margin for margin, _, _ in parts]
            return (max(margins) if isinstance(node, Sum) else sum(margins)), None, None
        if isinstance(node, Sum):
            return 0, sum(scalar for _, scalar, _ in parts), None
        value = 1.0
        for _, scalar, _ in parts:
            value *= scalar
        return 0, value, None


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
    center value of every operator leaf and product is appended to
    ``magnitudes``.
    """

    def record(arr):
        center = arr.reshape(-1)[arr.size // 2]
        magnitudes.append(abs(float(center)))
        return arr

    applied = {} if applied is None else applied
    margin, scalar, nop = env.compiled(node)
    if nop is not None:
        key = (id(nop), id(values))
        if key not in applied:  # storing the input keeps its id from being reused
            applied[key] = values, apply_on_grid(nop, values, x0, env.scheme.h, radius, env.scheme)
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
            if env.compiled(f)[1] is None:
                arr, rad = eval_tree_on_grid(f, env, arr, x0, rad, magnitudes, applied)
        for f in node.factors:
            factor = env.compiled(f)[1]
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

    def to_json(self):
        return {
            "max_relative": self.max_relative,
            "median_relative": self.median_relative,
            "samples": self.samples,
        }


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


def sample_points(spec: ModelSpec, count: int, rng, delta: float = 0.05,
                  margin_extent: float = 0.2, guards=()):
    """Seeded admissible points: every coordinate bounded away from zero by
    delta plus the local grid extent, with random signs; rejection sampling
    keeps the stream deterministic for a fixed generator state.  Magnitudes
    stay below 1.45, so an extent of 1.45 - delta - 0.05 or more is a
    ConfigError."""
    lo = max(0.35, delta + margin_extent + 0.05)
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


def relation_residual_numeric(rel: Relation, env: NumericEnv, probes: int = 5,
                              points_per_probe: int = 10, seed: int = 20240801) -> ResidualStats:
    """Evaluate (LHS - RHS) f at seeded probe/point pairs.

    The relative residual at a point is |value| / (1 + max intermediate
    magnitude across the tree evaluation); reported are max and median.
    """
    spec, scheme = env.spec, env.scheme
    margin = env.compiled(rel.expr)[0]
    rng = np.random.default_rng(seed)
    D = spec.partition.D
    rels = []
    extent = margin * scheme.h
    pts = sample_points(spec, probes * points_per_probe, rng, margin_extent=extent,
                        guards=model_point_guards(spec, extent))
    dtype = scheme.dtype
    for pi in range(probes):
        probe = ProbeFunction.from_seed(D, seed, pi)
        for qi in range(points_per_probe):
            x = pts[pi * points_per_probe + qi]
            coords = _axis_coords(x, scheme.h, margin, D, dtype)
            values = probe(coords)  # broadcasts the axes: same values, fewer operations
            mags: list = []
            out, _ = eval_tree_on_grid(rel.expr, env, values, x, margin, mags)
            center = float(out.reshape(-1)[out.size // 2])
            denom = 1.0 + (max(mags) if mags else 0.0)
            rels.append(abs(center) / denom)
    arr = np.array(rels)
    return ResidualStats(float(arr.max()), float(np.median(arr)), len(rels))


# -- 1D eigensolver oracle ---------------------------------------------------------------


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


def eigensolve_weighted_polar(potential, weight_power: int, n_eigenvalues: int = 4,
                              M: int = 400, tol: float = 1e-6, max_doublings: int = 7) -> list:
    """Eigenvalues of -h'' - p cot(t) h' + V(t) h = a h on (0, pi).

    Cell-centered conservative discretization in the weight sin(t)^p keeps the
    natural boundary behavior at both ends (the weight flux vanishes), then a
    similarity transform makes the matrix symmetric tridiagonal.
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

    return _richardson(eigenvalues_at, M, tol, max_doublings,
                       "weighted polar eigensolver did not converge")


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


def eigensolve_periodic(potential, n_eigenvalues: int = 6, M: int = 512, tol: float = 1e-6,
                        max_doublings: int = 4) -> list:
    """Lowest eigenvalues of -u'' + V on the circle [0, 2 pi).

    The ring nodes are taken in the order 0, 1, M-1, 2, M-2, ...: nodes two
    places apart are then always ring neighbours, and the remaining two ring
    edges join places 0, 1 and M-2, M-1.  So the periodic matrix, permuted,
    is symmetric banded with bandwidth 2, for even and odd M, and the band
    solver's reduction costs O(M^2) where a dense solve costs O(M^3).
    """

    def eigenvalues_at(M):
        h = 2 * math.pi / M
        V = np.asarray(potential(h * np.arange(M)), dtype=float)
        return _ring_eigenvalues(V, h, n_eigenvalues)

    return _richardson(eigenvalues_at, M, tol, max_doublings,
                       "periodic eigensolver did not converge")
