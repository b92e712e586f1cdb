"""Orthogonal polynomials and closed-form eigenfunctions.

Laguerre and Jacobi values come from the standard three-term recurrences and
stay exact on Fraction inputs.  The exceptional (X1-type) Jacobi polynomial
of degree n, in the angular eigenfunction of the trigonometric potential
with eigenvalue (A + 3(n-1))^2, comes from its closed form in the Jacobi
polynomials of degrees n-1 and n-2, built exactly by the same recurrence,
and is made primitive with a positive leading entry.  Eigenfunctions are
assembled as plain callables on Cartesian coordinates; all downstream
checks are normalization independent (operator residuals and ratios).

Every spectral number the assembly uses (gamma, kappa, the tower roots and
the energies) comes from :mod:`spectra` as a float, and every value computed
here is a float; :mod:`spectra` also defines :class:`EigenfunctionSpec`,
which this module re-exports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InadmissibleParametersError
from .models import OSCILLATOR, Hierarchy, is_model2_tower
from .ring import Poly, pack
from .spectra import (
    EigenfunctionSpec,
    block_gammas,
    coulomb_energies,
    omega_value,
    oscillator_energy_oracle,
    tower_roots,
)


# -- classical families ------------------------------------------------------------


def laguerre(n: int, alpha, x):
    """Generalized Laguerre value L_n^(alpha)(x) by the three-term recurrence."""
    if n < 0:
        raise InadmissibleParametersError("Laguerre degree must be non-negative")
    prev = 1
    if n == 0:
        return prev if not isinstance(x, np.ndarray) else np.ones_like(x) * prev
    cur = 1 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def jacobi(n: int, alpha, beta, x):
    """Jacobi value P_n^(alpha, beta)(x) by the three-term recurrence."""
    if n < 0:
        raise InadmissibleParametersError("Jacobi degree must be non-negative")
    one = 1 if not isinstance(x, np.ndarray) else np.ones_like(x)
    if n == 0:
        return one
    prev = one
    cur = (alpha - beta) / 2 + (alpha + beta + 2) / 2 * x
    for k in range(2, n + 1):
        a, b, c, d = _jacobi_step(k, alpha, beta)
        prev, cur = cur, ((b + c * x) * cur - d * prev) / a
    return cur


def _jacobi_step(k: int, alpha, beta) -> tuple:
    """(a, b, c, d) of the recurrence a P_k = (b + c x) P_{k-1} - d P_{k-2}."""
    a = 2 * k * (k + alpha + beta) * (2 * k + alpha + beta - 2)
    if a == 0:
        raise InadmissibleParametersError(
            f"Jacobi recurrence degenerates at n={k} for alpha+beta={alpha + beta}"
        )
    b = (2 * k + alpha + beta - 1) * (alpha**2 - beta**2)
    c = (2 * k + alpha + beta - 1) * (2 * k + alpha + beta) * (2 * k + alpha + beta - 2)
    d = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + alpha + beta)
    return a, b, c, d


def _jacobi_polys(n: int, alpha: Fraction, beta: Fraction) -> list:
    """P_0..P_n^(alpha, beta) as exact polynomials in one variable, by the
    recurrence :func:`jacobi` evaluates."""
    x = Poly.var(1, 0)
    polys = [Poly.const(1, 1), x.scale((alpha + beta + 2) / 2).add(Poly.const(1, (alpha - beta) / 2))]
    for k in range(2, n + 1):
        a, b, c, d = _jacobi_step(k, alpha, beta)
        step = x.scale(c).add(Poly.const(1, b)).mul(polys[-1]).sub(polys[-2].scale(d))
        polys.append(step.scale(1 / a))
    return polys[: n + 1]


# -- exceptional family -------------------------------------------------------------


@lru_cache(maxsize=None)
def x1_jacobi_coefficients(n: int, alpha: Fraction, beta: Fraction) -> tuple:
    """Exact coefficient vector (c_0..c_n) of the degree-n exceptional polynomial.

    The closed form of Gomez-Ullate, Kamran and Milson (2009), with
    P = P^(alpha, beta) and b = (beta + alpha)/(beta - alpha):
    -(x - b) P_{n-1} / 2 + (b P_{n-1} - P_{n-2}) / (alpha + beta + 2n - 2),
    where P_{-1} = 0, so that the second term is 1/(beta - alpha) at n = 1.
    """
    if n < 1:
        raise InadmissibleParametersError("the exceptional family starts at degree 1")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise InadmissibleParametersError("need alpha, beta > -1")
    if alpha == beta:
        raise InadmissibleParametersError("need alpha != beta (B would vanish)")
    b = (beta + alpha) / (beta - alpha)
    polys = _jacobi_polys(n - 1, alpha, beta)
    if n == 1:  # the second term is b P_0 / (alpha + beta), 0/0 at alpha + beta = 0
        tail = Poly.const(1, 1 / (beta - alpha))
    else:
        tail = polys[-1].scale(b).sub(polys[-2]).scale(1 / (alpha + beta + 2 * n - 2))
    q = Poly.var(1, 0).sub(Poly.const(1, b)).mul(polys[-1]).scale(Fraction(-1, 2)).add(tail)
    q = q.normalized_integer()  # primitive integers, positive leading coefficient
    return tuple(q.terms.get(pack((m,)), 0) for m in range(n + 1))


def x1_jacobi(n: int, alpha, beta, x):
    """Value of the degree-n exceptional Jacobi polynomial at x: exact at a
    Fraction, from float coefficients at anything else."""
    coeffs = x1_jacobi_coefficients(n, Fraction(alpha), Fraction(beta))
    if not isinstance(x, Fraction):
        coeffs = [float(c) for c in coeffs]
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def model2_angular_factor(A: Fraction, B: Fraction, J1: int):
    """h(phi) for the trigonometric potential as a function of s = sin(3 phi)."""
    A = Fraction(A)
    B = Fraction(B)
    alpha = A / 3 - B / 3 - Fraction(1, 2)
    beta = A / 3 + B / 3 - Fraction(1, 2)
    p = float((A - B) / 6)
    q = float((A + B) / 6)
    Af, Bf = float(A), float(B)

    def h_of_s(s):
        s = np.asarray(s, dtype=float)
        return (
            (1 - s) ** p
            * (1 + s) ** q
            / (2 * Af - 3 - 2 * Bf * s)
            * x1_jacobi(J1 + 1, alpha, beta, s)
        )

    return h_of_s


# -- energies ---------------------------------------------------------------------------


def oscillator_energy(es: EigenfunctionSpec) -> float:
    """Eigenvalue of the assembled oscillator eigenfunction."""
    return oscillator_energy_oracle(es) * omega_value(es.model)


def coulomb_energy_value(es: EigenfunctionSpec) -> float:
    """Eigenvalue of the assembled Coulomb eigenfunction."""
    return coulomb_energies(es)[1]


# -- assembly ---------------------------------------------------------------------------


def _block_subnorms(ys):
    """Running sub-norms s_k = |(y_1..y_k)| for k = 1..d (s_1 = |y_1|)."""
    out = []
    acc = 0.0
    for y in ys:
        acc = acc + y * y
        out.append(np.sqrt(acc))
    return out


def _zonal_harmonic(d: int, l: int, ys):
    """Rotation-axis harmonic of degree l depending on the last angle only."""
    if d == 1 or l == 0:
        return np.ones_like(ys[0])
    a = (d - 3) / 2.0
    return jacobi(l, a, a, ys[-1] / _block_subnorms(ys)[-1])


def _model2_block_factor(pot, Js, ys):
    """Angular factor for a trigonometric block: h(phi_1) times the tower,
    whose angle phi_a has Jacobi parameter r_{a-1} (spectra.tower_roots)."""
    d = len(ys)
    s = _block_subnorms(ys)
    h = model2_angular_factor(pot.levels[0].A, pot.levels[0].B, Js[0])
    sin_phi1 = ys[0] / s[1 if d > 1 else 0]
    s3 = 3 * sin_phi1 - 4 * sin_phi1**3
    out = h(s3)
    roots = [float(r) for r in tower_roots(pot, Js)]
    for a in range(2, d):  # angles phi_2..phi_{d-1}
        c_prev = roots[a - 2]
        sin_pa = s[a - 1] / s[a]
        cos_pa = ys[a] / s[a]
        out = out * sin_pa ** (c_prev + 0.5 - (a - 1) / 2.0)
        out = out * jacobi(Js[a - 1], c_prev, -0.5, 2 * cos_pa**2 - 1)
    return out


def _block_angular_factor(es: EigenfunctionSpec, i: int, ys):
    pot = es._potential(i)
    if isinstance(pot, Hierarchy):
        return _model2_block_factor(pot, es.angular[i], ys)
    return _zonal_harmonic(len(ys), es.angular[i], ys)


def assemble_eigenfunction(es: EigenfunctionSpec):
    """Callable scalar field Psi(x) for the closed-form eigenfunction."""
    model = es.model
    part = model.partition
    if any(isinstance(p, Hierarchy) and not is_model2_tower(p) for p in model.potentials):
        raise InadmissibleParametersError(
            "closed-form eigenfunctions need a trigonometric innermost level and Zero above"
        )
    gammas = block_gammas(es)
    if model.family == OSCILLATOR:
        omega = omega_value(model)

        def psi(coords):
            coords = [np.asarray(c, dtype=float) for c in coords]
            out = 1.0
            for i in range(part.N):
                ys = [coords[k] for k in part.block_range(i)]
                d = part.block_sizes[i]
                r2 = sum(y * y for y in ys)
                r = np.sqrt(r2)
                g = gammas[i]
                k = es.radial[i]
                out = out * r ** (g - (d - 1) / 2.0) * np.exp(-omega * r2 / 2.0)
                out = out * laguerre(k, g - 0.5, omega * r2)
                out = out * _block_angular_factor(es, i, ys)
            return out

        return psi

    # coulomb family
    _, E, _, kappa = coulomb_energies(es)
    sqrtE = math.sqrt(-E)
    N = part.N
    N_r = es.radial[0]

    def kappa_i(i: int) -> float:
        return 2 * sum(es.hyper_J[:i]) + i + sum(gammas[: i + 1])

    def psi(coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        radii = []
        out = 1.0
        for i in range(N):
            ys = [coords[k] for k in part.block_range(i)]
            d = part.block_sizes[i]
            r = np.sqrt(sum(y * y for y in ys))
            radii.append(r)
            out = out * r ** (-(d - 1) / 2.0)
            out = out * _block_angular_factor(es, i, ys)
        t = _block_subnorms(radii)
        r_full = t[-1]
        out = out * r_full ** (-(N - 1) / 2.0)
        out = out * r_full**kappa * np.exp(-sqrtE * r_full)
        out = out * laguerre(N_r, 2 * kappa - 1, 2 * sqrtE * r_full)
        for i in range(1, N):  # theta_i, i = 1..N-1 (1-based)
            sin_t = t[i - 1] / t[i]
            cos_t = radii[i] / t[i]
            km1 = kappa_i(i - 1)
            out = out * sin_t ** (km1 + 1 - i / 2.0)
            out = out * cos_t ** (gammas[i] + 0.5)
            out = out * jacobi(es.hyper_J[i - 1], km1, gammas[i], 2 * cos_t**2 - 1)
        return out

    return psi
