"""Eigenfunction quantum numbers and the spectral chain.

The paper's spectra come from one separation-of-variables chain: quantum
numbers give each block's angular eigenvalue lambda, lambda gives gamma, the
gammas give kappa (Coulomb), and those give the energy.  This module writes
that chain once, each number by its closed form: :func:`lambda_chain`,
:func:`tower_roots`, :func:`block_gammas` and the energy functions below;
the eigenfunction assembly in :mod:`specfun` takes every number from here.

Energies are reported in two forms: the printed closed formula and the
oracle value carried by the assembled eigenfunctions (equivalently the
per-block 1D eigensolver).  Each is affine in the sum of the block gammas,
so it is held as an exact form (a, b) with rational a and b, which reads
a + b * sum(gamma).  Verdicts compare forms: the oscillator's oracle is
exactly twice its printed value (the printed formula matches a
half-convention Hamiltonian), and the Coulomb kappa meets the printed
denominator as 2 (N_r + kappa).  Values are float(a) + b * sum(gamma), with
each gamma a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleParametersError, InvalidPartitionError
from .models import (
    COULOMB,
    OSCILLATOR,
    Constant,
    Hierarchy,
    Model2F11,
    ModelSpec,
    Zero,
)


@dataclass(frozen=True)
class EigenfunctionSpec:
    """Quantum numbers for one closed-form eigenfunction.

    angular[i] is an int (harmonic degree l_i) for zero/constant blocks and a
    tuple of non-negative ints (J_1..J_{d_i-1}) for a trigonometric block.
    radial holds the per-block oscillator numbers k_i, or (N_r,) for the
    Coulomb family; hyper_J holds the Coulomb inter-block numbers.
    """

    model: ModelSpec
    angular: tuple
    radial: tuple
    hyper_J: tuple = ()

    def __post_init__(self):
        part = self.model.partition
        if len(self.angular) != part.N:
            raise InadmissibleParametersError(f"need {part.N} angular entries")
        fam = self.model.family
        if fam == OSCILLATOR and len(self.radial) != part.N:
            raise InadmissibleParametersError(f"need {part.N} radial numbers")
        if fam == COULOMB:
            if len(self.radial) != 1:
                raise InadmissibleParametersError("coulomb radial numbers are (N_r,)")
            if len(self.hyper_J) != part.N - 1:
                raise InadmissibleParametersError(f"need {part.N - 1} inter-block numbers")
        for v in self.radial + self.hyper_J:
            if type(v) is not int or v < 0:  # a JSON true is no quantum number
                raise InadmissibleParametersError("quantum numbers are non-negative integers")
        for i, a in enumerate(self.angular):
            d = part.block_sizes[i]
            pot = self._potential(i)
            if isinstance(pot, Hierarchy):
                if not isinstance(a, tuple) or len(a) != d - 1:
                    raise InadmissibleParametersError(
                        f"block {i + 1} needs a tuple of {d - 1} angular numbers"
                    )
                if not all(type(v) is int and v >= 0 for v in a):
                    raise InadmissibleParametersError("angular numbers are non-negative ints")
            else:
                if type(a) is not int or a < 0:
                    raise InadmissibleParametersError("harmonic degree must be a non-negative int")
                if d == 1 and a != 0:
                    raise InadmissibleParametersError("size-1 blocks admit only l = 0")

    def _potential(self, i: int):
        if i < len(self.model.potentials):
            return self.model.potentials[i]
        return Zero()


def _positive_float(value, name: str, power: int = 1) -> float:
    """``float(value) ** power`` for a model value that must be numeric and
    positive, with a positive float result."""
    if isinstance(value, str):
        raise InadmissibleParametersError(f"numeric {name} required")
    try:
        x = float(value) ** power
    except OverflowError as exc:
        raise InadmissibleParametersError(f"{name} is beyond the float range") from exc
    if value <= 0 or x <= 0:
        raise InadmissibleParametersError(f"{name} must be positive")
    return x


def omega_value(model: ModelSpec) -> float:
    return math.sqrt(_positive_float(model.omega2, "omega^2"))


# -- angular eigenvalue chains ------------------------------------------------------


def lambda_chain(pot, d: int, angular):
    """Angular eigenvalue of [-L^2 + f] for one block: l(l + d - 2) + value at
    harmonic degree l for a Constant, r_{d-1}^2 - (d - 2)^2/4 for a tower
    (:func:`tower_roots`), exact unless a root below the top is irrational.
    ``angular`` is the harmonic degree, or the per-level tuple for a tower,
    as :class:`EigenfunctionSpec` has checked it."""
    if isinstance(pot, Constant):
        if isinstance(pot.value, str):
            raise InadmissibleParametersError("lambda chain needs numeric constants")
        return Fraction(angular * (angular + d - 2)) + pot.value
    square, _ = _tower_level(pot, angular, tower_roots(pot, angular[:-1]))
    return square - Fraction((d - 2) ** 2, 4)


def tower_roots(pot: Hierarchy, Js) -> list:
    """Roots r_1..r_k of the lowest k = len(Js) levels of a tower: level j
    has eigenvalue r_j^2 - (j - 1)^2/4, and r_{j-1} is the Jacobi parameter
    of the angle above it.  r_1 = A + 3 J_1 on a trigonometric level, else
    sqrt(J_1^2 + c_1); r_j = sqrt((r_{j-1} + s J_j + 1/2)^2 + c_j), s = 2 above
    a trigonometric level (its tower counts only even states), else 1.  A root
    is an exact Fraction when its radicand is a rational square, else a float."""
    roots = []
    for _ in Js:
        roots.append(_tower_level(pot, Js, roots)[1])
    return roots


def _tower_level(pot: Hierarchy, Js, below: list) -> tuple:
    """(r_j^2, r_j) of level j = len(below) + 1 over the roots below it; a
    negative r_j^2 is the level falling to the centre."""
    lvl, J = pot.levels[len(below)], Js[len(below)]
    if isinstance(lvl, Model2F11):
        return (lvl.A + 3 * J) ** 2, lvl.A + 3 * J
    if isinstance(lvl.value, str):
        raise InadmissibleParametersError("lambda chain needs numeric constants")
    stride = 2 if isinstance(pot.levels[0], Model2F11) else 1
    square = (below[-1] + stride * J + Fraction(1, 2) if below else Fraction(J)) ** 2 + lvl.value
    if square < 0:
        raise InadmissibleParametersError(f"tower level {len(below) + 1} falls to the centre")
    if isinstance(square, Fraction):
        root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
        if root * root == square:
            return square, root
    return square, math.sqrt(square)


def block_gammas(q: EigenfunctionSpec) -> list:
    """gamma of every block as a float: sqrt(disc) / 2, plus 1/2 for the
    oscillator, where disc = 1 + 4 lambda + (d-1)(d-3) is exact whenever
    lambda is, so a negative discriminant is refused exactly."""
    shift = 0.5 if q.model.family == OSCILLATOR else 0.0
    gammas = []
    for i, d in enumerate(q.model.partition.block_sizes):
        disc = 1 + 4 * lambda_chain(q._potential(i), d, q.angular[i]) + (d - 1) * (d - 3)
        if disc < 0:
            raise InadmissibleParametersError(f"negative discriminant in block {i + 1}")
        gammas.append(shift + math.sqrt(disc) / 2)
    return gammas


def _value(form: tuple, gamma_sum: float) -> float:
    """The energy form (a, b), which reads a + b * sum(gamma), as a float."""
    a, b = form
    return float(a) + b * gamma_sum


# -- oscillator spectra ------------------------------------------------------------


def _oscillator_energies(q: EigenfunctionSpec) -> tuple:
    """(paper, oracle) forms in units of omega: 2 sum k + N/2 + sum gamma and
    sum (4k + 2 gamma + 1)."""
    if q.model.family != OSCILLATOR:
        raise InvalidPartitionError("oscillator formula needs an oscillator model")
    k, N = sum(q.radial), q.model.partition.N
    return (2 * k + Fraction(N, 2), 1), (4 * k + N, 2)


def oscillator_energy_oracle(q: EigenfunctionSpec) -> float:
    """Eigenfunction/eigensolver value, in units of omega: sum (4k + 2 gamma + 1)."""
    return _value(_oscillator_energies(q)[1], sum(block_gammas(q)))


@dataclass
class SpectrumResult:
    quantum_numbers: dict
    paper_value: float
    oracle_value: float
    ratio_oracle_over_paper: float
    exact_ratio_2: bool


def oscillator_spectrum_row(q: EigenfunctionSpec) -> SpectrumResult:
    omega = omega_value(q.model)
    paper, oracle = _oscillator_energies(q)
    gamma_sum = sum(block_gammas(q))
    paper_value, oracle_value = _value(paper, gamma_sum), _value(oracle, gamma_sum)
    return SpectrumResult(
        quantum_numbers={"k": list(q.radial), "l": [a if isinstance(a, int) else list(a) for a in q.angular]},
        paper_value=paper_value * omega,
        oracle_value=oracle_value * omega,
        ratio_oracle_over_paper=oracle_value / paper_value,
        exact_ratio_2=(2 * paper[0], 2 * paper[1]) == oracle,
    )


# -- coulomb spectra ------------------------------------------------------------------


def _coulomb_forms(q: EigenfunctionSpec) -> tuple:
    """(kappa, printed denominator) forms: 2 sum J + N - 1/2 + sum gamma and
    2 N_r + 4 sum J + 2N - 1 + 2 sum gamma."""
    if q.model.family != COULOMB:
        raise InvalidPartitionError("coulomb formula needs a coulomb model")
    J, N = sum(q.hyper_J), q.model.partition.N
    return (2 * J + N - Fraction(1, 2), 1), (2 * q.radial[0] + 4 * J + 2 * N - 1, 2)


def coulomb_energies(q: EigenfunctionSpec) -> tuple:
    """(printed energy, oracle energy, denominator identity holds, kappa).  The
    identity, decided on the forms, is that 2 (N_r + kappa) equals the printed
    denominator."""
    kappa, den = _coulomb_forms(q)
    eta2 = _positive_float(q.model.eta, "eta", power=2)
    N_r = q.radial[0]
    identity = (2 * (N_r + kappa[0]), 2 * kappa[1]) == den
    gamma_sum = sum(block_gammas(q))
    den, kappa = _value(den, gamma_sum), _value(kappa, gamma_sum)
    if den == 0:
        raise InadmissibleParametersError("zero spectral denominator")
    return -eta2 / den**2, -eta2 / (4.0 * (N_r + kappa) ** 2), identity, kappa


def coulomb_spectrum_row(q: EigenfunctionSpec) -> SpectrumResult:
    value, oracle, identity, _ = coulomb_energies(q)
    return SpectrumResult(
        quantum_numbers={
            "N_r": q.radial[0],
            "J": list(q.hyper_J),
            "l": [a if isinstance(a, int) else list(a) for a in q.angular],
        },
        paper_value=value,
        oracle_value=oracle,
        ratio_oracle_over_paper=oracle / value,
        exact_ratio_2=identity,
    )
