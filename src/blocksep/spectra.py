"""Eigenfunction quantum numbers and the exact spectral chain.

The paper's spectra come from one separation-of-variables chain: quantum
numbers give each block's angular eigenvalue lambda, lambda gives gamma, the
gammas give kappa (Coulomb), and those give the energy.  This module writes
that chain once, exactly: :func:`lambda_chain`, :func:`trig_roots`,
:func:`block_gammas` and the energy functions below; the eigenfunction
assembly in :mod:`specfun` takes every number it needs from here.

Energies are reported in two forms: the printed closed formula and the
oracle value carried by the assembled eigenfunctions (equivalently the
per-block 1D eigensolver).  For the oscillator the two differ by an exact
factor of 2 (the printed formula matches a half-convention Hamiltonian);
both are always reported and the ratio is asserted exactly.  Exact sums of
square roots are handled by :class:`SqrtSum`, which suffices because every
identity in play is linear in the radicals sqrt(1 + 4 lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import InadmissibleParametersError, InvalidPartitionError
from .models import (
    COULOMB,
    OSCILLATOR,
    Constant,
    Hierarchy,
    Model2F11,
    ModelSpec,
    Zero,
    is_model2_tower,
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
            if not isinstance(v, int) or v < 0:
                raise InadmissibleParametersError("quantum numbers are non-negative integers")
        for i, a in enumerate(self.angular):
            d = part.block_sizes[i]
            pot = self._potential(i)
            if isinstance(pot, Hierarchy):
                if not isinstance(a, tuple) or len(a) != d - 1:
                    raise InadmissibleParametersError(
                        f"block {i + 1} needs a tuple of {d - 1} angular numbers"
                    )
                if not all(isinstance(v, int) and v >= 0 for v in a):
                    raise InadmissibleParametersError("angular numbers are non-negative ints")
            else:
                if not isinstance(a, int) or a < 0:
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


def _square_free(n: int):
    """n = s^2 * m with m square free; returns (s, m).

    Trial division stops once d^3 exceeds the cofactor, whose prime factors
    are then at least d: at most two, so it is square free or a prime squared.
    """
    s, m, d = 1, 1, 2
    while d * d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1
    if n > 1 and (r := math.isqrt(n)) * r == n:
        return s * r, m
    return s, m * n


class SqrtSum:
    """Exact value sum_m c_m sqrt(m) with square-free integer radicands.

    Invariant: the keys of ``terms`` are square free and no value is zero.
    The constructor stores ``terms`` as given, so a caller passes a fresh
    dict that keeps the invariant; only :meth:`sqrt_of` factors a radicand,
    and ``add`` and ``scale`` combine square-free terms without factoring.
    """

    def __init__(self, terms: dict | None = None):
        self.terms: dict = terms or {}

    def _accumulate(self, m: int, c: Fraction):
        cur = self.terms.get(m, Fraction(0)) + c
        if cur:
            self.terms[m] = cur
        else:
            self.terms.pop(m, None)

    @staticmethod
    def rational(c) -> "SqrtSum":
        return SqrtSum({1: Fraction(c)} if c else {})

    @staticmethod
    def sqrt_of(value: Fraction) -> "SqrtSum":
        """sqrt(p/q) = sqrt(p q) / q, exact; p and q are coprime, so they
        are factored apart and their square-free parts multiply."""
        value = Fraction(value)
        if value < 0:
            raise InadmissibleParametersError(f"negative radicand {value}")
        if value == 0:
            return SqrtSum()
        sp, mp = _square_free(value.numerator)
        sq, mq = _square_free(value.denominator)
        return SqrtSum({mp * mq: Fraction(sp * sq, value.denominator)})

    def add(self, other: "SqrtSum") -> "SqrtSum":
        out = SqrtSum(dict(self.terms))
        for m, c in other.terms.items():
            out._accumulate(m, c)
        return out

    def scale(self, c) -> "SqrtSum":
        c = Fraction(c)
        return SqrtSum({m: v * c for m, v in self.terms.items()} if c else {})

    def sub(self, other: "SqrtSum") -> "SqrtSum":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SqrtSum) and self.terms == other.terms

    def __float__(self):
        return float(sum(float(c) * math.sqrt(m) for m, c in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            bits.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return " + ".join(bits)


# -- angular eigenvalue chains ------------------------------------------------------


def lambda_chain(pot, d: int, angular):
    """Angular eigenvalue of [-L^2 + f] for one block.

    Exact (Fraction) for zero/constant potentials and for the trigonometric
    tower; constant hierarchies fall back to the eigensolver chain and return
    a float.  ``angular`` is the harmonic degree, or the per-level tuple for
    hierarchies.
    """
    if isinstance(pot, (Zero, Constant)):
        if not isinstance(angular, int) or angular < 0:
            raise InadmissibleParametersError("harmonic degree must be a non-negative int")
        if d == 1 and angular != 0:
            raise InadmissibleParametersError("size-1 blocks admit only l = 0")
        beta = Fraction(0)
        if isinstance(pot, Constant):
            if isinstance(pot.value, str):
                raise InadmissibleParametersError("lambda chain needs numeric constants")
            beta = Fraction(pot.value)
        return Fraction(angular * (angular + d - 2)) + beta
    if not isinstance(pot, Hierarchy):
        raise InadmissibleParametersError(f"unsupported potential {pot!r}")
    if not isinstance(angular, tuple) or len(angular) != d - 1:
        raise InadmissibleParametersError(f"need {d - 1} per-level numbers")
    if is_model2_tower(pot):
        return trig_roots(pot.levels[0].A, angular)[-1] ** 2 - Fraction((d - 2) ** 2, 4)
    return _lambda_chain_numeric(pot, d, angular)


def trig_roots(A, Js) -> list:
    """Exact roots r_j = 2 (J_1 + .. + J_j) + (j - 1)/2 + A + J_1, j = 1..d-1,
    of the trigonometric tower on a block of size d = len(Js) + 1: level j
    has eigenvalue r_j^2 - (j - 1)^2/4, and r_{j-1} is the Jacobi parameter
    of the angle above it."""
    base = Fraction(A) + Js[0]
    return [2 * total + Fraction(j, 2) + base for j, total in enumerate(accumulate(Js))]


def _lambda_chain_numeric(pot: Hierarchy, d: int, angular) -> float:
    """Eigensolver chain through the separated one-angle equations."""
    from .numerics import eigensolve_periodic, eigensolve_weighted_polar

    lvl0 = pot.levels[0]
    m = angular[0]
    # above a trigonometric level the tower (the closed form, the assembled psi)
    # counts only the even states of each angle: the k-th is eigenvalue 2k
    stride = 2 if isinstance(lvl0, Model2F11) else 1
    if isinstance(lvl0, Model2F11):
        alpha = float((Fraction(lvl0.A) + 3 * m) ** 2)
    elif isinstance(lvl0, (Zero, Constant)):
        c = 0.0 if isinstance(lvl0, Zero) else float(lvl0.value)
        # closed level-1 values m^2 + c; the periodic solver re-derives them
        vals = eigensolve_periodic(lambda phi: c + 0.0 * phi, n_eigenvalues=2 * m + 2)
        alpha = vals[2 * m] if m else vals[0]
    else:
        raise InadmissibleParametersError(f"unsupported innermost level {lvl0!r}")
    for j in range(2, d):
        lvl = pot.levels[j - 1]
        if isinstance(lvl, Model2F11):
            raise InadmissibleParametersError("trigonometric levels only sit innermost")
        c = 0.0 if isinstance(lvl, Zero) else float(lvl.value)
        k = angular[j - 1]
        vals = eigensolve_weighted_polar(
            lambda t, c=c, a=alpha: c + a / np.sin(t) ** 2,
            weight_power=j - 1,
            n_eigenvalues=stride * k + 1,
        )
        alpha = vals[stride * k]
    return alpha


def _half_root(q: EigenfunctionSpec, i: int) -> SqrtSum:
    """sqrt(1 + 4 lambda + (d-1)(d-3)) / 2 for block i, exactly: gamma for
    the Coulomb family, gamma - 1/2 for the oscillator."""
    d = q.model.partition.block_sizes[i]
    lam = lambda_chain(q._potential(i), d, q.angular[i])
    if not isinstance(lam, Fraction):
        lam = Fraction(lam).limit_denominator(10**12)
    disc = 1 + 4 * lam + (d - 1) * (d - 3)
    if disc < 0:
        raise InadmissibleParametersError(f"negative discriminant in block {i + 1}")
    return SqrtSum.sqrt_of(disc).scale(Fraction(1, 2))


def block_gammas(q: EigenfunctionSpec) -> list:
    """gamma of every block, exactly: 1/2 plus the half root for the
    oscillator, the half root alone for the Coulomb family."""
    roots = [_half_root(q, i) for i in range(q.model.partition.N)]
    if q.model.family == OSCILLATOR:
        return [SqrtSum.rational(Fraction(1, 2)).add(r) for r in roots]
    return roots


# -- oscillator spectra ------------------------------------------------------------


def _oscillator_energies(q: EigenfunctionSpec) -> tuple:
    """(paper, oracle) in units of omega, from one gamma per block."""
    if q.model.family != OSCILLATOR:
        raise InvalidPartitionError("oscillator formula needs an oscillator model")
    part = q.model.partition
    paper = SqrtSum.rational(2 * sum(q.radial) + Fraction(part.N, 2))
    oracle = SqrtSum.rational(sum(4 * k + 1 for k in q.radial))
    for gamma in block_gammas(q):
        paper = paper.add(gamma)
        oracle = oracle.add(gamma.scale(2))
    return paper, oracle


def oscillator_energy_oracle(q: EigenfunctionSpec) -> SqrtSum:
    """Eigenfunction/eigensolver value, in units of omega: sum (4k + 2 gamma + 1)."""
    return _oscillator_energies(q)[1]


@dataclass
class SpectrumResult:
    labels: dict
    paper_value: float
    oracle_value: float
    ratio_oracle_over_paper: float
    exact_ratio_2: bool

    def to_json(self):
        return {
            "quantum_numbers": self.labels,
            "paper_value": self.paper_value,
            "oracle_value": self.oracle_value,
            "ratio_oracle_over_paper": self.ratio_oracle_over_paper,
            "exact_ratio_2": self.exact_ratio_2,
        }


def oscillator_spectrum_row(q: EigenfunctionSpec) -> SpectrumResult:
    omega = omega_value(q.model)
    paper, oracle = _oscillator_energies(q)
    return SpectrumResult(
        labels={"k": list(q.radial), "l": [a if isinstance(a, int) else list(a) for a in q.angular]},
        paper_value=float(paper) * omega,
        oracle_value=float(oracle) * omega,
        ratio_oracle_over_paper=float(oracle) / float(paper),
        exact_ratio_2=paper.scale(2).sub(oracle).is_zero(),
    )


# -- coulomb spectra ------------------------------------------------------------------


def _coulomb_energies(q: EigenfunctionSpec) -> tuple:
    """(printed energy, oracle energy, denominator identity holds, kappa) from
    one gamma per block: kappa = 2 sum J + N - 1/2 + sum gamma, the printed
    denominator is 2 N_r + 4 sum J + 2N - 1 + 2 sum gamma, and the identity,
    checked exactly, is that 2 (N_r + kappa) equals it."""
    if q.model.family != COULOMB:
        raise InvalidPartitionError("coulomb formula needs a coulomb model")
    eta2 = _positive_float(q.model.eta, "eta", power=2)
    part = q.model.partition
    kappa = SqrtSum.rational(2 * sum(q.hyper_J) + part.N - Fraction(1, 2))
    den = SqrtSum.rational(2 * q.radial[0] + 4 * sum(q.hyper_J) + 2 * part.N - 1)
    for gamma in block_gammas(q):
        kappa, den = kappa.add(gamma), den.add(gamma.scale(2))
    identity = kappa.add(SqrtSum.rational(q.radial[0])).scale(2).sub(den).is_zero()
    den = float(den)
    if den == 0:
        raise InadmissibleParametersError("zero spectral denominator")
    kappa = float(kappa)
    return -eta2 / den**2, -eta2 / (4.0 * (q.radial[0] + kappa) ** 2), identity, kappa


def coulomb_spectrum_row(q: EigenfunctionSpec) -> SpectrumResult:
    value, oracle, identity, _ = _coulomb_energies(q)
    return SpectrumResult(
        labels={
            "N_r": q.radial[0],
            "J": list(q.hyper_J),
            "l": [a if isinstance(a, int) else list(a) for a in q.angular],
        },
        paper_value=value,
        oracle_value=oracle,
        ratio_oracle_over_paper=oracle / value,
        exact_ratio_2=identity,
    )
