"""Closed-form spectra: exact radical identities and oracle agreement."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from blocksep.errors import InadmissibleParametersError
from blocksep.models import (
    Constant,
    Hierarchy,
    Zero,
    coulomb_spec,
    model2_potential,
    oscillator_spec,
)
from blocksep import spectra
from blocksep.numerics import Eigensolve1DProblem, eigensolve_1d
from blocksep.specfun import EigenfunctionSpec
from blocksep.spectra import (
    SqrtSum,
    coulomb_denominator_identity,
    coulomb_energy,
    coulomb_spectrum_row,
    lambda_chain,
    oscillator_energy_oracle,
    oscillator_energy_paper,
    oscillator_spectrum_row,
    paper_oracle_ratio_is_half,
)


def test_sqrtsum_arithmetic():
    a = SqrtSum.sqrt_of(Fraction(8))  # 2 sqrt(2)
    assert a.terms == {2: Fraction(2)}
    b = SqrtSum.sqrt_of(Fraction(9))  # rational 3
    assert b.is_rational() and b == SqrtSum.rational(3)
    c = SqrtSum.sqrt_of(Fraction(1, 2))  # sqrt(2)/2
    assert a.add(c.scale(-4)).is_zero()
    assert float(SqrtSum.sqrt_of(Fraction(5))) == pytest.approx(math.sqrt(5))


def test_lambda_chain_closed_forms():
    assert lambda_chain(Constant(Fraction(0)), 3, 1) == 2  # l(l+d-2) = 1*2
    assert lambda_chain(Constant(Fraction(0)), 2, 2) == 4
    assert lambda_chain(Zero(), 2, 2) == 4
    assert lambda_chain(Constant(Fraction(3, 4)), 1, 0) == Fraction(3, 4)
    pot = model2_potential(2, 4, 1)
    assert lambda_chain(pot, 2, (1,)) == 49  # (A + 3 J)^2 at A=4, J=1


def test_lambda_chain_numeric_matches_harmonics():
    """Eigensolver chain reproduces l(l+1) + beta on a 3-block."""
    beta = Fraction(2)
    pot = Hierarchy((Zero(), Constant(beta)))
    for m, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        lam = lambda_chain(pot, 3, (m, k))
        l = m + k
        expect = l * (l + 1) + float(beta)
        assert lam == pytest.approx(expect, rel=1e-6), (m, k)


def test_oscillator_energy_examples():
    spec = oscillator_spec([1, 1], (Zero(), Zero()), omega2=1)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    assert float(oscillator_energy_paper(q)) == pytest.approx(3.0)
    assert float(oscillator_energy_oracle(q)) == pytest.approx(6.0)
    q1 = EigenfunctionSpec(spec, angular=(0, 0), radial=(1, 0))
    assert float(oscillator_energy_paper(q1)) == pytest.approx(5.0)

    spec22 = oscillator_spec([2, 2], (Zero(), Zero()), omega2=1)
    q22 = EigenfunctionSpec(spec22, angular=(0, 0), radial=(0, 0))
    # gamma_i = 1/2 at the boundary discriminant: paper 2, oracle 4
    assert float(oscillator_energy_paper(q22)) == pytest.approx(2.0)
    assert float(oscillator_energy_oracle(q22)) == pytest.approx(4.0)


def test_ratio_paper_oracle_exactly_two():
    specs = [
        oscillator_spec([1, 1], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1),
        oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1),
        oscillator_spec([3, 1], (Constant(Fraction(1, 3)), Zero()), omega2=4),
    ]
    for spec in specs:
        for k1, k2, l1 in itertools.product(range(2), range(2), range(2)):
            if spec.partition.block_sizes[0] == 1 and l1 != 0:
                continue
            q = EigenfunctionSpec(spec, angular=(l1, 0), radial=(k1, k2))
            assert paper_oracle_ratio_is_half(q)
            row = oscillator_spectrum_row(q)
            assert row.exact_ratio_2
            assert row.ratio_oracle_over_paper == pytest.approx(2.0)


def test_degeneracy_depends_on_total_k():
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(1))), omega2=1)
    values = {}
    for k1 in range(4):
        for k2 in range(4 - k1):
            q = EigenfunctionSpec(spec, angular=(0, 0), radial=(k1, k2))
            values.setdefault(k1 + k2, set()).add(round(float(oscillator_energy_oracle(q)), 10))
    for total, vals in values.items():
        assert len(vals) == 1, (total, vals)


def test_energy_monotone_in_k():
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    prev = None
    for k in range(4):
        q = EigenfunctionSpec(spec, angular=(0, 0), radial=(k, 0))
        val = float(oscillator_energy_oracle(q))
        if prev is not None:
            assert val > prev
        prev = val


def test_oracle_matches_eigensolver_per_block():
    spec = oscillator_spec([2, 2], (Constant(Fraction(2)), Constant(Fraction(2))), omega2=1)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 1))
    total = 0.0
    for i, k in enumerate(q.radial):
        lam = lambda_chain(spec.potentials[i], 2, 0)
        c = float(lam) + (2 - 1) * (2 - 3) / 4.0
        vals = eigensolve_1d(
            Eigensolve1DProblem(lambda r, c=c: r**2 + c / r**2, L=14.0, n_eigenvalues=k + 1)
        )
        total += vals[k]
    assert total == pytest.approx(float(oscillator_energy_oracle(q)), rel=1e-6)


def test_coulomb_hydrogen_degenerate_case():
    spec = coulomb_spec([3], (), eta=2)
    q = EigenfunctionSpec(spec, angular=(0,), radial=(0,), hyper_J=())
    assert coulomb_energy(q) == pytest.approx(-1.0)
    assert coulomb_denominator_identity(q)


def test_coulomb_energies_and_identity_2_2():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    prev = None
    for N_r in range(3):
        for J1 in range(2):
            q = EigenfunctionSpec(spec, angular=(0, 0), radial=(N_r,), hyper_J=(J1,))
            assert coulomb_denominator_identity(q)
            row = coulomb_spectrum_row(q)
            assert row.oracle_value == pytest.approx(row.paper_value, rel=1e-12)
        val = coulomb_energy(
            EigenfunctionSpec(spec, angular=(0, 0), radial=(N_r,), hyper_J=(0,))
        )
        if prev is not None:
            assert val > prev  # |E| decreases toward 0
        prev = val


def test_coulomb_example_energy_value():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0,), hyper_J=(0,))
    assert coulomb_energy(q) == pytest.approx(-4.0 / 25.0)


def test_negative_discriminant_raises():
    spec = oscillator_spec([2, 1], (Constant(Fraction(-10)), Zero()), omega2=1)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    with pytest.raises(InadmissibleParametersError):
        oscillator_energy_paper(q)


def test_square_free_matches_brute_force():
    limit = 10**5
    root = [1] * limit  # largest s with s^2 dividing n
    for s in range(2, math.isqrt(limit) + 1):
        for n in range(s * s, limit, s * s):
            root[n] = s
    for n in range(1, limit):
        assert spectra._square_free(n) == (root[n], n // root[n] ** 2), n
    p, q, r = 10007, 999983, 1000003
    for n, expect in ((p * p, (p, 1)), (q * q, (q, 1)), (p * q, (1, p * q)), (q * r, (1, q * r)),
                      (p * p * q, (p, q)), (q * q * p, (q, p)), (r * r * q, (r, q)),
                      (10009 * p * q, (1, 10009 * p * q)), (4 * 9 * q * q * r, (6 * q, r))):
        assert spectra._square_free(n) == expect, n


def test_sqrt_of_float_derived_fraction_is_fast():
    x = 2.718281828459045
    start = time.perf_counter()
    root = SqrtSum.sqrt_of(Fraction(x).limit_denominator(10**12))
    assert time.perf_counter() - start < 1.0
    assert float(root) == pytest.approx(math.sqrt(x), rel=1e-12)


def test_add_and_scale_do_not_factor(monkeypatch):
    three = SqrtSum.rational(3)
    a = SqrtSum.sqrt_of(Fraction(8)).add(three)
    b = SqrtSum.sqrt_of(Fraction(1, 2))
    calls = []
    original = spectra._square_free
    monkeypatch.setattr(spectra, "_square_free", lambda n: calls.append(n) or original(n))
    assert a.add(b.scale(-4)) == three
    assert a.sub(a).is_zero() and a.scale(0).is_zero()
    assert a.scale(Fraction(1, 2)).terms == {2: Fraction(1), 1: Fraction(3, 2)}
    assert calls == []


def test_spectrum_row_solves_each_block_once(monkeypatch):
    spec = oscillator_spec([3, 1], (Hierarchy((Zero(), Constant(Fraction(2)))), Zero()), omega2=1)
    q = EigenfunctionSpec(spec, angular=((0, 1), 0), radial=(0, 0))
    calls = []
    original = spectra.lambda_chain
    monkeypatch.setattr(spectra, "lambda_chain",
                        lambda pot, d, angular: calls.append(d) or original(pot, d, angular))
    row = spectra.oscillator_spectrum_row(q)
    assert sorted(calls) == [1, 3]
    assert row.exact_ratio_2
