"""Closed-form spectra: exact energy forms and oracle agreement."""

import itertools
from fractions import Fraction

import pytest

from blocksep.errors import InadmissibleParametersError
from blocksep.models import (
    Constant,
    Hierarchy,
    Model2F11,
    Zero,
    coulomb_spec,
    model2_potential,
    oscillator_spec,
)
from blocksep import spectra
from blocksep.numerics import Eigensolve1DProblem, eigensolve_1d
from blocksep.specfun import EigenfunctionSpec
from blocksep.spectra import (
    coulomb_spectrum_row,
    lambda_chain,
    oscillator_energy_oracle,
    oscillator_spectrum_row,
    tower_roots,
)

from oracles import eigensolver_lambda


def test_lambda_chain_closed_forms():
    assert lambda_chain(Constant(Fraction(0)), 3, 1) == 2  # l(l+d-2) = 1*2
    assert lambda_chain(Constant(Fraction(0)), 2, 2) == 4
    assert lambda_chain(Zero(), 2, 2) == 4
    assert lambda_chain(Constant(Fraction(3, 4)), 1, 0) == Fraction(3, 4)
    pot = model2_potential(2, 4, 1)
    assert lambda_chain(pot, 2, (1,)) == 49  # (A + 3 J)^2 at A=4, J=1


def test_lambda_chain_numeric_matches_harmonics():
    """The tower's root recursion gives l(l+1) + beta on a 3-block exactly,
    also where its top root is irrational, and the eigensolver chain agrees."""
    beta = Fraction(2)
    pot = Hierarchy((Zero(), Constant(beta)))
    for m, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        lam = lambda_chain(pot, 3, (m, k))
        l = m + k
        assert type(lam) is Fraction and lam == l * (l + 1) + beta, (m, k)
        assert eigensolver_lambda(pot, 3, (m, k)) == pytest.approx(float(lam), rel=1e-6), (m, k)


@pytest.mark.parametrize("levels, angular", [
    ((Constant(Fraction(-1, 2)), Constant(Fraction(-1, 3))), (1, 2)),
    ((Model2F11(4, 1), Constant(Fraction(5)), Constant(Fraction(-2))), (1, 1, 2)),
    ((Constant(Fraction(1, 3)), Constant(Fraction(2)), Constant(Fraction(-1, 5))), (2, 1, 1)),
], ids=["constants-irrational-root", "model2-under-constants", "constants-d4"])
def test_lambda_chain_matches_the_eigensolver_chain(levels, angular):
    """Every tower's closed form agrees with the grid eigensolvers at 1e-6,
    where a root below the top is irrational and lambda a float."""
    pot = Hierarchy(levels)
    d = len(levels) + 1
    lam = lambda_chain(pot, d, angular)
    assert type(lam) is float
    assert lam == pytest.approx(eigensolver_lambda(pot, d, angular), rel=1e-6)


def test_tower_roots_are_exact_where_their_radicands_are_squares():
    pot = Hierarchy((Model2F11(4, 1), Constant(Fraction(16))))
    roots = tower_roots(pot, (1, 0))
    assert roots == [7, Fraction(17, 2)]  # sqrt((7 + 1/2)^2 + 16)
    assert all(type(r) is Fraction for r in roots)
    assert lambda_chain(pot, 3, (1, 0)) == 72
    irrational = tower_roots(Hierarchy((Constant(Fraction(-1, 2)), Zero())), (1, 0))
    assert [type(r) for r in irrational] == [float, float]
    assert irrational == [pytest.approx(0.5**0.5), pytest.approx(0.5**0.5 + 0.5)]


@pytest.mark.parametrize("levels, angular", [
    ((Constant(Fraction(-2)),), (1,)),
    ((Zero(), Constant(Fraction(-10))), (0, 1)),
    ((Zero(), Constant("b")), (0, 0)),
], ids=["innermost-falls", "upper-falls", "symbolic-level"])
def test_lambda_chain_refuses_a_level_that_falls_to_the_centre(levels, angular):
    with pytest.raises(InadmissibleParametersError):
        lambda_chain(Hierarchy(levels), len(levels) + 1, angular)


def test_oscillator_energy_examples():
    spec = oscillator_spec([1, 1], (Zero(), Zero()), omega2=1)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    assert oscillator_spectrum_row(q).paper_value == pytest.approx(3.0)
    assert oscillator_energy_oracle(q) == pytest.approx(6.0)
    q1 = EigenfunctionSpec(spec, angular=(0, 0), radial=(1, 0))
    assert oscillator_spectrum_row(q1).paper_value == pytest.approx(5.0)

    spec22 = oscillator_spec([2, 2], (Zero(), Zero()), omega2=1)
    q22 = EigenfunctionSpec(spec22, angular=(0, 0), radial=(0, 0))
    # gamma_i = 1/2 at the boundary discriminant: paper 2, oracle 4
    assert oscillator_spectrum_row(q22).paper_value == pytest.approx(2.0)
    assert oscillator_energy_oracle(q22) == pytest.approx(4.0)


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
            row = oscillator_spectrum_row(q)
            assert row.exact_ratio_2
            assert row.ratio_oracle_over_paper == pytest.approx(2.0)


def test_degeneracy_depends_on_total_k():
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(1))), omega2=1)
    values = {}
    for k1 in range(4):
        for k2 in range(4 - k1):
            q = EigenfunctionSpec(spec, angular=(0, 0), radial=(k1, k2))
            values.setdefault(k1 + k2, set()).add(round(oscillator_energy_oracle(q), 10))
    for total, vals in values.items():
        assert len(vals) == 1, (total, vals)


def test_energy_monotone_in_k():
    spec = oscillator_spec([2, 2], (Constant(Fraction(1)), Constant(Fraction(2))), omega2=1)
    prev = None
    for k in range(4):
        q = EigenfunctionSpec(spec, angular=(0, 0), radial=(k, 0))
        val = oscillator_energy_oracle(q)
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
    assert total == pytest.approx(oscillator_energy_oracle(q), rel=1e-6)


def test_coulomb_hydrogen_degenerate_case():
    spec = coulomb_spec([3], (), eta=2)
    q = EigenfunctionSpec(spec, angular=(0,), radial=(0,), hyper_J=())
    row = coulomb_spectrum_row(q)
    assert row.paper_value == pytest.approx(-1.0)
    assert row.exact_ratio_2


def test_coulomb_energies_and_identity_2_2():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    prev = None
    for N_r in range(3):
        for J1 in range(2):
            q = EigenfunctionSpec(spec, angular=(0, 0), radial=(N_r,), hyper_J=(J1,))
            row = coulomb_spectrum_row(q)
            assert row.exact_ratio_2
            assert row.oracle_value == pytest.approx(row.paper_value, rel=1e-12)
        val = coulomb_spectrum_row(
            EigenfunctionSpec(spec, angular=(0, 0), radial=(N_r,), hyper_J=(0,))
        ).paper_value
        if prev is not None:
            assert val > prev  # |E| decreases toward 0
        prev = val


def test_coulomb_example_energy_value():
    spec = coulomb_spec([2, 2], (Constant(Fraction(1)),), eta=2)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0,), hyper_J=(0,))
    assert coulomb_spectrum_row(q).paper_value == pytest.approx(-4.0 / 25.0)


def test_energy_forms_hold_only_exact_rationals():
    """The verdicts compare forms (a, b), read a + b sum(gamma), so no float
    may enter them, not even from a block whose lambda is a float."""
    hierarchy = Hierarchy((Zero(), Constant(Fraction(2))))
    osc = oscillator_spec([2, 3], (Constant(Fraction(1, 3)), hierarchy), omega2=2)
    coul = coulomb_spec([3, 2], (model2_potential(3, 4, 1),), eta=2)
    osc_q = EigenfunctionSpec(osc, angular=(1, (0, 1)), radial=(1, 2))
    coul_q = EigenfunctionSpec(coul, angular=((1, 1), 0), radial=(1,), hyper_J=(1,))
    forms = [*spectra._oscillator_energies(osc_q), *spectra._coulomb_forms(coul_q)]
    assert forms == [(7, 1), (14, 2), (Fraction(7, 2), 1), (9, 2)]
    assert all(type(v) in (int, Fraction) for form in forms for v in form)


def test_negative_discriminant_raises():
    spec = oscillator_spec([2, 1], (Constant(Fraction(-10)), Zero()), omega2=1)
    q = EigenfunctionSpec(spec, angular=(0, 0), radial=(0, 0))
    with pytest.raises(InadmissibleParametersError):
        oscillator_energy_oracle(q)


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
