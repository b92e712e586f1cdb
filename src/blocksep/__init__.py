"""Exact operator algebra and verification harness for block-separated
singular oscillator and Coulomb systems.

The package builds the model Hamiltonians and all of their integrals of
motion as normal-ordered differential operators with exact rational
coefficients (extended by the norm radical r = |x|), reduces every cataloged
operator identity to normal form, and cross-checks spectra and closed-form
eigenfunctions against finite-difference oracles.
"""

__version__ = "0.1.0"

from .partition import Partition, make_partition  # noqa: F401
from .ring import Coefficient, Context, Poly  # noqa: F401
from .opalg import DiffOp  # noqa: F401
from .models import (  # noqa: F401
    Constant,
    Hierarchy,
    Model2F11,
    ModelSpec,
    Zero,
    build_hamiltonian,
    coulomb_spec,
    model2_potential,
    operator_context,
    oscillator_spec,
)
from .integrals import IntegralName, build_integral, structural_constant  # noqa: F401
from .relations import OperatorEnv, verify_symbolic  # noqa: F401
from .specfun import assemble_eigenfunction  # noqa: F401
from .spectra import EigenfunctionSpec  # noqa: F401
