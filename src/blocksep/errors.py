"""Exception types shared across the package."""


class BlocksepError(Exception):
    """Base class for all package-specific errors."""


class InvalidPartitionError(BlocksepError):
    """Block sizes empty, non-positive, or inconsistent."""


class SingularPointError(BlocksepError):
    """Coordinate map requested at a point where it is not invertible."""


class ContextMismatchError(BlocksepError):
    """Operands built over different operator contexts."""


class ExponentOverflowError(BlocksepError):
    """A monomial's degree exceeds what a packed exponent field holds."""


class UndeclaredParameterError(BlocksepError):
    """A parameter name is not declared in the context."""


class UnsupportedSymbolicPotentialError(BlocksepError):
    """Angular potential has no exact Cartesian rational form."""


class EvaluationSingularityError(BlocksepError):
    """Numeric potential evaluation hit a vanishing denominator."""


class InvalidIntegralError(BlocksepError):
    """Integral name outside its declared index range."""


class InapplicableRelationError(BlocksepError):
    """Relation constraints not satisfiable by the given model."""


class RelationSyntaxError(BlocksepError):
    """Parse error in a user-supplied relation file."""


class InadmissibleParametersError(BlocksepError):
    """Quantum numbers or polynomial parameters outside the admissible set."""


class OracleUnconvergedError(BlocksepError):
    """Grid-doubling eigensolver failed to converge within its cap."""


class ConfigError(BlocksepError):
    """Invalid run configuration (unknown field, bad value, missing input)."""
