"""Exception types shared across the solver."""

from __future__ import annotations


class PolykinError(Exception):
    """Base class for all solver errors."""


class OutOfRange(PolykinError, ValueError):
    """A scheme parameter violates its admissible range."""


class InvalidConfig(PolykinError, ValueError):
    """Grid or scenario configuration is structurally invalid."""


class DegenerateGrid(PolykinError, ArithmeticError):
    """A discrete quadrature sum underflowed to zero."""


class NegativeInitialData(PolykinError, ValueError):
    """Initial condition sampled to a negative or non-finite value."""


class GridMismatch(PolykinError, ValueError):
    """Two fields that must share a grid do not."""


class ZeroDensity(PolykinError, ArithmeticError):
    """A spatial cell has (numerically) vacuum mass."""

    def __init__(self, cell: int, rho: float):
        super().__init__(f"cell {cell} has non-positive density {rho!r}")
        self.cell = cell
        self.rho = rho


class NonFiniteField(PolykinError, ArithmeticError):
    """A spatial cell holds NaN or infinite entries (exit code 3)."""

    def __init__(self, cell: int, rho: float):
        super().__init__(f"cell {cell} has non-finite density {rho!r}")
        self.cell = cell


class NegativeField(PolykinError, ValueError):
    """A distribution that must be nonnegative has negative entries."""


class NonSPDTensor(PolykinError, ArithmeticError):
    """Temperature tensor is not symmetric positive definite.

    Signals a degenerate or under-resolved cell; the blended tensor is
    guaranteed SPD only when the discrete moments come from nonnegative
    data with positive density.
    """


class DegenerateTemperature(PolykinError, ArithmeticError):
    """Relaxation temperature is non-positive."""


class NonFiniteGaussian(PolykinError, ArithmeticError):
    """A cell's Gaussian prefactor overflowed or underflowed (exit code 3)."""


class BoundViolated(PolykinError, AssertionError):
    """A quadratic-form sandwich bound failed beyond tolerance."""


class DegenerateTable(PolykinError, ValueError):
    """Convergence table has non-positive or non-monotone errors."""


class ParseError(PolykinError, ValueError):
    """Scenario file could not be parsed."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(PolykinError, ValueError):
    """Scenario contents fail validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
