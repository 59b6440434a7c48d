"""Error taxonomy shared by all optdeg modules.

Every failure mode raised by the library derives from OptdegError so that
callers (and the CLI) can map errors to exit codes without string matching.
"""


class OptdegError(Exception):
    """Base class for all optdeg errors."""


# --- parsing -------------------------------------------------------------

class ExpressionSyntaxError(OptdegError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariable(OptdegError):
    def __init__(self, name, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"undeclared variable '{name}'{at}")
        self.name = name
        self.position = position


class NegativeExponent(OptdegError):
    pass


class ZeroDenominator(OptdegError):
    pass


# --- algebra core --------------------------------------------------------

class RingMismatch(OptdegError):
    pass


class VariableCollision(OptdegError, ValueError):
    """An adjoined variable name is already a variable of the ring."""


class SizeOutOfRange(OptdegError):
    pass


# --- groebner engine -----------------------------------------------------

class BudgetExceeded(OptdegError):
    """Raised when a Groebner computation exceeds its reduction-step budget."""


class NotZeroDimensional(OptdegError):
    pass


# --- critical ideals -----------------------------------------------------

class PositiveDimensionalFiber(OptdegError):
    """A sampled data point gave a positive-dimensional critical locus."""


class DenominatorVanishesOnX(OptdegError):
    pass


class NotHomogeneous(OptdegError):
    pass


class ContainedInIsotropic(OptdegError):
    pass


class EvoluteDegenerate(OptdegError, ValueError):
    """The evolute system eliminated to the zero ideal (a line at p >= 3)
    or to a zero-dimensional one (a circle at p = 2), or the variety is
    not a curve (codimension other than 1): the envelope is not a curve."""


class EvoluteLinesDegenerate(OptdegError):
    """Every drawn line lowered the degree of the evolute restricted to it,
    so its squarefree degree would not be the evolute's."""


class NotPrincipalWarning(UserWarning):
    """Elimination ideal expected to be principal has several generators."""


# --- conormal / polar ----------------------------------------------------

class CollapsedToUnit(OptdegError):
    """Saturation wiped out the whole correspondence."""


# --- formulary -----------------------------------------------------------

class LengthMismatch(OptdegError):
    pass


# --- radical towers ------------------------------------------------------

class ZeroAlpha(OptdegError):
    pass


class RestrictionIllDefined(OptdegError):
    pass


# --- cli -----------------------------------------------------------------

class SchemaError(OptdegError):
    """Job document violates the input schema."""
