"""Exception hierarchy shared across the package."""


class CharforgeError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CharforgeError):
    pass


class NotUnitary(CharforgeError):
    pass


class OrderCapExceeded(CharforgeError):
    """Closure passed the configured order cap; the generated group is not
    finite or is larger than the cap."""


class KeyCollision(CharforgeError):
    """A product lies between tol and 8*tol of an element or of another
    product: the generated set is not tolerance-separated."""


class DegenerateSpectrum(CharforgeError):
    """Eigenvalue collisions persisted through all re-draw attempts."""


class NonIntegralDegree(CharforgeError):
    """A recovered irrep degree was too far from an integer."""


class GroupMismatch(CharforgeError):
    pass


class CircuitSyntaxError(CharforgeError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class QubitOutOfRange(CharforgeError):
    pass


class AngleMissing(CharforgeError):
    pass


class InvalidSpec(CharforgeError):
    pass


class TooWide(CharforgeError):
    pass


class MeasurementInUnitary(CharforgeError):
    pass


class NotHermitian(CharforgeError):
    pass


class NonCliffordGate(CharforgeError):
    pass


class ElementNotInGroup(CharforgeError):
    pass


class MissingGCost(CharforgeError):
    pass


class ConflictingDeclaration(CharforgeError):
    pass


class InsufficientFixtures(CharforgeError):
    pass


class IoError(CharforgeError):
    pass
