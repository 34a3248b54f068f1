"""Exception types raised by the fusion library."""


class DsmError(Exception):
    """Base class for all library errors."""


class EmptyFrame(DsmError):
    pass


class DuplicateName(DsmError):
    pass


class InvalidIdentifier(DsmError):
    pass


class IndexOutOfRange(DsmError):
    pass


class FrameMismatch(DsmError):
    pass


class FrameTooLarge(DsmError):
    pass


class CombinationTooLarge(DsmError):
    """A combination fold step would exceed FOLD_LIMIT (states x focal sets x state bits)."""


class NotAnElement(DsmError):
    """Not an element of a frame's hyper-power set.

    An atom bitset that is out of the frame's range or not up-closed, or a
    mass key that is not a Proposition.
    """


class VacuousModel(DsmError):
    """Every atom of the frame was constrained away; no fusion problem remains."""


class MassOnEmptyClass(DsmError):
    pass


class NegativeMass(DsmError):
    pass


class MassSumNotOne(DsmError):
    def __init__(self, actual: float, expected: float = 1.0):
        super().__init__(f"masses sum to {actual!r}, expected {1 if expected == 1.0 else expected!r}")
        self.actual = actual


class EmptySetMass(DsmError):
    pass


class NotPowerSetSupport(DsmError):
    pass


class FewerThanTwoSources(DsmError):
    pass


class FullContradiction(DsmError):
    """Total conflict equals 1; the normalized orthogonal sum does not exist."""


class WeightsNotNormalized(DsmError):
    pass


class ProbabilitiesNotNormalized(DsmError):
    pass


class MissingName(DsmError):
    pass


class RuleNotApplicable(DsmError):
    pass


class ParseError(DsmError):
    """Base class for expression parsing errors; carries a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class EmptyExpression(ParseError):
    def __init__(self):
        super().__init__("empty expression", 0)


class UnknownIdentifier(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r}", position)
        self.name = name


class ExprSyntaxError(ParseError):
    """Syntax error; named to avoid shadowing the builtin SyntaxError."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"expected {expected}", position)
        self.expected = expected


class ScenarioError(DsmError):
    """Malformed scenario file or inconsistent command-line input."""
