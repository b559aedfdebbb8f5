"""Exception types shared across the toolkit."""


class IvoptError(Exception):
    """Base class for all toolkit errors."""


class DomainError(IvoptError):
    """An input lies outside the mathematical domain of an operation."""


class NonFiniteError(IvoptError):
    """An evaluation produced NaN or infinity."""


class NonPositiveDefiniteError(IvoptError):
    """A matrix that must be symmetric positive definite is not."""


class ManifoldMismatchError(IvoptError):
    """Points, tangents, or functions from different manifolds were mixed."""


class NegativeWidthError(IvoptError):
    """An interval-valued function produced a width below the tolerance floor."""


class NotConvergedError(IvoptError):
    """An iteration did not settle: the difference-quotient ladder, or LP simplex pivots."""


class InfeasibleCandidateError(IvoptError):
    """The candidate point violates at least one constraint."""


class SamplerExhaustedError(IvoptError):
    """Rejection sampling failed to produce enough admissible points."""


class ConfigError(IvoptError):
    """A problem description file is malformed."""


class ExprSyntaxError(IvoptError):
    """Parse failure; carries the character offset and the expected token set."""

    def __init__(self, position: int, message: str, expected: tuple = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownFunctionError(IvoptError):
    """A call names a function that is not in the supported set."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r} at offset {position}")


class UnknownFeatureError(IvoptError):
    """An expression references a feature the target manifold does not expose."""

    def __init__(self, names, manifold_name: str):
        self.names = tuple(sorted(names))
        self.manifold_name = manifold_name
        super().__init__(
            f"feature(s) {', '.join(self.names)} not available on {manifold_name}"
        )
