"""Exception types shared across the package."""


class QidentError(Exception):
    """Base class for all qident errors."""


class NonUnitConstantTerm(QidentError):
    """Series inversion requires the constant term to be exactly 1."""


class NonConvergent(QidentError):
    """Infinite product/sum does not converge formally (q-degree <= 0)."""


class TruncationRequired(QidentError):
    """Operation would produce an infinite series; a truncation order is needed."""


class DivisionInexact(QidentError):
    """Exact division by zero or with a remainder: a user's text, or a bug."""


class DomainViolation(QidentError):
    """An element fails the validator of the domain it was claimed to be in."""


class NotSelfConjugate(DomainViolation):
    """Hook decomposition requires a self-conjugate partition."""


class UnknownDomain(QidentError):
    """No enumerable family registered under this name."""


class MissingParam(QidentError):
    """A required parameter (n, k or weight cap) was not supplied."""


class UnknownBijection(QidentError):
    """No bijection registered under this name."""


class UnknownIdentity(QidentError):
    """No identity registered under this id."""


class BadParams(QidentError):
    """Parameters do not match the identity's or the bijection's schema."""


class DslError(QidentError):
    """Base class for expression-language errors."""


class ParseError(DslError):
    """Syntax error with source position and a summary of expected tokens."""

    def __init__(self, message, line, col, expected=""):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"{line}:{col}"
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{loc}: {message}{suffix}")


class UnboundVariable(DslError):
    """A free variable had no binding at evaluation time."""


class NonIntegerExponent(DslError):
    """A series-valued expression was used where an integer is required."""
