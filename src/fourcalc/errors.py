"""Exception types shared across the package."""


class FourcalcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidExpr(FourcalcError):
    """A structural invariant of an expression tree is violated."""


class NonIntegralQuotient(InvalidExpr):
    """A cyclic quotient would have non-integral invariants."""


class NonDivisibleBranch(InvalidExpr):
    """A branch divisor class is not divisible by the cover degree."""


class NegativeDegree(InvalidExpr):
    """A degree parameter that must be positive is not."""


class InconsistentFlags(FourcalcError):
    """Declared structure flags contradict the invariants (e.g. Rohlin)."""


class MissingCapability(InvalidExpr):
    """A surgery needs a submanifold the operand does not carry."""


class UnsupportedPattern(FourcalcError):
    """No covering-space expansion rule matches the expression."""


class UnknownFlag(FourcalcError):
    """A homeomorphism key requires a flag that is still unknown."""


class UnsupportedGroup(FourcalcError):
    """Homeomorphism classification only covers trivial/cyclic groups."""


class NoSplit(FourcalcError):
    """No decomposition of a connected sum fits the obstruction pattern."""


class AdmissibilityFail(FourcalcError):
    """The gcd conditions for a free cyclic action fail."""


class BadParity(FourcalcError):
    """A family index has the wrong parity."""


class BadP(FourcalcError):
    """Blow-up count outside the open interval required by the family."""


class InfeasiblePoint(FourcalcError):
    """A lattice point cannot be realized by the blueprint builder."""


class MismatchedInvariants(FourcalcError):
    """Two expressions claimed diffeomorphic have different invariants."""


class MixedRewriteModes(FourcalcError):
    """An expression mixes spin-mode and non-spin-mode summands."""


class DslSyntaxError(FourcalcError):
    """DSL input failed to parse; carries line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UnknownPrimitive(DslSyntaxError):
    """DSL input names a primitive that the primitive table does not declare."""


class RefusedPrimitive(DslSyntaxError):
    """DSL input names a well-written primitive whose declaration the table
    refuses, because a record or flag check fails (``InconsistentFlags``).
    It keeps its position, but it is no syntax error: the CLI reports it
    as an error."""
