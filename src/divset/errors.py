"""Shared exception types."""


class ParseError(ValueError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DimensionMismatch(ValueError):
    """Two vectors (or a vector and its instance) disagree on length."""


class UnboundVariableError(ValueError):
    """A formula uses a variable outside any quantifier scope."""


class NotApplicableError(RuntimeError):
    """A reduction's preconditions do not hold for the given input."""


class ContractError(RuntimeError):
    """A broken contract: an argument outside a function's stated domain
    (k < 1 for a threshold, a non-uniform set family, a formula that is not
    a sentence), or a guarantee the code proves that failed to hold (an
    invalid witness, a greedy or sunflower step short of its bound)."""


class OracleLimitError(RuntimeError):
    """The exhaustive solver refused an instance beyond its configured caps."""
