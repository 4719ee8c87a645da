"""Exception types raised by the rankeffect package."""


class RankEffectError(Exception):
    """Base class for all operational errors raised by this package."""


class DimensionMismatch(RankEffectError):
    """Value matrix and observedness mask have inconsistent shapes."""


class EmptySubject(RankEffectError):
    """A subject (column) has no observed cell at all."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"subject column {column} has no observed cells")


class NonFiniteObservedValue(RankEffectError):
    """An observed cell holds NaN or infinity."""


class InestimableComponent(RankEffectError):
    """One group has no observations on a component, so its effect is undefined."""

    def __init__(self, component: int, group: int):
        self.component = component
        self.group = group
        super().__init__(f"effect for component {component} is inestimable (group {group})")


class EverythingFiltered(RankEffectError):
    """A case restriction removed all usable data for some component."""


class NoEstimablePart(RankEffectError):
    """Every additive part of the covariance estimator is degenerate."""


class PatternMismatch(RankEffectError):
    """The requested missingness pattern does not match the data."""


class DomainError(RankEffectError):
    """Argument outside the mathematical domain of a special function."""


class NotPositiveDefinite(RankEffectError):
    """The requested covariance/scale matrix is not positive definite."""


class ScenarioError(RankEffectError):
    """A simulation scenario fails validation."""


class ParseError(RankEffectError):
    """A dataset file could not be parsed."""

    def __init__(self, reason: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        self.reason = reason
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"parse error{loc}: {reason}")


class InconsistentWidth(ParseError):
    """A dataset row has a different number of cells than the header/first row."""

    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"expected {expected} cells, got {got}", line=line)
