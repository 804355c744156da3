"""Exception hierarchy shared across the package.

Three broad categories: DataError (bad or insufficient input),
NumericError (the math failed or the model is rejected by the data) and
NetworkError. Each class's `exit_code` is the CLI's exit status for it.
"""


class SpotvarError(Exception):
    """Base class for all package errors; outside the categories, a usage error."""

    exit_code = 2


class DataError(SpotvarError):
    """Input data is malformed, missing, or insufficient."""

    exit_code = 3


class NumericError(SpotvarError):
    """A numeric procedure failed or produced an inadmissible result."""

    exit_code = 4


class NetworkError(SpotvarError):
    """Remote endpoint unreachable, or its answer unusable."""

    exit_code = 5


class InvalidArgument(SpotvarError, ValueError):
    """A parameter out of its documented range (CLI exit 2); a ValueError too."""


# --- ingest ---

class MalformedRow(DataError):
    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"malformed kline row at line {line_no}: {detail}")

    def __reduce__(self):
        # the default rebuilds the error from its message alone
        return type(self), (self.line_no, self.detail)


class NonMonotonicTimestamp(DataError):
    pass


class EmptyInput(DataError):
    pass


class InvalidValue(DataError):
    """A close that is not a positive finite number, or a non-finite
    variation value."""


class EmptyRange(DataError):
    pass


# --- variation ---

class EmptyIntersection(DataError):
    pass


# --- summary ---

class EmptySeries(DataError):
    pass


class MissingRank(DataError):
    pass


# --- unitroot ---

class RankDeficient(NumericError):
    pass


class InsufficientData(DataError):
    pass


class SeriesTooShort(DataError):
    pass


# --- ou ---

class InvalidParams(NumericError):
    pass


class DegenerateSeries(DataError):
    pass


class NonMeanReverting(NumericError):
    """The closed-form fit implies alpha <= 0: the data rejects the OU fit."""


class NumericalBreakdown(NumericError):
    pass


# --- montecarlo ---

class InsufficientReplications(DataError):
    pass


class TooManyFailures(NumericError):
    pass


class GapWarning(UserWarning):
    """A missing minute in a fetched/parsed series; reported, never filled."""
