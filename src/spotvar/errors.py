"""Exception hierarchy shared across the package.

Three broad categories map onto CLI exit codes: DataError (bad or
insufficient input, exit 3), NumericError (the math failed or the model is
rejected by the data, exit 4), NetworkError (exit 5).
"""


class SpotvarError(Exception):
    """Base class for all package errors."""


class DataError(SpotvarError):
    """Input data is malformed, missing, or insufficient."""


class NumericError(SpotvarError):
    """A numeric procedure failed or produced an inadmissible result."""


class NetworkError(SpotvarError):
    """Remote endpoint unreachable, or its answer unusable."""


class InvalidArgument(SpotvarError, ValueError):
    """A parameter out of its documented range (CLI exit 2); a ValueError too."""


# --- ingest ---

class MalformedRow(DataError):
    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        super().__init__(f"malformed kline row at line {line_no}: {detail}")


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


class NonPositivePrice(DataError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"non-positive price at index {index}")


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


class UnsupportedLevel(DataError):
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
