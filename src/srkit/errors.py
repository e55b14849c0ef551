"""Exception hierarchy shared by all srkit modules."""


class SrkitError(Exception):
    """Base class for all srkit errors."""


# field
class NotPrime(SrkitError):
    pass


class ReducibleModulus(SrkitError):
    pass


class DegreeMismatch(SrkitError):
    pass


class DivisionByZero(SrkitError):
    pass


class MixedFields(SrkitError):
    pass


class IncompatibleTower(SrkitError):
    pass


# matq / ambient
class AmbientMismatch(SrkitError):
    pass


class TooLarge(SrkitError):
    """An enumeration or table would exceed the configured guard."""


class BadBlock(SrkitError):
    pass


class ProfileMismatch(SrkitError):
    pass


class NotComparable(SrkitError):
    pass


# code
class TrivialCode(SrkitError):
    pass


class NotMsrd(SrkitError):
    pass


class IndexOutOfTheoremRange(SrkitError):
    pass


# bounds
class BadDistance(SrkitError):
    pass


class HypothesisFailed(SrkitError):
    pass


# distributions
class UnequalColumnSizes(SrkitError):
    pass


class IncompleteDistribution(SrkitError):
    pass


# constructions
class BadParameters(SrkitError):
    pass


class LengthTooLong(SrkitError):
    pass


# asymptotics
class DomainError(SrkitError):
    pass


# file I/O
class ParseError(SrkitError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
