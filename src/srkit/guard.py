"""Enumeration guards.

Exact enumeration is the workhorse of this library, so every potentially
exponential loop is gated.  The codeword guard can be raised per-call
(``override=True``) or globally through the ``SRKIT_MAX_ENUM`` environment
variable.  Where a walk and a lattice route give the same result,
`walk_runs` runs the one that is not preferred when only it fits.

It also holds what the command line checks before it loads the library:
the ASCII-decimal readers `_decimal` and `_signed_decimal`, and the
asymptotic bound names `BOUND_KEYS`.
"""

import os

from .errors import BadParameters, TooLarge

DEFAULT_MAX_ENUM = 1 << 24       # codeword / tuple enumerations
SUBSPACE_GUARD = 1 << 28         # subspace streams
MAX_DISTRIBUTION_KEYS = 10 ** 7  # support-distribution dictionaries

# the asymptotic bounds a series may name, in `srkit.asymptotics` and on the
# command line
BOUND_KEYS = (
    "singleton",
    "projective-sphere-packing",
    "total-distance",
    "sphere-packing-upper",
    "sphere-covering-lower",
    "induced-singleton",
    "induced-hamming",
    "induced-plotkin",
    "induced-elias",
)


def _decimal(text: str) -> int:
    """A non-negative integer written in ASCII decimal digits only, so no
    sign, space or other script's digits; ValueError otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _signed_decimal(text: str) -> int:
    """`_decimal` after an optional leading '-', so that a negative value
    is refused by its reader's range check rather than as a spelling."""
    return -_decimal(text[1:]) if text.startswith("-") else _decimal(text)


def max_enum() -> int:
    """SRKIT_MAX_ENUM, a non-negative decimal integer, if set and not empty."""
    value = os.environ.get("SRKIT_MAX_ENUM")
    if not value:
        return DEFAULT_MAX_ENUM
    try:
        return _decimal(value)
    except ValueError:
        raise BadParameters(
            f"SRKIT_MAX_ENUM must be a non-negative decimal integer, "
            f"not {value!r}") from None


def check_enum(size, override=False, what="enumeration"):
    limit = max_enum()
    if not override and size > limit:
        raise TooLarge(
            f"{what} of size {size} exceeds guard {limit} "
            f"(pass override=True or set SRKIT_MAX_ENUM)"
        )


def walk_runs(words, units, walk_first, override=False) -> bool:
    """Whether the walk over `words` codewords runs rather than the lattice
    route of `units`: the route preferred by cost (`walk_first`), unless
    only the other one fits the guard.  Each route checks its own size as
    it starts, so when neither fits, the preferred one raises TooLarge."""
    limit = max_enum()
    if override or (words <= limit) == (units <= limit):
        return walk_first
    return words <= limit


def check_subspaces(count, override=False):
    if not override and count > SUBSPACE_GUARD:
        raise TooLarge(
            f"subspace stream of size {count} exceeds guard {SUBSPACE_GUARD}"
        )


def check_keys(count):
    if count > MAX_DISTRIBUTION_KEYS:
        raise TooLarge(
            f"distribution would hold {count} keys "
            f"(guard {MAX_DISTRIBUTION_KEYS})"
        )
