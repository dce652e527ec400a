"""Exception types shared across the package, and the JSON document and
field readers that turn malformed input into them."""

import json


class HypermoyalError(Exception):
    """Base class for every package-specific error."""


class SignatureMismatchError(HypermoyalError, ValueError):
    """Operands carry different signatures of the squared imaginary unit."""


class DimensionMismatchError(HypermoyalError, ValueError):
    """Operands live on spaces of different dimension."""


class ZeroDivisorError(HypermoyalError, ZeroDivisionError):
    """Inversion of zero or of a light-cone element was attempted."""


class NotRepresentableError(HypermoyalError, ValueError):
    """The value admits no hyperbolic polar decomposition."""


class DegreeCapError(HypermoyalError, ValueError):
    """A product would exceed the configured total-degree cap."""


class ParseError(HypermoyalError, ValueError):
    """Malformed expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(HypermoyalError, ValueError):
    """Malformed probability table or input file."""


class InvalidStateError(HypermoyalError, ValueError):
    """Amplitudes produced a probability outside [0, 1].

    Carries the offending value and the violated bound so callers can report
    which constraint was broken instead of silently clamping.
    """

    def __init__(self, message: str, value=None, bound=None):
        super().__init__(message)
        self.value = value
        self.bound = bound


def json_document(text):
    """The value of the JSON document ``text``: the one JSON reader.  Malformed
    text, an integer past Python's int-to-text digit limit and nesting past
    the recursion limit raise :class:`ValidationError` with the parser's
    one-line message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(str(exc)) from None


def json_field(data, name: str, convert):
    """``convert(data[name])`` for a parsed JSON object.

    A missing field, or one that ``convert`` rejects, raises
    :class:`ValidationError` naming it; nested reads prefix the outer names,
    as in ``atoms: loc: ...``.
    """
    if not isinstance(data, dict) or name not in data:
        raise ValidationError(f"missing field {name!r}")
    try:
        return convert(data[name])
    except KeyError as exc:
        raise ValidationError(f"{name}: missing field {exc}") from None
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from None
