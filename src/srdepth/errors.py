"""Exception hierarchy, and the one gate for int parameters.

Two families: input errors (bad user data, CLI exit code 2) and internal
invariant violations (bugs, CLI exit code 3).  Input errors name the
value they refuse through ``_quote``; ``_require_int`` gates int parameters,
and ``_parse_int`` the ints read from text.
"""

import re


def _quote(value, limit: int = 30) -> str:
    """``repr(value)`` for an error message, cut to a prefix and its length;
    an int past 2,000 bits, which Python may refuse to print, by its size."""
    if type(value) is int and value.bit_length() > 2000:
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
    try:
        text = repr(value)
    except ValueError:  # a tuple or list holding such an int
        text = f"({', '.join(map(_quote, value))})"
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class SrdepthError(Exception):
    pass


class InputError(SrdepthError):
    """Invalid input data or parameters."""


class InternalInvariantError(SrdepthError):
    """A mathematically guaranteed invariant failed; signals a bug."""


class VertexOutOfRange(InputError):
    pass


class UnusedVertex(InputError):
    pass


class RepeatedVertex(InputError):
    pass


class EmptyInput(InputError):
    pass


class FaceNotInComplex(InputError):
    pass


class EmptyFace(InputError):
    pass


class BadParameter(InputError):
    pass


class NotASubcomplex(InputError):
    pass


class OddDegree(InputError):
    pass


class TooLarge(InputError):
    pass


def _require_int(value, least: int | None, what: str, error=BadParameter) -> int:
    """``value`` if it is an int >= ``least`` (any int when ``least`` is
    None), never a bool; else ``error``."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{what} must be an int{bound}, got {_quote(value)}")
    return value


def _parse_int(text: str) -> int:
    """``text`` as an int if it is an optional minus sign and ASCII digits,
    else ``ValueError``: ``int`` alone also takes ``_``, ``+``, surrounding
    whitespace and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an int: {_quote(text)}")
    return int(text)


class NotAComplex(InternalInvariantError):
    """A supposed cochain complex has a nonzero composite differential."""

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"d_{position + 1} * d_{position} != 0")


class EngineDisagreement(InternalInvariantError):
    """The three depth engines disagreed; carries all values for diagnosis.
    The message names the field and the three depths, and quotes the
    complex short, so it stays one short line however large K is."""

    def __init__(self, complex_, field, reisner, topological, auslander_buchsbaum):
        self.complex = complex_
        self.field = field
        self.reisner = reisner
        self.topological = topological
        self.auslander_buchsbaum = auslander_buchsbaum
        super().__init__(
            f"depth engines disagree over {field}: reisner={reisner} topological={topological} "
            f"auslander_buchsbaum={auslander_buchsbaum} on {_quote(complex_)}"
        )
