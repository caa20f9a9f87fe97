"""Exception hierarchy.

Two families: input errors (bad user data, CLI exit code 2) and internal
invariant violations (bugs, CLI exit code 3).
"""


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


class NotAComplex(InternalInvariantError):
    """A supposed cochain complex has a nonzero composite differential."""

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"d_{position + 1} * d_{position} != 0")


class EngineDisagreement(InternalInvariantError):
    """The three depth engines disagreed; carries all values for diagnosis."""

    def __init__(self, complex_, field, reisner, topological, auslander_buchsbaum):
        self.complex = complex_
        self.field = field
        self.reisner = reisner
        self.topological = topological
        self.auslander_buchsbaum = auslander_buchsbaum
        super().__init__(
            "depth engines disagree: "
            f"reisner={reisner} topological={topological} "
            f"auslander_buchsbaum={auslander_buchsbaum} "
            f"(field {field}, complex {complex_!r})"
        )
