"""Exception types shared across the package."""


class StarnetError(Exception):
    """Base class for all package-specific errors."""


class InputError(StarnetError):
    """What the user typed or supplied is malformed or inconsistent."""


class ParseError(InputError):
    """Malformed expression or file input."""


class UsageError(InputError):
    """An option or parameter is missing, out of range or inconsistent."""


class NotDivisible(StarnetError):
    """Exact polynomial division left a nonzero remainder."""


class NotAPower(StarnetError):
    """Polynomial is not a perfect k-th power over the field."""


class NotSquarefree(StarnetError):
    """A polynomial that must be squarefree has a repeated root."""


class RadicalNotCertified(StarnetError):
    """The squarefree part of a form failed its exact certificate."""


class DuplicateLine(InputError):
    pass


class ZeroCovector(InputError):
    pass


class UnknownLine(InputError):
    pass


class UnknownBuiltin(InputError):
    pass


class NotAPartition(InputError):
    pass


class NonPositiveMultiplicity(InputError):
    pass


class NotAPencil(StarnetError):
    """Class polynomials are not members of a single pencil."""


class InvalidPencil(InputError):
    """The generators of a pencil are not homogeneous of one degree."""


class DegeneratePencil(StarnetError):
    """The pencil cannot be analyzed: its two generators are proportional,
    or no probe line can carry the search for multiple fibers (every probe
    meets the base locus with multiplicity, at its point at infinity or
    elsewhere, or restricts the generators to proportional forms), as
    when every member shares a fixed multiple component."""


class NotSmall(StarnetError):
    """Component extraction requires a small fibration with a multiple fiber."""


class MultipleMultipleFibers(StarnetError):
    """More than one multiple fiber; use the per-character expansion instead."""


class InvalidOrbifoldData(StarnetError):
    pass
