"""Exception types shared across the package."""

from __future__ import annotations


def _shown(items):
    """`items` as a set display in the order given: {'a', 'b'} or set()."""
    text = ", ".join(map(repr, items))
    return f"{{{text}}}" if text else "set()"


class MatroidError(Exception):
    """Base class for every domain error raised by this package."""


class NotAnAntichain(MatroidError):
    """A proposed circuit family contains two nested members."""

    def __init__(self, small, large):
        self.small = frozenset(small)
        self.large = frozenset(large)
        super().__init__(f"circuit {_shown(small)} is contained in {_shown(large)}")


class EliminationFails(MatroidError):
    """Two circuits violate the elimination axiom at a common element."""

    def __init__(self, first, second, element):
        self.first = frozenset(first)
        self.second = frozenset(second)
        self.element = element
        super().__init__(
            f"no circuit inside ({_shown(first)} | {_shown(second)}) - {element!r}"
        )


class ForeignElement(MatroidError):
    """An element does not belong to the relevant ground set."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element!r} is not in the ground set")


class OverlappingSets(MatroidError):
    """Two set arguments that must be disjoint are not."""

    def __init__(self, overlap):
        self.overlap = frozenset(overlap)
        super().__init__(f"sets overlap on {_shown(overlap)}")


class RankZero(MatroidError):
    """Truncation is undefined on a rank-zero matroid."""


class BadBasepoint(MatroidError):
    """A connection basepoint is a loop or a coloop."""

    def __init__(self, element, why):
        self.element = element
        self.why = why
        super().__init__(f"basepoint {element!r} is a {why}")


class TooSmall(MatroidError):
    """An operand has fewer elements than the operation requires."""


class NotLaminar(MatroidError):
    """Two family members cross: they intersect but neither contains the other."""

    def __init__(self, first, second):
        self.first = frozenset(first)
        self.second = frozenset(second)
        super().__init__(f"sets {_shown(first)} and {_shown(second)} cross")


class NegativeCapacity(MatroidError):
    """A capacity value is below zero."""

    def __init__(self, member, value):
        self.member = frozenset(member)
        self.value = value
        super().__init__(f"capacity {value!r} on {_shown(member)} is negative")


class EmptyMemberSet(MatroidError):
    """A capacity family may not contain an empty member."""


class TooLarge(MatroidError):
    """A ground set exceeds the configured exhaustive-computation cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"ground set has {size} elements, cap is {cap}")


class LoopBase(MatroidError):
    """Parallel extension cannot clone a loop."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element!r} is a loop")


class DuplicateElement(MatroidError):
    """A fresh element identifier collides with an existing one."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element!r} is already present")


class BadParams(MatroidError):
    """Builder parameters are out of range."""


class NotAChain(MatroidError):
    """Chain input sets are not totally ordered by inclusion."""

    def __init__(self, first, second):
        self.first = frozenset(first)
        self.second = frozenset(second)
        super().__init__(f"chain members {_shown(first)} and {_shown(second)} are incomparable")


class NotCanonical(MatroidError):
    """The operation requires a canonical presentation."""


class UndefinedName(MatroidError):
    """A script references a name that is not live at that point."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"name {name!r} is not defined (or already consumed)")


class ParseError(MatroidError):
    """A text input could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(MatroidError):
    """Command-line arguments are invalid."""
