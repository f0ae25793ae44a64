"""Exception hierarchy shared by all engine modules."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class QueryError(EngineError):
    """Problems with a conjunctive query itself."""


class QuerySyntaxError(QueryError):
    """Query text does not match the grammar.

    Carries the character position and a description of what was expected.
    """

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        msg = f"at position {position}: expected {expected}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class DuplicateVariableInAtomError(QueryError):
    pass


class HeadVarNotInBodyError(QueryError):
    pass


class EmptySchemaAtomError(QueryError):
    pass


class NotHierarchicalError(QueryError):
    """Raised by operations defined only for hierarchical queries.

    ``pair`` names two variables whose atom sets are neither disjoint nor
    nested.
    """

    def __init__(self, pair: tuple[str, str] | None = None):
        self.pair = pair
        msg = "query is not hierarchical"
        if pair is not None:
            msg += f": variables {pair[0]} and {pair[1]} overlap without nesting"
        super().__init__(msg)


class NotCanonicalError(EngineError):
    pass


class UncoverableVariableError(EngineError):
    pass


class StorageError(EngineError):
    pass


class ArityMismatchError(StorageError):
    pass


class RejectedDeleteError(StorageError):
    """A delete would drive a base-relation multiplicity negative."""


class UnregisteredIndexError(StorageError):
    pass


class InvalidMultiplicityError(StorageError):
    """A multiplicity is not an ``int`` (``bool`` included)."""


class UnhashableValueError(StorageError):
    """A row holds a value that cannot be hashed, so it cannot be stored."""


class MissingRelationError(EngineError):
    pass


class InvariantViolationError(EngineError):
    """A maintained view or partition disagrees with its definition."""


class TooLargeError(EngineError):
    """Input exceeds the size cap of a brute-force routine."""


class CallBeforeOpenError(EngineError):
    pass


class IteratorInvalidatedError(EngineError):
    """The engine state changed while an iterator was open."""
