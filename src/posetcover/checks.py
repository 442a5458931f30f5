"""Boolean check results that carry witnesses."""

from __future__ import annotations

from collections import namedtuple


class Check(namedtuple("Check", "ok witnesses", defaults=((),))):
    """Outcome of a property check; falsy iff the property fails.

    ``witnesses`` is non-empty exactly when ``ok`` is False, and holds one
    named tuple per violation, sorted deterministically by the checker.
    """

    __slots__ = ()

    def __bool__(self):
        return self.ok

    @classmethod
    def passed(cls):
        return cls(True, ())

    @classmethod
    def of(cls, witnesses):
        """Passed exactly when there are no witnesses."""
        witnesses = tuple(witnesses)
        return cls(not witnesses, witnesses)

    @classmethod
    def failed(cls, witnesses):
        witnesses = tuple(witnesses)
        if not witnesses:
            raise ValueError("a failing check needs at least one witness")
        return cls(False, witnesses)
