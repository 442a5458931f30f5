"""Boolean check results that carry witnesses."""

from __future__ import annotations

from collections import namedtuple


class Check(namedtuple("Check", "ok witnesses", defaults=((),))):
    """Outcome of a property check; falsy iff the property fails.

    Built by ``Check.of`` from the witnesses, one named tuple per
    violation, sorted deterministically by the checker: ``ok`` holds
    exactly when there are none.
    """

    __slots__ = ()

    def __bool__(self):
        return self.ok

    @classmethod
    def of(cls, witnesses):
        """Passed exactly when there are no witnesses."""
        witnesses = tuple(witnesses)
        return cls(not witnesses, witnesses)
