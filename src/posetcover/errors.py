"""Structured errors raised across the package.

Every error carries the witness data the caller needs to report the
failure; the message is rendered from it.
"""


class ToolError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateElement(ToolError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"duplicate element identifier {element!r}")


class UnknownElement(ToolError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"unknown element {element!r}")


class CycleDetected(ToolError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cover relation contains a cycle: " + " < ".join(self.cycle))


class RedundantCover(ToolError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(
            f"cover pair {self.pair!r} is implied by a longer cover path; "
            "input must be a transitive reduction"
        )


class NotGraded(ToolError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"no rank function: cover {self.pair!r} does not raise rank by 1")


class OracleSizeExceeded(ToolError):
    def __init__(self, size, limit, what="instance size"):
        self.size = size
        self.limit = limit
        super().__init__(f"{what} {size} exceeds oracle limit {limit}")


class NotMonotone(ToolError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"map is not order-preserving on cover pair {self.pair!r}")


class NotUpSet(ToolError):
    def __init__(self, member, missing):
        self.member = member
        self.missing = missing
        super().__init__(f"subset is not an up-set: contains {member!r} but not {missing!r}")


class ValueMissing(ToolError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"index map has no value for {element!r}")


class InvalidIndexMap(ToolError):
    pass


class PartialIndexMap(ToolError):
    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"index map must be total; undefined on {list(self.missing)!r}")


class NotCombinatorial(ToolError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"morphism is not combinatorial; offending element {witness!r}")


class NotBalancedInput(ToolError):
    def __init__(self, violation):
        self.violation = violation
        super().__init__(f"index map is not balanced: violation {violation!r}")


class MaxElementsUncovered(ToolError):
    def __init__(self, elements):
        self.elements = tuple(sorted(elements))
        super().__init__(
            f"maximal source elements {list(self.elements)!r} lie outside the index map domain"
        )


class NotInDomain(ToolError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"start element {element!r} is not in the index map domain")


class PathNotIncreasing(ToolError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"path step {self.pair!r} is not strictly increasing")


class PathNotFromImage(ToolError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"path must start at {expected!r}, got {got!r}")


class CorestrictionNotCombinatorial(ToolError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"restricted-corestricted morphism is not combinatorial; witness {witness!r}"
        )


class NoLiftExists(ToolError):
    def __init__(self, detail):
        self.detail = detail
        super().__init__(f"no lift exists: {detail}")


class FaceNotInComplex(ToolError):
    def __init__(self, face):
        self.face = tuple(sorted(face))
        super().__init__(f"face {list(self.face)!r} is not in the complex")


class VertexClash(ToolError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"new vertex {vertex!r} already exists")


class SlopeNotIntegral(ToolError):
    def __init__(self, edge, detail):
        self.edge = edge
        self.detail = detail
        super().__init__(f"edge {edge!r}: {detail}")


class EndpointMismatch(ToolError):
    def __init__(self, edge, detail):
        self.edge = edge
        self.detail = detail
        super().__init__(f"edge {edge!r}: {detail}")


class DegenerateImage(ToolError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge!r} maps to a single point")


class FormatError(ToolError):
    """Malformed input document."""


class TheoremViolation(ToolError):
    """A verified hypothesis set did not yield the asserted conclusion.

    This is the loud alarm of the connectivity-lifting checker; it firing
    means a bug, not a bad input.
    """
