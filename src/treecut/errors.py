"""Exception types shared across the package."""


class TreecutError(Exception):
    """Base class for all errors raised on bad input or broken contracts."""


class GraphFormatError(TreecutError):
    """Malformed graph: bad vertex ids, loops, or parallel edges."""


class NotATree(TreecutError):
    pass


class PartitionInvalid(TreecutError):
    """A cut side is not a bytes or bytearray of length n + 1."""


class DecompositionFormatError(TreecutError):
    """Malformed tree decomposition container (not a tree, duplicate ids...)."""


class InvalidDecomposition(TreecutError):
    """A decomposition failed one of the coverage/connectivity properties."""


class EmptyDecomposition(TreecutError):
    """All clusters are empty; there is nothing to decompose."""


class BadSize(TreecutError):
    """Requested part size outside 1..n (or 0..n where allowed)."""


class BadFraction(TreecutError):
    """Balance parameter outside (0, 1), or a path weight outside (0, 1]."""


class InternalInvariant(TreecutError):
    """An invariant the algorithm relies on was violated; indicates a bug."""
