"""Small shared helpers."""

import functools
import gc


class OpsCounter:
    """Additive counter for elementary touches, used by the runtime tests.

    Counts are coarse: loops add their iteration count once, cluster scans
    add the number of elements read. The absolute value is meaningless; only
    proportionality to input size matters.
    """

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, k):
        self.total += k


class _Uncounted:
    """A counter that keeps no count, for callers that have none to pass."""

    def add(self, k):
        pass


UNCOUNTED = _Uncounted()


def check_int(error, name, value, lo, hi=None):
    """Raise `error` unless `value` is an int, a bool excluded, in lo..hi,
    or at least lo when hi is None."""
    if type(value) is not int or value < lo or hi is not None and value > hi:
        span = ">= %d" % lo if hi is None else "in %d..%d" % (lo, hi)
        raise error("%s=%r is not an int %s" % (name, value, span))


def vertex_array(make, n, error):
    """make(n + 1), an array indexed by the vertices 1..n. An n beyond
    memory raises `error` naming it instead of MemoryError: a vertex count
    or cluster entry alone can ask for more than the machine holds."""
    try:
        return make(n + 1)
    except MemoryError:
        raise error("no memory for %d vertices" % n) from None


def holds(test):
    """test(), or False where it raises TypeError, as a comparison with a
    str, None or a complex number does, or ArithmeticError, as one with a
    Decimal NaN does (decimal.InvalidOperation)."""
    try:
        return test()
    except (TypeError, ArithmeticError):
        return False


def no_gc(fn):
    """Run `fn` with the cyclic garbage collector paused.

    The package's entry points build containers in proportion to their
    input, and each of them counts toward the collector's thresholds, whose
    older-generation collections re-walk every live container: repeated
    work that the linear time bound does not count. The package makes no
    reference cycles on these paths, so the pause defers no garbage; memory
    freed by reference counting is freed as before. The collector is
    re-enabled on return only if it was enabled on entry, so nested calls,
    and calls made with it off, keep the caller's state.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused
