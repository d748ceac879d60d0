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
