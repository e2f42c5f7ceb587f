"""Peak traced memory of one call, for the tests that bound a function's
working memory."""

import tracemalloc


def traced_peak_bytes(f, *args):
    """Peak bytes allocated while f runs, what it returns included; numpy
    reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
