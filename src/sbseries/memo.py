"""The process-global memo caches, in one registry.

Every memoized pure function of the package is declared with
:func:`cached` where it is defined, and so is listed in :data:`CACHES`.
The decorator returns the ``functools.lru_cache`` object itself, so a
cached call costs what an ``lru_cache`` call costs.  :func:`clear` empties
every cache, for tests that count misses from a cold start.

Identity tables are not caches and are not listed: the label intern tables
and the per-label tree tables, where equality is object identity, and the
parser's token table.  Clearing them would break that equality.

Per-object caches are not listed either, because they die with their
object: a problem keeps the elementary differentials of the last state
:func:`sbseries.elementary.eval_bseries` evaluated it at.

These caches and tables hold tens of thousands of long-lived trees and
weights, and CPython's cyclic collector rescans them on every collection,
though no call of the package makes a reference cycle: reference counting
alone frees what a call drops.  :func:`collector_paused` therefore pauses the
collector around the places that build most of them: each command of
``sbseries.cli.main``, the decomposition sum behind
``sbseries.series.compose`` and ``derivative_product``, and
``sbseries.serk.order_residuals``.
"""

import contextlib
import functools
import gc

CACHES: list = []


def cached(fn):
    """``fn`` memoized without a size bound, listed in :data:`CACHES`."""
    memo = functools.lru_cache(maxsize=None)(fn)
    CACHES.append(memo)
    return memo


def clear() -> None:
    """Empty every registered cache."""
    for memo in CACHES:
        memo.cache_clear()


@contextlib.contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off, and turn it back
    on afterwards only if it was on, so nested use and a caller that turned
    it off are left alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
