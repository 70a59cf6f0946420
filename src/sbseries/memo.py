"""The process-global memo caches, in one registry.

Every memoized pure function of the package is declared with
:func:`cached` where it is defined, and so is listed in :data:`CACHES`.
The decorator returns the ``functools.lru_cache`` object itself, so a
cached call costs what an ``lru_cache`` call costs.  :func:`clear` empties
every cache, for tests that count misses from a cold start.

Identity tables are not caches and are not listed: the label intern tables
and the per-label tree tables, where equality is object identity, and the
parser's token table.  Clearing them would break that equality.
"""

import functools

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
