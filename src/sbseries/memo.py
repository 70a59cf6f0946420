"""The process-global memo caches, in one registry, and the base of the
interned value types.

Every memoized pure function of the package is declared with
:func:`cached` where it is defined, and so is listed in :data:`CACHES`.
The decorator returns the ``functools.lru_cache`` object itself, so a
cached call costs what an ``lru_cache`` call costs.  :func:`clear` empties
every cache, for tests that count misses from a cold start.

Identity tables are not caches and are not listed: the tables of
:class:`Interned`, which hold the one instance of each node label,
monomial and integral atom; the per-label tree tables; and the parser's
token table.  Equality of these objects is identity, so clearing a table
would make an object built afterwards differ from an equal one built
before: equal terms would stop merging and equal trees would stop
matching.

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


class Interned:
    """Base of the hash-consed value types: the node labels of
    ``sbseries.trees`` and the monomials and integral atoms of
    ``sbseries.expr``.

    A class names its fields in its own ``__slots__``; its constructor
    passes their values to :meth:`_intern`, which returns the one instance
    of the class with those values, kept in the class's own identity table.
    So equality is identity and the hash is the identity hash.  ``_derive``
    sets, once per instance, the facts the class computes from its fields,
    in slots that a base class declares.  Setting or deleting an attribute
    raises; copies and unpickled instances are the interned instance; the
    repr is ``Class(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._interned = {}  # field values -> the instance

    def __new__(cls):
        return cls._intern(())

    @classmethod
    def _intern(cls, values: tuple):
        obj = cls._interned.get(values)
        if obj is None:
            obj = object.__new__(cls)
            for name, value in zip(cls.__slots__, values):
                object.__setattr__(obj, name, value)
            obj._derive()
            obj = cls._interned.setdefault(values, obj)
        return obj

    def _derive(self) -> None:
        """Set the facts computed from the fields: none by default."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
