"""Frozen counter snapshots with one field-wise fold.

The caches, pools and registries of the search stack report what they
did as frozen snapshots, folded three ways: summed across sessions or
shards (``merge``), differenced against an earlier snapshot of the same
source (``since``) and started from nothing (``zero``). :class:`Counters`
defines the three once, field by field, so a field added to a snapshot
later is folded everywhere without extending a hand-written method.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Any, Callable, TypeVar

_C = TypeVar("_C", bound="Counters")


def gauge() -> Any:
    """Declare a gauge: a current level, such as a cache's ``entries``."""
    return field(default=0, metadata={"gauge": True})


def merged_by(rule: Callable[[Any, Any], Any], default_factory) -> Any:
    """Declare a field whose values do not add: ``merge`` combines them
    by ``rule(mine, theirs)``."""
    return field(default_factory=default_factory, metadata={"merge": rule})


def _current(now: Any, _: Any) -> Any:
    return now


@dataclass(frozen=True)
class Counters:
    """Base of the stats snapshots: frozen, every field zero by default.

    A number field is a counter: ``merge`` adds it, ``since`` subtracts
    it. A :func:`gauge` keeps its current value under ``since`` and
    combines under ``merge`` by the caller's rule: summed across
    distinct caches (the default), ``gauge=max`` across one pool's
    successive reports, which restate the same live caches. A nested
    ``Counters`` folds recursively; a :func:`merged_by` field merges by
    its own rule and keeps its current value under ``since``.
    """

    @classmethod
    def zero(cls: type[_C]) -> _C:
        """``cls()``, the all-zero snapshot: the identity of :meth:`merge`."""
        return cls()

    def merge(
        self: _C, other: _C, gauge: Callable[[Any, Any], Any] = operator.add
    ) -> _C:
        """Two snapshots folded together."""
        return self._fold(other, operator.add, gauge, merging=True)

    def since(self: _C, earlier: _C) -> _C:
        """Counter deltas relative to an ``earlier`` snapshot."""
        return self._fold(earlier, operator.sub, _current, merging=False)

    def _fold(self: _C, other: _C, count, gauge, merging: bool) -> _C:
        values = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            rule = f.metadata.get("merge")
            if isinstance(mine, Counters):
                values[f.name] = mine._fold(theirs, count, gauge, merging)
            elif rule is not None:
                values[f.name] = rule(mine, theirs) if merging else mine
            elif f.metadata.get("gauge"):
                values[f.name] = gauge(mine, theirs)
            else:
                values[f.name] = count(mine, theirs)
        return type(self)(**values)
