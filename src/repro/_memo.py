"""A thread-safe least-recently-used memo under a size budget.

The per-process memos (synthesised power traces, the exact kernel
outputs executive frames are scored against) hold values that are
pure functions of their keys, so forgetting one costs only its
recomputation, never a different value.
:class:`LruMemo` keeps them within a budget: each value is charged
``size(value)`` (1 by default, a count), and once the charges exceed
the budget the least recently used entries go first. The newest entry
always stays, so a value larger than the whole budget is still handed
out twice as the same object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["LruMemo"]

V = TypeVar("V")


class LruMemo:
    """``get(key, build)`` memo, least-recently-used first out.

    ``build`` runs outside the lock, so a slow build never blocks other
    keys. Two threads that miss on one key at once may both build it;
    the first value stored wins and both get that object.
    """

    def __init__(
        self, budget: int, size: Callable[[object], int] = lambda value: 1
    ) -> None:
        self.budget = int(budget)
        self._size = size
        self._lock = threading.Lock()
        self._items: "OrderedDict[Hashable, object]" = OrderedDict()
        #: Sum of ``size`` over the held values.
        self.charge = 0

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The memoised value for ``key``, built by ``build()`` on a miss."""
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                return value  # type: ignore[return-value]
        value = build()
        with self._lock:
            held = self._items.get(key)
            if held is not None:
                self._items.move_to_end(key)
                return held  # type: ignore[return-value]
            self._items[key] = value
            self.charge += self._size(value)
            while self.charge > self.budget and len(self._items) > 1:
                _, old = self._items.popitem(last=False)
                self.charge -= self._size(old)
        return value

    def clear(self) -> None:
        """Forget every entry."""
        with self._lock:
            self._items.clear()
            self.charge = 0

    def __len__(self) -> int:
        return len(self._items)
