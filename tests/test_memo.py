"""``LruMemo``: the bounded memo behind the trace and exact-reference memos."""

import sys
import threading

import pytest

from repro._memo import LruMemo


def _fail():
    pytest.fail("a held key was built again")


def test_the_least_recently_used_entry_goes_first():
    memo = LruMemo(3)
    for key in "abc":
        memo.get(key, key.upper)
    assert memo.get("a", _fail) == "A"  # "a" is now the most recent
    memo.get("d", lambda: "D")
    built = []
    assert memo.get("b", lambda: built.append("b") or "B") == "B"
    assert built == ["b"]
    assert memo.get("a", _fail) == "A"
    assert len(memo) == 3


def test_a_value_over_the_budget_stays_until_the_next_one():
    memo = LruMemo(10, size=len)
    big = memo.get("big", lambda: "x" * 50)
    assert memo.get("big", _fail) is big
    assert memo.charge == 50
    memo.get("small", lambda: "s")
    assert (len(memo), memo.charge) == (1, 1)


def test_clear_forgets_every_entry():
    memo = LruMemo(10)
    memo.get("a", lambda: "A")
    memo.clear()
    assert (len(memo), memo.charge) == (0, 0)
    assert memo.get("a", lambda: "A") == "A"


def test_concurrent_gets_keep_values_and_charge_exact():
    """Eight threads over sixteen keys with a budget of a few values:
    every get returns its key's value, and the charge stays the sum of
    what is held, within the budget."""
    memo = LruMemo(40, size=len)
    errors = []

    def worker(offset):
        try:
            for i in range(2000):
                key = (offset + 7 * i) % 16
                value = memo.get(key, lambda: str(key) * (1 + key % 5))
                if value != str(key) * (1 + key % 5):
                    errors.append((key, value))
        except Exception as exc:  # reported on the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.charge == sum(len(value) for value in memo._items.values())
    assert 0 < memo.charge <= memo.budget
