"""``Memo``, the one receiver-cache type, and ``Network.memo``'s switch."""

from repro.net import Memo, Network


def test_remember_stores_and_returns_the_value():
    memo = Memo(2)
    value = ("answer",)
    assert memo.remember("a", value) is value
    assert memo["a"] is value


def test_a_full_memo_evicts_its_oldest_entry():
    memo = Memo(2)
    for key in "abc":
        memo.remember(key, key.upper())
    assert list(memo.items()) == [("b", "B"), ("c", "C")]
    memo.remember("b", "B2")  # a stored key is replaced, nothing is evicted
    assert list(memo.items()) == [("b", "B2"), ("c", "C")]


def test_a_zero_bound_memo_stores_nothing():
    memo = Memo(0)
    assert memo.remember("a", 1) == 1
    assert not memo


def test_parse_once_is_the_one_switch():
    assert Network().memo(8).bound == 8
    assert Network(parse_once=False).memo(8).bound == 0
