import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgident import checker
from sgident.checker import check_Un
from sgident.semirings import NAT
from sgident.words import (
    CountRows,
    Identity,
    PresenceRows,
    beta,
    content,
    is_balanced,
    scattered_multiplicity,
    simon_equivalent,
    subword_set,
    words_up_to,
)

short_words = st.text(alphabet="ab", min_size=1, max_size=10)


def count_by_enumeration(u, w):
    return sum(
        1
        for positions in combinations(range(len(w)), len(u))
        if all(w[p] == u[k] for k, p in enumerate(positions))
    )


def subwords_by_enumeration(w, k):
    out = set()
    for length in range(1, k + 1):
        for positions in combinations(range(len(w)), length):
            out.add("".join(w[p] for p in positions))
    return out


def test_content():
    assert content("abab") == {"a": 2, "b": 2}
    assert content("") == {}
    assert content("aab") == {"a": 2, "b": 1}


def test_beta():
    assert beta("abab", "a", 0, 5) == 2
    assert beta("abab", "b", 1, 4) == 1
    assert beta("abab", "a", 2, 3) == 0
    with pytest.raises(ValueError):
        beta("abab", "a", 3, 3)
    with pytest.raises(ValueError):
        beta("abab", "a", 0, 6)


def test_scattered_multiplicity_examples():
    assert scattered_multiplicity("ab", "abab") == 3
    assert scattered_multiplicity("abab", "abab") == 1
    assert scattered_multiplicity("ab", "xyyx") == 0
    assert scattered_multiplicity("", "abc") == 1


def test_multiplicity_matches_enumeration_exhaustively():
    for w in words_up_to("ab", 8):
        for u in words_up_to("ab", 4):
            assert scattered_multiplicity(u, w) == count_by_enumeration(u, w), (u, w)


def _row(rows, u):
    """u's row, folded from the root along the prefixes of u."""
    row = rows.root
    for length, last in enumerate(u, start=1):
        row = row and rows.child(row, last, length)
    return row


def test_count_and_presence_rows_follow_their_definitions():
    rng = random.Random(44)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 10))) for _ in range(60)]
    for w in words:
        counts, presence = CountRows(w), PresenceRows(w)
        for u in words_up_to("abc", 3, include_empty=True):
            row = _row(counts, u)
            want = [scattered_multiplicity(u, w[:j]) for j in range(len(w) + 1)]
            if row is None:
                assert not any(want), (u, w)
            else:
                assert row[1] == want, (u, w)
            # the end of u's leftmost embedding: the shortest prefix that holds u
            end = next((j for j, m in enumerate(want) if m), None)
            assert _row(presence, u) == (None if end is None else (end, None)), (u, w)
            assert row is None or row[0] == end


def test_failing_u_check_builds_count_rows_up_to_its_distinguishing_u(monkeypatch):
    built = []

    class Recording(CountRows):
        def child(self, row, last, length):
            out = super().child(row, last, length)
            built.append(out is not None)
            return out

    monkeypatch.setattr(checker, "CountRows", Recording)
    rng = random.Random(40)
    w = "".join(rng.choice("abcd") for _ in range(40))
    verdict = check_Un(Identity(w, w[::-1]), 8, NAT)
    assert verdict.is_fails
    # a row for each side that holds a non-empty u up to the distinguishing
    # one, and none past it
    us = [e["u"] for e in verdict.evidence]
    assert us[-1] == verdict.distinguishing_u
    assert sum(built) == sum(scattered_multiplicity(u, side) > 0 for u in us for side in (w, w[::-1]))


def test_subword_set_examples():
    assert subword_set("abab", 2) == frozenset({"a", "b", "aa", "ab", "ba", "bb"})
    assert subword_set("a", 3) == frozenset({"a"})
    assert subword_set("abba", 2) == frozenset({"a", "b", "aa", "ab", "ba", "bb"})


@given(short_words, st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_subword_set_matches_enumeration(w, k):
    assert subword_set(w, k) == frozenset(subwords_by_enumeration(w, k))


@given(st.text(alphabet="abc", min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_multiplicities_of_fixed_length_sum_to_binomial(w):
    for k in range(1, len(w) + 1):
        total = sum(
            scattered_multiplicity(u, w) for u in subword_set(w, k) if len(u) == k
        )
        assert total == comb(len(w), k)


@given(short_words, short_words)
@settings(max_examples=200, deadline=None)
def test_positive_multiplicity_is_membership(u, w):
    assert (scattered_multiplicity(u, w) > 0) == (u in subword_set(w, len(u)))


def test_simon_examples():
    assert simon_equivalent("abab", "abba", 2)
    assert not simon_equivalent("abab", "abba", 3)  # bab embeds in abab only
    assert simon_equivalent("abba", "abba", 4)


@given(short_words, short_words, st.integers(min_value=2, max_value=5))
@settings(max_examples=200, deadline=None)
def test_simon_equivalence_refines_downward(w, v, k):
    if simon_equivalent(w, v, k):
        for lower in range(1, k):
            assert simon_equivalent(w, v, lower)


def test_simon_is_an_equivalence():
    pool = words_up_to("ab", 4)
    for w in pool:
        assert simon_equivalent(w, w, 3)
    for w in pool[:8]:
        for v in pool[:8]:
            assert simon_equivalent(w, v, 2) == simon_equivalent(v, w, 2)


def test_identity_parsing():
    ident = Identity.parse("xy=yx")
    assert ident.lhs == "xy" and ident.rhs == "yx"
    assert ident.alphabet == "xy"
    assert str(ident) == "xy=yx"
    for bad in ("=xy", "xy=", "xy", "x=y=z", "xY=yx"):
        with pytest.raises(ValueError):
            Identity.parse(bad)


def test_balancedness():
    assert is_balanced(Identity.parse("xy=yx"))
    assert not is_balanced(Identity.parse("x=xx"))
    assert is_balanced(Identity.parse("abab=abba"))
