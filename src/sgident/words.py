"""Words over a-z, identities, occurrence counts and rows, Simon congruence."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from operator import mul

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def check_word(w: str, allow_empty: bool = True) -> str:
    if not allow_empty and not w:
        raise ValueError("word must be non-empty")
    for ch in w:
        if ch not in ALPHABET:
            raise ValueError(f"bad letter {ch!r}; words use a-z")
    return w


@dataclass(frozen=True)
class Identity:
    """A pair of non-empty words over a shared alphabet."""

    lhs: str
    rhs: str

    def __post_init__(self):
        check_word(self.lhs, allow_empty=False)
        check_word(self.rhs, allow_empty=False)

    @classmethod
    def parse(cls, text: str) -> "Identity":
        """Parse ``<word>=<word>``; either side empty is rejected."""
        parts = text.split("=")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"bad identity {text!r}; expected <word>=<word> with non-empty sides")
        return cls(parts[0], parts[1])

    @property
    def alphabet(self) -> str:
        return "".join(sorted(set(self.lhs) | set(self.rhs)))

    def __str__(self) -> str:
        return f"{self.lhs}={self.rhs}"


def content(w: str) -> dict:
    """Per-letter occurrence counts of w."""
    return dict(Counter(w))


def beta(w: str, s: str, p: int, q: int) -> int:
    """Occurrences of letter s strictly between positions p and q (1-based,
    with 0 and len(w)+1 as the allowed sentinels)."""
    if not (0 <= p < q <= len(w) + 1):
        raise ValueError(f"bad index range p={p}, q={q} for |w|={len(w)}")
    return sum(1 for i in range(p + 1, q) if w[i - 1] == s)


def scattered_multiplicity(u: str, w: str) -> int:
    """The number of distinct index tuples embedding u into w as a
    subsequence; exact at any magnitude."""
    counts = [1] + [0] * len(u)
    for ch in w:
        for j in range(len(u), 0, -1):
            if u[j - 1] == ch:
                counts[j] += counts[j - 1]
    return counts[len(u)]


class PresenceRows:
    """Rows of w along the trie of u, reduced to presence: u's row is
    ``(start, entries)``, start the end of u's leftmost embedding in w, or
    None.  Subclasses fill entries, entry j over w[:j], with ``_entries``."""

    def __init__(self, w: str, root_entries=None):
        self.w, self.root = w, (0, root_entries)

    def child(self, row, last: str, length: int):
        first = self.w.find(last, row[0])
        return None if first < 0 else (first + 1, row[1] and self._entries(row[1], first, last, length))


class CountRows(PresenceRows):
    """Entry j of u's row is the number of embeddings of u into w[:j]:
    ``row_u[j+1] = row_u[j] + [w_j = last]·row_{u[:-1]}[j]``."""

    def __init__(self, w: str):
        super().__init__(w, [1] * (len(w) + 1))
        self._is = {s: [int(c == s) for c in w] for s in set(w)}

    def _entries(self, below, first, last, length):
        return [0] * (first + 1) + list(accumulate(map(mul, below[first:-1], self._is[last][first:])))


@lru_cache(maxsize=16384)
def subword_set(w: str, k: int) -> frozenset:
    """All distinct non-empty subsequences of w of length at most k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = {""}
    for ch in w:
        seen |= {s + ch for s in seen if len(s) < k}
    seen.discard("")
    return frozenset(seen)


def simon_equivalent(w: str, v: str, k: int) -> bool:
    """Whether w and v have the same subsequences of length at most k."""
    return subword_set(w, k) == subword_set(v, k)


def is_balanced(ident: Identity) -> bool:
    return content(ident.lhs) == content(ident.rhs)


def words_up_to(letters: str, max_len: int, include_empty: bool = False) -> list:
    """All words over ``letters`` of length <= max_len, ordered by length
    then lexicographically."""
    out = [""] if include_empty else []
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in product(sorted(letters), repeat=length))
    return out
