"""Reference checks for the benchmark's operations.

Nothing here imports ``sgident``.  The checks read what the program returns
(check reports as the CLI serialises them, matrices in the CLI's row text,
closure element lists, tables and brute-force results) and judge it with
their own arithmetic and their own combinatorics:

* matrix products over the Boolean, diamond, truncated-nat, min-plus and
  max-times carriers, which re-multiply every ``fails`` witness;
* Simon congruence and subword multiplicities by enumerating index
  combinations of the words;
* for the upper triangular monoid over the Boolean semiring (and the diamond
  lattice, which is the Boolean semiring squared), the minimal monomials of
  every subword embedding;
* Catalan numbers from the formula, and the sizes 11 and 189 of the gossip
  monoids on 3 and 4 people (Brouwer, Draisma and Frenk, *Lossy gossip and
  composition of metrics*);
* closure properties: the identity is present, every element times every
  generator stays in the set, and each witness word multiplies back to its
  element;
* multiplication table entries against the checks' own products.

The truths used:

* U_n(S) satisfies w=v exactly when every word u of length below n occurs
  as a subsequence equally often in w and v, counted in S as repeated sums
  of 1;
* over an idempotent instance this is Simon (n-1)-congruence, which is also
  the criterion for R_n over interval instances and for the Catalan and
  gossip families on n points;
* UT_n(S) satisfies w=v exactly when, for every u of length below n, the
  embedding polynomials of u in w and v agree as functions over S; over the
  Boolean semiring that means equal sets of minimal monomials;
* a substitution instance of Adjan's identity xyyxxyxyyx=xyyxyxxyyx holds in
  UT_2 over the tropical semirings, of which min-plus on [0, inf] and
  max-times on [0, 1] are copies.

Each check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

INF = math.inf

ADJAN = ("xyyxxyxyyx", "xyyxyxxyyx")

# Sizes of the Boolean gossip monoids on 3 and 4 people (Brouwer, Draisma and
# Frenk, "Lossy gossip and composition of metrics").
GOSSIP_SIZES = {3: 11, 4: 189}


# -- arithmetic --------------------------------------------------------------------------


class Arith:
    """One semiring, spelled as the program's ``--semiring`` spec."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "bool":
            self.zero, self.one = 0, 1
            self.add = lambda a, b: a | b
            self.mul = lambda a, b: a & b
            self._names = {"0": 0, "1": 1}
        elif spec == "lattice:diamond":
            # the four-element lattice as pairs of bits, ordered componentwise
            self.zero, self.one = (0, 0), (1, 1)
            self.add = lambda a, b: (a[0] | b[0], a[1] | b[1])
            self.mul = lambda a, b: (a[0] & b[0], a[1] & b[1])
            self._names = {"0": (0, 0), "a": (1, 0), "b": (0, 1), "1": (1, 1)}
        elif spec.startswith("nat:"):
            index, period = (int(part) for part in spec[4:].split(","))
            size = index + period

            def reduce(m: int) -> int:
                return m if m < size else index + (m - index) % period

            self.reduce = reduce
            self.size = size
            self.zero, self.one = 0, reduce(1)
            self.add = lambda a, b: reduce(a + b)
            self.mul = lambda a, b: reduce(a * b)
            self._names = None
        elif spec == "minplus01inf":
            self.zero, self.one = INF, 0
            self.add = min
            self.mul = lambda a, b: INF if INF in (a, b) else a + b
            self._names = None
        elif spec == "interval01":
            self.zero, self.one = Fraction(0), Fraction(1)
            self.add = max
            self.mul = lambda a, b: a * b
            self._names = None
        else:
            raise ValueError(f"no reference arithmetic for {spec!r}")

    def parse(self, text: str):
        if self._names is not None:
            return self._names[text]
        if self.spec.startswith("nat:"):
            value = int(text)
            if not 0 <= value < self.size:
                raise ValueError(f"{text!r} outside nat carrier")
            return value
        if self.spec == "minplus01inf":
            value = INF if text == "inf" else Fraction(text)
            if value < 0:
                raise ValueError(f"{text!r} below 0")
            return value
        value = Fraction(text)
        if not 0 <= value <= 1:
            raise ValueError(f"{text!r} outside [0, 1]")
        return value

    def count(self, m: int):
        """The m-fold sum of 1."""
        if self.spec.startswith("nat:"):
            return self.reduce(m)
        return self.one if m else self.zero

    # matrices are tuples of row tuples

    def parse_matrix(self, text: str) -> tuple:
        rows = tuple(
            tuple(self.parse(entry) for entry in chunk.split()) for chunk in text.split(";")
        )
        if any(len(row) != len(rows) for row in rows):
            raise ValueError(f"matrix {text!r} is not square")
        return rows

    def identity(self, n: int) -> tuple:
        return tuple(
            tuple(self.one if i == j else self.zero for j in range(n)) for i in range(n)
        )

    def matmul(self, a: tuple, b: tuple) -> tuple:
        n = len(a)
        add, mul, zero = self.add, self.mul, self.zero
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = add(acc, mul(a[i][k], b[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def word_image(self, images: dict, word: str, n: int) -> tuple:
        acc = self.identity(n)
        for ch in word:
            acc = self.matmul(acc, images[ch])
        return acc


# -- words ---------------------------------------------------------------------------------


def subsequence_counts(w: str, k: int) -> Counter:
    """How often each word of length 1..k occurs in w as a subsequence,
    counted by enumerating index combinations."""
    counts: Counter = Counter()
    for length in range(1, k + 1):
        for idx in combinations(range(len(w)), length):
            counts["".join(w[i] for i in idx)] += 1
    return counts


def simon_congruent(w: str, v: str, k: int) -> bool:
    return set(subsequence_counts(w, k)) == set(subsequence_counts(v, k))


def multiplicities_agree(w: str, v: str, k: int, arith: Arith) -> bool:
    cw, cv = subsequence_counts(w, k), subsequence_counts(v, k)
    return all(arith.count(cw[u]) == arith.count(cv[u]) for u in set(cw) | set(cv))


def boolean_embedding_profile(w: str, k: int) -> dict:
    """For each u of length 0..k that embeds in w, the minimal monomials of
    its embedding polynomial over the Boolean semiring.  The monomial of an
    embedding records which letters lie between consecutive embedded
    positions, segment s+1 holding the letters after the s-th position."""
    monomials: dict = {}
    m = len(w)
    for length in range(0, k + 1):
        for idx in combinations(range(m), length):
            bounds = (-1,) + idx + (m,)
            mono = frozenset(
                (w[t], seg + 1)
                for seg in range(length + 1)
                for t in range(bounds[seg] + 1, bounds[seg + 1])
            )
            monomials.setdefault("".join(w[i] for i in idx), set()).add(mono)
    return {
        u: frozenset(a for a in monos if not any(b < a for b in monos))
        for u, monos in monomials.items()
    }


def adjan_instance(w: str, v: str) -> bool:
    """Whether w=v is Adjan's identity with x and y replaced by words."""
    a, b = ADJAN
    for lx in range(1, len(w) // 5 + 1):
        rest = len(w) - 5 * lx
        if rest <= 0 or rest % 5:
            continue
        x, y = w[:lx], w[lx:lx + rest // 5]
        subst = {"x": x, "y": y}
        if "".join(subst[c] for c in a) == w and "".join(subst[c] for c in b) == v:
            return True
    return False


def expected_verdict(monoid: str, spec: str, n: int, w: str, v: str) -> str:
    """``holds``, ``fails`` or ``not-fails`` for w=v in the monoid; raises
    when none of the truths above settles the identity."""
    k = n - 1
    if w == v:
        return "holds"
    arith = Arith(spec)
    if monoid == "r":
        return "holds" if simon_congruent(w, v, k) else "fails"
    if monoid == "u":
        return "holds" if multiplicities_agree(w, v, k, arith) else "fails"
    if monoid == "ut":
        if spec in ("bool", "lattice:diamond"):
            same = boolean_embedding_profile(w, k) == boolean_embedding_profile(v, k)
            return "holds" if same else "fails"
        if not multiplicities_agree(w, v, k, arith):
            return "fails"  # U_n is a submonoid of UT_n
        if n == 2 and spec in ("minplus01inf", "interval01") and adjan_instance(w, v):
            return "not-fails"
    raise ValueError(f"no reference truth for {monoid} n={n} {spec} {w}={v}")


# -- check reports -------------------------------------------------------------------------


def _in_monoid(arith: Arith, monoid: str, m: tuple) -> bool:
    n = len(m)
    diagonal_ok = all(m[i][i] == arith.one for i in range(n))
    lower_ok = all(m[i][j] == arith.zero for i in range(n) for j in range(i))
    if monoid == "r":
        return diagonal_ok
    if monoid == "u":
        return diagonal_ok and lower_ok
    return lower_ok


def check_report(text: str, monoid: str, spec: str, n: int, w: str, v: str) -> list:
    """Problems with one serialised check report; empty when it is right."""
    report = json.loads(text)
    problems = []
    for key, want in (("identity", f"{w}={v}"), ("monoid", monoid), ("n", n), ("semiring", spec)):
        if report.get(key) != want:
            problems.append(f"report {key} is {report.get(key)!r}, not {want!r}")
    verdict = report["verdict"]
    outcome = verdict["outcome"]
    expected = expected_verdict(monoid, spec, n, w, v)
    if outcome == "undetermined":
        return problems
    if outcome not in ("holds", "fails"):
        return problems + [f"unknown outcome {outcome!r}"]
    if outcome == "holds" and expected == "fails":
        problems.append("holds, but the identity fails")
    if outcome == "fails":
        if expected != "fails":
            problems.append(f"fails, but the identity {expected}")
        problems += check_witness(verdict.get("witness"), monoid, spec, n, w, v)
    return problems


def check_witness(witness, monoid: str, spec: str, n: int, w: str, v: str) -> list:
    if not witness or not witness.get("entry"):
        return ["fails verdict without a witness"]
    arith = Arith(spec)
    images = {letter: arith.parse_matrix(text) for letter, text in witness["images"].items()}
    missing = set(w + v) - set(images)
    if missing:
        return [f"witness has no image for {sorted(missing)}"]
    problems = []
    for letter, m in images.items():
        if len(m) != n:
            problems.append(f"image of {letter} is {len(m)}x{len(m)}, not {n}x{n}")
        elif not _in_monoid(arith, monoid, m):
            problems.append(f"image of {letter} lies outside the {monoid} monoid")
    if problems:
        return problems
    i, j = witness["entry"]
    left = arith.word_image(images, w, n)
    right = arith.word_image(images, v, n)
    if left[i - 1][j - 1] == right[i - 1][j - 1]:
        problems.append(f"witness entry ({i},{j}) is equal on both sides")
    return problems


# -- closures, tables and the brute-force oracle --------------------------------------------


# min-plus matrices are held as integers with this stand-in for inf
_BIG = 1 << 40


class MatrixSet:
    """The elements of one closure as an (m, n, n) integer array, with an
    index by content.  Covers the Boolean and integer-valued min-plus
    carriers, the two that the closure workload enumerates."""

    def __init__(self, spec: str, texts: list):
        self.spec = spec
        self.arith = Arith(spec)
        if spec not in ("bool", "minplus01inf"):
            raise ValueError(f"closure checks cover bool and minplus01inf, not {spec}")
        self.array = np.array([self.encode(self.arith.parse_matrix(t)) for t in texts])
        self.index = {}
        for i, row in enumerate(self.array):
            self.index.setdefault(row.tobytes(), i)

    def encode(self, m: tuple) -> np.ndarray:
        if self.spec == "bool":
            return np.array(m, dtype=np.uint8)
        for row in m:
            for x in row:
                if x != INF and Fraction(x).denominator != 1:
                    raise ValueError("closure check needs integer min-plus entries")
        return np.array([[_BIG if x == INF else int(x) for x in row] for row in m], dtype=np.int64)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of broadcast stacks of matrices, shape (..., n, n)."""
        terms = a[..., :, :, None], b[..., None, :, :]
        if self.spec == "bool":
            return (terms[0] & terms[1]).max(axis=-2)
        return np.minimum((terms[0] + terms[1]).min(axis=-2), _BIG)

    def lookup(self, stack: np.ndarray) -> np.ndarray:
        """Index of each matrix in a stack, -1 when it is not an element."""
        flat = np.ascontiguousarray(stack.reshape(-1, *stack.shape[-2:]))
        return np.array([self.index.get(m.tobytes(), -1) for m in flat], dtype=np.int64)


def family_generators(name: str, n: int, spec: str, sample=()) -> list:
    """Generators of a named family: one-way calls add weight s at (i, j) to
    the identity, two-way calls are the product of the calls i->j and j->i."""
    arith = Arith(spec)

    def call(i, j, s):
        rows = [list(r) for r in arith.identity(n)]
        rows[i - 1][j - 1] = s
        return tuple(tuple(r) for r in rows)

    def exchange(i, j, s):
        return arith.matmul(call(i, j, s), call(j, i, s))

    one = arith.one
    if name == "catalanU":
        return [call(i, i + 1, one) for i in range(1, n)]
    if name == "doubleCatalan":
        return [exchange(i, i + 1, one) for i in range(1, n)]
    if name == "gossip":
        return [exchange(i, j, one) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if name == "oneWayGossip":
        return [call(i, j, one) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if name == "gossip_S":
        return [
            exchange(i, j, s)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            for s in sample
        ]
    raise ValueError(f"no reference generators for {name}")


def expected_size(name: str, n: int):
    if name == "catalanU":
        return math.comb(2 * n, n) // (n + 1)
    if name == "gossip":
        return GOSSIP_SIZES.get(n)
    return None


def check_closure(capture: dict) -> list:
    """``capture`` holds the family, n, spec and weight sample, the element
    texts in order, the generator texts in order and the witness words as
    generator indices."""
    name, n, spec = capture["family"], capture["n"], capture["spec"]
    problems = []
    elements = MatrixSet(spec, capture["elements"])
    m = len(capture["elements"])
    if len(elements.index) != m:
        problems.append(f"{m - len(elements.index)} repeated elements")
    want = expected_size(name, n)
    if want is not None and m != want:
        problems.append(f"{m} elements, not {want}")
    arith = elements.arith
    if elements.encode(arith.identity(n)).tobytes() not in elements.index:
        problems.append("identity missing")
    ours = [elements.encode(g) for g in family_generators(name, n, spec, capture["sample"])]
    theirs = [elements.encode(arith.parse_matrix(t)) for t in capture["generators"]]
    if sorted(g.tobytes() for g in ours) != sorted(g.tobytes() for g in theirs):
        problems.append("generators differ from the family's definition")
        return problems
    gens = np.array(theirs)
    products = elements.product(elements.array[:, None], gens[None, :])
    outside = int((elements.lookup(products) < 0).sum())
    if outside:
        problems.append(f"{outside} element-by-generator products leave the set")
    reached = {(): elements.encode(arith.identity(n))}
    for idx, word in enumerate(capture["words"]):
        word = tuple(word)
        if word not in reached:
            prefix = reached.get(word[:-1])
            if prefix is None:
                prefix = elements.encode(arith.identity(n))
                for g in word[:-1]:
                    prefix = elements.product(prefix, gens[g])
            reached[word] = elements.product(prefix, gens[word[-1]])
        if not np.array_equal(reached[word], elements.array[idx]):
            problems.append(f"witness word of element {idx} multiplies to another matrix")
            break
    return problems


def check_table(capture: dict, table: np.ndarray) -> list:
    elements = MatrixSet(capture["spec"], capture["elements"])
    m = len(elements.array)
    if table.shape != (m, m):
        return [f"table shape {table.shape}, not {(m, m)}"]
    products = elements.product(elements.array[:, None], elements.array[None, :])
    want = elements.lookup(products).reshape(m, m)
    wrong = int((want != table).sum())
    return [f"{wrong} table entries differ from the reference products"] if wrong else []


def check_bruteforce(capture: dict, w: str, v: str, result: dict) -> list:
    """``result`` is ``{"holds": assignments}`` or ``{"fails": {letter:
    element index}, "matrices": {letter: text}}``."""
    name, n, spec = capture["family"], capture["n"], capture["spec"]
    letters = sorted(set(w + v))
    m = len(capture["elements"])
    truth = simon_congruent(w, v, n - 1)
    if "holds" in result:
        problems = [] if truth else ["holds, but the sides are not Simon congruent"]
        if result["holds"] != m ** len(letters):
            problems.append(f"checked {result['holds']} of {m ** len(letters)} assignments")
        return problems
    problems = ["fails, but the sides are Simon congruent"] if truth else []
    assignment = result["fails"]
    if sorted(assignment) != letters or not all(0 <= i < m for i in assignment.values()):
        return problems + [f"bad assignment {assignment}"]
    arith = Arith(spec)
    images = {ch: arith.parse_matrix(capture["elements"][i]) for ch, i in assignment.items()}
    if any(arith.parse_matrix(result["matrices"][ch]) != images[ch] for ch in letters):
        problems.append("counterexample matrices are not the assigned elements")
    if arith.word_image(images, w, n) == arith.word_image(images, v, n):
        problems.append(f"counterexample does not separate the sides in {name}({n})")
    return problems
