"""Formal polynomials in doubled variables x(letter, vertex), built from
subword embeddings by :class:`EmbeddingForms` alone, plus
functional-equivalence testing over a semiring.

A polynomial is the set of its monomials, with natural-number exponents, so
one object can be interpreted over any instance: an exponent e evaluates as
the e-fold product.  It keeps no coefficients: no two embeddings give one
monomial, so every coefficient of f_{u,w} is 1 (see :class:`EmbeddingForms`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import AlgebraError, InternalConsistencyError
from .semirings import SemiringDescriptor, Val
from .words import PresenceRows


class Variable(NamedTuple):
    letter: str
    vertex: int

    def render(self) -> str:
        return f"x({self.letter},{self.vertex})"


@dataclass(frozen=True)
class FormalPolynomial:
    """The sum of the distinct monomials in ``terms``, sorted; a monomial is
    a sorted tuple of (variable, exponent) pairs."""

    terms: tuple

    @classmethod
    def from_monomials(cls, monomials) -> "FormalPolynomial":
        return cls(tuple(sorted(set(monomials))))

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> list:
        seen = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return sorted(seen)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            "*".join(var.render() if e == 1 else f"{var.render()}^{e}" for var, e in mono) or "1"
            for mono in self.terms
        )


ZERO_POLYNOMIAL = FormalPolynomial(())


def build_f(u: str, rho: tuple, w: str, n: int) -> FormalPolynomial:
    """The sum over all embeddings of u into w of the monomial recording, for
    each path vertex rho[k], how many occurrences of each letter fall strictly
    between the k-th and (k+1)-st embedded positions: :func:`build_f_canonical`
    with vertex k+1 renamed rho[k].  Zero exactly when u does not embed in w.
    """
    l = len(u)
    rho = tuple(rho)
    if l > n - 1:
        raise ValueError(f"|u|={l} exceeds n-1={n - 1}")
    if len(rho) != l + 1:
        raise ValueError(f"path has {len(rho)} vertices; need |u|+1={l + 1}")
    if any(not (1 <= v <= n) for v in rho):
        raise ValueError(f"path {rho} leaves the vertex range 1..{n}")
    if any(rho[k] >= rho[k + 1] for k in range(l)):
        raise ValueError(f"path {rho} is not strictly increasing")
    canonical = build_f_canonical(u, w)
    renamed = {var: Variable(var.letter, rho[var.vertex - 1]) for var in canonical.variables()}
    # a strictly increasing renaming keeps the monomials and the terms sorted
    return FormalPolynomial(tuple(
        tuple([(renamed[var], e) for var, e in mono]) for mono in canonical.terms
    ))


@lru_cache(maxsize=8192)
def build_f_canonical(u: str, w: str) -> FormalPolynomial:
    """build_f along the initial-segment path (1, 2, ..., |u|+1), decoded from
    the :class:`EmbeddingForms` of w."""
    return EmbeddingForms(w, w + u, len(u) + 1).polynomial(u)


class EmbeddingForms(PresenceRows):
    """The embedding polynomials f_{u,w} for the words u over ``alphabet``
    shorter than n, as :class:`~sgident.words.PresenceRows` whose entries
    are sets of exponent vectors.  This is the only constructor of f_{u,w}:
    :func:`build_f_canonical` and :func:`build_f` decode its forms.

    :meth:`form` gives the set of exponent vectors of f_{u,w}, or None when
    u does not embed in w, and :meth:`polynomial` decodes it.  That set is
    the whole polynomial: an embedding's segment lengths fix its positions,
    so no two embeddings give one monomial and every coefficient is 1.  A
    vector is packed into one int, ``width`` bits per variable x(s, v), at
    field (v - 1)·|alphabet| + (the rank of s); so two builders of one
    alphabet and width give equal forms exactly when the polynomials are
    equal.  ``width`` must hold |w|: to compare the sides of an identity,
    give both the longer side's.

    Entry j of u's row holds the vectors of the embeddings of u into w[:j],
    the letters after the last embedded one counted at vertex |u|+1, so

        row_u[j+1] = row_u[j]·x(w_j, |u|+1) ∪ [w_j = last letter of u]·row_{u[:-1]}[j]

    and f_{u,w} is the last entry.  ``check_UT`` reads the rows that its
    walk of the trie of u builds with :meth:`child`; :meth:`form` folds
    :meth:`child` over the prefixes of u."""

    def __init__(self, w: str, alphabet: str, n: int, width: Optional[int] = None):
        self.n = n
        self.width = len(w).bit_length() if width is None else width
        if len(w) >= 1 << self.width:
            raise ValueError(f"width {self.width} cannot hold exponents up to {len(w)}")
        self._rank = rank = {s: i for i, s in enumerate(sorted(set(alphabet)))}
        outside = sorted(set(w) - set(rank))
        if outside:
            raise ValueError(f"letters {''.join(outside)!r} of w are outside the alphabet {alphabet!r}")
        # the field of x(s, v) is that of x(s, 1) moved by (v - 1)·|alphabet|
        self._vertex = self.width * len(rank)
        self._units = [1 << (self.width * rank[s]) for s in w]
        self._low = sum(1 << (self.width * i) for i in range(n * len(rank)))
        super().__init__(w, [frozenset([acc]) for acc in accumulate(self._units, initial=0)])

    def _entries(self, below, first, last, length):
        shift, entry = self._vertex * length, set()
        entries = [frozenset()] * (first + 1)
        for j in range(first, len(self.w)):
            step = self._units[j] << shift
            entry = {m + step for m in entry}
            if self.w[j] == last:
                entry |= below[j]
            entries.append(entry)
        entries[-1] = frozenset(entry)
        return entries

    def form(self, u: str) -> Optional[frozenset]:
        if len(u) >= self.n:
            raise ValueError(f"|u|={len(u)} exceeds n-1={self.n - 1}")
        row = self.root
        for length, last in enumerate(u, start=1):
            row = row and self.child(row, last, length)
        return row and row[1][-1]

    def polynomial(self, u: str) -> FormalPolynomial:
        """f_{u,w} decoded from :meth:`form`, its monomials sorted as
        :meth:`FormalPolynomial.from_monomials` sorts them."""
        mask = (1 << self.width) - 1
        # per variable x(s, v), in Variable's order: its field and the factors
        # (x(s, v), e), each built once and shared by the monomials
        fields = [
            ((v - 1) * self._vertex + self.width * self._rank[s],
             [None] + [(Variable(s, v), e) for e in range(1, self.w.count(s) + 1)])
            for s in sorted(set(self.w)) for v in range(1, len(u) + 2)
        ]
        return FormalPolynomial(tuple(sorted(
            tuple([factors[e] for shift, factors in fields if (e := m >> shift & mask)])
            for m in self.form(u) or ()
        )))

    def minimal_supports(self, form: Optional[frozenset]) -> frozenset:
        """:func:`_minimal` of the forms' supports, one bit per variable (the
        lowest of its field)."""
        supports = []
        for m in form or ():
            folded = m
            for k in range(1, self.width):
                folded |= m >> k
            supports.append(folded & self._low)
        return _minimal(supports)


def equivalent_by_forms(a, b, S: SemiringDescriptor, forms: EmbeddingForms):
    """What :func:`functionally_equivalent` answers for two polynomials whose
    forms (:meth:`EmbeddingForms.form`, of builders like ``forms``) are a
    and b, when the forms alone show the answer to be an
    :class:`Equivalent`; None when the polynomials must be built and
    compared.  Equal forms, both zero included, are ``identical-form`` over
    any instance, since a polynomial is the set of its monomials; over a bitmask
    lattice equal antichains of minimal supports are what
    :func:`_by_supports` settles as ``exhaustive``."""
    if a == b:
        return Equivalent("identical-form")
    if (
        S.tropical is None
        and S.is_bitmask_lattice
        and forms.minimal_supports(a) == forms.minimal_supports(b)
    ):
        return Equivalent("exhaustive")
    return None


def _payload_pow(S: SemiringDescriptor, payload, exponent: int):
    acc = payload
    for _ in range(exponent - 1):
        acc = S._mul(acc, payload)
    return acc


def evaluate(p: FormalPolynomial, assignment: dict, S: SemiringDescriptor) -> Val:
    """Interpret p in S under a total assignment of its variables."""
    total, unit = S._zero_payload, S._one_payload
    for mono in p.terms:
        acc = unit
        for var, exponent in mono:
            bound = assignment.get(var)
            if bound is None:
                raise AlgebraError(f"no binding for variable {var.render()}")
            acc = S._mul(acc, _payload_pow(S, S.payload_of(bound), exponent))
        total = S._add(total, acc)
    return S._wrap(total)


# -- functional equivalence ----------------------------------------------------


@dataclass(frozen=True)
class Equivalent:
    method: str


@dataclass(frozen=True)
class NotEquivalent:
    witness: dict
    lhs_value: Val
    rhs_value: Val


@dataclass(frozen=True)
class NotFalsified:
    samples: int


def _not_equivalent(p, q, S, witness: dict, found: str) -> NotEquivalent:
    """The verdict that ``witness`` separates p and q, both sides recomputed
    by :func:`evaluate`.  Every fails is built here, whatever chose its
    witness (``found`` names it): when evaluate gives both sides one value,
    that choice was wrong, and the error says so instead."""
    lhs, rhs = evaluate(p, witness, S), evaluate(q, witness, S)
    if lhs == rhs:
        raise InternalConsistencyError(
            f"{S.name}: {found} separates the sides, but evaluate gives {lhs!r} on both"
        )
    return NotEquivalent(witness, lhs, rhs)


def _eval_codes(p: FormalPolynomial, codes: dict, S) -> np.ndarray:
    """The codes of p over a finite carrier at the assignments held as one
    code array per variable (of the tables' ``code_dtype``), broadcast against each other: aranges on
    their own axes give every assignment (:func:`_by_tensor`), columns of
    drawn codes a chunk of samples (:func:`_sampled`).  A monomial is built
    from its own variables' arrays only; adding it into the total broadcasts
    it over the rest."""
    tables = S.tables
    shape = np.broadcast_shapes(*(a.shape for a in codes.values()))
    total = np.full(shape, tables.zero_code, dtype=tables.code_dtype)
    unit = tables.code_dtype(tables.code[S._one_payload])
    for mono in p.terms:
        acc = unit
        for var, e in mono:
            acc = tables.mul[acc, tables.power(e)[codes[var]]]
        total = tables.add[total, acc]
    return total


def _by_tensor(p, q, S, variables):
    """Both sides' codes at all c^k assignments (:func:`_eval_codes`), one
    axis per variable; the witness is the first differing entry in C order."""
    c, k = S.tables.size, len(variables)
    axis = np.arange(c, dtype=S.tables.code_dtype)
    codes = {
        v: axis.reshape((1,) * i + (c,) + (1,) * (k - i - 1)) for i, v in enumerate(variables)
    }
    diff = _eval_codes(p, codes, S) != _eval_codes(q, codes, S)
    if not diff.any():
        return Equivalent("exhaustive")
    # C order on the tensor is the canonical enumeration: first variable slowest
    first = [int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape)]
    witness = {v: S._wrap(S.tables.payloads[i]) for v, i in zip(variables, first)}
    return _not_equivalent(p, q, S, witness, f"the coded assignment {first}")


def _minimal(supports) -> frozenset:
    """The inclusion-minimal members of a collection of bitmasks."""
    kept = []
    for s in sorted(set(supports), key=int.bit_count):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return frozenset(kept)


def _by_supports(p, q, S, variables):
    """Exact decision over a bitmask lattice (see
    :attr:`~sgident.semirings.SemiringDescriptor.is_bitmask_lattice`), with
    no cap on the number of assignments.

    Over B = {0, 1} a polynomial is a monotone Boolean function: a monomial
    is true exactly when its support (its set of variables, as a bitmask over
    ``variables``) is all ones, and two such functions are equal exactly when
    their antichains of minimal supports are.  Over B^m each bit is a
    semiring morphism onto B and B embeds diagonally, so the sides agree over
    B^m exactly when they agree over B.  A falsifying assignment stays
    falsifying, and gets no larger in any coordinate, when every code is
    replaced by its bit at a differing place; so the first one in C order
    uses codes 0 and 1 only.  It is built one variable at a time: code 0
    (drop the supports that hold the variable) if the restricted antichains
    still differ, else code 1 (clear the variable from every support)."""
    bit = {v: 1 << i for i, v in enumerate(variables)}
    a, b = (
        _minimal(sum(bit[var] for var, _ in mono) for mono in poly.terms)
        for poly in (p, q)
    )
    if a == b:
        return Equivalent("exhaustive")
    codes = []
    for v in variables:
        m = bit[v]
        a0 = frozenset(s for s in a if not s & m)
        b0 = frozenset(s for s in b if not s & m)
        if a0 != b0:
            a, b = a0, b0
            codes.append(0)
        else:
            a, b = _minimal(s & ~m for s in a), _minimal(s & ~m for s in b)
            codes.append(1)
    witness = {v: S._wrap(S.tables.payloads[c]) for v, c in zip(variables, codes)}
    return _not_equivalent(p, q, S, witness, "the assignment built from the minimal supports")


# total assignments up to which a finite carrier other than a bitmask lattice
# is settled exhaustively
EXHAUSTIVE_CAP = 1 << 20


def _exhaustive(p, q, S, variables):
    """Decide p = q at every assignment over a finite carrier, or None when
    that takes a tensor of more than ``EXHAUSTIVE_CAP`` entries."""
    tables = S.tables
    if not variables or tables.size == 1:
        # one assignment only; a tensor with one axis per variable would also
        # run into numpy's limit on the number of axes
        only = {v: S._wrap(tables.payloads[0]) for v in variables}
        if evaluate(p, only, S) == evaluate(q, only, S):
            return Equivalent("exhaustive")
        return _not_equivalent(p, q, S, only, "the only assignment")
    if S.is_bitmask_lattice:
        return _by_supports(p, q, S, variables)
    if tables.size ** len(variables) > EXHAUSTIVE_CAP:
        return None
    return _by_tensor(p, q, S, variables)


# assignments drawn and evaluated per step of the sampled check over a
# finite carrier: the first chunk holds one, because most inequivalent pairs
# separate at the first sample and a larger first chunk would draw and
# evaluate samples that are never needed; each next chunk doubles up to the
# cap, which bounds the code columns in memory
_SAMPLE_CHUNK_FIRST = 1
_SAMPLE_CHUNK_CAP = 1024


def _sampled(p, q, S, variables, budget, seed):
    """Seeded sampling: ``budget`` assignments, each drawn one variable at a
    time in universe order; the first that separates the sides is the
    witness.  Over a finite carrier a value is drawn as its code,
    ``rng.randrange(c)``, which is the draw ``rng.choice`` makes over the
    values; the codes are drawn a chunk of assignments at a time and
    evaluated as one code column per variable by :func:`_eval_codes`.  Over
    an infinite carrier each assignment is drawn by
    :meth:`~sgident.semirings.SemiringDescriptor.sample_value` and
    evaluated by :func:`evaluate`."""
    rng = random.Random(seed)
    if not S.is_finite:
        for index in range(budget):
            witness = {v: S.sample_value(rng) for v in variables}
            if evaluate(p, witness, S) != evaluate(q, witness, S):
                return _not_equivalent(p, q, S, witness, f"sample {index}")
        return NotFalsified(budget)
    tables = S.tables
    width = len(variables)
    done, size = 0, _SAMPLE_CHUNK_FIRST
    while done < budget:
        size = min(size, budget - done)
        drawn = [rng.randrange(tables.size) for _ in range(size * width)]
        table = np.array(drawn, dtype=tables.code_dtype).reshape(size, width)
        codes = {v: table[:, j] for j, v in enumerate(variables)}
        diff = _eval_codes(p, codes, S) != _eval_codes(q, codes, S)
        if diff.any():
            first = int(np.argmax(diff))
            row = drawn[first * width : (first + 1) * width]
            witness = {v: S._wrap(tables.payloads[c]) for v, c in zip(variables, row)}
            return _not_equivalent(p, q, S, witness, f"sample {done + first}")
        done += size
        size = min(2 * size, _SAMPLE_CHUNK_CAP)
    return NotFalsified(budget)


# -- exact hull decision over tropical instances --------------------------------


def _simplex(rows: list, cost: list, basis: list) -> int:
    """Minimise over a simplex tableau by Bland's rule, in place, in exact
    integers.  ``rows`` are the constraint rows ``[a_1, ..., a_N, b]`` of
    A x = b, x >= 0, ``basis[i]`` the column basic in row i, and each row
    stands for itself divided by its basic entry, which stays positive.
    ``cost`` is the reduced-cost row ``[d_1, ..., d_N, -z]`` times the
    positive int returned (1 on entry).  A pivot cross-multiplies and divides
    each row by the gcd of its entries, which keeps the numbers small without
    Fractions.  Bland's rule (the entering column is the first with a
    negative reduced cost; among the rows of least ratio, the leaving one has
    the first basic column) cannot cycle, so degenerate pivots end too."""
    scale = 1
    while True:
        j = next((j for j, d in enumerate(cost[:-1]) if d < 0), None)
        if j is None:
            return scale
        ratios = [
            (Fraction(row[-1], row[j]), basis[i], i) for i, row in enumerate(rows) if row[j] > 0
        ]
        if not ratios:
            raise AlgebraError("the linear program is unbounded")
        r = min(ratios)[2]
        pivot = rows[r]
        p = pivot[j]
        for row in [*rows[:r], *rows[r + 1 :], cost]:
            factor = row[j]
            if factor:
                row[:] = [x * p - factor * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                if row is cost:
                    g = math.gcd(g, scale * p)
                    scale = scale * p // g
                row[:] = [x // g for x in row]
        basis[r] = j


def phase_one(A: list, b: list) -> tuple:
    """Exact feasibility of A x = b, x >= 0, for integer A and b >= 0:
    ``(x, None)`` with x a feasible point, or ``(None, y)`` with y·A <= 0 and
    y·b > 0, Farkas' proof that there is none, both in Fractions.  Each row
    gets an artificial column, and their sum is minimised by
    :func:`_simplex` from the artificial basis; at the optimum the rows'
    simplex multipliers y are 1 minus the reduced costs of the artificial
    columns."""
    m, n = len(b), len(A[0]) if A else 0
    rows = [list(A[i]) + [int(i == k) for k in range(m)] + [b[i]] for i in range(m)]
    cost = [-sum(column) for column in zip(*rows)]
    cost[n:-1] = [0] * m
    basis = list(range(n, n + m))
    scale = _simplex(rows, cost, basis)
    if cost[-1]:
        return None, [1 - Fraction(d, scale) for d in cost[n:-1]]
    x = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = Fraction(row[-1], row[j])
    return x, None


def _hull_point(e: tuple, others: list, orthant: bool) -> tuple:
    """Whether the exponent vector e lies in the convex hull of the members
    of ``others`` whose support is within e's (plus the orthant, with
    ``orthant``): ``(weights, None)`` with ``weights`` a dict from monomials
    to the Fractions of a convex combination, or ``(None, y)`` with y a dict
    from e's variables to Fractions, a direction in which e beats every such
    member (y·e > y·f for all of them; y >= 0 and y·e < y·f with
    ``orthant``).  e itself, or with ``orthant`` a member below e, needs no
    linear program, and no member at all gives y = 0."""
    exponents = dict(e)
    near = [f for f in others if all(var in exponents for var, _ in f)]
    below = (
        f for f in near
        if f == e or (orthant and all(k <= exponents[var] for var, k in f))
    )
    first = next(below, None)
    if first is not None:
        return {first: Fraction(1)}, None
    if not near:
        return None, dict.fromkeys(exponents, Fraction(0))
    axes = list(exponents)
    columns = [dict(f) for f in near]
    # with the orthant, one slack column per variable: the weighted sum of
    # the members plus the slacks is e
    slacks = len(axes) if orthant else 0
    A = [
        [f.get(var, 0) for f in columns] + [int(i == k) for k in range(slacks)]
        for i, var in enumerate(axes)
    ]
    A.append([1] * len(near) + [0] * slacks)
    x, y = phase_one(A, [exponents[var] for var in axes] + [1])
    if y is not None:
        sign = -1 if orthant else 1
        return None, {var: sign * c for var, c in zip(axes, y)}
    return {f: c for f, c in zip(near, x) if c}, None


def _certifies(e: tuple, weights: dict, orthant: bool) -> bool:
    """Whether ``weights`` is a convex combination of monomials supported
    within e's support that is e (at most e, with ``orthant``)."""
    exponents = dict(e)
    if any(c < 0 for c in weights.values()) or sum(weights.values()) != 1:
        return False
    total = dict.fromkeys(exponents, Fraction(0))
    for f, c in weights.items():
        for var, k in f:
            if var not in total:
                return False
            total[var] += c * k
    return all(
        total[var] <= k if orthant else total[var] == k for var, k in exponents.items()
    )


def _integral(y: dict) -> dict:
    """y scaled by a positive factor to coprime integers."""
    d = math.lcm(*(c.denominator for c in y.values()))
    ints = {var: int(c * d) for var, c in y.items()}
    g = math.gcd(*ints.values()) or 1
    return {var: k // g for var, k in ints.items()}


def _separation(p, q, S):
    """The separating direction of the first exponent vector, p's in order
    and then q's, outside the other side's hull (see :func:`_hull_point`),
    or None when there is none, each convex combination re-checked."""
    orthant = S.tropical.orthant
    for side, other in ((p, q), (q, p)):
        for e in side.terms:
            weights, y = _hull_point(e, other.terms, orthant)
            if y is not None:
                return y
            if not _certifies(e, weights, orthant):
                raise InternalConsistencyError(
                    f"{S.name}: the convex combination {weights} does not certify {e}"
                )
    return None


def _by_hull(p, q, S, variables):
    """Exact decision over an instance with a tropical shape (see
    :class:`~sgident.semirings.TropicalShape`).  p <= q as functions (the
    order of the max, or of the min with the orthant) exactly when every
    exponent vector e of p lies in the convex hull of the exponent vectors of
    q supported within supp(e), plus the orthant where declared: setting the
    variables outside supp(e) to the zero element leaves q only those
    vectors, and a direction y that separates e from their hull is an
    assignment, on supp(e), where p exceeds q.  The sides are equal when
    this holds both ways.  Each convex combination is re-checked by
    :func:`_certifies`.  A fails takes its witness from the separating
    direction, scaled to coprime integers: ``point(y)`` on supp(e), the
    zero element elsewhere; :func:`evaluate` recomputes both sides.  Over
    these instances ``budget`` and ``seed`` play no part."""
    y = _separation(p, q, S)
    if y is None:
        return Equivalent("hull")
    coordinates = _integral(y)
    zero = S._wrap(S._zero_payload)
    witness = {
        v: S._wrap(S.tropical.point(coordinates[v])) if v in coordinates else zero
        for v in variables
    }
    return _not_equivalent(p, q, S, witness, f"the separating direction {coordinates}")


def functionally_equivalent(
    p: FormalPolynomial,
    q: FormalPolynomial,
    S: SemiringDescriptor,
    *,
    variables: Optional[list] = None,
    budget: int = 4096,
    seed: int = 0,
):
    """Decide whether p and q define the same function on assignments over S.

    Equal polynomials (the same set of monomials) are equivalent over any
    instance.  ``check_UT`` does not call this for a u whose
    :class:`EmbeddingForms` are equal, nor over a bitmask lattice for one
    whose forms have equal antichains of minimal supports: there
    :func:`equivalent_by_forms` gives what this would, ``identical-form``
    and ``exhaustive``, and criterion 21 of the acceptance suite checks
    that it does.  An instance that declares a tropical
    shape (``maxplus``, ``minplus01inf``, ``interval01``; see
    :class:`~sgident.semirings.TropicalShape`) is settled exactly by
    :func:`_by_hull`: each exponent vector of one side must lie in the convex
    hull of the other side's vectors supported within its own (plus the
    orthant under min-plus), checked by an exact simplex on an integer
    tableau (:func:`phase_one`) only where the vector is not itself on the
    other side (or, under min-plus, above one of its vectors).  A holds comes back as method ``hull`` with
    every convex combination re-checked; a fails takes the witness built
    from the separating direction.  Over these instances ``budget`` and
    ``seed`` play no part.  Finite carriers
    are settled exactly, with method ``exhaustive``.  A bitmask lattice
    (``bool``, ``lattice:diamond``, ``nat:1,1``; see
    :attr:`SemiringDescriptor.is_bitmask_lattice`) has no cap: there both
    sides are monotone Boolean functions, equal exactly when their
    antichains of minimal supports are, so the decision takes time
    polynomial in the terms, not in the c^k assignments.  Other finite
    carriers are evaluated at all assignments up to ``EXHAUSTIVE_CAP`` of
    them: both sides over a tensor with one axis of size c per variable, each
    monomial over its own axes and broadcast over the rest, so memory is
    c^k codes (one byte each up to 256 values) per array.  Otherwise seeded sampling either produces a
    falsifying witness or reports NotFalsified (:func:`_sampled`): ``budget``
    assignments are drawn one variable at a time in universe order.  A
    finite carrier past the cap draws them as codes, a chunk at a time
    (``_SAMPLE_CHUNK_FIRST`` first, doubling up to ``_SAMPLE_CHUNK_CAP``),
    and evaluates each chunk on the coded tables as the tensor is evaluated;
    an infinite carrier evaluates one assignment at a time.  Every fails is
    re-checked: :func:`evaluate` recomputes both sides at the witness, and
    an internal consistency error is raised when they agree.  Off the hull
    the witness is always the first falsifying assignment in the canonical
    enumeration (or sampling) order, so verdicts are reproducible.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    occurring = {var for poly in (p, q) for mono in poly.terms for var, _ in mono}
    if variables is None:
        universe = occurring
    else:
        universe = set(variables)
        missing = sorted(occurring - universe)
        if missing:
            raise AlgebraError(
                f"variable universe misses {[v.render() for v in missing]}"
            )
    if p == q:
        return Equivalent("identical-form")
    universe = sorted(universe)
    if S.tropical is not None:
        return _by_hull(p, q, S, universe)
    if S.is_finite:
        result = _exhaustive(p, q, S, universe)
        if result is not None:
            return result
    return _sampled(p, q, S, universe, budget, seed)
