"""Finite matrix monoids: BFS closure over generators, the named call
families and enumerated families, presentation and inclusion checks,
structural reports, and a brute-force identity oracle over enumerated
elements.

The four call families (neighbour steps, neighbour exchanges, two-way and
one-way gossip) come from one generator table over an interval instance and
a sample of call weights.  A Boolean family is its ``_S`` family over
``bool`` with the single weight 1, which its labels leave out.

Closures are deterministic: elements appear in BFS discovery order with the
generator list iterated in a fixed order, so witness words are the shortest
generator words with lexicographic tie-break, and two runs with identical
inputs produce identical results.

Closures run one BFS level at a time on arrays, in one level driver over two
encodings.  Boolean elements are row bitmasks: a generator maps a row
bitmask to its image row through a 2^n-entry table, so a whole level's
products are one gather per generator, and each element packs into one
``uint64`` key, one byte per row.  Every other instance whose code object
``S.codes`` holds the generators exactly, with a constant weight (the
finite carriers and ``minplus01inf``), keeps elements as code arrays: a
level's products are ``codes.product`` calls, and the key is the bytes of
the codes.  A level's new elements are taken in (parent, generator) order,
first occurrence only, which is the order one product at a time would
discover them in.  ``nat``, ``maxplus``, ``interval01`` (whose codes follow
the degree law) and generators the codes cannot hold take that per-product
path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    AlgebraError,
    BudgetExceededError,
    ClosureCapExceeded,
    UnsupportedStructureError,
)
from .matrices import (
    SMatrix,
    catalan_generator,
    identity_matrix,
    is_convex,
    is_reflexive,
    multiply,
    one_way_call,
    two_way_call,
)
from .semirings import BOOL, INF_CODE, SemiringDescriptor
from .words import Identity


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class ClosureResult:
    """An enumerated finite monoid of matrices.

    ``elements[0]`` is the identity matrix for generated closures, and
    ``cayley_right`` is an int32 array whose entry ``[i, g]`` is the index
    of ``elements[i]`` times generator ``g``; :meth:`mult_table` builds the
    full table, the closure's only one, from these rows.  The order of
    ``elements`` is BFS discovery order whichever path built them (see
    :func:`bfs_closure`).  Families produced by direct enumeration rather
    than generation, and a closure cut off by its element cap, carry no
    Cayley rows, so their table takes one matrix product per entry.
    """

    def __init__(
        self,
        semiring: SemiringDescriptor,
        n: int,
        family: Optional[str],
        generators: tuple,
        generator_labels: tuple,
        elements: list,
        witness_words: Optional[list],
        cayley_right: Optional[np.ndarray],
    ):
        self.semiring = semiring
        self.n = n
        self.family = family
        self.generators = generators
        self.generator_labels = generator_labels
        self.elements = elements
        self.witness_words = witness_words
        self.cayley_right = cayley_right
        self._index = {m: i for i, m in enumerate(elements)}
        self._table = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, matrix: SMatrix) -> bool:
        return matrix in self._index

    def index_of(self, matrix: SMatrix) -> int:
        return self._index[matrix]

    def witness_word(self, idx: int) -> str:
        if self.witness_words is None:
            return "-"
        word = self.witness_words[idx]
        if not word:
            return "-"
        return " ".join(self.generator_labels[g] for g in word)

    def mult_table(self) -> np.ndarray:
        """Full element-by-element multiplication table (indices), built once
        in the narrowest dtype that holds the flat indices ``i * m + j``,
        ``np.min_scalar_type(m * m - 1)``: the brute-force fold gathers from
        its ravel in that dtype (uint8 and uint16 gathers are the faster).

        With Cayley rows, column 0 is the identity and column ``j`` is one
        gather through the rows: element ``j`` was discovered as
        ``elements[p] * g``, where ``p``'s witness word is ``j``'s without its
        last generator ``g``, so ``a * elements[j] = (a * elements[p]) * g``
        for every ``a``, and ``p < j``.  Without Cayley rows every entry is
        one matrix product, and a closure's partial at its element cap has
        one outside its elements: :class:`ClosureCapExceeded`.
        """
        if self._table is None:
            m = len(self.elements)
            table = np.empty((m, m), dtype=np.min_scalar_type(m * m - 1))
            if self.cayley_right is None:
                try:
                    for i, a in enumerate(self.elements):
                        for j, b in enumerate(self.elements):
                            table[i, j] = self._index[multiply(a, b)]
                except KeyError:
                    message = f"the closure was cut off at its element cap of {m}; it has no table"
                    raise ClosureCapExceeded(message, self) from None
            else:
                cayley = self.cayley_right
                index_of_word = {word: i for i, word in enumerate(self.witness_words)}
                table[:, 0] = np.arange(m)
                for j in range(1, m):
                    word = self.witness_words[j]
                    table[:, j] = cayley[table[:, index_of_word[word[:-1]]], word[-1]]
            self._table = table
        return self._table


def bfs_closure(
    generators,
    element_cap: int = 5_000_000,
    labels: Optional[list] = None,
    family: Optional[str] = None,
) -> ClosureResult:
    """Close a generator list under right multiplication, breadth first.

    Boolean generators take the level-by-level BFS on row bitmasks, those
    that ``S.codes`` holds exactly (see :func:`_coded_encoding`) the same BFS
    on code arrays, and every other instance one matrix product per
    (element, generator) pair; all give the same elements, witness words and
    Cayley rows in the same order.  A closure that would pass
    ``element_cap`` raises :class:`ClosureCapExceeded` carrying the first
    ``element_cap`` elements and their words, with no Cayley rows.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("closure needs at least one generator")
    S = generators[0].semiring
    n = generators[0].n
    for g in generators:
        if g.semiring is not S or g.n != n:
            raise UnsupportedStructureError("generators must share dimension and instance")
    if labels is None:
        labels = [f"g{k + 1}" for k in range(len(generators))]
    if element_cap < 1:
        raise ValueError("element cap must be positive")
    if S is BOOL and n <= _KEY_BYTES:
        encoding = _bitmask_encoding(generators)
    else:
        encoding = _coded_encoding(generators, element_cap)
        if encoding is None:
            return _bfs_products(generators, element_cap, labels, family)
    return _bfs_levels(generators, element_cap, labels, family, encoding)


def _closure_result(generators, labels, family, elements, words, cayley) -> ClosureResult:
    S, n = generators[0].semiring, generators[0].n
    return ClosureResult(
        S, n, family, tuple(generators), tuple(labels), elements, words, cayley
    )


def _cap_exceeded(generators, labels, family, elements, words, element_cap):
    partial = _closure_result(generators, labels, family, elements, words, None)
    return ClosureCapExceeded(f"closure exceeded cap of {element_cap} elements", partial)


def _bfs_products(generators, element_cap, labels, family) -> ClosureResult:
    """The BFS one matrix product at a time: the closure of the instances
    that neither encoding holds, and the reference the level BFS is checked
    against."""
    start = identity_matrix(generators[0].n, generators[0].semiring)
    elements = [start]
    words = [()]
    index = {start: 0}
    cayley = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        base = elements[i]
        row = []
        for gi, g in enumerate(generators):
            result = multiply(base, g)
            found = index.get(result)
            if found is None:
                if len(elements) >= element_cap:
                    raise _cap_exceeded(generators, labels, family, elements, words, element_cap)
                found = len(elements)
                index[result] = found
                elements.append(result)
                words.append(words[i] + (gi,))
                queue.append(found)
            row.append(found)
        cayley.append(row)
    cayley = np.array(cayley, dtype=np.int32)
    return _closure_result(generators, labels, family, elements, words, cayley)


# rows per packed key: one byte each in a uint64, which covers MAX_DIMENSION
_KEY_BYTES = 8


class _Encoding(NamedTuple):
    """How the level BFS holds elements as arrays.  ``start`` is the
    identity as a one-element level; ``step(level)`` gives the products of
    every element of a level with every generator, row-major over (parent,
    generator); ``keys(products)`` gives one key per product, equal exactly
    when the matrices are; ``decode(products)`` gives their matrices."""

    start: np.ndarray
    step: Callable
    keys: Callable
    decode: Callable


def _bitmask_encoding(generators) -> _Encoding:
    """Boolean elements as ``(F, 8)`` arrays of row bitmasks, zero padded
    past row n, so that each row is one byte of the element's ``uint64``
    key.  ``images[m, g]`` is the row bitmask ``m`` times generator ``g``,
    the OR of ``g``'s rows at the bits of ``m``, and ``images[0] = 0`` keeps
    the padding zero.  Matrices take their rows from ``row_of_mask``, one
    tuple per bitmask shared by all of them."""
    n, count = generators[0].n, len(generators)
    masks = np.arange(1 << n)
    images = np.zeros((1 << n, count), dtype=np.uint8)
    for gi, g in enumerate(generators):
        for k, row in enumerate(g.rows):
            images[masks >> k & 1 == 1, gi] |= sum(1 << j for j, v in enumerate(row) if v)
    row_of_mask = [tuple(m >> j & 1 == 1 for j in range(n)) for m in range(1 << n)]
    start = np.zeros((1, _KEY_BYTES), dtype=np.uint8)
    start[0, :n] = 1 << np.arange(n)

    def step(level):
        return np.ascontiguousarray(images[level].transpose(0, 2, 1).reshape(-1, _KEY_BYTES))

    def decode(products):
        return [
            SMatrix(BOOL, tuple(row_of_mask[m] for m in rows))
            for rows in products[:, :n].tolist()
        ]

    return _Encoding(start, step, lambda products: products.view(np.uint64).ravel(), decode)


def _coded_encoding(generators, element_cap) -> Optional[_Encoding]:
    """Elements as ``(F, n, n)`` arrays of ``S.codes``, keyed by the bytes of
    their codes, or None when the codes cannot hold the closure exactly.

    That needs a constant ``weight`` (no degree law), every generator entry
    encoded, and, under min-plus saturation, no finite code reaching
    ``INF_CODE``: the finite codes of an element at depth d are sums of at
    most d generator codes, and no product the BFS forms is deeper than
    ``element_cap``."""
    S, n, count = generators[0].semiring, generators[0].n, len(generators)
    try:
        codes = S.codes
        coded = np.array(
            [[[codes.encode(p) for p in row] for row in m.rows]
             for m in (identity_matrix(n, S), *generators)],
            dtype=codes.dtype(1),
        )
    except (UnsupportedStructureError, AlgebraError, KeyError, ValueError, OverflowError):
        return None
    start, coded = coded[:1], coded[1:]
    widest = int(np.abs(coded[coded < INF_CODE]).max(initial=0))
    if codes.weight(1) != codes.weight(2) or element_cap * widest >= INF_CODE:
        return None
    key_type = np.dtype((np.void, n * n * coded.itemsize))
    payload = cache(codes.payload)  # one payload object per code

    def step(level):
        # one product call per generator, each g broadcast against the level:
        # a single (F, G, n, n) call would hold several level-times-G arrays
        products = np.empty((len(level), count, n, n), dtype=coded.dtype)
        for gi, g in enumerate(coded):
            products[:, gi] = codes.product(level, g)
        return products.reshape(-1, n, n)

    def keys(products):
        return products.reshape(len(products), -1).view(key_type).ravel()

    def decode(products):
        return [
            SMatrix(S, tuple(tuple(payload(c) for c in row) for row in m))
            for m in products.tolist()
        ]

    return _Encoding(start, step, keys, decode)


def _bfs_levels(generators, element_cap, labels, family, encoding) -> ClosureResult:
    """The BFS one level at a time on an :class:`_Encoding` of the elements.

    Known keys stay sorted, with their element indices alongside, for
    ``searchsorted``.  A level's new elements are its missed keys ranked by
    first occurrence in (parent, generator) order, which is the order one
    product at a time discovers them in."""
    count = len(generators)
    elements = [identity_matrix(generators[0].n, generators[0].semiring)]
    words = [()]
    cayley = []
    level = encoding.start
    known = encoding.keys(level)
    known_index = np.zeros(1, dtype=np.int64)
    level_start = 0  # index of the level's first element
    while len(level):
        products = encoding.step(level)
        keys = encoding.keys(products)
        pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        hit = known[pos] == keys
        targets = np.where(hit, known_index[pos], 0)
        missed = np.flatnonzero(~hit)
        fresh, first_seen, inverse = np.unique(
            keys[missed], return_index=True, return_inverse=True
        )
        order = np.argsort(first_seen)  # new keys by first occurrence
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        targets[missed] = len(elements) + rank[inverse]
        found = missed[first_seen[order]]
        if len(elements) + len(found) > element_cap:
            found = found[: element_cap - len(elements)]
        for c, matrix in zip(found.tolist(), encoding.decode(products[found])):
            parent, gi = divmod(c, count)
            words.append(words[level_start + parent] + (gi,))
            elements.append(matrix)
        if len(found) < len(order):
            raise _cap_exceeded(generators, labels, family, elements, words, element_cap)
        cayley.append(targets.reshape(-1, count).astype(np.int32))
        slots = np.searchsorted(known, fresh)
        known = np.insert(known, slots, fresh)
        known_index = np.insert(known_index, slots, len(elements) - len(found) + rank)
        level_start += len(level)
        level = products[found]
    cayley = np.concatenate(cayley)
    return _closure_result(generators, labels, family, elements, words, cayley)


# -- direct enumerations ---------------------------------------------------------


# matrices a direct enumeration may produce
ENUMERATION_CAP = 1 << 18


def _enumerate_positions(base: SMatrix, positions, family):
    """``base`` with every assignment of carrier values to ``positions``, the
    first position slowest."""
    S = base.semiring
    values = [v.payload for v in S.values()]
    total = len(values) ** len(positions)
    if total > ENUMERATION_CAP:
        raise BudgetExceededError(
            f"direct enumeration of {total} matrices exceeds the cap {ENUMERATION_CAP}"
        )
    out = []
    for combo in iproduct(values, repeat=len(positions)):
        rows = [list(r) for r in base.rows]
        for (i, j), v in zip(positions, combo):
            rows[i][j] = v
        out.append(SMatrix(S, tuple(tuple(r) for r in rows)))
    return ClosureResult(S, base.n, family, (), (), out, None, None)


def enumerate_reflexive(n: int, S: SemiringDescriptor = BOOL) -> ClosureResult:
    """All matrices with unit diagonal, identity first."""
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    return _enumerate_positions(
        identity_matrix(n, S), positions, "reflexiveBool" if S is BOOL else None
    )


def enumerate_unitriangular(n: int, S: SemiringDescriptor = BOOL) -> ClosureResult:
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _enumerate_positions(identity_matrix(n, S), positions, None)


def enumerate_upper_triangular(n: int, S: SemiringDescriptor = BOOL) -> ClosureResult:
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    zero = SMatrix(S, ((S._zero_payload,) * n,) * n)
    return _enumerate_positions(zero, positions, None)


def enumerate_convex(n: int) -> ClosureResult:
    full = enumerate_reflexive(n, BOOL)
    kept = [m for m in full.elements if is_convex(m)]
    return ClosureResult(BOOL, n, "convexBool", (), (), kept, None, None)


# -- named families -----------------------------------------------------------------


FAMILY_NAMES = (
    "catalanU",
    "doubleCatalan",
    "gossip",
    "oneWayGossip",
    "reflexiveBool",
    "convexBool",
    "catalanU_S",
    "doubleCatalan_S",
    "gossip_S",
    "oneWayGossip_S",
)


def _call_generators(name, n, S, sample, index_bound):
    """The generators and labels of a call family over ``S``: per call pair,
    one call per weight of ``sample``.  A Boolean family's labels leave its
    weight 1 out."""
    base = name.removesuffix("_S")
    top = n if index_bound == "n" else n - 1
    if base in ("catalanU", "doubleCatalan"):
        pairs = [(i, i + 1) for i in range(1, n)]
    elif base == "gossip":
        pairs = [(i, j) for i in range(1, top + 1) for j in range(i + 1, top + 1)]
    else:
        pairs = [(i, j) for i in range(1, top + 1) for j in range(1, top + 1) if i != j]
    one_way = base in ("catalanU", "oneWayGossip")
    call, arrow = (one_way_call, ">") if one_way else (two_way_call, "<>")
    gens, labels = [], []
    for i, j in pairs:
        for s in sample:
            gens.append(call(i, j, n, S, s))
            if name != base:
                labels.append(f"{i}{arrow}{j}:{S.format_value(S.val(s))}")
            else:
                labels.append(f"e{i}" if base == "catalanU" else f"{i}{arrow}{j}")
    return gens, labels


# gossip closures grow violently with n; the other families stay desk sized
_FAMILY_N_DEFAULTS = {"gossip": 4, "oneWayGossip": 4}


def family(
    name: str,
    n: int,
    semiring: Optional[SemiringDescriptor] = None,
    *,
    s_sample: Optional[tuple] = None,
    element_cap: Optional[int] = None,
    index_bound: str = "n",
    max_n: Optional[int] = None,
) -> ClosureResult:
    """Build one of the named monoid families.

    Call families: ``catalanU`` (neighbour steps), ``doubleCatalan``
    (neighbour exchanges), ``gossip`` (all two-way calls) and
    ``oneWayGossip`` (all one-way calls) are Boolean; their ``*_S``
    variants take an interval instance and a finite sample of call weights
    (the instance's default when None), and the Boolean family is the
    variant over ``bool`` with the weight 1.  ``reflexiveBool`` and
    ``convexBool`` are Boolean direct enumerations.  ``index_bound``
    selects whether weighted gossip call indices range over 1..n (default)
    or only 1..n-1.  An option the family does not read is an error: a
    semiring other than ``bool`` or a weight sample for a Boolean family,
    ``index_bound="n-1"`` for any family but ``gossip_S`` and
    ``oneWayGossip_S``, and ``element_cap`` (5,000,000 when None) for
    ``reflexiveBool`` and ``convexBool``; so is an empty weight sample.
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_n is None:
        max_n = _FAMILY_N_DEFAULTS.get(name.removesuffix("_S"), 6)
    if n > max_n:
        raise ValueError(
            f"n={n} above the configured family bound {max_n}; pass max_n to raise it"
        )
    if index_bound not in ("n", "n-1"):
        raise ValueError("index_bound must be 'n' or 'n-1'")
    if index_bound == "n-1" and name not in ("gossip_S", "oneWayGossip_S"):
        raise ValueError(f"family {name} reads no index bound; only gossip_S and oneWayGossip_S do")
    if element_cap is not None and name in ("reflexiveBool", "convexBool"):
        raise ValueError(f"family {name} is enumerated; it reads no element cap")
    if not name.endswith("_S"):
        if semiring is not None and semiring is not BOOL:
            raise ValueError(f"family {name} is Boolean; it takes no semiring {semiring.name}")
        if s_sample is not None:
            raise ValueError(f"family {name} is Boolean; it takes no weight sample")
        semiring, sample = BOOL, BOOL.interval_sample
    else:
        if semiring is None or not semiring.is_interval:
            raise UnsupportedStructureError(
                f"family {name} needs an interval semiring instance"
            )
        if s_sample is not None and not s_sample:
            raise ValueError(f"family {name} got an empty weight sample")
        sample = s_sample if s_sample is not None else semiring.interval_sample
        if not sample:
            raise ValueError(f"{semiring.name} declares no default weight sample")

    if name == "reflexiveBool":
        return enumerate_reflexive(n, BOOL)
    if name == "convexBool":
        return enumerate_convex(n)
    gens, labels = _call_generators(name, n, semiring, sample, index_bound)
    if not gens:
        # n too small for any generator: the trivial monoid
        trivial = [identity_matrix(n, semiring)]
        return ClosureResult(
            semiring, n, name, (), (), trivial, [()], np.zeros((1, 0), dtype=np.int32)
        )
    cap = 5_000_000 if element_cap is None else element_cap
    return bfs_closure(gens, element_cap=cap, labels=labels, family=name)


# -- presentation and inclusion checks --------------------------------------------------


@dataclass
class PresentationCheck:
    n: int
    relations: list
    closure_size: int
    expected_size: int

    @property
    def all_relations_hold(self) -> bool:
        return all(ok for _, _, ok in self.relations)

    @property
    def size_matches(self) -> bool:
        return self.closure_size == self.expected_size

    @property
    def ok(self) -> bool:
        return self.all_relations_hold and self.size_matches


def check_catalan_presentation(n: int) -> PresentationCheck:
    """Verify the neighbour-step relations (idempotency, distant commuting,
    and the local braid-with-absorption triple) and that the generated monoid
    has Catalan-number size."""
    if n < 2:
        raise ValueError("presentation check needs n >= 2")
    gens = {i: catalan_generator(i, n) for i in range(1, n)}

    def prod(indices):
        result = identity_matrix(n, BOOL)
        for k in indices:
            result = multiply(result, gens[k])
        return result

    def label(indices):
        return " ".join(f"e{k}" for k in indices)

    relations = []

    def add_relation(lhs, rhs):
        relations.append((label(lhs), label(rhs), prod(lhs) == prod(rhs)))

    for i in range(1, n):
        add_relation((i, i), (i,))
    for i in range(1, n):
        for j in range(i + 2, n):
            add_relation((i, j), (j, i))
    for i in range(1, n - 1):
        add_relation((i, i + 1, i), (i + 1, i, i + 1))
        add_relation((i, i + 1, i), (i, i + 1))

    closure = family("catalanU", n)
    return PresentationCheck(n, relations, len(closure), catalan_number(n))


@dataclass
class InclusionReport:
    entries: list

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


def check_inclusions(
    n: int, weighted_semiring: Optional[SemiringDescriptor] = None
) -> InclusionReport:
    """For ``bool``, then ``weighted_semiring`` when given: every element of
    the four call families over the instance's default weight sample is
    reflexive, and doubleCatalan_S within gossip_S within oneWayGossip_S,
    element by element.  Over ``bool`` reflexive means inside
    ``reflexiveBool(n)``, every Boolean matrix with unit diagonal."""
    entries = []
    for S in (BOOL,) if weighted_semiring in (None, BOOL) else (BOOL, weighted_semiring):
        fams = {
            name: family(name, n, S)
            for name in ("catalanU_S", "doubleCatalan_S", "gossip_S", "oneWayGossip_S")
        }
        for name, fam in fams.items():
            bad = sum(1 for m in fam.elements if not is_reflexive(m))
            entries.append((
                f"every element of {name}({n}) over {S.name} is reflexive",
                bad == 0,
                f"size={len(fam)}, non-reflexive={bad}",
            ))
        for small, large in (("doubleCatalan_S", "gossip_S"), ("gossip_S", "oneWayGossip_S")):
            missing = sum(1 for m in fams[small].elements if m not in fams[large])
            entries.append((
                f"{small}({n}) subset of {large}({n}) over {S.name}",
                missing == 0,
                f"|{small}|={len(fams[small])}, missing={missing}",
            ))
    return InclusionReport(entries)


# -- brute-force identity oracle -----------------------------------------------------------


@dataclass(frozen=True)
class BruteForceHolds:
    assignments_checked: int


@dataclass(frozen=True)
class BruteForceFails:
    assignment: dict  # letter -> element index
    matrices: dict  # letter -> SMatrix


# assignments folded per block: bounds each block's index arrays in memory
_FOLD_CHUNK = 1 << 18

# assignments an exhaustive brute-force check may fold
ASSIGNMENT_CAP = 10_000_000


def _fold_word(flat: np.ndarray, m: int, word: str, letters: dict, head=None):
    """The element indices of ``word`` at every assignment of a block,
    continued from the indices ``head`` of a prefix when given.  ``flat`` is
    an m-element monoid's raveled :meth:`ClosureResult.mult_table`, ``m``
    is m as a scalar of ``flat``'s dtype and ``letters`` maps each letter to
    its element indices, fixed values or arrays of that dtype that broadcast
    against each other, so each step is one gather at ``acc * m + column``."""
    acc = head
    for ch in word:
        column = letters[ch]
        acc = column if acc is None else flat.take(acc * m + column)
    return acc


def _exhaustive_blocks(letters: list, m: int, dtype):
    """Every assignment of ``letters`` to element indices, in canonical order,
    as blocks of at most ``_FOLD_CHUNK`` assignments (at least one).  Letter
    ``j`` of ``k`` runs over ``arange(m)`` on axis ``j`` of the C-order block,
    the last letter fastest: all of one block when m^k ≤ ``_FOLD_CHUNK``.
    Otherwise a block's leading letters are fixed values, one letter runs
    over a slice of its values and the trailing letters over all m."""
    k = len(letters)
    axes = [np.arange(m, dtype=dtype).reshape((m,) + (1,) * (k - 1 - j)) for j in range(k)]
    if m ** k <= _FOLD_CHUNK:
        yield dict(zip(letters, axes))
        return
    split = 0
    while m ** (k - 1 - split) > _FOLD_CHUNK:
        split += 1
    step = _FOLD_CHUNK // m ** (k - 1 - split)
    trailing = dict(zip(letters[split + 1 :], axes[split + 1 :]))
    for lead in iproduct(range(m), repeat=split):
        fixed = dict(zip(letters, lead))
        for lo in range(0, m, step):
            yield {**fixed, letters[split]: axes[split][lo : lo + step], **trailing}


def _sampled_blocks(letters: list, m: int, dtype, sample: int, seed: int):
    """``sample`` seeded assignments, drawn one trial after another with one
    element index per letter in sorted order, as blocks of at most
    ``_FOLD_CHUNK`` trials."""
    rng = np.random.default_rng(seed)
    for start in range(0, sample, _FOLD_CHUNK):
        size = min(_FOLD_CHUNK, sample - start)
        draws = rng.integers(m, size=size * len(letters), dtype=np.int32)
        columns = draws.reshape(size, len(letters)).T.astype(dtype, order="C")
        yield dict(zip(letters, columns))


def _entry_at(values, index: tuple) -> int:
    """A letter's element index at ``index`` of its block.  ``values`` is a
    fixed value or an index array; the array's axes are the block's last
    ``values.ndim``, and only the first of them has more than one entry."""
    if np.ndim(values) == 0:
        return int(values)
    return int(values.flat[index[len(index) - values.ndim]])


def brute_force_identity(
    ident: Identity,
    M: ClosureResult,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
):
    """Evaluate both sides of the identity under every assignment of letters
    to elements of M (or ``sample`` seeded random assignments), returning the
    first counterexample in canonical order, else Holds.

    Canonical order: letters sorted, each ranging over element indices, the
    leftmost letter most significant.  Sampled assignments are drawn one
    trial after another, one element index per letter in sorted order, from
    ``numpy.random.default_rng(seed)``, and the first failing trial is
    returned.

    Both modes fold each side through the raveled multiplication table
    (:meth:`ClosureResult.mult_table`), one block of at most
    ``_FOLD_CHUNK`` assignments at a time and one gather per letter.  An
    exhaustive block gives each letter an index array on its own axis (see
    :func:`_exhaustive_blocks`), so the sides broadcast to the block's
    C-order tensor, whose order is canonical; a sampled block gives each
    letter a column of its draws.  A block's first counterexample is the
    first true entry of the sides' difference, unravelled.  The sides'
    common prefix is folded once per block and each side continues from it.
    """
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be >= 0, got {sample}")
    letters = sorted(set(ident.lhs) | set(ident.rhs))
    m = len(M.elements)
    if sample is None and m ** len(letters) > ASSIGNMENT_CAP:
        raise BudgetExceededError(
            f"{m ** len(letters)} assignments exceed the cap {ASSIGNMENT_CAP}; "
            "pass sample=... for a randomized check"
        )
    flat = M.mult_table().ravel()
    if sample is None:
        blocks = _exhaustive_blocks(letters, m, flat.dtype)
    else:
        blocks = _sampled_blocks(letters, m, flat.dtype, sample, seed)
    shared = 0  # the sides' common prefix, folded once per block
    while shared < min(len(ident.lhs), len(ident.rhs)) and ident.lhs[shared] == ident.rhs[shared]:
        shared += 1
    checked = 0
    width = flat.dtype.type(m)  # a Python int costs a conversion at every step
    for block in blocks:
        head = _fold_word(flat, width, ident.lhs[:shared], block)
        lhs = _fold_word(flat, width, ident.lhs[shared:], block, head)
        rhs = _fold_word(flat, width, ident.rhs[shared:], block, head)
        diff = lhs != rhs
        if diff.any():
            first = np.unravel_index(np.argmax(diff), diff.shape)
            assignment = {ch: _entry_at(block[ch], first) for ch in letters}
            matrices = {ch: M.elements[i] for ch, i in assignment.items()}
            return BruteForceFails(assignment, matrices)
        checked += diff.size
    return BruteForceHolds(checked)


# -- structural reports --------------------------------------------------------------------


@dataclass
class StructuralReport:
    idempotents: list
    power_index: list  # least m with A^(m+1) = A^m, or None within the bound
    aperiodic_within_bound: bool
    j_trivial: Optional[bool]


# elements above which structural_checks skips the J-triviality test
J_TRIVIAL_CAP = 512


def structural_checks(M: ClosureResult) -> StructuralReport:
    """Idempotents, per-element power stabilization indices up to ``M.n``,
    and J-triviality via two-sided principal ideals (skipped above
    ``J_TRIVIAL_CAP`` elements)."""
    idempotents = []
    power_index = []
    for idx, a in enumerate(M.elements):
        if multiply(a, a) == a:
            idempotents.append(idx)
        found = None
        prev = identity_matrix(M.n, M.semiring)
        for m in range(M.n + 1):
            nxt = multiply(prev, a)
            if nxt == prev:
                found = m
                break
            prev = nxt
        power_index.append(found)
    j_trivial = None
    size = len(M.elements)
    if size <= J_TRIVIAL_CAP:
        table = M.mult_table()
        ideals = []
        everything = np.arange(size, dtype=np.int32)
        for x in range(size):
            left = table[:, x]
            ideal = frozenset(np.unique(table[np.ix_(left, everything)]).tolist())
            ideals.append(ideal)
        j_trivial = len(set(ideals)) == size
    return StructuralReport(
        idempotents,
        power_index,
        all(p is not None for p in power_index),
        j_trivial,
    )
