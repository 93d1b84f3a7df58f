"""Square matrices over a semiring: structural predicates, the entrywise
order, call/step constructors, many random reflexive morphisms drawn and
multiplied at once as integer codes, walk and block-chain entry expansions,
power stabilization, and convex Boolean matrix machinery."""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .errors import (
    InstanceMismatchError,
    InternalConsistencyError,
    UnsupportedStructureError,
)
from .polynomials import Variable, build_f_canonical, evaluate
from .semirings import (
    BOOL,
    INF_CODE,
    SCALING_DEGREE,
    SemiringDescriptor,
    SplitMix64,
    Val,
    _normalize,
)
from .words import subword_set


# desk scale: the identity criteria only ever need subword lengths below this
MAX_DIMENSION = 8


class SMatrix:
    """An immutable n x n matrix over one semiring instance.

    ``rows`` holds normalized raw payloads of ``semiring``; entries are
    tagged values only when read through :meth:`entry`.  The constructor
    trusts its rows: input from outside goes through
    :func:`matrix_from_payloads`, :func:`parse_matrix` or a call constructor,
    which check it.
    """

    __slots__ = ("semiring", "rows", "_hash")

    def __init__(self, semiring: SemiringDescriptor, rows: tuple):
        if len(rows) > MAX_DIMENSION:
            raise ValueError(
                f"n={len(rows)} above the dimension cap {MAX_DIMENSION}; "
                "raise sgident.matrices.MAX_DIMENSION if you mean it"
            )
        self.semiring = semiring
        self.rows = rows
        self._hash = None

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Val:
        """1-based access."""
        return self.semiring._wrap(self.rows[i - 1][j - 1])

    def __eq__(self, other):
        if not isinstance(other, SMatrix):
            return NotImplemented
        # payloads of different instances can compare equal (True == 1)
        return self.semiring is other.semiring and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        return f"SMatrix({self.semiring.name}, {format_matrix(self)!r})"


def matrix_from_payloads(S: SemiringDescriptor, rows) -> SMatrix:
    """A square matrix from rows of payloads or values of ``S``, each checked
    for carrier membership."""
    rows = tuple(tuple(S.val(p).payload for p in row) for row in rows)
    n = len(rows)
    if n < 1:
        raise ValueError("matrices need n >= 1")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    return SMatrix(S, rows)


def identity_matrix(n: int, S: SemiringDescriptor) -> SMatrix:
    one, zero = S._one_payload, S._zero_payload
    return SMatrix(
        S, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def all_ones(n: int, S: SemiringDescriptor) -> SMatrix:
    return SMatrix(S, ((S._one_payload,) * n,) * n)


def multiply(a: SMatrix, b: SMatrix) -> SMatrix:
    if a.semiring is not b.semiring:
        raise InstanceMismatchError(
            f"cannot multiply {a.semiring.name} by {b.semiring.name}"
        )
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    S = a.semiring
    add, mul, zero = S._add, S._mul, S._zero_payload
    columns = range(a.n)
    out = []
    for row in a.rows:
        terms = [(p, brow) for p, brow in zip(row, b.rows) if p != zero]
        orow = []
        for j in columns:
            acc = zero
            for p, brow in terms:
                acc = add(acc, mul(p, brow[j]))
            orow.append(_normalize(acc))
        out.append(tuple(orow))
    return SMatrix(S, tuple(out))


def product(factors) -> SMatrix:
    factors = list(factors)
    if not factors:
        raise ValueError("empty product; use identity_matrix")
    result = factors[0]
    for f in factors[1:]:
        result = multiply(result, f)
    return result


# -- predicates ----------------------------------------------------------------


def is_upper_triangular(a: SMatrix) -> bool:
    zero = a.semiring._zero_payload
    return all(
        a.rows[i][j] == zero for i in range(a.n) for j in range(i)
    )


def is_unitriangular(a: SMatrix) -> bool:
    one = a.semiring._one_payload
    return is_upper_triangular(a) and all(a.rows[i][i] == one for i in range(a.n))


def is_reflexive(a: SMatrix) -> bool:
    one = a.semiring._one_payload
    return all(a.rows[i][i] == one for i in range(a.n))


def leq_entrywise(a: SMatrix, b: SMatrix) -> bool:
    """a <= b entrywise in the natural order; needs an idempotent instance."""
    if a.semiring is not b.semiring or a.n != b.n:
        raise InstanceMismatchError("order comparison needs matching matrices")
    S = a.semiring
    if not S.is_idempotent:
        raise UnsupportedStructureError(
            f"{S.name} is not idempotent; the entrywise order is undefined"
        )
    indices = range(1, a.n + 1)
    return all(
        S.natural_leq(a.entry(i, j), b.entry(i, j)) for i in indices for j in indices
    )


# -- constructors ---------------------------------------------------------------


def one_way_call(
    i: int, j: int, n: int, S: SemiringDescriptor = BOOL, value: Optional[Val] = None
) -> SMatrix:
    """Identity plus a single off-diagonal entry at (i, j): person i tells
    person j everything they know.  A custom entry weight needs an interval
    instance so that the result stays within the reflexive monoid."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"call indices ({i},{j}) out of range 1..{n}")
    if i == j:
        raise ValueError("call indices must differ")
    if value is None:
        v = S._one_payload
    else:
        if not S.is_interval:
            raise UnsupportedStructureError(
                f"weighted calls need an interval instance, not {S.name}"
            )
        v = S.val(value).payload
    rows = [list(r) for r in identity_matrix(n, S).rows]
    rows[i - 1][j - 1] = v
    return SMatrix(S, tuple(tuple(r) for r in rows))


def two_way_call(
    i: int, j: int, n: int, S: SemiringDescriptor = BOOL, value: Optional[Val] = None
) -> SMatrix:
    """The two-sided exchange between i and j, i.e. the product of the two
    one-way calls; symmetric in i and j."""
    return multiply(
        one_way_call(i, j, n, S, value), one_way_call(j, i, n, S, value)
    )


def catalan_generator(i: int, n: int) -> SMatrix:
    """Boolean unitriangular matrix with its single off-diagonal 1 at (i, i+1)."""
    return one_way_call(i, i + 1, n, BOOL)


def double_catalan_generator(i: int, n: int) -> SMatrix:
    """Two-way call between neighbours i and i+1."""
    return two_way_call(i, i + 1, n, BOOL)


# -- morphisms -------------------------------------------------------------------


class MissingImageError(UnsupportedStructureError):
    """Letter without an image under the morphism."""


class MorphismTable:
    """Images of the letters of an alphabet, extended multiplicatively."""

    def __init__(self, images: dict):
        if not images:
            raise ValueError("a morphism needs at least one letter")
        items = sorted(images.items())
        first = items[0][1]
        for _, m in items:
            if m.semiring is not first.semiring or m.n != first.n:
                raise InstanceMismatchError(
                    "all letter images must share one dimension and instance"
                )
        self.images = dict(items)
        self.semiring = first.semiring
        self.n = first.n

    def image(self, letter: str) -> SMatrix:
        try:
            return self.images[letter]
        except KeyError:
            raise MissingImageError(f"no image for letter {letter!r}") from None

    def apply(self, word: str) -> SMatrix:
        result = identity_matrix(self.n, self.semiring)
        for ch in word:
            result = multiply(result, self.image(ch))
        return result

    def __eq__(self, other):
        return isinstance(other, MorphismTable) and self.images == other.images


# -- coded reflexive morphisms ----------------------------------------------------


def random_reflexive_codes(
    S: SemiringDescriptor, n: int, letters: str, count: int, gen: SplitMix64
) -> dict:
    """``count`` seeded random reflexive morphisms as integer codes: per
    letter, a (count, n, n) array.  One :meth:`SemiringDescriptor.draw_codes`
    call draws them trial by trial, each trial's letters in ``letters``
    order, so a stream gives the same trials however the count is split over
    calls.  Diagonal draws are overwritten by the unit's code."""
    codes = S.draw_codes(gen, (count, len(letters), n, n))
    if S.is_finite:
        codes, one = codes.astype(np.uint8), S.tables.code[S._one_payload]
    else:
        one = S._one_payload * S.carrier.codes.scale
    diagonal = np.arange(n)
    codes[:, :, diagonal, diagonal] = one
    return {s: codes[:, i] for i, s in enumerate(letters)}


def _code_dtype(S: SemiringDescriptor, length: int):
    """The dtype of the codes of products of up to ``length`` letters and of
    their comparisons.  A finite carrier's table codes are uint8.  Scaled
    codes are bounded by top**length under the degree law and by
    top*length otherwise; they are int64 while that bound is below 2^63
    (below ``INF_CODE`` for a saturating instance, which no word held in
    memory reaches), and Python ints past it."""
    if S.is_finite:
        return np.uint8
    codes = S.carrier.codes
    bound = codes.top**length if S.scaling == SCALING_DEGREE else codes.top * length
    if bound < (INF_CODE if codes.saturating else 2**63):
        return np.int64
    if codes.saturating:
        raise ValueError(f"{length}-letter products overflow the codes of {S.name}")
    return object


def _code_stacks(images: dict, dtype) -> dict:
    """``images`` in ``dtype``, checked to share one (trials, n, n) shape."""
    if len({a.shape for a in images.values()}) > 1:
        raise InstanceMismatchError("coded morphisms must share trial count and dimension")
    return {s: a.astype(dtype, copy=False) for s, a in images.items()}


def _coded_product(S: SemiringDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per trial, the product of the (T, n, n) code stacks a and b: one
    (T, n, n, n) array of entry products, reduced over the middle index."""
    terms = (a[:, :, :, None], b[:, None, :, :])
    if S.is_finite:
        tables = S.tables
        terms = tables.apply(tables.mul, *terms)
        out = terms[:, :, 0]
        for k in range(1, a.shape[2]):
            out = tables.apply(tables.add, out, terms[:, :, k])
        return out
    codes = S.carrier.codes
    out = codes.add.reduce(codes.mul(*terms), axis=2)
    if codes.saturating:
        np.minimum(out, INF_CODE, out=out)
    return out


def _coded_word(S, images: dict, word: str, head=None):
    acc = head
    for ch in word:
        image = images.get(ch)
        if image is None:
            raise MissingImageError(f"no image for letter {ch!r}")
        acc = image if acc is None else _coded_product(S, acc, image)
    return acc


def coded_images(S: SemiringDescriptor, images: dict, word: str) -> np.ndarray:
    """The (T, n, n) codes of the images of a non-empty ``word`` under the
    coded morphisms ``images`` (see :func:`random_reflexive_codes`).  Over a
    scaled instance they are the true payloads times
    ``S.weight(scale, len(word))``; past int64 they are Python ints."""
    if not word:
        raise ValueError("the empty word has no coded image; use identity_matrix")
    dtype = _code_dtype(S, len(word))
    return _coded_word(S, _code_stacks(images, dtype), word)


def coded_agreement(S: SemiringDescriptor, images: dict, w: str, v: str) -> np.ndarray:
    """Per trial, whether the non-empty words w and v have the same image
    under the coded morphisms ``images``.  A common prefix is multiplied
    once.  When the sides' weights differ, the lighter side is multiplied up
    to the heavier one: ``N_w * d**(|v|-|w|) == N_v`` under the degree law,
    which keeps every code below d**max(|w|, |v|)."""
    if not (w and v):
        raise ValueError("both sides need at least one letter")
    dtype = _code_dtype(S, max(len(w), len(v)))
    images = _code_stacks(images, dtype)
    k = 0
    while k < min(len(w), len(v)) and w[k] == v[k]:
        k += 1
    head = _coded_word(S, images, w[:k])
    a, b = _coded_word(S, images, w[k:], head), _coded_word(S, images, v[k:], head)
    if not S.is_finite:
        scale = S.carrier.codes.scale
        weight_w, weight_v = S.weight(scale, len(w)), S.weight(scale, len(v))
        if weight_w < weight_v:
            a = a * (weight_v // weight_w)
        elif weight_v < weight_w:
            b = b * (weight_w // weight_v)
    return (a == b).all(axis=(1, 2))


# -- walk and block-chain entry formulas ------------------------------------------


def walk_entry(phi: MorphismTable, w: str, i: int, j: int) -> Val:
    """The (i, j) entry of the image of w computed as a sum over subwords u of
    w (of length below n) and strictly increasing vertex paths from i to j,
    weighting each path by the off-diagonal picks for u and the diagonal
    polynomial recording everything skipped in between.

    Agrees with the (i, j) entry of the plain product when every letter image
    is upper triangular.
    """
    S = phi.semiring
    n = phi.n
    for letter, m in phi.images.items():
        if not is_upper_triangular(m):
            raise UnsupportedStructureError(
                f"image of {letter!r} is not upper triangular"
            )
    if i > j:
        return S.zero
    letters = sorted(set(w))
    diag = {
        (s, v): phi.image(s).entry(v, v) for s in letters for v in range(1, n + 1)
    }
    zero = total = S.zero
    candidates = [""]
    if n > 1:
        candidates += sorted(subword_set(w, n - 1), key=lambda u: (len(u), u))
    for u in candidates:
        l = len(u)
        if l == 0:
            paths = [(i,)] if i == j else []
        elif j - i >= l:
            paths = [
                (i, *mid, j) for mid in combinations(range(i + 1, j), l - 1)
            ]
        else:
            paths = []
        if not paths:
            continue
        poly = build_f_canonical(u, w)
        for rho in paths:
            coeff = S.one
            for k in range(1, l + 1):
                coeff = S.mul(coeff, phi.images[u[k - 1]].entry(rho[k - 1], rho[k]))
                if coeff == zero:
                    break
            if coeff == zero:
                continue
            assignment = {
                Variable(s, pos + 1): diag[(s, rho[pos])]
                for s in letters
                for pos in range(l + 1)
            }
            total = S.add(total, S.mul(coeff, evaluate(poly, assignment, S)))
    return total


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` positive ints summing to ``total``."""
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


def block_chain_entry(factors, i: int, j: int) -> Val:
    """The (i, j) entry of the product of reflexive factors, computed as a sum
    over block chains only: vertex tuples made of constant runs of pairwise
    distinct vertices.  Equals the plain product entry over an interval
    instance because collapsing a revisit never decreases a term."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    S = factors[0].semiring
    n = factors[0].n
    if not S.is_interval:
        raise UnsupportedStructureError(
            f"block-chain expansion needs an interval instance, not {S.name}"
        )
    for f in factors:
        if f.semiring is not S or f.n != n:
            raise InstanceMismatchError("factors must share dimension and instance")
        if not is_reflexive(f):
            raise UnsupportedStructureError("factors must have unit diagonal")
    L = len(factors)
    zero = total = S._zero_payload
    if i == j:
        sequences = [(i,)]
    else:
        others = [v for v in range(1, n + 1) if v != i and v != j]
        sequences = []
        for k in range(1, min(n - 1, L) + 1):
            for mid in permutations(others, k - 1):
                sequences.append((i, *mid, j))
    for seq in sequences:
        blocks = len(seq)
        for comp in _compositions(L + 1, blocks):
            rho = []
            for vertex, size in zip(seq, comp):
                rho.extend([vertex] * size)
            term = S._one_payload
            for t in range(L):
                term = S._mul(term, factors[t].rows[rho[t] - 1][rho[t + 1] - 1])
                if term == zero:
                    break
            total = S._add(total, term)
    return S._wrap(total)


def power_stabilize(a: SMatrix) -> SMatrix:
    """Return a^(n-1) for a reflexive matrix over an interval instance, after
    verifying that the powers really have stabilized (a^(n-1) = a^N up to
    N = 2n, and a^(n-1) is idempotent).  Failure of either check is reported
    as an internal inconsistency rather than returned silently."""
    S = a.semiring
    if not S.is_interval:
        raise UnsupportedStructureError(
            f"power stabilization needs an interval instance, not {S.name}"
        )
    if not is_reflexive(a):
        raise UnsupportedStructureError("power stabilization needs a unit diagonal")
    n = a.n
    powers = [identity_matrix(n, S)]
    for _ in range(2 * n):
        powers.append(multiply(powers[-1], a))
    stable = powers[n - 1]
    for exp in range(n - 1, 2 * n + 1):
        if powers[exp] != stable:
            raise InternalConsistencyError(
                f"power {exp} differs from power {n - 1} for a reflexive matrix"
            )
    if multiply(stable, stable) != stable:
        raise InternalConsistencyError("stabilized power is not idempotent")
    return stable


# -- convex Boolean matrices -------------------------------------------------------


def _require_bool(a: SMatrix, what: str):
    if a.semiring is not BOOL:
        raise UnsupportedStructureError(f"{what} is defined for Boolean matrices")


def is_convex(a: SMatrix) -> bool:
    """Unit diagonal and contiguous runs of ones in every row and column."""
    _require_bool(a, "convexity")
    n = a.n
    if not all(a.rows[i][i] for i in range(n)):
        return False
    for i in range(n):
        ones = [j for j in range(n) if a.rows[i][j]]
        if ones != list(range(ones[0], ones[-1] + 1)):
            return False
    for j in range(n):
        ones = [i for i in range(n) if a.rows[i][j]]
        if ones != list(range(ones[0], ones[-1] + 1)):
            return False
    return True


def upper_profile(a: SMatrix) -> SMatrix:
    """Keep entries on or above the diagonal; zero the rest."""
    _require_bool(a, "the upper profile")
    zero = a.semiring._zero_payload
    return SMatrix(
        a.semiring,
        tuple(
            tuple(v if i <= j else zero for j, v in enumerate(row))
            for i, row in enumerate(a.rows)
        ),
    )


def decompose_convex(a: SMatrix) -> list:
    """Factor a convex upper unitriangular Boolean matrix into neighbour-step
    generators; returns the generator indices in product order.  The factors
    for row i are steps i, i+1, ..., (last one in row i) - 1, emitted for rows
    n-1 down to 1; multiplying them back reproduces the input exactly."""
    _require_bool(a, "convex decomposition")
    if not (is_convex(a) and is_upper_triangular(a)):
        raise ValueError("decomposition needs a convex upper unitriangular matrix")
    n = a.n
    reach = [max(j for j in range(n) if a.rows[i][j]) + 1 for i in range(n)]
    word = []
    for i in range(n - 1, 0, -1):
        word.extend(range(i, reach[i - 1]))
    rebuilt = identity_matrix(n, BOOL)
    for idx in word:
        rebuilt = multiply(rebuilt, catalan_generator(idx, n))
    if rebuilt != a:
        raise InternalConsistencyError("convex decomposition failed to multiply back")
    return word


# -- text format --------------------------------------------------------------------


def format_matrix(a: SMatrix) -> str:
    """Row-major text: entries space separated, rows joined by '; '."""
    fmt = a.semiring._format
    return "; ".join(" ".join(fmt(p) for p in row) for row in a.rows)


def parse_matrix(S: SemiringDescriptor, text: str) -> SMatrix:
    rows = []
    for chunk in text.split(";"):
        entries = chunk.split()
        if not entries:
            raise ValueError("empty matrix row")
        rows.append([S.parse_value(e) for e in entries])
    return matrix_from_payloads(S, rows)


# -- randomized constructions ----------------------------------------------------------


def random_matrix(S: SemiringDescriptor, n: int, rng: random.Random) -> SMatrix:
    return SMatrix(
        S,
        tuple(
            tuple(S.sample_payload(rng) for _ in range(n)) for _ in range(n)
        ),
    )


def random_upper_triangular(S: SemiringDescriptor, n: int, rng: random.Random) -> SMatrix:
    zero = S._zero_payload
    return SMatrix(
        S,
        tuple(
            tuple(
                S.sample_payload(rng) if j >= i else zero for j in range(n)
            )
            for i in range(n)
        ),
    )


def random_reflexive(S: SemiringDescriptor, n: int, rng: random.Random) -> SMatrix:
    one = S._one_payload
    return SMatrix(
        S,
        tuple(
            tuple(
                one if i == j else S.sample_payload(rng) for j in range(n)
            )
            for i in range(n)
        ),
    )
