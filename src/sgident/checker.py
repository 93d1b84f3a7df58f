"""Identity checkers for the triangular, unitriangular, and reflexive matrix
monoids over a semiring, with explicit falsifying morphisms.

Each checker reduces the identity to a finite combinatorial comparison over
the words u shorter than n that embed in a side, listed by one walk
(:func:`_embedding_us`) that builds each side's row of every such u:

* upper triangular: functional equivalence, over the instance, of the
  embedding polynomials on both sides (rows of exponent vectors);
* unit diagonal: equality of the subword multiplicities (count rows),
  reduced through the instance's arithmetic of repeated sums of 1;
* reflexive over an interval instance: every such u embeds in both sides
  (presence rows), i.e. Simon congruence at level n-1.

A ``fails`` verdict always carries a small canonical witness morphism (unit
or assigned diagonal, a path of ones along the distinguishing u) which is
re-multiplied and re-compared before being returned.  Since that witness is
n x n, every checker refuses n above ``matrices.MAX_DIMENSION`` before it
decides, whatever the verdict would be.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .errors import InternalConsistencyError, UnsupportedStructureError
from .matrices import (
    MorphismTable,
    check_dimension,
    coded_agreement,
    format_matrix,
    matrix_from_payloads,
)
# check_Rn draws through this name, which benchmark/tracing.py times
from .matrices import random_reflexive_codes as random_reflexive
from .polynomials import (
    EmbeddingForms,
    Equivalent,
    NotEquivalent,
    Variable,
    equivalent_by_forms,
    functionally_equivalent,
)
from .semirings import BOOL, Cyclic, SemiringDescriptor, SplitMix64
from .words import CountRows, Identity, PresenceRows, is_balanced, words_up_to
# no check calls these (they read _embedding_us rows); kept as benchmark/tracing.py hooks them
from .polynomials import build_f_canonical
from .words import scattered_multiplicity, subword_set

HOLDS = "holds"
FAILS = "fails"
UNDETERMINED = "undetermined"


@dataclass
class Verdict:
    outcome: str
    criterion: str
    evidence: list = field(default_factory=list)
    distinguishing_u: Optional[str] = None
    witness: Optional[MorphismTable] = None
    witness_entry: Optional[tuple] = None
    sampling: Optional[dict] = None
    # ut: how many of the u that words_up_to lists up to the failing one (all
    # of them when none fails) embed in neither side
    unembedded: Optional[int] = None
    # work counts of the check, reported outside --stable-output
    counters: Optional[dict] = field(default=None, compare=False)
    # check_Un_idempotent: every non-empty u its walk reached, which the r
    # report lists; not part of to_dict
    walked: Optional[list] = field(default=None, compare=False)

    @property
    def is_holds(self) -> bool:
        return self.outcome == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.outcome == FAILS

    def to_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "images": {
                    letter: format_matrix(m) for letter, m in self.witness.images.items()
                },
                "entry": list(self.witness_entry) if self.witness_entry else None,
            }
        return {
            "outcome": self.outcome,
            "criterion": self.criterion,
            "distinguishing_u": self.distinguishing_u,
            "witness": witness,
            "evidence": self.evidence,
            "sampling": self.sampling,
        }


@dataclass
class CheckReport:
    identity: Identity
    monoid: str
    n: int
    semiring: str
    verdict: Verdict
    u_words: list
    seed: int
    budget: Optional[int]
    elapsed_ms: float

    def to_dict(self, stable: bool = False) -> dict:
        out = {
            "report_version": 2,
            "command": "check",
            "identity": str(self.identity),
            "monoid": self.monoid,
            "n": self.n,
            "semiring": self.semiring,
            "seed": self.seed,
            "budget": self.budget,
            "verdict": self.verdict.to_dict(),
            "u_words_examined": list(self.u_words),
        }
        if self.verdict.unembedded is not None:
            out["u_words_unembedded"] = self.verdict.unembedded
        if not stable:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
            if self.verdict.counters is not None:
                out["counters"] = self.verdict.counters
        return out


# -- witness construction -------------------------------------------------------------


def path_morphism(
    u: str,
    alphabet: str,
    n: int,
    S: SemiringDescriptor,
    diagonal: Optional[dict] = None,
) -> MorphismTable:
    """The canonical falsifying morphism: diagonal entries from ``diagonal``
    (default all ones), plus a 1 at (k, k+1) whenever letter s is the k-th
    letter of u.  Maps into the upper triangular matrices; with an all-ones
    diagonal it lands in the unit-diagonal monoid."""
    if len(u) > n - 1:
        raise ValueError(f"|u|={len(u)} too long for a path through 1..{n}")
    images = {}
    for s in sorted(alphabet):
        rows = [[S.zero] * n for _ in range(n)]
        for p in range(1, n + 1):
            if diagonal is not None:
                rows[p - 1][p - 1] = diagonal.get((s, p), S.one)
            else:
                rows[p - 1][p - 1] = S.one
        for k, letter in enumerate(u, start=1):
            if letter == s:
                rows[k - 1][k] = S.one
        images[s] = matrix_from_payloads(S, rows)
    return MorphismTable(images)


def _fails(
    ident: Identity,
    n: int,
    S: SemiringDescriptor,
    criterion: str,
    evidence: list,
    u: str,
    diagonal: Optional[dict] = None,
) -> Verdict:
    """The fails verdict for the distinguishing word u.  Its witness is the
    path morphism along u, re-multiplied on both sides and checked to differ
    at entry (1, |u|+1) before it is returned; the re-multiplication carries
    row 1 only (:meth:`~sgident.matrices.MorphismTable.image_entry`)."""
    phi = path_morphism(u, ident.alphabet, n, S, diagonal)
    entry = (1, len(u) + 1)
    if phi.image_entry(ident.lhs, *entry) == phi.image_entry(ident.rhs, *entry):
        raise InternalConsistencyError(
            f"constructed witness for {ident} does not distinguish entry {entry}"
        )
    return Verdict(
        FAILS, criterion, evidence, distinguishing_u=u, witness=phi, witness_entry=entry
    )


def _embedding_us(ident: Identity, n: int, rows):
    """The u shorter than n that embed in a side of ``ident``, in
    :func:`~sgident.words.words_up_to` order, each as ``(index, u, lhs_row,
    rhs_row)``: its index in ``words_up_to(ident.alphabet, n - 1,
    include_empty=True)`` and its row in each side, from the ``rows`` of that
    side (:class:`~sgident.words.PresenceRows`), or None where it does not
    embed.  The trie of u is walked level by level, children in letter
    order; a child is kept when either side has a row for it, since a u that
    embeds in neither side has no extension that does.  Each u is yielded
    as soon as its rows are built, so none is built past where the caller stops."""
    letters = sorted(ident.alphabet)
    (left, lchild), (right, rchild) = ((side.root, side.child) for side in rows)
    # the kept u of one length, but for the last; in the order of all words,
    # u + letters[i] comes at len(letters)·(the index of u) + 1 + i
    level = [(0, "", left, right)]
    yield level[0]
    for length in range(1, n):
        children = []
        for index, u, left, right in level:
            for i, s in enumerate(letters, start=index * len(letters) + 1):
                a = None if left is None else lchild(left, s, length)
                b = None if right is None else rchild(right, s, length)
                if a is not None or b is not None:
                    children.append((i, u + s, a, b))
                    yield children[-1] if length < n - 1 else children.pop()
        level = children


# -- checkers ---------------------------------------------------------------------------


def check_UT(
    ident: Identity,
    n: int,
    S: SemiringDescriptor,
    *,
    budget: int = 4096,
    seed: int = 0,
) -> Verdict:
    """Identity check for the upper triangular monoid.

    Compares the embedding polynomials of every u of length below n that
    embeds in a side, in :func:`~sgident.words.words_up_to` order
    (:func:`_embedding_us`).  A u that embeds in neither side has two zero
    polynomials and says nothing, so it is only counted: the verdict's
    ``unembedded`` is the number of such u that ``words_up_to`` puts before
    the first failing u, or in all when none fails.  Each walked u carries
    both sides' forms, the last entries of its rows from two
    :class:`~sgident.polynomials.EmbeddingForms`; equal forms settle
    it as ``identical-form`` over any instance, and over a bitmask lattice
    equal antichains of minimal supports settle it as ``exhaustive``
    (:func:`~sgident.polynomials.equivalent_by_forms`).  Only the other u
    decode both polynomials from those forms
    (:meth:`~sgident.polynomials.EmbeddingForms.polynomial`) and go to
    :func:`~sgident.polynomials.functionally_equivalent`,
    which would answer the same for the settled ones; so the first failing
    u, its witness and every evidence entry are what building every walked
    u would give.  The verdict's ``counters`` count the u examined, those the
    forms settled and the polynomials built.  When the
    instance declares an element whose iterated partial sums are pairwise
    distinct, the empty u is implied by the one-letter checks and is skipped
    (for n >= 2).  Over the tropical instances (``maxplus``,
    ``minplus01inf``, ``interval01``), the bitmask lattices and the other
    finite carriers within the exhaustive cap every u is decided exactly, so the verdict is holds or
    fails; ``budget`` samples decide a u only over ``nat``, over user
    instances that declare no tropical shape and over finite carriers past
    the cap, where a u that none of them falsifies makes the verdict
    undetermined.  A finite carrier's samples are evaluated a chunk at a
    time on its coded tables, the others' one at a time by
    :func:`~sgident.polynomials.evaluate` (see
    :func:`~sgident.polynomials._sampled`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_dimension(n)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    alphabet = ident.alphabet
    skip_empty = (
        n >= 2
        and S.free_rank1_payload is not None
        and S.partial_sums_distinct
    )
    # the variables x(s, v) of the initial-segment path, one universe per |u|
    universes = [
        [Variable(s, v) for s in alphabet for v in range(1, length + 2)]
        for length in range(n)
    ]
    width = max(len(ident.lhs), len(ident.rhs)).bit_length()
    forms = [EmbeddingForms(side, alphabet, n, width) for side in (ident.lhs, ident.rhs)]
    counters = dict.fromkeys(("u_examined", "settled_by_forms", "polynomials_built"), 0)
    evidence = []
    failure = None
    inconclusive = []
    walked = 0
    for index, u, left, right in _embedding_us(ident, n, forms):
        walked += 1
        if u == "" and skip_empty:
            continue
        counters["u_examined"] += 1
        a, b = left and left[1][-1], right and right[1][-1]
        result = equivalent_by_forms(a, b, S, forms[0])
        if result is not None:
            counters["settled_by_forms"] += 1
        else:
            counters["polynomials_built"] += 2
            result = functionally_equivalent(
                forms[0].polynomial(a, len(u)),
                forms[1].polynomial(b, len(u)),
                S,
                variables=universes[len(u)], budget=budget, seed=seed,
            )
        if isinstance(result, Equivalent):
            evidence.append({"u": u, "result": "equivalent", "method": result.method})
        elif isinstance(result, NotEquivalent):
            evidence.append({"u": u, "result": "not-equivalent"})
            failure = (u, result)
            break  # u runs in canonical order; the first failure is the witness
        else:
            evidence.append({"u": u, "result": "not-falsified", "samples": result.samples})
            inconclusive.append(u)
    # the u of words_up_to up to the failing one (else all of them) not walked
    listed = index + 1 if failure is not None else sum(len(alphabet) ** k for k in range(n))
    unembedded = listed - walked
    if failure is not None:
        u, result = failure
        diagonal = {
            (var.letter, var.vertex): value for var, value in result.witness.items()
        }
        verdict = _fails(ident, n, S, "triangular-polynomials", evidence, u, diagonal)
    elif inconclusive:
        verdict = Verdict(
            UNDETERMINED,
            "triangular-polynomials",
            evidence,
            sampling={"budget": budget, "inconclusive_u": inconclusive},
        )
    else:
        verdict = Verdict(HOLDS, "triangular-polynomials", evidence)
    verdict.unembedded = unembedded
    verdict.counters = counters
    return verdict


def check_Un(ident: Identity, n: int, S: SemiringDescriptor) -> Verdict:
    """Identity check for the unit-diagonal triangular monoid: the subword
    multiplicities of every non-empty u of :func:`_embedding_us` (the other u
    have none in either side), read off count rows, must agree, in walk
    order, as sums of 1 (``S.nat_embed``), the instance's arithmetic of the
    multiplicative identity.  Always decisive."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_dimension(n)
    evidence = []
    counts = (CountRows(ident.lhs), CountRows(ident.rhs))
    for _, u, left, right in islice(_embedding_us(ident, n, counts), 1, None):  # past the empty u
        mw, mv = (0 if row is None else row[1][-1] for row in (left, right))
        equal = S.nat_embed(mw) == S.nat_embed(mv)
        evidence.append(
            {"u": u, "lhs_multiplicity": mw, "rhs_multiplicity": mv, "equal": equal}
        )
        if not equal:
            return _fails(ident, n, S, "subword-multiplicities", evidence, u)
    return Verdict(HOLDS, "subword-multiplicities", evidence)


def check_Un_idempotent(
    ident: Identity, n: int, S: SemiringDescriptor = BOOL
) -> Verdict:
    """Identity check for unit-diagonal matrices over an idempotent instance:
    both sides must have the same subwords of length below n, so the first
    u of :func:`_embedding_us` that embeds in one side only distinguishes
    them.  Over the one-element semiring (zero equal to one) every matrix
    is the zero matrix, and every identity holds.  The verdict's ``walked``
    lists every non-empty u of the walk."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_dimension(n)
    if not S.is_idempotent:
        raise UnsupportedStructureError(
            f"{S.name} is not idempotent; use the multiplicity check instead"
        )
    counts, first, walked = [0, 0], None, []
    presence = (PresenceRows(ident.lhs), PresenceRows(ident.rhs))
    for _, u, left, right in islice(_embedding_us(ident, n, presence), 1, None):
        walked.append(u)
        counts[0] += left is not None
        counts[1] += right is not None
        if first is None and (left is None) != (right is None):
            first = u
    evidence = [{"lhs_subwords": counts[0], "rhs_subwords": counts[1], "k": n - 1}]
    if first is None or S._zero_payload == S._one_payload:
        verdict = Verdict(HOLDS, "subword-sets", evidence)
    else:
        verdict = _fails(ident, n, S, "subword-sets", evidence, first)
    verdict.walked = walked
    return verdict


# spot-check trials drawn and multiplied per step: bounds the (chunk,
# |alphabet|, n, n) draws in memory whatever the trial count (1000 was slower)
_TRIAL_CHUNK = 250


def _spot_check(ident: Identity, n: int, S: SemiringDescriptor, trials: int, seed: int):
    """Per trial, whether the two sides have the same image under a seeded
    random reflexive morphism.  The trials come from one
    :class:`~sgident.semirings.SplitMix64` stream, ``_TRIAL_CHUNK`` at a
    time; the split does not change them."""
    gen = SplitMix64(seed)
    flags = [
        coded_agreement(
            S,
            random_reflexive(S, n, ident.alphabet, min(_TRIAL_CHUNK, trials - start), gen),
            ident.lhs,
            ident.rhs,
        )
        for start in range(0, trials, _TRIAL_CHUNK)
    ]
    return np.concatenate(flags) if flags else np.ones(0, dtype=bool)


def check_Rn(
    ident: Identity,
    n: int,
    S: SemiringDescriptor,
    *,
    verify_samples: int = 1000,
    seed: int = 0,
) -> Verdict:
    """Identity check for the reflexive monoid over an interval instance.

    Same subword-set criterion as :func:`check_Un_idempotent`; a holds
    verdict is additionally spot-checked against ``verify_samples`` seeded
    random reflexive morphisms, all of which must agree.  They are drawn
    from a seeded :class:`~sgident.semirings.SplitMix64` stream straight as
    codes of the instance's code object
    (:attr:`~sgident.semirings.SemiringDescriptor.codes`) and multiplied
    by numpy kernels (:func:`~sgident.matrices.coded_agreement`), a chunk of
    trials at a time.  A disagreement raises and names the first trial that
    separates the sides."""
    check_dimension(n)
    if verify_samples < 0:
        raise ValueError(f"verify_samples must be >= 0, got {verify_samples}")
    if not S.is_interval:
        raise UnsupportedStructureError(
            f"the reflexive monoid needs an interval instance, not {S.name}"
        )
    verdict = check_Un_idempotent(ident, n, S)
    verdict.criterion = "subword-sets-reflexive"
    if verdict.is_holds and verify_samples:
        agree = _spot_check(ident, n, S, verify_samples, seed)
        if not agree.all():
            raise InternalConsistencyError(
                f"random reflexive morphism falsified {ident} although the "
                f"subword criterion holds (trial {int(np.argmin(agree))})"
            )
        verdict.sampling = {"trials": verify_samples, "agreements": verify_samples}
    return verdict


# -- balancedness and variety comparison ------------------------------------------------


def requires_balanced(S: SemiringDescriptor) -> bool:
    """Whether the instance declares an element generating a free rank-1
    multiplicative submonoid, forcing triangular identities to be balanced."""
    return S.free_rank1_payload is not None


def assert_balanced_guard(
    ident: Identity,
    n: int,
    S: SemiringDescriptor,
    verdict: Verdict,
    monoid: str = "ut",
) -> None:
    """Raise if a holds verdict violates the balancedness consequence.

    For the upper triangular monoid the guard applies whenever the instance
    has a free rank-1 element.  For the unit-diagonal monoid it applies only
    when repeated sums of 1 never collide, since idempotent collapse makes
    unbalanced identities satisfiable there."""
    if n < 2 or not requires_balanced(S):
        return
    if monoid == "u" and isinstance(S.monogenic, Cyclic):
        return
    if verdict.is_holds and not is_balanced(ident):
        raise InternalConsistencyError(
            f"unbalanced identity {ident} reported as holding over {S.name} (n={n})"
        )


def same_variety_Un(S: SemiringDescriptor, T: SemiringDescriptor) -> bool:
    """Two instances give unit-diagonal monoids with the same identities
    exactly when their repeated-sums-of-1 arithmetics coincide."""
    return S.monogenic == T.monogenic


# -- report-producing front end ----------------------------------------------------------


def run_check(
    monoid: str,
    ident: Identity,
    n: int,
    S: SemiringDescriptor,
    *,
    seed: int = 0,
    budget: int = 4096,
    verify_samples: int = 1000,
) -> CheckReport:
    start = time.perf_counter()
    # each count is echoed in the report, whichever monoid reads it
    if budget < 0 or verify_samples < 0:
        raise ValueError(
            f"budget and verify_samples must be >= 0, got {budget} and {verify_samples}"
        )
    if monoid == "ut":
        verdict = check_UT(ident, n, S, budget=budget, seed=seed)
        us = [e["u"] for e in verdict.evidence]
    elif monoid == "u":
        verdict = check_Un(ident, n, S)
        us = [e["u"] for e in verdict.evidence]
    elif monoid == "r":
        verdict = check_Rn(ident, n, S, verify_samples=verify_samples, seed=seed)
        us = verdict.walked
    else:
        raise ValueError(f"unknown monoid kind {monoid!r}; use ut, u, or r")
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        ident, monoid, n, S.name, verdict, us, seed, budget, elapsed
    )


# -- the shared identity corpus ----------------------------------------------------------


def corpus(seed: int = 0) -> list:
    """All balanced identities over {x, y} with sides of length at most 5,
    plus 200 seeded random identities of length at most 8 over {a, b, c}."""
    from collections import Counter, defaultdict

    by_content: dict = defaultdict(list)
    for w in words_up_to("xy", 5):
        by_content[tuple(sorted(Counter(w).items()))].append(w)
    out = []
    for group in by_content.values():
        for w in group:
            for v in group:
                out.append(Identity(w, v))
    rng = random.Random(seed)
    for _ in range(200):
        lw = rng.randint(1, 8)
        lv = rng.randint(1, 8)
        w = "".join(rng.choice("abc") for _ in range(lw))
        v = "".join(rng.choice("abc") for _ in range(lv))
        out.append(Identity(w, v))
    return out
