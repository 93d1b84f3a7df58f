"""Identity checkers for the triangular, unitriangular, and reflexive matrix
monoids over a semiring, with explicit falsifying morphisms.

Each checker reduces the identity to a finite combinatorial comparison:

* upper triangular: functional equivalence, over the instance, of the
  embedding polynomials of every word u shorter than n on both sides;
* unit diagonal: equality of the subword multiplicities of every such u,
  reduced through the instance's arithmetic of repeated sums of 1;
* reflexive over an interval instance: equality of subword sets, i.e. Simon
  congruence at level n-1.

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
    build_f_canonical,
    equivalent_by_forms,
    functionally_equivalent,
)
from .semirings import BOOL, Cyclic, SemiringDescriptor, SplitMix64
from .words import (
    Identity,
    is_balanced,
    scattered_multiplicity,
    subword_set,
    words_up_to,
)

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
    # work counts of the check, reported outside --stable-output
    counters: Optional[dict] = field(default=None, compare=False)

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
            "report_version": 1,
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
    at entry (1, |u|+1) before it is returned."""
    phi = path_morphism(u, ident.alphabet, n, S, diagonal)
    entry = (1, len(u) + 1)
    if phi.apply(ident.lhs).entry(*entry) == phi.apply(ident.rhs).entry(*entry):
        raise InternalConsistencyError(
            f"constructed witness for {ident} does not distinguish entry {entry}"
        )
    return Verdict(
        FAILS, criterion, evidence, distinguishing_u=u, witness=phi, witness_entry=entry
    )


def _candidate_us(ident: Identity, k: int) -> list:
    """The subwords of length at most k of either side, shortest first."""
    return sorted(
        subword_set(ident.lhs, k) | subword_set(ident.rhs, k),
        key=lambda u: (len(u), u),
    )


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

    Compares the embedding polynomials of every u of length below n over both
    sides, in :func:`~sgident.words.words_up_to` order.  Each u first gets
    both sides' forms from lazy :class:`~sgident.polynomials.EmbeddingForms`
    builders; equal forms (both sides zero included) settle it as
    ``identical-form`` over any instance, and over a bitmask lattice equal
    antichains of minimal supports settle it as ``exhaustive``
    (:func:`~sgident.polynomials.equivalent_by_forms`).  Only the other u
    build both polynomials with ``build_f_canonical`` and go to
    :func:`~sgident.polynomials.functionally_equivalent`, which would answer
    the same for the settled ones; so the first failing u, its witness and
    every evidence entry are what building every u would give.  The
    verdict's ``counters`` count the u examined, those the forms settled
    and the polynomials built.  When the
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
    us = words_up_to(alphabet, n - 1, include_empty=True)
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
    for u in us:
        if u == "" and skip_empty:
            continue
        counters["u_examined"] += 1
        result = equivalent_by_forms(forms[0].form(u), forms[1].form(u), S, forms[0])
        if result is not None:
            counters["settled_by_forms"] += 1
        else:
            counters["polynomials_built"] += 2
            result = functionally_equivalent(
                build_f_canonical(u, ident.lhs),
                build_f_canonical(u, ident.rhs),
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
    verdict.counters = counters
    return verdict


def _reduced_equal(S: SemiringDescriptor, a: int, b: int) -> bool:
    cls = S.monogenic
    if isinstance(cls, Cyclic):
        if a == b:
            return True
        return (
            a >= cls.index
            and b >= cls.index
            and (a - b) % cls.period == 0
        )
    return a == b


def check_Un(ident: Identity, n: int, S: SemiringDescriptor) -> Verdict:
    """Identity check for the unit-diagonal triangular monoid: the subword
    multiplicities of every u of length below n must agree after reduction
    through the instance's repeated-sums-of-1 arithmetic.  Always decisive."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_dimension(n)
    evidence = []
    for u in _candidate_us(ident, n - 1):
        mw = scattered_multiplicity(u, ident.lhs)
        mv = scattered_multiplicity(u, ident.rhs)
        equal = _reduced_equal(S, mw, mv)
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
    both sides must have the same subwords of length below n.  Over the
    one-element semiring (zero equal to one) every matrix is the zero
    matrix, and every identity holds."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_dimension(n)
    if not S.is_idempotent:
        raise UnsupportedStructureError(
            f"{S.name} is not idempotent; use the multiplicity check instead"
        )
    k = n - 1
    left = subword_set(ident.lhs, k)
    right = subword_set(ident.rhs, k)
    evidence = [
        {"lhs_subwords": len(left), "rhs_subwords": len(right), "k": k}
    ]
    if left == right or S._zero_payload == S._one_payload:
        return Verdict(HOLDS, "subword-sets", evidence)
    u = min(left ^ right, key=lambda s: (len(s), s))
    return _fails(ident, n, S, "subword-sets", evidence, u)


# spot-check trials drawn and multiplied per step: bounds the (chunk, n, n, n)
# entry products in memory whatever the trial count
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

    Same subword-set criterion as the unit-diagonal idempotent case; a holds
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
    verdict: Optional[Verdict] = None,
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
    if verdict is None:
        verdict = check_UT(ident, n, S) if monoid == "ut" else check_Un(ident, n, S)
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
        us = _candidate_us(ident, n - 1)
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
