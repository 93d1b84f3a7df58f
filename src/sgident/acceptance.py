"""The acceptance checks behind the ``verify`` CLI subcommand.

Each check is a pure function returning a :class:`CheckOutcome`; the suites
group them by theme.  Everything here is exact and seeded: rerunning a suite
reproduces the same trials and the same verdicts.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, islice, product as iproduct
from math import comb

import numpy as np

from .checker import (
    FAILS,
    HOLDS,
    CheckReport,
    Verdict,
    assert_balanced_guard,
    check_Un,
    check_Un_idempotent,
    check_UT,
    corpus,
    path_morphism,
    run_check,
)
from . import monoids
from .errors import ClosureCapExceeded, InternalConsistencyError
from .matrices import (
    MorphismTable,
    SMatrix,
    block_chain_entry,
    coded_agreement,
    coded_images,
    format_matrix,
    matrix_from_payloads,
    multiply,
    power_stabilize,
    random_reflexive,
    random_reflexive_codes,
    random_upper_triangular,
    upper_profile,
    walk_entry,
)
from .monoids import (
    _FAMILY_N_DEFAULTS,
    BruteForceFails,
    BruteForceHolds,
    _bfs_products,
    _coded_encoding,
    bfs_closure,
    brute_force_identity,
    catalan_number,
    check_catalan_presentation,
    check_inclusions,
    enumerate_unitriangular,
    enumerate_upper_triangular,
    family,
)
from .polynomials import (
    EmbeddingForms,
    Equivalent,
    FormalPolynomial,
    NotEquivalent,
    NotFalsified,
    EXHAUSTIVE_CAP,
    Variable,
    _by_supports,
    _by_tensor,
    _sampled,
    build_f,
    build_f_canonical,
    equivalent_by_forms,
    evaluate,
    functionally_equivalent,
)
from .semirings import (
    BOOL,
    DIAMOND,
    INF,
    INTERVAL01,
    MAXPLUS,
    MINPLUS01INF,
    NAT,
    FiniteCarrier,
    SemiringDescriptor,
    SplitMix64,
    semiring_from_spec,
)
from .words import Identity, is_balanced, scattered_multiplicity, simon_equivalent, subword_set, words_up_to


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str


def _outcome(name, ok, detail):
    return CheckOutcome(name, bool(ok), detail)


# -- criterion 1 -----------------------------------------------------------------


def criterion_catalan_counts() -> CheckOutcome:
    expected = [catalan_number(n) for n in range(1, 7)]
    start = time.perf_counter()
    got = [len(family("catalanU", n)) for n in range(1, 7)]
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 10.0
    return _outcome(
        "catalan-counts",
        ok,
        f"sizes {got} vs {expected} in {elapsed:.2f}s (limit 10s)",
    )


# -- criterion 2 -----------------------------------------------------------------


def criterion_presentation() -> CheckOutcome:
    bad = []
    for n in range(2, 7):
        report = check_catalan_presentation(n)
        if not report.ok:
            bad.append((n, report))
    return _outcome(
        "catalan-presentation",
        not bad,
        "all step relations and sizes hold for n=2..6"
        if not bad
        else f"failures at n={[n for n, _ in bad]}",
    )


# -- criterion 3 -----------------------------------------------------------------


def criterion_walk_entries(trials_per_instance: int = 1000, seed: int = 303) -> CheckOutcome:
    mismatches = 0
    total = 0
    for S in (BOOL, semiring_from_spec("nat:2,3")):
        rng = random.Random(seed)
        for _ in range(trials_per_instance):
            n = rng.randint(1, 4)
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            phi = MorphismTable(
                {s: random_upper_triangular(S, n, rng) for s in sorted(set(w))}
            )
            target = phi.apply(w)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total += 1
                    if walk_entry(phi, w, i, j) != target.entry(i, j):
                        mismatches += 1
    return _outcome(
        "walk-entry-oracle",
        mismatches == 0,
        f"{trials_per_instance} trials per instance, {total} entries compared, "
        f"{mismatches} mismatches",
    )


# -- criterion 4 -----------------------------------------------------------------


def criterion_block_chains(trials_per_instance: int = 1000, seed: int = 404) -> CheckOutcome:
    instances = (BOOL, INTERVAL01, MINPLUS01INF)
    mismatches = 0
    compared = 0
    for S in instances:
        rng = random.Random(seed)
        for _ in range(trials_per_instance):
            n = rng.randint(1, 4)
            L = rng.randint(1, 5)
            factors = [random_reflexive(S, n, rng) for _ in range(L)]
            target = factors[0]
            for f in factors[1:]:
                target = multiply(target, f)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    compared += 1
                    if block_chain_entry(factors, i, j) != target.entry(i, j):
                        mismatches += 1
    return _outcome(
        "block-chain-oracle",
        mismatches == 0,
        f"{trials_per_instance} trials per instance over {len(instances)} instances, "
        f"{compared} entries compared, {mismatches} mismatches",
    )


# -- criterion 5 -----------------------------------------------------------------


def criterion_aperiodicity(trials_per_instance: int = 1000, seed: int = 505) -> CheckOutcome:
    instances = (BOOL, INTERVAL01, MINPLUS01INF, DIAMOND)
    failures = 0
    for S in instances:
        rng = random.Random(seed)
        for _ in range(trials_per_instance):
            n = rng.randint(1, 5)
            a = random_reflexive(S, n, rng)
            try:
                # verifies stabilization through exponent 2n and idempotency
                power_stabilize(a)
            except InternalConsistencyError:
                failures += 1
    return _outcome(
        "reflexive-aperiodicity",
        failures == 0,
        f"{trials_per_instance} matrices per instance over {len(instances)} interval instances, "
        f"{failures} failures",
    )


# -- criterion 6 -----------------------------------------------------------------


def criterion_checker_equivalence() -> CheckOutcome:
    start = time.perf_counter()
    pairs = [
        Identity(w, v)
        for w in words_up_to("xy", 5)
        for v in words_up_to("xy", 5)
    ]
    disagreements = 0
    for n in (2, 3):
        monoid = enumerate_unitriangular(n, BOOL)
        for ident in pairs:
            a = check_Un(ident, n, BOOL).is_holds
            b = check_Un_idempotent(ident, n).is_holds
            c = isinstance(brute_force_identity(ident, monoid), BruteForceHolds)
            if not (a == b == c):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 300.0
    return _outcome(
        "unitriangular-checker-equivalence",
        ok,
        f"{len(pairs)} identity pairs, n in (2, 3), {disagreements} disagreements, "
        f"{elapsed:.1f}s (limit 300s)",
    )


# -- criterion 7 -----------------------------------------------------------------


def criterion_triangular_oracle(seed: int = 707) -> CheckOutcome:
    idents = corpus()
    ut2 = enumerate_upper_triangular(2, BOOL)
    disagreements = 0
    for ident in idents:
        a = check_UT(ident, 2, BOOL).is_holds
        b = isinstance(brute_force_identity(ident, ut2), BruteForceHolds)
        if a != b:
            disagreements += 1
    rng = random.Random(seed)
    sampled = rng.sample(idents, 200)
    ut3 = enumerate_upper_triangular(3, BOOL)
    for ident in sampled:
        a = check_UT(ident, 3, BOOL).is_holds
        b = isinstance(brute_force_identity(ident, ut3), BruteForceHolds)
        if a != b:
            disagreements += 1
    return _outcome(
        "triangular-checker-oracle",
        disagreements == 0,
        f"{len(idents)} identities over 8-element UT(2), 200 seeded over UT(3); "
        f"{disagreements} disagreements",
    )


# -- criterion 8 -----------------------------------------------------------------


def criterion_monogenic_variety() -> CheckOutcome:
    idents = corpus()
    aligned_instances = (BOOL, INTERVAL01, MINPLUS01INF, DIAMOND)
    mismatched = 0
    for ident in idents:
        outcomes = {check_Un(ident, 3, S).outcome for S in aligned_instances}
        if len(outcomes) != 1:
            mismatched += 1
    witness = Identity.parse("abab=abba")
    nat_fails = check_Un(witness, 3, NAT).is_fails
    trunc_fails = check_Un(witness, 3, semiring_from_spec("nat:2,3")).is_fails
    bool_holds = check_Un(witness, 3, BOOL).is_holds
    ok = mismatched == 0 and nat_fails and trunc_fails and bool_holds
    return _outcome(
        "monogenic-variety-consistency",
        ok,
        f"{len(idents)} identities agree across 4 idempotent instances "
        f"(mismatched={mismatched}); abab=abba separates nat and nat:2,3 from bool: "
        f"{nat_fails and trunc_fails and bool_holds}",
    )


# -- criterion 9 -----------------------------------------------------------------


def criterion_balanced_guard(budget: int = 128) -> CheckOutcome:
    idents = corpus()
    violations = 0
    holds_seen = 0
    for S in (NAT, MAXPLUS):
        for ident in idents:
            for n in (2, 3):
                verdict = check_UT(ident, n, S, budget=budget)
                if verdict.is_holds:
                    holds_seen += 1
                    if not is_balanced(ident):
                        violations += 1
                try:
                    assert_balanced_guard(ident, n, S, verdict, monoid="ut")
                except InternalConsistencyError:
                    violations += 1
    for ident in idents:
        for n in (2, 3):
            verdict = check_Un(ident, n, NAT)
            if verdict.is_holds and not is_balanced(ident):
                violations += 1
    xxx = Identity.parse("x=xx")
    xx_fails = all(
        check_UT(xxx, n, S, budget=budget).is_fails
        for S in (NAT, MAXPLUS)
        for n in (2, 3)
    )
    ok = violations == 0 and xx_fails
    return _outcome(
        "balanced-guard",
        ok,
        f"{len(idents)} identities over nat and maxplus at n=2,3; "
        f"{holds_seen} holds verdicts, {violations} unbalanced among them; "
        f"x=xx fails everywhere: {xx_fails}",
    )


# -- criterion 10 ----------------------------------------------------------------


def criterion_upper_profile() -> CheckOutcome:
    problems = []
    for n in range(1, 5):
        dc = family("doubleCatalan", n)
        for a in dc.elements:
            for b in dc.elements:
                if upper_profile(multiply(a, b)) != multiply(
                    upper_profile(a), upper_profile(b)
                ):
                    problems.append((n, "multiplicativity"))
        image = {upper_profile(a) for a in dc.elements}
        cu = set(family("catalanU", n).elements)
        if image != cu:
            problems.append((n, "image"))
    return _outcome(
        "upper-profile-homomorphism",
        not problems,
        "profile is multiplicative on all pairs and maps onto the convex "
        "unitriangular monoid for n=1..4"
        if not problems
        else f"failures: {problems}",
    )


# -- criterion 11 ----------------------------------------------------------------


def criterion_transfer(trials: int = 10_000, seed: int = 1111) -> CheckOutcome:
    idents = corpus()
    dc3 = family("doubleCatalan", 3)
    g3 = family("gossip", 3)
    owg3 = family("oneWayGossip", 3)
    lossy3 = family("gossip_S", 3, MINPLUS01INF)
    failing = [i for i in idents if not simon_equivalent(i.lhs, i.rhs, 2)]
    passing = [i for i in idents if simon_equivalent(i.lhs, i.rhs, 2)]
    violations = 0
    for ident in failing:
        if not isinstance(brute_force_identity(ident, dc3), BruteForceFails):
            violations += 1
        if not isinstance(brute_force_identity(ident, g3), BruteForceFails):
            violations += 1
    rng = random.Random(seed)
    for ident in passing:
        for target in (owg3, g3, lossy3):
            result = brute_force_identity(
                ident, target, sample=trials, seed=rng.getrandbits(32)
            )
            if not isinstance(result, BruteForceHolds):
                violations += 1
    return _outcome(
        "gossip-transfer",
        violations == 0,
        f"{len(failing)} failing identities falsified inside the 6-element "
        f"neighbour-call and 11-element gossip monoids; {len(passing)} passing "
        f"identities survived {trials} random morphisms into each of the one-way "
        f"gossip monoid, the gossip monoid, and the {len(lossy3)}-element sampled "
        f"lossy gossip monoid; {violations} violations",
    )


# -- criterion 12 ----------------------------------------------------------------


def criterion_inclusions() -> CheckOutcome:
    notes = []
    ok = True
    for n in range(2, 5):
        try:
            report = check_inclusions(n)
            ok = ok and report.ok
            if not report.ok:
                notes.append(f"n={n}: {[e for e in report.entries if not e[1]]}")
        except ClosureCapExceeded as exc:
            # cap hit: verify containment of whatever was enumerated
            partial = exc.partial
            refl = family("reflexiveBool", n)
            contained = all(m in refl for m in partial.elements)
            ok = ok and contained
            notes.append(
                f"n={n} capped at {len(partial.elements)} elements; containment "
                f"of the enumerated part: {contained}"
            )
    detail = "chains verified for n=2..4" + ("; " + "; ".join(notes) if notes else "")
    return _outcome("inclusion-chain", ok, detail)


# -- criterion 13 ----------------------------------------------------------------


def criterion_transfer_n4(trials: int = 10_000, seed: int = 1313) -> CheckOutcome:
    """Simon 3-congruent identities hold in the reflexive monoid R_4, which
    generates J_3, so they hold in its submonoid oneWayGossip(4)."""
    start = time.perf_counter()
    owg4 = family("oneWayGossip", 4)
    idents = [i for i in corpus() if simon_equivalent(i.lhs, i.rhs, 3)]
    from_corpus = len(idents)
    # every such corpus identity is w=w, so add the non-trivial pairs over {x, y}
    classes = defaultdict(list)
    for w in words_up_to("xy", 6):
        classes[subword_set(w, 3)].append(w)
    idents += [
        Identity(w, v) for group in classes.values() for w in group for v in group if w < v
    ]
    rng = random.Random(seed)
    violations = sum(
        not isinstance(
            brute_force_identity(ident, owg4, sample=trials, seed=rng.getrandbits(32)),
            BruteForceHolds,
        )
        for ident in idents
    )
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    return _outcome(
        "gossip-transfer-n4",
        ok,
        f"{len(idents)} Simon 3-congruent identities ({from_corpus} trivial ones from "
        f"the corpus, {len(idents) - from_corpus} non-trivial over {{x, y}} with sides "
        f"of length at most 6) survived {trials} random morphisms into the "
        f"{len(owg4)}-element one-way gossip monoid; {violations} violations, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# -- criterion 14 ----------------------------------------------------------------


def criterion_table_products() -> CheckOutcome:
    """Multiplication tables built from Cayley rows against one matrix product
    per entry."""
    cases = [
        (name, n, None)
        for name in ("catalanU", "doubleCatalan", "gossip", "oneWayGossip")
        for n in range(1, 4)
    ]
    cases += [
        ("catalanU", 6, None), ("doubleCatalan", 4, None), ("gossip", 4, None),
        ("gossip_S", 3, MINPLUS01INF),
    ]
    mismatched = []
    for name, n, S in cases:
        M = family(name, n, S)
        by_products = np.array(
            [[M.index_of(multiply(a, b)) for b in M.elements] for a in M.elements],
            dtype=np.int32,
        )
        if not np.array_equal(M.mult_table(), by_products):
            mismatched.append(f"{name}({n})")
    return _outcome(
        "table-vs-products",
        not mismatched,
        f"{len(cases)} generated families, tables equal to entry-by-entry products"
        if not mismatched
        else f"tables differ from the products for {mismatched}",
    )


# -- criterion 15 ----------------------------------------------------------------


class _InOrder:
    """The payloads of p at the assignments of ``universe`` in the canonical
    order (first variable slowest), each found by ``evaluate`` at the
    assignment's values of p's own variables.  The list grows only as far as
    a comparison has needed it."""

    def __init__(self, p, S, universe: list):
        self.payloads = []
        self._source = self._generate(p, S, universe)

    @staticmethod
    def _generate(p, S, universe):
        own = p.variables()
        where = [universe.index(v) for v in own]
        at = {}
        for values in iproduct(S.carrier.values, repeat=len(universe)):
            mine = tuple(values[i] for i in where)
            payload = at.get(mine)
            if payload is None:
                assignment = {v: S.val(x) for v, x in zip(own, mine)}
                payload = at[mine] = evaluate(p, assignment, S).payload
            yield payload

    def prefix(self, length: int) -> list:
        missing = length - len(self.payloads)
        if missing > 0:
            self.payloads.extend(islice(self._source, missing))
        return self.payloads[:length]


def _first_difference(a: _InOrder, b: _InOrder, total: int, step: int):
    """The rank of the first assignment where a and b differ, or None."""
    length = step
    while True:
        pa, pb = a.prefix(length), b.prefix(length)
        if pa != pb:
            return next(i for i, (x, y) in enumerate(zip(pa, pb)) if x != y)
        if length >= total:
            return None
        length *= step


def criterion_exhaustive_kernel() -> CheckOutcome:
    """Exhaustive functional equivalence against a per-assignment loop: the
    same verdict and the same first falsifying assignment."""
    start = time.perf_counter()
    words = words_up_to("xy", 5)
    instances = (BOOL, DIAMOND, semiring_from_spec("nat:2,3"))
    mismatched = []
    compared = exhaustive = 0
    for S in instances:
        carrier = [S.val(x) for x in S.carrier.values]
        c = len(carrier)
        for u in words_up_to("xy", 2, include_empty=True):
            universe = [Variable(s, v) for s in "xy" for v in range(1, len(u) + 2)]
            total = c ** len(universe)
            polys = [build_f_canonical(u, w) for w in words]
            pairs = dict.fromkeys((p, q) for i, p in enumerate(polys) for q in polys[i + 1:])
            in_order = {p: _InOrder(p, S, universe) for p in polys}
            for p, q in pairs:
                got = functionally_equivalent(p, q, S, variables=universe)
                first = _first_difference(in_order[p], in_order[q], total, c)
                if first is None:
                    agree = isinstance(got, Equivalent)
                else:
                    witness = dict(zip(universe, next(
                        islice(iproduct(carrier, repeat=len(universe)), first, None)
                    )))
                    values = (in_order[p].payloads[first], in_order[q].payloads[first])
                    agree = (
                        isinstance(got, NotEquivalent)
                        and got.witness == witness
                        and (got.lhs_value.payload, got.rhs_value.payload) == values
                    )
                compared += 1
                exhaustive += not (isinstance(got, Equivalent) and got.method == "identical-form")
                if not agree:
                    mismatched.append(f"{S.name} u={u!r} {p.render()} | {q.render()}")
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 60.0
    return _outcome(
        "exhaustive-vs-assignment-loop",
        ok,
        f"{compared} polynomial pairs (u of length <= 2, words over {{x, y}} of length "
        f"<= 5, over {', '.join(S.name for S in instances)}), {exhaustive} settled "
        f"exhaustively; {len(mismatched)} disagreements {mismatched[:3]}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# -- criterion 16 ----------------------------------------------------------------


def _decoded(S, images: dict, t: int) -> MorphismTable:
    """Trial t of coded morphisms, decoded entry by entry into matrices."""
    return MorphismTable({
        s: matrix_from_payloads(S, [[S.codes.payload(c) for c in row] for row in a[t].tolist()])
        for s, a in images.items()
    })


# the chain 0 < 1/2 < 1 under max and min: a finite carrier that is no
# bitmask lattice
HALVES = SemiringDescriptor(
    "halves", max, min, 0, 1,
    idempotent=True, interval=True, carrier=FiniteCarrier((0, Fraction(1, 2), 1)),
)


def criterion_batched_products(trials: int = 12, seed: int = 1616) -> CheckOutcome:
    """The coded products of the reflexive spot-check against one product per
    decoded morphism: every entry of both sides' images, and per morphism
    whether the sides agree.  Instances: bool, lattice:diamond, the chain
    0 < 1/2 < 1 (no bitmask lattice), minplus01inf and interval01.  Over
    minplus01inf the letters are also drawn as plain random matrices, whose
    infinities the kernel must saturate through 20-letter words; words of
    20 letters push max-times codes past 2^63, onto Python ints."""
    start = time.perf_counter()
    idents = [
        Identity("abcab" * 4, ("abcab" * 4)[::-1]),
        Identity("a" * 10 + "b" * 10, "b" * 10 + "a" * 10),
        Identity("ab" * 10, "a" * 20),
        Identity("ca" * 3, "ca" * 4),
        Identity("ab" * 10, "aab"),
    ]
    gen = SplitMix64(seed)
    mismatched = []
    compared = disagreeing = saturated = 0
    widest = 0
    for S in (BOOL, DIAMOND, HALVES, MINPLUS01INF, INTERVAL01):
        codes = S.codes
        for n in range(2, 6):
            for ident in idents:
                letters = ident.alphabet
                draws = [random_reflexive_codes(S, n, letters, trials, gen)]
                if S is MINPLUS01INF:
                    plain = codes.draw(gen, (trials, len(letters), n, n))
                    draws.append({s: plain[:, i] for i, s in enumerate(letters)})
                for images in draws:
                    tables = [_decoded(S, images, t) for t in range(trials)]
                    reference = {}
                    for word in (ident.lhs, ident.rhs):
                        got = coded_images(S, images, word)
                        lift = codes.weight(len(word)) // codes.weight(1)
                        reference[word] = [phi.apply(word) for phi in tables]
                        for image, coded in zip(reference[word], got.tolist()):
                            # the true payloads' codes; under the degree law,
                            # those of p * lift, the word's weight over one letter's
                            want = [[codes.encode(p * lift if lift > 1 else p) for p in row]
                                    for row in image.rows]
                            flat = [x for row in coded for x in row]
                            saturated += flat.count(codes.encode(INF)) if S is MINPLUS01INF else 0
                            widest = max([widest] + [x.bit_length() for x in flat])
                            if any(type(x) is not int for x in flat):
                                mismatched.append(f"{S.name} n={n} {word} not ints")
                            compared += 1
                            if coded != want:
                                mismatched.append(f"{S.name} n={n} {word}")
                    expected = [
                        a == b for a, b in zip(reference[ident.lhs], reference[ident.rhs])
                    ]
                    disagreeing += expected.count(False)
                    if coded_agreement(S, images, ident.lhs, ident.rhs).tolist() != expected:
                        mismatched.append(f"{S.name} n={n} {ident} agreement")
    elapsed = time.perf_counter() - start
    ok = not mismatched and disagreeing and saturated and widest > 63 and elapsed < 60.0
    return _outcome(
        "batched-vs-per-morphism-products",
        ok,
        f"{compared} word images ({trials} morphisms per instance, n = 2..5 and "
        f"identity, words of up to 20 letters, over bool, lattice:diamond, a "
        f"3-element chain, minplus01inf and interval01), {disagreeing} morphisms "
        f"separating the sides, {saturated} infinite min-plus entries, widest "
        f"code {widest} bits; {len(mismatched)} mismatches {mismatched[:3]}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# -- criterion 17 ----------------------------------------------------------------


def _sampled_one_at_a_time(p, q, S, variables, budget, seed):
    """Seeded sampling one assignment at a time through ``evaluate``, with the
    index of the separating sample (None when none separates)."""
    rng = random.Random(seed)
    for index in range(budget):
        assignment = {v: S.sample_value(rng) for v in variables}
        a, b = evaluate(p, assignment, S), evaluate(q, assignment, S)
        if a != b:
            return NotEquivalent(assignment, a, b), index
    return NotFalsified(budget), None


ADJAN = Identity("xyyxxyxyyx", "xyyxyxxyyx")

# a q^e c = a q^(e+6) c over nat:2,3 at n = 3: at |u| = 2 its 9 variables
# take 5^9 assignments, past the exhaustive cap; the sides separate at u = aa
# for a(ab)^2c and at u = ba for a(aab)^2c, and at no u within 256 samples
# for a(ab)^3c
PAST_CAP_LAWS = tuple(
    Identity("a" + q * e + "c", "a" + q * (e + 6) + "c")
    for q, e in (("ab", 2), ("ab", 3), ("aab", 2))
)


def _corpus_pairs(instances, pairs: int = 60, seed: int = 1717) -> list:
    """``(S, u, identity, budget, seed)`` at budget 256 over ``instances``:
    every corpus identity against each of its letters, and ``pairs`` seeded
    corpus pairs per instance with u of length at most 2."""
    rng = random.Random(seed)
    idents = [ident for ident in corpus() if ident.lhs != ident.rhs]
    cases = []
    for S in instances:
        for k, ident in enumerate(idents):
            cases += [(S, u, ident, 256, k) for u in sorted(set(ident.lhs + ident.rhs))]
        for k in range(pairs):
            ident = rng.choice(idents)
            u = rng.choice(sorted(
                {""} | subword_set(ident.lhs, 2) | subword_set(ident.rhs, 2)
            ))
            cases.append((S, u, ident, 256, k))
    return cases


def criterion_sampled_kernel() -> CheckOutcome:
    """Coded sampled equivalence over finite carriers against a
    per-assignment loop: the same NotFalsified count, or the same witness
    with the same values on both sides (compared by repr too, which tells
    apart payloads such as True and 1).  Inputs: the corpus pairs
    (:func:`_corpus_pairs`) over bool, lattice:diamond, nat:2,3 and the
    3-element chain 0 < 1/2 < 1, sampled directly, of which some separate
    only at sample 8 or later; then every u that ``check_UT`` samples past
    the exhaustive cap for ``PAST_CAP_LAWS``, where most pairs are not
    falsified, and whose evidence must be what the loop gives."""
    start = time.perf_counter()
    mismatched = []
    compared = separated = late = 0

    def compare(S, p, q, universe, budget, seed, label):
        nonlocal compared, separated, late
        got = _sampled(p, q, S, universe, budget, seed)
        want, index = _sampled_one_at_a_time(p, q, S, universe, budget, seed)
        compared += 1
        separated += index is not None
        late += index is not None and index >= 8
        if got != want or repr(got) != repr(want):
            mismatched.append(label)
        return want

    S = semiring_from_spec("nat:2,3")
    for T, u, ident, budget, case_seed in _corpus_pairs((BOOL, DIAMOND, S, HALVES)):
        p, q = build_f_canonical(u, ident.lhs), build_f_canonical(u, ident.rhs)
        universe = sorted(set(p.variables()) | set(q.variables()))
        compare(T, p, q, universe, budget, case_seed, f"{T.name} u={u!r} {ident}")
    past_cap = 0
    for ident in PAST_CAP_LAWS:
        verdict = check_UT(ident, 3, S, budget=256)
        for entry in verdict.evidence:
            u = entry["u"]
            universe = [Variable(s, v) for s in ident.alphabet for v in range(1, len(u) + 2)]
            if S.tables.size ** len(universe) <= EXHAUSTIVE_CAP:
                continue
            p, q = build_f_canonical(u, ident.lhs), build_f_canonical(u, ident.rhs)
            if entry["result"] == "equivalent":
                # identical forms never reach the sampler
                if entry["method"] != "identical-form" or p != q:
                    mismatched.append(f"{ident} in UT_3 at u={u!r}: {entry}")
                continue
            past_cap += 1
            want = compare(S, p, q, universe, 256, 0, f"{S.name} u={u!r} {ident} in UT_3")
            result = "not-equivalent" if isinstance(want, NotEquivalent) else "not-falsified"
            if entry["result"] != result:
                mismatched.append(f"{ident} in UT_3 at u={u!r}: {entry['result']}")
    elapsed = time.perf_counter() - start
    unfalsified = compared - separated
    ok = not mismatched and late and unfalsified and past_cap and elapsed < 60.0
    return _outcome(
        "sampled-vs-assignment-loop",
        ok,
        f"{compared} polynomial pairs (corpus pairs at budget 256 over bool, "
        f"lattice:diamond, nat:2,3 and a 3-element chain; {past_cap} pairs that "
        f"check_UT samples past the exhaustive cap over nat:2,3), {separated} "
        f"separated, {late} of them at sample 8 or later, {unfalsified} not "
        f"falsified; {len(mismatched)} mismatches {mismatched[:3]}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# -- criterion 18 ----------------------------------------------------------------


def criterion_lattice_decision() -> CheckOutcome:
    """The minimal-support decision over bitmask lattices against the coded
    tensor: the same verdict, witness and values (compared by repr too) on
    the criterion-15 inputs over bool, lattice:diamond and nat:1,1, and on a
    6-letter law whose check goes past the exhaustive cap, at u = aaa over
    bool, where the tensor covers all 2^24 assignments."""
    start = time.perf_counter()
    words = words_up_to("xy", 5)
    instances = (BOOL, DIAMOND, semiring_from_spec("nat:1,1"))
    cases = []
    for S in instances:
        for u in words_up_to("xy", 2, include_empty=True):
            universe = [Variable(s, v) for s in "xy" for v in range(1, len(u) + 2)]
            polys = [build_f_canonical(u, w) for w in words]
            pairs = dict.fromkeys((p, q) for i, p in enumerate(polys) for q in polys[i + 1:])
            cases += [(S, u, p, q, universe) for p, q in pairs if p != q]
    law = Identity("a" + "abcdef" * 3 + "f", "a" + "abcdef" * 4 + "f")
    over_cap = [Variable(s, v) for s in law.alphabet for v in range(1, 5)]
    cases.append((BOOL, "aaa", *(build_f_canonical("aaa", w) for w in (law.lhs, law.rhs)), over_cap))
    mismatched = []
    separated = 0
    for S, u, p, q, universe in cases:
        want = _by_tensor(p, q, S, universe)
        try:
            got = _by_supports(p, q, S, universe)
        except InternalConsistencyError as error:
            got = error
        separated += isinstance(want, NotEquivalent)
        if got != want or repr(got) != repr(want):
            mismatched.append(f"{S.name} u={u!r} {p.render()} | {q.render()}")
    elapsed = time.perf_counter() - start
    # the last case, past the cap, must separate
    ok = not mismatched and isinstance(want, NotEquivalent) and elapsed < 60.0
    return _outcome(
        "lattice-vs-tensor",
        ok,
        f"{len(cases)} polynomial pairs (the criterion-15 pairs with different "
        f"polynomials, over {', '.join(S.name for S in instances)}; u = aaa of "
        f"{law} over bool, 2^{len(over_cap)} assignments), {separated} separated; "
        f"{len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 19 ----------------------------------------------------------------


def _closure_run(build) -> str:
    """The rows, witness words and Cayley rows (with their dtype) a closure
    gives, or those of the partial it raises at its cap, with the cap
    message; as a repr, so payload types must agree too."""
    try:
        M, raised = build(), None
    except ClosureCapExceeded as error:
        M, raised = error.partial, str(error)
    cayley = M.cayley_right
    rows = None if cayley is None else (cayley.dtype.name, cayley.tolist())
    return repr((raised, [m.rows for m in M.elements], M.witness_words, rows))


def _level_caps(M) -> tuple:
    """Caps at 1, on the boundary after the middle BFS level and half way
    into the next level of the closure ``M``."""
    levels = np.bincount([len(w) for w in M.witness_words])
    middle = len(levels) // 2
    boundary = int(levels[: middle + 1].sum())
    return 1, boundary, boundary + int(levels[middle + 1]) // 2


def criterion_packed_closure(seed: int = 1919) -> CheckOutcome:
    """The level-by-level BFS against one product per (element, generator)
    pair.  Boolean (row bitmasks): every generated Boolean family up to its
    default bound, catalanU(8), whose keys use all eight bytes, and seeded
    random generator sets at n = 1..8 with 1 to 3 generators each.  Coded
    (``S.codes``): every weighted family over minplus01inf and
    lattice:diamond at n = 2, 3 but oneWayGossip_S(3) over minplus01inf,
    and seeded random reflexive generator sets over minplus01inf at
    n = 2..5 with 2, 4 or 6 generators, weights from its sample or inf.  All
    in full; and the partials at caps 1, on a level boundary and inside a
    level of oneWayGossip(4), catalanU(8), gossip_S(3) over minplus01inf
    and oneWayGossip_S(3) over lattice:diamond.  Every weighted case must
    take the coded path."""
    start = time.perf_counter()
    rng = random.Random(seed)
    cases = []
    for name in ("catalanU", "doubleCatalan", "gossip", "oneWayGossip"):
        for n in range(1, _FAMILY_N_DEFAULTS.get(name, 6) + 1):
            gens = family(name, n).generators
            if gens:  # below n = 2 some families have none: the trivial monoid
                cases.append((f"{name}({n})", gens, 5_000_000))
    catalan8 = family("catalanU", 8, max_n=8)
    cases.append(("catalanU(8)", catalan8.generators, 5_000_000))
    for n in range(1, 9):
        for k in (1, 2, 3):
            gens = tuple(
                SMatrix(BOOL, tuple(
                    tuple(rng.random() < 0.25 for _ in range(n)) for _ in range(n)
                ))
                for _ in range(k)
            )
            cases.append((f"random n={n} k={k}", gens, 20_000))
    weighted = []
    for S in (MINPLUS01INF, DIAMOND):
        for name in ("catalanU_S", "doubleCatalan_S", "gossip_S", "oneWayGossip_S"):
            for n in (2, 3):
                if (S, name, n) != (MINPLUS01INF, "oneWayGossip_S", 3):  # 8 s per product
                    gens = family(name, n, S).generators
                    weighted.append((f"{name}({n}) over {S.name}", gens, 5_000_000))
    weights = [v.payload for v in MINPLUS01INF.interval_sample] + [INF] * 2
    for n in (2, 3, 4, 5):
        for k in (2, 4, 6):
            gens = tuple(
                SMatrix(MINPLUS01INF, tuple(
                    tuple(0 if i == j else rng.choice(weights) for j in range(n)) for i in range(n)
                ))
                for _ in range(k)
            )
            weighted.append((f"random minplus01inf n={n} k={k}", gens, 20_000))
    for label, M in (
        ("oneWayGossip(4)", family("oneWayGossip", 4)),
        ("catalanU(8)", catalan8),
        ("gossip_S(3) over minplus01inf", family("gossip_S", 3, MINPLUS01INF)),
        ("oneWayGossip_S(3) over lattice:diamond", family("oneWayGossip_S", 3, DIAMOND)),
    ):
        for cap in _level_caps(M):
            group = cases if M.semiring is BOOL else weighted
            group.append((f"{label} cap {cap}", M.generators, cap))
    mismatched = [label for label, gens, cap in weighted if _coded_encoding(gens, cap) is None]
    for label, gens, cap in cases + weighted:
        levels = _closure_run(lambda: bfs_closure(gens, element_cap=cap))
        if levels != _closure_run(lambda: _bfs_products(list(gens), cap, (), None)):
            mismatched.append(label)
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 60.0
    return _outcome(
        "packed-vs-products",
        ok,
        f"{len(cases)} Boolean and {len(weighted)} coded closures and capped partials, "
        f"elements, words and Cayley rows equal to one product at a time; "
        f"{len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 20 ----------------------------------------------------------------


def _bicyclic_image(word: str, images: dict) -> tuple:
    """The image of ``word`` in the bicyclic monoid, whose elements are the
    pairs (a, b) of naturals (the words q^a p^b in p and q with pq = 1)."""
    a, b = 0, 0
    for ch in word:
        c, d = images[ch]
        top = max(b, c)
        a, b = a - b + top, d - c + top
    return a, b


# UT_2 identities over {x, y}: among the pairs of distinct words of length
# 10 that start with x and share their content and last letter, the hull
# finds these two to hold at n = 2 (Adjan's, and one more), and the bicyclic
# monoid confirms both
TROPICAL_UT2_LAWS = (ADJAN, Identity("xyyxxyyxxy", "xyyxyxyxxy"))


def _hull_pairs(count: int, rng: random.Random) -> list:
    """Seeded polynomial pairs in three variables that the hull settles in
    both ways: q of two to four monomials against q plus the midpoint of two
    of them, which lies in their hull, and against q plus one of them times
    a variable of its own, which the orthant covers and max-plus covers only
    when it lies in q's hull."""
    variables = [Variable("a", 1), Variable("a", 2), Variable("b", 1)]
    pairs = []
    while len(pairs) < count:
        monomials = {
            tuple((v, k) for v in variables if (k := rng.randrange(4)))
            for _ in range(rng.randint(2, 4))
        }
        if len(monomials) < 2:
            continue
        q = FormalPolynomial.from_monomials(monomials)
        f, g = (dict(m) for m in rng.sample(sorted(monomials), 2))
        mid = {v: f.get(v, 0) + g.get(v, 0) for v in variables}
        if all(k % 2 == 0 for k in mid.values()):
            middle = tuple((v, k // 2) for v, k in mid.items() if k)
            pairs.append((FormalPolynomial.from_monomials(monomials | {middle}), q))
        if f:
            v = rng.choice(sorted(f))
            above = tuple(sorted({**f, v: f[v] + 1}.items()))
            pairs.append((FormalPolynomial.from_monomials(monomials | {above}), q))
    return pairs


def criterion_hull_vs_sampled(
    pairs: int = 100, trials: int = 200, seed: int = 2020
) -> CheckOutcome:
    """The exact hull decision over maxplus, minplus01inf and interval01
    against seeded sampling: no sample may separate a pair the hull says
    holds, and every pair a sample separates must be one it says fails.
    Inputs: the corpus pairs over the three instances (:func:`_corpus_pairs`,
    budget 256), u = x and u = y of ``TROPICAL_UT2_LAWS`` at budget 4096, and
    ``pairs`` seeded pairs that the hull settles both ways
    (:func:`_hull_pairs`, budget 256).  Every fails carries the witness
    built from the separating direction, which evaluate confirms.
    Then an oracle that shares no code with the polynomials: UT_2 over the
    tropical semiring and the bicyclic monoid satisfy the same identities
    (Daviaud, Johnson and Kambites, J. Algebra 2018), and so does UT_2 over
    the other two instances, where the orthant adds nothing because both
    sides' exponent vectors have the same degree in each letter.  The UT_2
    checks of the non-trivial corpus identities, of ``TROPICAL_UT2_LAWS``
    and of their mirror images and letter swaps must agree with ``trials``
    seeded substitutions into the bicyclic monoid, on exact integer pairs: a
    holds survives all of them, and a fails is separated by one."""
    start = time.perf_counter()
    rng = random.Random(seed)
    instances = (MAXPLUS, MINPLUS01INF, INTERVAL01)
    cases = []
    # drawn after nat's, which are dropped
    for S, u, ident, budget, case_seed in _corpus_pairs((NAT, *instances)):
        if S is not NAT:
            p, q = build_f_canonical(u, ident.lhs), build_f_canonical(u, ident.rhs)
            cases.append((S, p, q, budget, case_seed))
    for S in instances:
        for law in TROPICAL_UT2_LAWS:
            cases += [
                (S, build_f_canonical(u, law.lhs), build_f_canonical(u, law.rhs), 4096, 0)
                for u in ("x", "y")
            ]
        cases += [(S, p, q, 256, k) for k, (p, q) in enumerate(_hull_pairs(pairs, rng))]
    mismatched = []
    by_hull = by_sample = certified = 0
    for S, p, q, budget, case_seed in cases:
        universe = sorted(set(p.variables()) | set(q.variables()))
        exact = functionally_equivalent(p, q, S, variables=universe)
        sampled = _sampled(p, q, S, universe, budget, case_seed)
        by_hull += exact == Equivalent("hull")
        by_sample += isinstance(sampled, NotEquivalent)
        certified += isinstance(exact, NotEquivalent)
        if isinstance(exact, Equivalent) and isinstance(sampled, NotEquivalent):
            mismatched.append(f"{S.name} {p.render()} | {q.render()}")
    idents = {ident for ident in corpus() if ident.lhs != ident.rhs}
    swap = str.maketrans("xy", "yx")
    for law in TROPICAL_UT2_LAWS:
        for w, v in ((law.lhs, law.rhs), (law.lhs[::-1], law.rhs[::-1])):
            idents |= {Identity(w, v), Identity(w.translate(swap), v.translate(swap))}
    holds = fails = 0
    for ident in sorted(idents, key=str):
        substitutions = [
            {s: (rng.randrange(8), rng.randrange(8)) for s in ident.alphabet}
            for _ in range(trials)
        ]
        agree = all(
            _bicyclic_image(ident.lhs, images) == _bicyclic_image(ident.rhs, images)
            for images in substitutions
        )
        for S in instances:
            verdict = check_UT(ident, 2, S, budget=0)
            holds += verdict.is_holds
            fails += verdict.is_fails
            if verdict.is_holds != agree or not (verdict.is_holds or verdict.is_fails):
                mismatched.append(f"{S.name} {ident}: {verdict.outcome} in UT_2")
    elapsed = time.perf_counter() - start
    ok = not mismatched and by_hull and certified and holds and elapsed < 60.0
    return _outcome(
        "hull-vs-sampled",
        ok,
        f"{len(cases)} polynomial pairs over maxplus, minplus01inf and "
        f"interval01 (corpus pairs, u = x and y of {len(TROPICAL_UT2_LAWS)} UT_2 "
        f"laws, {pairs} constructed pairs per instance): {by_hull} equivalent "
        f"by the hull, {certified} fails with the certificate's witness, "
        f"{by_sample} separated by sampling; UT_2 checks of {len(idents)} "
        f"identities per instance against {trials} bicyclic substitutions: "
        f"{holds} holds, {fails} fails; {len(mismatched)} "
        f"mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 21 ----------------------------------------------------------------

# p q^e r = p q^(e+1) r as (n, q, e), p and r the first and last letters of
# q: laws for e >= n, Simon (n-1)-congruent pairs that fail in UT_n(bool)
# for e = n-1, and shorter ones that fail earlier
FORM_LAWS = (
    (3, "ab", 1), (3, "ab", 2), (3, "abc", 3), (4, "ab", 3), (4, "aab", 4),
    (5, "abc", 4), (5, "ab", 5), (6, "ab", 6), (6, "abc", 6),
)


def enumerated_f(u: str, rho: tuple, w: str) -> dict:
    """f_{u,w} along the path rho as the sum over the embeddings of u into w
    (positions a_1 < ... < a_l, w at a_k equal to u[k]) of the monomial
    that counts, at vertex rho[k], each letter strictly between the k-th and
    (k+1)-st embedded positions (the ends of w at k = 0 and k = |u|), as a
    dict from each monomial to the number of embeddings that give it.  The
    oracle of criterion 21: it shares no code with :class:`EmbeddingForms`,
    and its counts show whether any two embeddings give one monomial."""
    counts = defaultdict(int)
    # per letter s: its occurrences among the first i letters of w, and the
    # x(s, v) along rho; letters outer and vertices inner is Variable's order
    letters = [
        (list(accumulate((ch == s for ch in w), initial=0)), [Variable(s, v) for v in rho])
        for s in sorted(set(w))
    ]

    def extend(k: int, start: int, positions: tuple):
        if k < len(u):
            for pos in range(start, len(w) - len(u) + k + 1):
                if w[pos] == u[k]:
                    extend(k + 1, pos + 1, positions + (pos,))
            return
        bounds = (-1, *positions, len(w))
        monomial = []
        for prefix, variables in letters:
            for var, lo, hi in zip(variables, bounds, bounds[1:]):
                if prefix[hi] > prefix[lo + 1]:
                    monomial.append((var, prefix[hi] - prefix[lo + 1]))
        counts[tuple(monomial)] += 1

    extend(0, 0, ())
    return dict(counts)


def criterion_embedding_forms() -> CheckOutcome:
    """The library's f_{u,w} against :func:`enumerated_f`: at every u of
    ``words_up_to(alphabet, n - 1, include_empty=True)`` and side w,
    ``build_f_canonical`` along (1, ..., |u|+1) and ``build_f`` along
    (2, 4, ..., 2|u|+2), with no monomial from two embeddings (which the
    set of monomials would lose); and at every u where the forms of two
    sides settle (:func:`equivalent_by_forms`), ``functionally_equivalent``
    on the enumerated polynomials gives the same :class:`Equivalent`.
    Inputs: criterion 15's words (over {x, y}, of length <= 5) at n = 3,
    every pair of them, and the ``FORM_LAWS`` instances at n = 3..6, over
    bool, lattice:diamond, nat:1,1, nat:2,3, nat and minplus01inf."""
    start = time.perf_counter()
    instances = (BOOL, DIAMOND, *map(semiring_from_spec, ("nat:1,1", "nat:2,3")), NAT, MINPLUS01INF)
    words = words_up_to("xy", 5)
    groups = [(3, "xy", words, list(combinations(words, 2)))]
    for n, q, e in FORM_LAWS:
        law = Identity(q[0] + q * e + q[-1], q[0] + q * (e + 1) + q[-1])
        groups.append((n, law.alphabet, [law.lhs, law.rhs], [(law.lhs, law.rhs)]))
    mismatched = []
    compared = built = repeated = 0
    settled = defaultdict(int)
    for n, alphabet, sides, pairs in groups:
        width = max(map(len, sides)).bit_length()
        forms = {w: EmbeddingForms(w, alphabet, n, width) for w in sides}
        us = words_up_to(alphabet, n - 1, include_empty=True)
        oracle = {}
        for w in sides:
            for u in us:
                compared += 1
                counts = enumerated_f(u, tuple(range(1, len(u) + 2)), w)
                if any(c > 1 for c in counts.values()):
                    repeated += 1
                    mismatched.append(f"two embeddings of u={u!r} in {w} give one monomial")
                oracle[u, w] = want = FormalPolynomial.from_monomials(counts)
                if build_f_canonical(u, w) != want:
                    mismatched.append(f"build_f_canonical u={u!r} in {w}")
                gapped = tuple(range(2, 2 * len(u) + 3, 2))
                enumerated = FormalPolynomial.from_monomials(enumerated_f(u, gapped, w))
                if build_f(u, gapped, w, gapped[-1]) != enumerated:
                    mismatched.append(f"build_f u={u!r} in {w} along {gapped}")
        for u in us:
            universe = [Variable(s, v) for s in alphabet for v in range(1, len(u) + 2)]
            for w, v in pairs:
                for S in instances:
                    want = equivalent_by_forms(forms[w].form(u), forms[v].form(u), S, forms[w])
                    if want is None:
                        built += 1
                        continue
                    settled[want.method] += 1
                    got = functionally_equivalent(oracle[u, w], oracle[u, v], S, variables=universe)
                    if got != want:
                        mismatched.append(f"{S.name} u={u!r} {w}={v}: {want} by forms, {got} enumerated")
    elapsed = time.perf_counter() - start
    ok = not mismatched and len(settled) == 2 and built and elapsed < 60.0
    return _outcome(
        "embedding-forms-vs-build_f",
        ok,
        f"{compared} (u, w) with build_f_canonical and build_f equal to the "
        f"enumerated polynomials (criterion-15 words at n = 3, {len(FORM_LAWS)} laws p q^e r at "
        f"n = 3..6), {repeated} with a monomial from two embeddings; over "
        f"{', '.join(S.name for S in instances)}, "
        f"(pair, u, instance) cases settled by the forms as the enumerated "
        f"polynomials are: {dict(settled)}, {built} left to be built; {len(mismatched)} "
        f"mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 22 ----------------------------------------------------------------


def check_UT_every_u(ident: Identity, n: int, S: SemiringDescriptor, budget: int, seed: int):
    """``check_UT`` as it was before it walked only the u that embed in a
    side: every u of ``words_up_to(alphabet, n - 1, include_empty=True)`` in
    turn, settled by the two forms or else by both polynomials.  The oracle
    of criterion 22.  Returns ``(outcome, distinguishing u, diagonal,
    evidence)``."""
    alphabet = ident.alphabet
    skip_empty = n >= 2 and S.free_rank1_payload is not None and S.partial_sums_distinct
    width = max(len(ident.lhs), len(ident.rhs)).bit_length()
    forms = [EmbeddingForms(side, alphabet, n, width) for side in (ident.lhs, ident.rhs)]
    evidence, outcome = [], "holds"
    for u in words_up_to(alphabet, n - 1, include_empty=True):
        if u == "" and skip_empty:
            continue
        result = equivalent_by_forms(forms[0].form(u), forms[1].form(u), S, forms[0])
        if result is None:
            result = functionally_equivalent(
                build_f_canonical(u, ident.lhs),
                build_f_canonical(u, ident.rhs),
                S,
                variables=[Variable(s, v) for s in alphabet for v in range(1, len(u) + 2)],
                budget=budget, seed=seed,
            )
        if isinstance(result, Equivalent):
            evidence.append({"u": u, "result": "equivalent", "method": result.method})
        elif isinstance(result, NotEquivalent):
            evidence.append({"u": u, "result": "not-equivalent"})
            diagonal = {(var.letter, var.vertex): value for var, value in result.witness.items()}
            return "fails", u, diagonal, evidence
        else:
            evidence.append({"u": u, "result": "not-falsified", "samples": result.samples})
            outcome = "undetermined"
    return outcome, None, None, evidence


def criterion_ut_walk(budget: int = 256) -> CheckOutcome:
    """``check_UT``, which walks only the u that embed in a side, against
    :func:`check_UT_every_u`: the same outcome, distinguishing u and witness
    images; evidence equal to the oracle's with the u that embed in neither
    side (by :func:`~sgident.words.scattered_multiplicity`) removed; and the
    verdict's ``unembedded`` equal to the number removed.  Inputs: the
    corpus at n = 2..4, over bool, lattice:diamond, nat:2,3 and maxplus, and
    the undetermined ``PAST_CAP_LAWS`` at n = 3 over nat:2,3, at budget
    256."""
    start = time.perf_counter()
    nat23 = semiring_from_spec("nat:2,3")
    instances = (BOOL, DIAMOND, nat23, MAXPLUS)
    cases = [(ident, n, S) for ident in corpus() for n in (2, 3, 4) for S in instances]
    cases += [(ident, 3, nat23) for ident in PAST_CAP_LAWS]
    mismatched = []
    outcomes = defaultdict(int)
    removed = 0
    for ident, n, S in cases:
        verdict = check_UT(ident, n, S, budget=budget)
        outcome, u, diagonal, evidence = check_UT_every_u(ident, n, S, budget, 0)
        outcomes[outcome] += 1
        kept = [
            e for e in evidence
            if scattered_multiplicity(e["u"], ident.lhs)
            or scattered_multiplicity(e["u"], ident.rhs)
        ]
        removed += len(evidence) - len(kept)
        witness = None
        if u is not None:
            phi = path_morphism(u, ident.alphabet, n, S, diagonal)
            witness = {s: format_matrix(m) for s, m in phi.images.items()}
        got = verdict.to_dict()["witness"]
        if (
            (verdict.outcome, verdict.distinguishing_u) != (outcome, u)
            or (got and got["images"]) != witness
            or verdict.evidence != kept
            or verdict.unembedded != len(evidence) - len(kept)
        ):
            mismatched.append(f"{ident} in UT_{n} over {S.name}")
    elapsed = time.perf_counter() - start
    ok = not mismatched and len(outcomes) == 3 and removed and elapsed < 60.0
    return _outcome(
        "ut-walk-vs-every-u",
        ok,
        f"{len(cases)} checks (corpus at n = 2..4 over {', '.join(S.name for S in instances)}, "
        f"{len(PAST_CAP_LAWS)} laws past the cap at n = 3 over nat:2,3; budget {budget}), "
        f"outcomes {dict(outcomes)}, {removed} evidence entries of u that embed in neither "
        f"side removed; {len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s "
        f"(limit 60s)",
    )


# -- criterion 23 ----------------------------------------------------------------


def _first_failure_by_products(ident: Identity, assignments, times):
    """The first of ``assignments`` (tuples of element indices, one per
    letter in sorted order) under which the sides of ``ident`` differ, as a
    letter -> index dict, or the number of assignments when there is none.
    Each side is multiplied out one assignment at a time through ``times``,
    the index of the product of two elements given by theirs."""
    letters = sorted(set(ident.lhs) | set(ident.rhs))
    count = 0
    for values in assignments:
        value = dict(zip(letters, values))
        lhs, rhs = (reduce(times, (value[ch] for ch in side)) for side in (ident.lhs, ident.rhs))
        if lhs != rhs:
            return value
        count += 1
    return count


def _drawn_assignments(m: int, k: int, sample: int, seed: int, chunk: int):
    """The seeded trials of ``brute_force_identity(sample=...)`` under a
    chunk of ``chunk``: one ``default_rng(seed).integers`` call per chunk of
    trials, one index per letter in sorted order, trial after trial."""
    rng = np.random.default_rng(seed)
    for start in range(0, sample, chunk):
        size = min(chunk, sample - start)
        draws = rng.integers(m, size=size * k, dtype=np.int32).tolist()
        yield from (tuple(draws[t * k : (t + 1) * k]) for t in range(size))


def criterion_bruteforce_products(
    small_chunk: int = 7, sample: int = 100, seed: int = 2323
) -> CheckOutcome:
    """The brute-force oracle's broadcast fold against one product per
    assignment (``multiply`` and ``index_of``, each product of two elements
    formed once), on the corpus over catalanU(3), doubleCatalan(3), U(3) and
    gossip(3): the same verdict, first counterexample and count, exhaustive
    (every assignment in canonical order) and sampled (the seeded trials in
    order), at the default ``_FOLD_CHUNK`` and at ``small_chunk``, whose
    blocks cut letters' ranges."""
    start = time.perf_counter()
    targets = {
        "catalanU(3)": family("catalanU", 3),
        "doubleCatalan(3)": family("doubleCatalan", 3),
        "U(3)": enumerate_unitriangular(3, BOOL),
        "gossip(3)": family("gossip", 3),
    }
    idents = corpus()
    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in idents]
    default_chunk = monoids._FOLD_CHUNK
    verdicts = defaultdict(int)
    mismatched = []
    for name, M in targets.items():
        m = len(M)

        @cache
        def times(i, j, M=M):
            return M.index_of(multiply(M.elements[i], M.elements[j]))

        for ident, trials_seed in zip(idents, seeds):
            k = len(ident.alphabet)
            exhaustive = _first_failure_by_products(ident, iproduct(range(m), repeat=k), times)
            for chunk in (default_chunk, small_chunk):
                drawn = _drawn_assignments(m, k, sample, trials_seed, chunk)
                sampled = _first_failure_by_products(ident, drawn, times)
                monoids._FOLD_CHUNK = chunk
                try:
                    got = [
                        brute_force_identity(ident, M),
                        brute_force_identity(ident, M, sample=sample, seed=trials_seed),
                    ]
                finally:
                    monoids._FOLD_CHUNK = default_chunk
                for result, want in zip(got, (exhaustive, sampled)):
                    verdicts[type(result).__name__] += 1
                    if (
                        result.assignment if isinstance(result, BruteForceFails)
                        else result.assignments_checked
                    ) != want:
                        mismatched.append(f"{ident} over {name}, chunk {chunk}")
    elapsed = time.perf_counter() - start
    ok = not mismatched and len(verdicts) == 2 and elapsed < 60.0
    return _outcome(
        "bruteforce-vs-products",
        ok,
        f"{len(idents)} corpus identities over {', '.join(targets)}, exhaustive and "
        f"{sample} seeded trials, chunks {default_chunk} and {small_chunk}; verdicts "
        f"{dict(verdicts)}; {len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s "
        f"(limit 60s)",
    )


# -- criterion 24 ----------------------------------------------------------------


def _unchecked_fails(criterion: str, evidence: list, u: str, ident: Identity, n, S) -> Verdict:
    """The fails verdict that the checker gives at u, its witness not
    re-multiplied: the checker's re-check answers for both."""
    phi = path_morphism(u, ident.alphabet, n, S)
    return Verdict(FAILS, criterion, evidence, u, phi, (1, len(u) + 1))


def report_by_subword_sets(monoid: str, ident: Identity, n: int, S: SemiringDescriptor) -> dict:
    """The stable report of ``run_check(monoid, ident, n, S)`` for ``u``, and
    for ``r`` with ``verify_samples=0``, as it was before the checks walked
    :func:`~sgident.checker._embedding_us`: the u are the sorted union of the
    two sides' :func:`~sgident.words.subword_set`; ``u`` compares their
    :func:`~sgident.words.scattered_multiplicity` in turn, and ``r`` fails at
    the least u of the symmetric difference.  The oracle of criterion 24."""
    k = n - 1
    left, right = subword_set(ident.lhs, k), subword_set(ident.rhs, k)
    us = sorted(left | right, key=lambda u: (len(u), u))
    if monoid == "u":
        evidence = []
        verdict = Verdict(HOLDS, "subword-multiplicities", evidence)
        for u in us:
            mw, mv = scattered_multiplicity(u, ident.lhs), scattered_multiplicity(u, ident.rhs)
            equal = S.nat_embed(mw) == S.nat_embed(mv)
            evidence.append(
                {"u": u, "lhs_multiplicity": mw, "rhs_multiplicity": mv, "equal": equal}
            )
            if not equal:
                verdict = _unchecked_fails("subword-multiplicities", evidence, u, ident, n, S)
                break
        us = [e["u"] for e in evidence]
    else:
        evidence = [{"lhs_subwords": len(left), "rhs_subwords": len(right), "k": k}]
        if left == right or S._zero_payload == S._one_payload:
            verdict = Verdict(HOLDS, "subword-sets-reflexive", evidence)
        else:
            u = min(left ^ right, key=lambda s: (len(s), s))
            verdict = _unchecked_fails("subword-sets-reflexive", evidence, u, ident, n, S)
    return CheckReport(ident, monoid, n, S.name, verdict, us, 0, 4096, 0.0).to_dict(stable=True)


def _long_identities(seed: int) -> list:
    """Per n = 6..8, a seeded word w of 10 to 30 letters over {a, b, c, d}
    as w=w, against its reverse and against a second such word."""
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice("abcd") for _ in range(rng.randint(10, 30)))

    cases = []
    for n in (6, 7, 8):
        w = word()
        cases += [(Identity(w, w), n), (Identity(w, w[::-1]), n), (Identity(w, word()), n)]
    return cases


def criterion_u_r_walk(seed: int = 2424) -> CheckOutcome:
    """The stable ``u`` and ``r`` reports, whose u come from one walk of the
    trie of u, against :func:`report_by_subword_sets`: equal
    ``to_dict(stable=True)``.  Inputs: the corpus at n = 2..6, ``u`` over
    bool, nat, nat:2,3 and lattice:diamond and ``r`` (with
    ``verify_samples=0``) over interval01 and minplus01inf; and seeded words
    of 10 to 30 letters at n = 6..8 (:func:`_long_identities`), ``u`` over
    bool and ``r`` over interval01."""
    start = time.perf_counter()
    short = [(ident, n) for ident in corpus() for n in range(2, 7)]
    long = _long_identities(seed)
    plans = [
        ("u", (BOOL, NAT, semiring_from_spec("nat:2,3"), DIAMOND), short),
        ("r", (INTERVAL01, MINPLUS01INF), short),
        ("u", (BOOL,), long),
        ("r", (INTERVAL01,), long),
    ]
    checks, mismatched = 0, []
    outcomes = defaultdict(int)
    for monoid, instances, cases in plans:
        for S in instances:
            for ident, n in cases:
                got = run_check(monoid, ident, n, S, verify_samples=0).to_dict(stable=True)
                checks += 1
                outcomes[got["verdict"]["outcome"]] += 1
                if got != report_by_subword_sets(monoid, ident, n, S):
                    mismatched.append(f"{monoid} {ident} at n = {n} over {S.name}")
    elapsed = time.perf_counter() - start
    ok = not mismatched and len(outcomes) == 2 and elapsed < 20.0
    return _outcome(
        "u-r-walk",
        ok,
        f"{checks} u and r reports (corpus at n = 2..6, u over bool, nat, nat:2,3 and "
        f"lattice:diamond, r over interval01 and minplus01inf; 9 seeded words of 10-30 "
        f"letters at n = 6..8 as w=w, against the reverse and a second word), outcomes "
        f"{dict(outcomes)}; {len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s "
        f"(limit 20s)",
    )


# -- module-level law suites --------------------------------------------------------


_AXIOM_INSTANCES = (
    "bool",
    "nat",
    "nat:2,3",
    "maxplus",
    "minplus01inf",
    "interval01",
    "lattice:diamond",
)


def _axiom_triples(S, rng, count=200):
    if S.is_finite:
        values = S.values()
        return list(iproduct(values, repeat=3))
    return [
        tuple(S.sample_value(rng) for _ in range(3)) for _ in range(count)
    ]


def check_semiring_axioms(seed: int = 11):
    for spec in _AXIOM_INSTANCES:
        S = semiring_from_spec(spec)
        rng = random.Random(seed)
        bad = []
        for a, b, c in _axiom_triples(S, rng):
            if S.add(a, b) != S.add(b, a) or S.mul(a, b) != S.mul(b, a):
                bad.append("commutativity")
            if S.add(S.add(a, b), c) != S.add(a, S.add(b, c)):
                bad.append("add-associativity")
            if S.mul(S.mul(a, b), c) != S.mul(a, S.mul(b, c)):
                bad.append("mul-associativity")
            if S.mul(a, S.add(b, c)) != S.add(S.mul(a, b), S.mul(a, c)):
                bad.append("distributivity")
            if S.add(a, S.zero) != a or S.mul(a, S.one) != a:
                bad.append("identities")
            if S.mul(a, S.zero) != S.zero:
                bad.append("absorption")
            if S.is_idempotent and S.add(a, a) != a:
                bad.append("idempotency")
            if S.is_interval and not S.natural_leq(a, S.one):
                bad.append("interval-top")
            if S.is_idempotent and S.natural_leq(a, b):
                if not S.natural_leq(S.mul(S.mul(c, a), c), S.mul(S.mul(c, b), c)):
                    bad.append("order-mul-compatibility")
                if not S.natural_leq(S.add(a, c), S.add(b, c)):
                    bad.append("order-add-compatibility")
        for j in range(0, 33, 4):
            for k in range(0, 33, 4):
                if S.nat_embed(j + k) != S.add(S.nat_embed(j), S.nat_embed(k)):
                    bad.append("embedding-additivity")
        yield _outcome(
            f"axioms[{spec}]",
            not bad,
            "all laws hold" if not bad else f"violations: {sorted(set(bad))}",
        )


def check_word_oracles(seed: int = 22):
    from itertools import combinations

    def enumeration_count(u, w):
        return sum(
            1
            for positions in combinations(range(len(w)), len(u))
            if all(w[p] == u[k] for k, p in enumerate(positions))
        )

    bad = 0
    words2 = words_up_to("ab", 8)
    us = words_up_to("ab", 4)
    for w in words2:
        for u in us:
            if scattered_multiplicity(u, w) != enumeration_count(u, w):
                bad += 1
    yield _outcome(
        "multiplicity-vs-enumeration",
        bad == 0,
        f"all {len(words2) * len(us)} pairs over a 2-letter alphabet agree",
    )

    rng = random.Random(seed)
    bad = 0
    checked = 0
    samples = list(words2) + [
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 12))) for _ in range(60)
    ]
    for w in samples:
        for k in range(1, len(w) + 1):
            total = sum(
                scattered_multiplicity(u, w)
                for u in subword_set(w, k)
                if len(u) == k
            )
            checked += 1
            if total != comb(len(w), k):
                bad += 1
    yield _outcome(
        "multiplicity-binomial-sum",
        bad == 0,
        f"{checked} (word, k) combinations sum to the right binomial",
    )

    bad = 0
    for w in samples[:200]:
        for u in words_up_to(w[0] + "abc", 3):
            member = u in subword_set(w, len(u))
            if member != (scattered_multiplicity(u, w) > 0):
                bad += 1
    yield _outcome("membership-positivity", bad == 0, "membership matches positive multiplicity")

    bad = 0
    pool = words_up_to("ab", 6)
    for _ in range(300):
        w, v = rng.choice(pool), rng.choice(pool)
        for k in range(5, 1, -1):
            if simon_equivalent(w, v, k):
                if not all(simon_equivalent(w, v, kk) for kk in range(1, k)):
                    bad += 1
    yield _outcome(
        "simon-refinement",
        bad == 0,
        "equivalence at level k implies every lower level on 300 sampled pairs",
    )


# -- suites ---------------------------------------------------------------------------
# Each suite yields its outcomes one check at a time, so run_suite can time them.


def suite_semiring_axioms():
    yield from check_semiring_axioms()


def suite_word_oracles():
    yield from check_word_oracles()


def suite_entry_formulas():
    yield criterion_walk_entries()
    yield criterion_block_chains()
    yield criterion_aperiodicity()


def suite_closure_counts():
    yield criterion_catalan_counts()
    yield criterion_presentation()
    yield criterion_upper_profile()
    yield criterion_inclusions()
    yield criterion_table_products()
    yield criterion_packed_closure()


def suite_checker_equivalence():
    yield criterion_checker_equivalence()
    yield criterion_triangular_oracle()
    yield criterion_monogenic_variety()
    yield criterion_balanced_guard()
    yield criterion_exhaustive_kernel()
    yield criterion_batched_products()
    yield criterion_sampled_kernel()
    yield criterion_lattice_decision()
    yield criterion_hull_vs_sampled()
    yield criterion_embedding_forms()
    yield criterion_ut_walk()
    yield criterion_bruteforce_products()
    yield criterion_u_r_walk()


def suite_transfer_properties():
    yield criterion_transfer()
    yield criterion_transfer_n4()


SUITES = {
    "semiring-axioms": suite_semiring_axioms,
    "word-oracles": suite_word_oracles,
    "entry-formulas": suite_entry_formulas,
    "closure-counts": suite_closure_counts,
    "checker-equivalence": suite_checker_equivalence,
    "transfer-properties": suite_transfer_properties,
}


def run_suite(name: str) -> list:
    """The suite's ``(outcome, elapsed_s)`` pairs in order, ``elapsed_s``
    being the wall time that check took."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    results = []
    start = time.perf_counter()
    for outcome in SUITES[name]():
        now = time.perf_counter()
        results.append((outcome, now - start))
        start = now
    return results
