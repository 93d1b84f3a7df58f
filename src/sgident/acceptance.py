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
from itertools import islice, product as iproduct
from math import comb

import numpy as np

from .checker import (
    assert_balanced_guard,
    check_Un,
    check_Un_idempotent,
    check_UT,
    corpus,
)
from .errors import ClosureCapExceeded, InternalConsistencyError
from .matrices import (
    MorphismTable,
    SMatrix,
    block_chain_entry,
    coded_agreement,
    coded_images,
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
    Equivalent,
    NotEquivalent,
    NotFalsified,
    Variable,
    _by_supports,
    _by_tensor,
    _sampled,
    build_f_canonical,
    evaluate,
    functionally_equivalent,
)
from .semirings import (
    BOOL,
    DIAMOND,
    INF,
    INF_CODE,
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
        s: matrix_from_payloads(S, [[S.code_payload(c) for c in row] for row in a[t].tolist()])
        for s, a in images.items()
    })


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
    halves = SemiringDescriptor(
        "halves", max, min, 0, 1,
        idempotent=True, interval=True, carrier=FiniteCarrier((0, Fraction(1, 2), 1)),
    )
    gen = SplitMix64(seed)
    mismatched = []
    compared = disagreeing = saturated = 0
    widest = 0
    for S in (BOOL, DIAMOND, halves, MINPLUS01INF, INTERVAL01):
        for n in range(2, 6):
            for ident in idents:
                letters = ident.alphabet
                draws = [random_reflexive_codes(S, n, letters, trials, gen)]
                if S is MINPLUS01INF:
                    plain = S.draw_codes(gen, (trials, len(letters), n, n))
                    draws.append({s: plain[:, i] for i, s in enumerate(letters)})
                for images in draws:
                    tables = [_decoded(S, images, t) for t in range(trials)]
                    reference = {}
                    for word in (ident.lhs, ident.rhs):
                        got = coded_images(S, images, word)
                        weight = 1 if S.is_finite else S.weight(S.carrier.codes.scale, len(word))
                        reference[word] = [phi.apply(word) for phi in tables]
                        for image, codes in zip(reference[word], got.tolist()):
                            # the instance's codes of the true payloads, times
                            # the word's weight over a scaled instance
                            want = [
                                [S.tables.code[p] if S.is_finite
                                 else INF_CODE if p == INF else p * weight for p in row]
                                for row in image.rows
                            ]
                            flat = [x for row in codes for x in row]
                            saturated += flat.count(INF_CODE) if S is MINPLUS01INF else 0
                            widest = max([widest] + [x.bit_length() for x in flat])
                            if any(type(x) is not int for x in flat):
                                mismatched.append(f"{S.name} n={n} {word} not ints")
                            compared += 1
                            if codes != want:
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


def criterion_sampled_kernel(pairs: int = 60, seed: int = 1717) -> CheckOutcome:
    """Batched sampled equivalence against a per-assignment loop: the same
    NotFalsified count, or the same witness with the same values on both
    sides (compared by repr too, which tells apart payloads such as True and
    1).  Inputs at budget 256: every corpus identity against each of its
    letters, where the tropical instances at times separate only at sample 8
    or later, and ``pairs`` seeded corpus pairs per instance with u of length
    at most 2, which are often not falsified.  Then Adjan's identity at
    budget 4096."""
    start = time.perf_counter()
    rng = random.Random(seed)
    idents = [ident for ident in corpus() if ident.lhs != ident.rhs]
    cases = []
    for S in (NAT, MAXPLUS, MINPLUS01INF, INTERVAL01):
        for k, ident in enumerate(idents):
            cases += [(S, u, ident, 256, k) for u in sorted(set(ident.lhs + ident.rhs))]
        for k in range(pairs):
            ident = rng.choice(idents)
            u = rng.choice(sorted(
                {""} | subword_set(ident.lhs, 2) | subword_set(ident.rhs, 2)
            ))
            cases.append((S, u, ident, 256, k))
    adjan = Identity("xyyxxyxyyx", "xyyxyxxyyx")
    for S in (MINPLUS01INF, INTERVAL01):
        cases += [(S, u, adjan, 4096, 0) for u in ("x", "y")]
    mismatched = []
    separated = late = 0
    for S, u, ident, budget, case_seed in cases:
        p, q = build_f_canonical(u, ident.lhs), build_f_canonical(u, ident.rhs)
        universe = sorted(set(p.variables()) | set(q.variables()))
        got = _sampled(p, q, S, universe, budget, case_seed)
        want, index = _sampled_one_at_a_time(p, q, S, universe, budget, case_seed)
        separated += index is not None
        late += index is not None and index >= 8
        if got != want or repr(got) != repr(want):
            mismatched.append(f"{S.name} u={u!r} {ident}")
    elapsed = time.perf_counter() - start
    unfalsified = len(cases) - separated
    ok = not mismatched and late and unfalsified and elapsed < 60.0
    return _outcome(
        "sampled-vs-assignment-loop",
        ok,
        f"{len(cases)} polynomial pairs (corpus pairs at budget 256 over nat, "
        f"maxplus, minplus01inf and interval01; Adjan's identity at budget 4096 "
        f"over minplus01inf and interval01), {separated} separated, {late} of them "
        f"at sample 8 or later, {unfalsified} not falsified; {len(mismatched)} "
        f"mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
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
            cases += [(S, u, p, q, universe) for p, q in pairs if p.cap() != q.cap()]
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
        f"capped forms, over {', '.join(S.name for S in instances)}; u = aaa of "
        f"{law} over bool, 2^{len(over_cap)} assignments), {separated} separated; "
        f"{len(mismatched)} mismatches {mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
    )


# -- criterion 19 ----------------------------------------------------------------


def _closure_run(build) -> str:
    """The rows, witness words and Cayley rows a closure gives, or those of
    the partial it raises at its cap, with the cap message; as a repr, so
    payload and index types must agree too."""
    try:
        M, raised = build(), None
    except ClosureCapExceeded as error:
        M, raised = error.partial, str(error)
    return repr((raised, [m.rows for m in M.elements], M.witness_words, M.cayley_right))


def criterion_packed_closure(seed: int = 1919) -> CheckOutcome:
    """The packed Boolean BFS against one product per (element, generator)
    pair: every generated Boolean family up to its default bound, catalanU(8),
    whose keys use all eight bytes, and seeded random generator sets at
    n = 1..8 with 1 to 3 generators each, all in full; and the partials at
    caps 1, on a level boundary and inside a level of oneWayGossip(4) and
    catalanU(8)."""
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
    for label, M in (("oneWayGossip(4)", family("oneWayGossip", 4)), ("catalanU(8)", catalan8)):
        levels = np.bincount([len(w) for w in M.witness_words])
        middle = len(levels) // 2
        boundary = int(levels[: middle + 1].sum())
        for cap in (1, boundary, boundary + int(levels[middle + 1]) // 2):
            cases.append((f"{label} cap {cap}", M.generators, cap))
    mismatched = []
    for label, gens, cap in cases:
        packed = _closure_run(lambda: bfs_closure(gens, element_cap=cap))
        if packed != _closure_run(lambda: _bfs_products(list(gens), cap, (), None)):
            mismatched.append(label)
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 60.0
    return _outcome(
        "packed-vs-products",
        ok,
        f"{len(cases)} Boolean closures and capped partials, elements, words and "
        f"Cayley rows equal to one product at a time; {len(mismatched)} mismatches "
        f"{mismatched[:3]}, {elapsed:.1f}s (limit 60s)",
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
