"""The three workloads as fixed, seeded lists of operations.

A workload is a number of rounds.  Every round holds the same operations
in the same order with the same shapes (word lengths, alphabet sizes,
exponents, n, instance); the seed fills in the letters, the arrangement of
the trivial identities and the outer letters p, r of some p q^e r.  A run's
make-up and cost therefore do not depend on the seed while its inputs do,
and every operation stays within the program's exhaustive cap.

Each operation has a ``run`` callable, which is what gets timed, and a
``capture`` callable that turns its output into the plain data the
reference checks read.  ``check`` judges the captured output.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from sgident import checker, monoids
from sgident.matrices import format_matrix
from sgident.semirings import semiring_from_spec
from sgident.words import Identity

import reference

WORKLOADS = ("decide-finite", "decide-interval", "closure-oracle")

# seconds of work one round takes on the reference host; --seconds is turned
# into a whole number of rounds with these, never into a time box
ROUND_SECONDS = {"decide-finite": 7.5, "decide-interval": 14.0, "closure-oracle": 7.0}


@dataclass
class Op:
    kind: str
    label: str
    run: Callable  # run(tracer) -> output; this is what is timed
    capture: Callable = lambda output: output  # output -> data for the check
    check: Callable = None  # data -> list of problems
    release: Callable = None  # drops what the round kept alive, after capture
    data: object = None
    problems: list = field(default_factory=list)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, seconds: float) -> list:
    makers = {
        "decide-finite": _finite_round,
        "decide-interval": _interval_round,
        "closure-oracle": _closure_round,
    }
    ops = []
    for r in range(rounds_for(workload, seconds)):
        round_ops = makers[workload](random.Random(f"{workload}/{seed}/{r}"), r)
        if workload != "closure-oracle":
            # one interleaving for every seed, so each kind of operation
            # samples the whole run and the memory peak falls at one place
            random.Random(f"{workload}/order/{r}").shuffle(round_ops)
        ops.extend(round_ops)
    return ops


# -- words ---------------------------------------------------------------------------------


def _letters(rng, k: int) -> str:
    return "".join(rng.sample("abcdefghij", k))


def _arrangement(rng, multiset: str) -> str:
    return "".join(rng.sample(multiset, len(multiset)))


def _power_pair(rng, q: str, e: int, f: int, ends: str = "") -> tuple:
    """p q^e r = p q^f r with p and r single letters of q (fixed by ``ends``
    when given)."""
    p, r = ends if ends else (rng.choice(q), rng.choice(q))
    return p + q * e + r, p + q * f + r


# -- decide-finite and decide-interval --------------------------------------------------


def _decide(monoid: str, spec: str, n: int, w: str, v: str, kind: str) -> Op:
    S = semiring_from_spec(spec)
    ident = Identity(w, v)

    def run(tracer):
        report = checker.run_check(monoid, ident, n, S)
        with tracer.span("checker.report") if tracer else nullcontext():
            return json.dumps(report.to_dict(), indent=2, sort_keys=True)

    return Op(
        kind,
        f"{monoid} n={n} {spec} {w}={v}",
        run,
        check=lambda text: reference.check_report(text, monoid, spec, n, w, v),
    )


# Law instances p q^e r = p q^(e+1) r, e >= n, as (instance, n, q, e): q is a
# pattern over s, t, u, v that the seed fills with letters, p and r its first
# and last letters.  Their costs form an even ladder from about 40 to 650 ms
# (README), so the run's median sits on a slope and moves in proportion when
# the host slows part of a run, instead of jumping between two plateaus.
LAWS = (
    ("lattice:diamond", 3, "st", 3), ("lattice:diamond", 3, "st", 4),
    ("lattice:diamond", 3, "st", 5), ("lattice:diamond", 3, "sst", 3),
    ("lattice:diamond", 3, "sts", 4), ("lattice:diamond", 3, "stt", 5),
    ("bool", 3, "stu", 5), ("bool", 3, "stu", 6),
    ("bool", 3, "stuv", 3), ("bool", 3, "stuv", 4), ("bool", 3, "stuv", 5),
    ("bool", 4, "st", 4), ("bool", 4, "st", 5),
    ("bool", 4, "sst", 4), ("bool", 4, "sts", 5),
    ("bool", 4, "stu", 4), ("lattice:diamond", 4, "st", 4),
)


def _law(rng, pattern: str, e: int) -> tuple:
    letters = dict(zip("stuv", _letters(rng, 4)))
    q = "".join(letters[c] for c in pattern)
    return _power_pair(rng, q, e, e + 1, q[0] + q[-1])


def _finite_round(rng, index) -> list:
    """Checks of UT_n and U_n over finite carriers, settled by exhaustive
    evaluation.  Law instances p q^e r = p q^(e+1) r with e >= n hold in UT_n
    over bool and the diamond lattice.  p q^(n-1) r = p q^n r is Simon
    (n-1)-congruent but fails in UT_n(bool) at a u of length n-1;
    p q^3 r = p q^6 r holds in U_3(nat:2,3) and fails in U_4(nat:2,3) only at
    length 3; q^2 t q^3 = q^3 t q^2 is Simon 2-congruent and fails in
    U_3(nat:2,3), so in UT_3 too, at length 2.  The trivial w=w checks at
    n = 5, 6 walk every candidate u."""
    ops = []
    for spec, n, pattern, e in LAWS:
        w, v = _law(rng, pattern, e)
        ops.append(_decide("ut", spec, n, w, v, "law-ut"))
    ops.append(_decide("u", "bool", 4, *_law(rng, "stu", 4), "law-u"))
    ops.append(_decide("u", "lattice:diamond", 3, *_law(rng, "stu", 3), "law-u"))
    q = _letters(rng, 2)
    ops.append(_decide("ut", "bool", 3, *_power_pair(rng, q, 2, 3, q[0] + q[-1]), "simon-pair"))
    q = _letters(rng, 3)
    ops.append(_decide("ut", "bool", 4, *_power_pair(rng, q, 3, 4, q[0] + q[-1]), "simon-pair"))
    q = _letters(rng, 2)
    ops.append(_decide("u", "nat:2,3", 4, *_power_pair(rng, q, 3, 6), "simon-pair"))
    q = _letters(rng, 2)
    ops.append(_decide("u", "nat:2,3", 3, *_power_pair(rng, q, 3, 6), "simon-pair"))
    q = _letters(rng, 2)
    t = rng.choice(q)
    ops.append(_decide("ut", "nat:2,3", 3, q * 2 + t + q * 3, q * 3 + t + q * 2, "simon-pair"))
    for n in (5, 6):
        alphabet = _letters(rng, n)
        w = alphabet + _arrangement(rng, alphabet)
        ops.append(_decide("ut", "bool", n, w, w, "trivial"))
    return ops


def _adjan(x: str, y: str) -> tuple:
    return tuple(
        "".join(x if c == "x" else y for c in side) for side in reference.ADJAN
    )


def _interval_round(rng, index) -> list:
    """Checks over the lossy-gossip instances.  Holds verdicts q^e = q^f in
    R_3 (e >= 2) and q^3 = q^4 in R_4 run the program's 1000-morphism
    spot-check; their word lengths make a ladder of costs around the median.
    UT_2 checks of Adjan's identity (letters renamed) sample 4096 assignments
    per u and come back undetermined.  A U_4 check and a failing R_3 check
    are the quick operations."""
    ops = []
    for spec, e, f in (
        ("interval01", 2, 3), ("interval01", 2, 4), ("interval01", 3, 4),
        ("minplus01inf", 2, 3), ("minplus01inf", 2, 4),
    ):
        q = _letters(rng, 2)
        ops.append(_decide("r", spec, 3, q * e, q * f, "r-holds"))
    for spec in ("interval01", "minplus01inf"):
        x, y = _letters(rng, 2)
        ops.append(_decide("ut", spec, 2, *_adjan(x, y), "adjan-ut2"))
    q = _letters(rng, 2)
    ops.append(_decide("r", "interval01", 4, q * 3, q * 4, "r-holds"))
    spec = ("minplus01inf", "interval01")[index % 2]
    q = _letters(rng, 2)
    ops.append(_decide("u", spec, 4, *_power_pair(rng, q, 2, 3), "u-quick"))
    q = _letters(rng, 3)
    ops.append(_decide("r", spec, 3, *_power_pair(rng, q, 1, 2, q[0] + q[-1]), "r-fails"))
    return ops


# -- closure-oracle ------------------------------------------------------------------------

MINPLUS_SAMPLE = ("0", "1", "8")  # minplus01inf's default weight sample, as text

FAMILIES = (
    ("catalanU", 6, "bool"),
    ("doubleCatalan", 4, "bool"),
    ("gossip", 3, "bool"),
    ("gossip", 4, "bool"),
    ("oneWayGossip", 3, "bool"),
    ("gossip_S", 3, "minplus01inf"),
)


def _closure_capture(name, n, spec):
    def capture(M):
        return {
            "family": name,
            "n": n,
            "spec": spec,
            "sample": [reference.Arith(spec).parse(t) for t in MINPLUS_SAMPLE]
            if name.endswith("_S") else [],
            "elements": [format_matrix(m) for m in M.elements],
            "generators": [format_matrix(g) for g in M.generators],
            "words": [list(word) for word in M.witness_words],
        }

    return capture


def _closure_round(rng, index) -> list:
    """The closures of the named families with their multiplication tables,
    the larger oneWayGossip(4) closure without one, and the exhaustive
    brute-force oracle over identities on both sides of Simon (n-1)-congruence:
    p q^e r = p q^f r with e, f >= n-1 is congruent, and with e = n-2 and p, r
    the first and last letters of q mostly is not.  The brute-force
    checks, the median operation, sit in four blocks between the expensive
    tables so that they sample the whole round."""
    built = {}
    for name, n, spec in FAMILIES:
        S = semiring_from_spec(spec) if name.endswith("_S") else None
        holder = {}

        def run_closure(tracer, name=name, n=n, S=S, holder=holder):
            holder["M"] = monoids.family(name, n, S)
            return holder["M"]

        def run_table(tracer, holder=holder):
            return holder["M"].mult_table()

        closure = Op("closure", f"{name}({n})", run_closure,
                     capture=_closure_capture(name, n, spec), check=reference.check_closure)
        table = Op("table", f"{name}({n}) table", run_table,
                   check=lambda table, closure=closure: reference.check_table(closure.data, table))
        built[(name, n)] = (holder, closure, table)

    def build_family(name, n):
        return list(built[(name, n)][1:])

    # exponents of p q^e r = p q^f r as offsets from n: with e >= n-1 the
    # sides are Simon (n-1)-congruent, with e = n-2 and p, r the first and
    # last letters of q they mostly are not; the word lengths vary so the
    # brute-force times form a ladder
    pairs = ((-1, 0), (-2, -1), (-1, 1), (-2, 0), (0, 1), (-2, -1), (-1, 0), (-2, 0))

    def bruteforce(name, n, letters, count):
        holder, closure, _ = built[(name, n)]
        ops = []
        for de, df in pairs[:count]:
            q = _letters(rng, letters)
            ends = "" if de >= -1 else q[0] + q[-1]
            w, v = _power_pair(rng, q, max(n + de, 1), n + df, ends)
            ops.append(_bruteforce(holder, closure, (name, n), w, v))
        return ops

    def run_big(tracer):
        return monoids.family("oneWayGossip", 4)

    big = Op("closure", "oneWayGossip(4)", run_big,
             capture=_closure_capture("oneWayGossip", 4, "bool"), check=reference.check_closure)

    owg3 = bruteforce("oneWayGossip", 3, 2, 4)
    g4 = bruteforce("gossip", 4, 2, 8)
    gs3 = bruteforce("gossip_S", 3, 2, 8)
    ops = (
        build_family("gossip", 3) + build_family("doubleCatalan", 4)
        + build_family("oneWayGossip", 3) + build_family("gossip", 4)
        + bruteforce("gossip", 3, 3, 2) + owg3[:2] + g4[:4]
        + build_family("catalanU", 6)
        + owg3[2:] + g4[4:] + bruteforce("catalanU", 6, 2, 2)
        + build_family("gossip_S", 3) + gs3[:4]
        + [big]
        + gs3[4:]
    )

    def release():
        for holder, _, _ in built.values():
            holder.clear()

    ops[-1].release = release
    return ops


def _bruteforce(holder, closure, key, w, v) -> Op:
    ident = Identity(w, v)

    def run(tracer):
        return monoids.brute_force_identity(ident, holder["M"])

    def capture(result):
        if isinstance(result, monoids.BruteForceHolds):
            return {"holds": result.assignments_checked}
        return {
            "fails": dict(result.assignment),
            "matrices": {ch: format_matrix(m) for ch, m in result.matrices.items()},
        }

    return Op("bruteforce", f"{key[0]}({key[1]}) {w}={v}", run, capture=capture,
              check=lambda data: reference.check_bruteforce(closure.data, w, v, data))
