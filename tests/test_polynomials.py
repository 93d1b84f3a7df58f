import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import ALL_INSTANCES
from sgident import checker, polynomials
from sgident.acceptance import _sampled_one_at_a_time, enumerated_f
from sgident.errors import AlgebraError, InternalConsistencyError
from sgident.checker import check_UT
from sgident.polynomials import (
    EmbeddingForms,
    Equivalent,
    FormalPolynomial,
    NotEquivalent,
    NotFalsified,
    Variable,
    ZERO_POLYNOMIAL,
    _eval_codes,
    _sampled,
    build_f,
    build_f_canonical,
    evaluate,
    functionally_equivalent,
)
from sgident.semirings import (
    BOOL,
    DIAMOND,
    INTERVAL01,
    MAXPLUS,
    MINPLUS01INF,
    NAT,
    NEG_INF,
    Cyclic,
    FiniteCarrier,
    SemiringDescriptor,
    Val,
    semiring_from_spec,
)
from sgident.words import Identity, scattered_multiplicity, words_up_to


def poly(*monomials):
    return FormalPolynomial.from_monomials(monomials)


def mono(*pairs):
    return tuple(sorted((Variable(s, i), e) for s, i, e in pairs))


def test_build_f_empty_word_is_the_content_monomial():
    p = build_f_canonical("", "aab")
    assert p == poly(mono(("a", 1, 2), ("b", 1, 1)))
    assert p.render() == "x(a,1)^2*x(b,1)"


def test_build_f_tight_embedding_is_the_constant_one():
    p = build_f_canonical("ab", "ab")
    assert p == poly(())
    assert p.render() == "1"


def test_build_f_two_embeddings():
    p = build_f_canonical("a", "aa")
    assert p == poly(mono(("a", 1, 1)), mono(("a", 2, 1)))
    assert p.render() == "x(a,1) + x(a,2)"


def test_build_f_zero_iff_not_a_subword():
    assert build_f_canonical("ab", "aab").is_zero() is False
    assert build_f_canonical("ba", "aab").is_zero() is True
    for w in words_up_to("ab", 6):
        for u in words_up_to("ab", 3):
            assert build_f_canonical(u, w).is_zero() == (
                scattered_multiplicity(u, w) == 0
            )


def test_one_monomial_per_embedding():
    # distinct embeddings give distinct monomials, so f_{u,w} has as many as
    # u has embeddings in w; scattered_multiplicity counts them by a
    # recurrence over w that shares no code with the forms
    rng = random.Random(24)
    words = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 10))) for _ in range(60)]
    for w in words:
        for u in words_up_to("abc", 3, include_empty=True):
            assert len(build_f_canonical(u, w).terms) == scattered_multiplicity(u, w), (u, w)


def test_build_f_path_validation():
    with pytest.raises(ValueError):
        build_f("ab", (1, 2), "abab", 4)  # wrong path length
    with pytest.raises(ValueError):
        build_f("ab", (2, 2, 3), "abab", 4)  # not strictly increasing
    with pytest.raises(ValueError):
        build_f("ab", (1, 2, 5), "abab", 4)  # vertex out of range
    with pytest.raises(ValueError):
        build_f("abab", (1, 2, 3, 4, 5), "abab", 4)  # u too long for n


def test_build_f_paths_only_relabel_variables():
    w = "abab"
    for u in ("a", "ab", "ba"):
        canonical = enumerated_f(u, tuple(range(1, len(u) + 2)), w)
        rho = tuple(v + 2 for v in range(1, len(u) + 2))
        relabeled = {
            tuple(sorted((Variable(var.letter, var.vertex + 2), e) for var, e in m)): c
            for m, c in canonical.items()
        }
        assert enumerated_f(u, rho, w) == relabeled
        assert build_f(u, rho, w, 8) == poly(*relabeled)


def packed(alphabet, width, *pairs):
    """An exponent vector as EmbeddingForms packs it, from (letter, vertex,
    exponent) triples."""
    rank = sorted(alphabet).index
    return sum(e << width * ((v - 1) * len(alphabet) + rank(s)) for s, v, e in pairs)


def test_embedding_forms_of_the_empty_word_is_the_content_monomial():
    forms = EmbeddingForms("aab", "ab", 3)
    assert forms.width == 2
    assert forms.form("") == {packed("ab", 2, ("a", 1, 2), ("b", 1, 1))}


def test_embedding_forms_of_a_non_subword_is_none():
    forms = EmbeddingForms("aab", "ab", 3)
    assert forms.form("ba") is None and forms.form("bb") is None
    assert EmbeddingForms("ab", "ab", 3).form("ab") == {packed("ab", 2)}  # the constant 1
    with pytest.raises(ValueError):
        forms.form("aab")  # too long for n = 3


def test_embedding_forms_two_embeddings_give_two_vectors():
    # x(a,1) + x(a,2), as build_f_canonical("a", "aa") has it
    assert EmbeddingForms("aa", "a", 2).form("a") == {
        packed("a", 2, ("a", 2, 1)), packed("a", 2, ("a", 1, 1)),
    }


def test_embedding_forms_are_the_polynomials():
    # an embedding's segment lengths fix its positions, so no two embeddings
    # give one monomial: every coefficient is 1 and the form is all there is
    for w in words_up_to("ab", 6):
        forms = EmbeddingForms(w, "ab", 4, width=3)
        for u in words_up_to("ab", 3, include_empty=True):
            counts = enumerated_f(u, tuple(range(1, len(u) + 2)), w)
            assert set(counts.values()) <= {1}
            want = {
                packed("ab", 3, *((var.letter, var.vertex, e) for var, e in m)) for m in counts
            }
            assert forms.form(u) == (want or None)
            assert forms.polynomial(forms.form(u), len(u)) == build_f_canonical(u, w) == poly(*counts)
    with pytest.raises(ValueError):
        EmbeddingForms("aabb", "ab", 3, width=2)  # 4 does not fit in 2 bits
    with pytest.raises(ValueError, match="'c'"):
        EmbeddingForms("abc", "ab", 3)  # c has no field


def test_failing_ut_check_builds_no_rows_past_its_first_failing_u(monkeypatch):
    asked, built = [], []

    class Recording(EmbeddingForms):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(0)
            self.index = len(built) - 1

        def child(self, row, last, length):
            out = super().child(row, last, length)
            built[self.index] += out is not None
            return out

        def form(self, u):
            asked.append(u)
            return super().form(u)

    monkeypatch.setattr(checker, "EmbeddingForms", Recording)
    # p q^2 r = p q^3 r is Simon 2-congruent and fails in UT_3(bool) at a u
    # of length 2
    verdict = check_UT(Identity.parse("aababb=aabababb"), 3, BOOL)
    assert verdict.is_fails and len(verdict.distinguishing_u) == 2
    order = words_up_to("ab", 2, include_empty=True)
    last = order.index(verdict.distinguishing_u)
    # the u up to the failing one are compared in order, their forms read off
    # the walk's rows, not asked for again
    assert [e["u"] for e in verdict.evidence] == order[: last + 1]
    assert asked == []
    # one row per non-empty u up to the failing one, in each side, and none
    # past it: each of those u embeds in both sides
    assert built == [last, last]


def test_evaluate_examples():
    assert evaluate(ZERO_POLYNOMIAL, {}, BOOL) == BOOL.zero
    square = poly(mono(("a", 1, 2)))
    assert evaluate(square, {Variable("a", 1): MAXPLUS.val(3)}, MAXPLUS) == MAXPLUS.val(6)
    two_terms = poly(mono(("a", 1, 1)), mono(("a", 2, 1)))
    assignment = {Variable("a", 1): BOOL.one, Variable("a", 2): BOOL.one}
    assert evaluate(two_terms, assignment, BOOL) == BOOL.one


def test_evaluate_missing_binding():
    p = poly(mono(("a", 1, 1)))
    with pytest.raises(AlgebraError):
        evaluate(p, {}, BOOL)


def test_counting_interpretation_over_naturals():
    ones = {
        Variable(s, v): NAT.val(1) for s in "ab" for v in range(1, 5)
    }
    for w in words_up_to("ab", 8)[:120]:
        for u in words_up_to("ab", 3):
            p = build_f_canonical(u, w)
            needed = {var: ones[var] for var in p.variables()}
            assert evaluate(p, needed, NAT) == NAT.val(scattered_multiplicity(u, w))


def test_identical_forms_are_equivalent_for_any_instance():
    p = build_f_canonical("ab", "abab")
    for S in ALL_INSTANCES.values():
        assert isinstance(functionally_equivalent(p, p, S), Equivalent)


def test_boolean_exhaustive_equivalence():
    x = poly(mono(("a", 1, 1)))
    x_squared = poly(mono(("a", 1, 2)))
    result = functionally_equivalent(x, x_squared, BOOL)
    assert isinstance(result, Equivalent) and result.method == "exhaustive"


def test_boolean_inequivalence_yields_lexicographically_first_witness():
    x = poly(mono(("a", 1, 1)))
    y = poly(mono(("b", 1, 1)))
    result = functionally_equivalent(x, y, BOOL)
    assert isinstance(result, NotEquivalent)
    # carrier order is (0, 1): the first distinguishing assignment is a=0, b=1
    assert result.witness[Variable("a", 1)] == BOOL.zero
    assert result.witness[Variable("b", 1)] == BOOL.one


def test_first_witness_follows_the_order_of_the_variables():
    # the first variable, x(a,1), varies slowest; a reversed order, or one
    # that moves x(b,1) before x(a,2), would first differ elsewhere
    a1, a2, b1 = Variable("a", 1), Variable("a", 2), Variable("b", 1)
    p = poly(((a1, 1),), ((b1, 1),))
    q = poly(((a2, 1),))
    result = functionally_equivalent(p, q, DIAMOND)
    assert isinstance(result, NotEquivalent)
    assert result.witness == {a1: DIAMOND.val(0), a2: DIAMOND.val(0), b1: DIAMOND.val(1)}
    assert (result.lhs_value, result.rhs_value) == (DIAMOND.val(1), DIAMOND.val(0))


@pytest.mark.parametrize("spec", ["bool", "lattice:diamond", "nat:2,3", "nat:10,10"])
def test_coded_values_match_evaluate_at_every_assignment(spec):
    # x*y^3 and x^3*y coincide as functions over nat:2,3, where they must still
    # be added twice; nat:10,10 has 20 elements, so flat indices a * 20 + b
    # outgrow a byte
    S = semiring_from_spec(spec)
    x, y = Variable("a", 1), Variable("b", 1)
    p = poly(((x, 1), (y, 3)), ((x, 3), (y, 1)), ((x, 2),), ())
    tables = S.tables
    axis = np.arange(tables.size, dtype=np.uint8)
    codes = _eval_codes(p, {x: axis[:, None], y: axis[None, :]}, S)
    for i, a in enumerate(S.carrier.values):
        for j, b in enumerate(S.carrier.values):
            expected = evaluate(p, {x: S.val(a), y: S.val(b)}, S)
            assert S.val(tables.payloads[codes[i, j]]) == expected


def test_finite_tables_follow_the_descriptor_not_its_name():
    # a four-element lattice under the name of the builtin Boolean instance
    lattice = SemiringDescriptor(
        "bool", lambda a, b: a | b, lambda a, b: a & b, 0, 3,
        idempotent=True, interval=True, carrier=FiniteCarrier((0, 1, 2, 3)),
    )
    assert (lattice.tables.size, BOOL.tables.size) == (4, 2)
    p = poly(mono(("a", 1, 1)), mono(("b", 1, 1)))
    one = poly(())
    on_bool = functionally_equivalent(p, one, BOOL)
    assert on_bool.rhs_value == BOOL.one
    on_lattice = functionally_equivalent(p, one, lattice)
    assert isinstance(on_lattice, NotEquivalent)
    assert on_lattice.rhs_value == Val("bool", 3)


def test_tropical_absorption_is_not_falsified():
    # x^2 + x + 1 and x^2 + 1 define the same max-plus function: x can never
    # exceed both x^2 and 1, since the exponent 1 is the midpoint of 0 and 2
    v = Variable("a", 1)
    with_middle = poly((), ((v, 1),), ((v, 2),))
    without = poly((), ((v, 2),))
    for S in (MAXPLUS, MINPLUS01INF, INTERVAL01):
        assert functionally_equivalent(with_middle, without, S, budget=512) == Equivalent("hull")
    # the same arithmetic without a declared tropical shape is only sampled
    undeclared = SemiringDescriptor(
        "maxplus", max, MAXPLUS._mul, NEG_INF, 0, idempotent=True, interval=False,
        carrier=MAXPLUS.carrier, monogenic=Cyclic(1, 1),
    )
    assert undeclared.tropical is None
    result = functionally_equivalent(with_middle, without, undeclared, budget=512)
    assert result == NotFalsified(512)


def test_hull_decisions_over_the_tropical_instances():
    v, w = Variable("a", 1), Variable("b", 1)
    x, x2, one = ((v, 1),), ((v, 2),), ()
    cases = (
        # x over [0, inf] min-plus is min(x, 2x), and over [0, 1] max(x, x^2):
        # the orthant covers 2x beyond x, but max-plus x^2 exceeds x at x = 1
        (poly(x), poly(x, x2), (False, True, True)),
        # 1 + x^2 is not x where x is the zero element, under any of them
        (poly(one, x2), poly(x), (False, False, False)),
        # x*y needs both variables; x + y is never x*y
        (poly(((v, 1), (w, 1))), poly(x, ((w, 1),)), (False, False, False)),
        # the zero polynomial against a constant
        (ZERO_POLYNOMIAL, poly(one), (False, False, False)),
    )
    for p, q, expected in cases:
        for S, equal in zip((MAXPLUS, MINPLUS01INF, INTERVAL01), expected):
            result, again = (functionally_equivalent(p, q, S, budget=budget) for budget in (0, 64))
            # the budget plays no part: the witness comes from the separating direction
            assert_same_result(again, result)
            if equal:
                assert result == Equivalent("hull")
                continue
            assert isinstance(result, NotEquivalent)
            assert result.lhs_value != result.rhs_value
            assert evaluate(p, result.witness, S) == result.lhs_value
            assert evaluate(q, result.witness, S) == result.rhs_value


def test_hull_witness_from_the_separating_direction():
    v, w = Variable("a", 1), Variable("b", 1)
    # x*y is the midpoint of x^2 and y^2, so it never exceeds both
    square_sum = poly(((v, 2),), ((w, 2),))
    both = poly(((v, 2),), ((w, 2),), ((v, 1), (w, 1)))
    assert functionally_equivalent(both, square_sum, MAXPLUS) == Equivalent("hull")
    # x^2 has no monomial of x*y within its support: x = 0 and y = -inf
    product = poly(((v, 1), (w, 1)))
    result = functionally_equivalent(square_sum, product, MAXPLUS, budget=0)
    assert result == NotEquivalent(
        {v: MAXPLUS.val(0), w: MAXPLUS.zero}, MAXPLUS.val(0), MAXPLUS.zero
    )
    # (1, 2) lies off the segment from (2, 1) to (0, 2): a linear program
    # finds the direction, and the witness takes coprime integers on it
    off = poly(((v, 1), (w, 2)), ((v, 2), (w, 1)), ((w, 2),))
    segment = poly(((v, 2), (w, 1)), ((w, 2),))
    result = functionally_equivalent(off, segment, MAXPLUS, budget=0)
    assert isinstance(result, NotEquivalent)
    coordinates = [val.payload for val in result.witness.values()]
    assert all(isinstance(c, int) for c in coordinates) and math.gcd(*coordinates) == 1
    # over interval01 the witness is 2^-y on the support, 0 elsewhere
    x_only = poly(((v, 1),))
    result = functionally_equivalent(x_only, poly(((v, 2),)), INTERVAL01, budget=0)
    assert result.witness[v] == INTERVAL01.val(F(1, 2))
    result = functionally_equivalent(x_only, poly(((w, 1),)), INTERVAL01, budget=0)
    assert result.witness == {v: INTERVAL01.val(1), w: INTERVAL01.val(0)}


def _tableau_value(A, b, x):
    return all(sum(a * c for a, c in zip(row, x)) == r for row, r in zip(A, b))


def _farkas(A, b, y):
    columns = zip(*A) if A and A[0] else ()
    return all(sum(c * yi for c, yi in zip(col, y)) <= 0 for col in columns) and (
        sum(bi * yi for bi, yi in zip(b, y)) > 0
    )


def test_phase_one_on_degenerate_programs():
    feasible = (
        ([[1, 1], [1, 1]], [0, 0]),  # only x = 0, every pivot degenerate
        ([[1, 1, 0], [2, 2, 0], [0, 0, 1]], [1, 2, 0]),  # a redundant row
        ([[1, -1], [0, 0]], [0, 0]),  # a zero row and an unbounded ray
        ([[]], [0]),  # no columns at all
    )
    for A, b in feasible:
        x, y = polynomials.phase_one(A, b)
        assert y is None and all(c >= 0 for c in x) and _tableau_value(A, b, x)
    infeasible = (
        ([[1, 1], [1, 1]], [1, 2]),
        ([[1, -1], [-1, 1]], [1, 1]),
        ([[]], [1]),
    )
    for A, b in infeasible:
        x, y = polynomials.phase_one(A, b)
        assert x is None and _farkas(A, b, y)


# Chvatal's example (Linear Programming, 1983, p. 31), its first two rows
# doubled to integers: from the slack basis, the largest-coefficient rule
# with ties broken by the first row returns to that basis after six
# degenerate pivots
CYCLING = (
    [[1, -11, -5, 18, 2, 0, 0], [1, -3, -1, 2, 0, 2, 0], [1, 0, 0, 0, 0, 0, 1]],
    [0, 0, 1],
    [-10, 57, 9, 24, 0, 0, 0],
)


def test_blands_rule_finishes_where_the_largest_coefficient_cycles():
    A, b, c = CYCLING
    rows = [row + [r] for row, r in zip(A, b)]
    cost = c + [0]
    basis = [4, 5, 6]
    trial_rows = [[F(x) for x in row] for row in rows]
    trial_cost = [F(x) for x in cost]
    seen = []
    for _ in range(6):
        j = min(range(7), key=lambda k: (trial_cost[k], k))
        r = min((row[-1] / row[j], i) for i, row in enumerate(trial_rows) if row[j] > 0)[1]
        trial_rows[r] = [x / trial_rows[r][j] for x in trial_rows[r]]
        for row in [*trial_rows[:r], *trial_rows[r + 1 :], trial_cost]:
            row[:] = [x - row[j] * y for x, y in zip(row, trial_rows[r])]
        basis[r] = j
        seen.append(tuple(sorted(basis)))
    assert seen[-1] == (4, 5, 6) and len(set(seen)) == 6  # back where it began
    basis = [4, 5, 6]
    scale = polynomials._simplex(rows, cost, basis)
    # the optimum of 10*x1 - 57*x2 - 9*x3 - 24*x4 is 1, at x1 = x3 = 1
    assert F(cost[-1], scale) == 1
    x = [F(0)] * 7
    for row, j in zip(rows, basis):
        x[j] = F(row[-1], row[j])
    assert _tableau_value(A, b, x) and sum(a * v for a, v in zip(c, x)) == -1
    # as a feasibility question: the objective can reach 1, not 2
    for target, reachable in ((1, True), (2, False)):
        A_goal, b_goal = A + [[10, -57, -9, -24, 0, 0, 0]], b + [target]
        x, y = polynomials.phase_one(A_goal, b_goal)
        assert (x is not None) == reachable
        assert _tableau_value(A_goal, b_goal, x) if reachable else _farkas(A_goal, b_goal, y)


def test_tampered_certificates_are_rejected(monkeypatch):
    v, w = Variable("a", 1), Variable("b", 1)
    e = ((v, 1), (w, 1))
    f, g = ((v, 2),), ((w, 2),)
    half = F(1, 2)
    assert polynomials._certifies(e, {f: half, g: half}, False)
    tampered = (
        {f: half, g: F(1, 3)},  # weights do not sum to 1
        {f: F(3, 2), g: F(-1, 2)},  # a negative weight
        {f: F(1, 3), g: F(2, 3)},  # the wrong point
        {f: half, ((v, 2), (Variable("c", 1), 2)): half},  # support beyond e's
    )
    for weights in tampered:
        assert not polynomials._certifies(e, weights, False)
    # with the orthant a point below e certifies it, and one above does not
    assert polynomials._certifies(((v, 2),), {((v, 1),): F(1)}, True)
    assert not polynomials._certifies(((v, 1),), {((v, 2),): F(1)}, True)
    # a decision whose certificate does not check is an error, not a holds
    p, q = poly(e, f, g), poly(f, g)
    assert functionally_equivalent(p, q, MAXPLUS) == Equivalent("hull")
    original = polynomials._hull_point

    def skewed(e, others, orthant):
        weights, y = original(e, others, orthant)
        if weights is not None and len(weights) > 1:
            weights = {m: c * 2 for m, c in weights.items()}
        return weights, y

    monkeypatch.setattr(polynomials, "_hull_point", skewed)
    with pytest.raises(InternalConsistencyError, match="does not certify"):
        functionally_equivalent(p, q, MAXPLUS)


def test_phase_one_agrees_with_scipy_on_random_programs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(12)
    outcomes = set()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 4) for _ in range(m)]
        x, y = polynomials.phase_one(A, b)
        reference = optimize.linprog([0] * n, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert reference.status in (0, 2)
        assert (x is not None) == (reference.status == 0)
        if x is not None:
            assert all(c >= 0 for c in x) and _tableau_value(A, b, x)
        else:
            assert _farkas(A, b, y)
        outcomes.add(x is not None)
    assert outcomes == {True, False}


def test_hull_points_agree_with_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    variables = [Variable("a", 1), Variable("a", 2), Variable("b", 1)]
    outcomes = set()
    for _ in range(200):
        e = tuple((v, k) for v in variables if (k := rng.randrange(4)))
        others = sorted({
            tuple((v, k) for v in variables if (k := rng.randrange(4)))
            for _ in range(rng.randint(1, 5))
        })
        for orthant in (False, True):
            weights, y = polynomials._hull_point(e, others, orthant)
            exps = dict(e)
            near = [f for f in others if all(v in exps for v, _ in f)]
            if near:
                A = [[dict(f).get(v, 0) for f in near] for v in exps] + [[1] * len(near)]
                rhs = [exps[v] for v in exps] + [1]
                kind = {"A_ub": [row for row in A[:-1]], "b_ub": rhs[:-1]} if orthant else {}
                equalities = A[-1:] if orthant else A
                reference = optimize.linprog(
                    [0] * len(near), A_eq=equalities, b_eq=rhs[-len(equalities):],
                    bounds=(0, None), method="highs", **kind,
                ).status == 0
            else:
                reference = False
            assert (weights is not None) == reference
            if weights is not None:
                assert polynomials._certifies(e, weights, orthant)
            else:
                sign = 1 if orthant else -1
                value = sum(y[v] * k for v, k in e)
                for f in near:
                    assert sign * (sum(y[v] * k for v, k in f) - value) > 0
                assert not orthant or all(c >= 0 for c in y.values())
            outcomes.add(weights is not None)
    assert outcomes == {True, False}


def test_sampling_over_naturals_finds_a_witness():
    v = Variable("a", 1)
    x_squared = poly(((v, 2),))
    x = poly(((v, 1),))
    result = functionally_equivalent(x_squared, x, NAT)
    assert isinstance(result, NotEquivalent)
    assert result.lhs_value != result.rhs_value


def test_sampling_never_contradicts_exhaustion_over_bool():
    rng = random.Random(5)
    pool = words_up_to("ab", 5)
    for _ in range(40):
        w, v = rng.choice(pool), rng.choice(pool)
        u = rng.choice(("", "a", "b", "ab"))
        p, q = build_f_canonical(u, w), build_f_canonical(u, v)
        exhaustive = functionally_equivalent(p, q, BOOL)
        variables = sorted(set(p.variables()) | set(q.variables()))
        sampled = _sampled(p, q, BOOL, variables, 4096, seed=9)
        if isinstance(exhaustive, Equivalent):
            assert not isinstance(sampled, NotEquivalent)
        if isinstance(sampled, NotEquivalent):
            assert isinstance(exhaustive, NotEquivalent)


def assert_same_result(got, want):
    # repr tells apart payloads that compare equal, such as True and 1
    assert got == want and repr(got) == repr(want)


X, Y, Z = Variable("a", 1), Variable("a", 2), Variable("b", 1)
FACTORS = [Variable("c", i) for i in range(1, 25)]

# pairs that separate early on some seeds and late on others; the product of
# 24 variables is zero at most samples over nat, where everything else
# separates at once
SEPARATING_PAIRS = (
    (poly(((X, 1), (Y, 1)), ((Z, 1),)), poly(((Z, 1),))),
    (poly(((X, 1),), ((Y, 1),), ((Z, 1),)), poly(((X, 1),), ((Y, 1),))),
    (poly(((X, 2), (Y, 1))), poly(((X, 1), (Y, 2)))),
    (poly(tuple((v, 1) for v in FACTORS), ((Z, 1),)), poly(((Z, 1),))),
)

SAMPLED_INSTANCES = (
    "bool", "lattice:diamond", "nat:2,3", "nat", "maxplus", "minplus01inf", "interval01",
)


@pytest.mark.parametrize("spec", SAMPLED_INSTANCES)
def test_batched_sampling_matches_the_per_assignment_loop(spec):
    S = semiring_from_spec(spec)
    separated_at = set()
    for seed in range(40):
        for p, q in SEPARATING_PAIRS:
            universe = sorted(set(p.variables()) | set(q.variables()))
            want, index = _sampled_one_at_a_time(p, q, S, universe, 64, seed)
            assert_same_result(_sampled(p, q, S, universe, 64, seed), want)
            separated_at.add(index)
    # a witness at the first sample, and one past the first few chunks
    assert 0 in separated_at
    assert any(i is not None and i >= 8 for i in separated_at)
    rng = random.Random(spec)
    pool = words_up_to("ab", 6)
    for seed in range(30):
        u = rng.choice(("", "a", "b", "ab", "ba"))
        p, q = build_f_canonical(u, rng.choice(pool)), build_f_canonical(u, rng.choice(pool))
        universe = [Variable(s, i) for s in "ab" for i in range(1, len(u) + 2)]
        want, _ = _sampled_one_at_a_time(p, q, S, universe, 64, seed)
        assert_same_result(_sampled(p, q, S, universe, 64, seed), want)


@pytest.mark.parametrize("spec", SAMPLED_INSTANCES)
def test_batched_sampling_edge_cases(spec):
    S = semiring_from_spec(spec)
    one, x = poly(()), poly(((X, 1),))
    cases = (
        # an empty variable universe: constants, compared at the first sample
        (one, ZERO_POLYNOMIAL, []),
        (ZERO_POLYNOMIAL, ZERO_POLYNOMIAL, []),
        # the zero polynomial against a variable, and against itself
        (ZERO_POLYNOMIAL, x, [X]),
        (ZERO_POLYNOMIAL, ZERO_POLYNOMIAL, [X, Y]),
    )
    for p, q, universe in cases:
        for budget in (0, 1, 100):
            want, _ = _sampled_one_at_a_time(p, q, S, universe, budget, 3)
            assert_same_result(_sampled(p, q, S, universe, budget, 3), want)
    assert _sampled(x, ZERO_POLYNOMIAL, S, [X], 0, 3) == NotFalsified(0)


@pytest.mark.parametrize("spec", ["interval01", "minplus01inf", "maxplus", "nat"])
def test_sampling_compares_terms_of_different_degrees(spec):
    # x + x^2 is x over [0, 1] under max-times and under min-plus
    S = semiring_from_spec(spec)
    x = poly(((X, 1),))
    with_square = poly(((X, 1),), ((X, 2),))
    square_and_one = poly(((X, 2),), ())
    for p, q in ((x, with_square), (x, square_and_one), (with_square, square_and_one)):
        want, _ = _sampled_one_at_a_time(p, q, S, [X], 512, 5)
        assert_same_result(_sampled(p, q, S, [X], 512, 5), want)
    if spec in ("interval01", "minplus01inf"):
        assert _sampled(x, with_square, S, [X], 4096, 0) == NotFalsified(4096)


def _corrupt_eval_codes(monkeypatch, entry):
    """Replace _eval_codes by one that changes, on every second call (the
    right side), the code at ``entry(calls, total)`` when that gives an
    index, to a code other than the true one."""
    calls = []
    original = polynomials._eval_codes

    def corrupted(*args):
        total = original(*args)
        calls.append(total.size)
        index = entry(calls, total) if len(calls) % 2 == 0 else None
        if index is not None:
            total[index] = (total[index] + 1) % args[2].tables.size
        return total

    monkeypatch.setattr(polynomials, "_eval_codes", corrupted)


def test_batched_sampling_witness_is_rechecked(monkeypatch):
    # a chunk of coded samples that separates the sides where evaluate does
    # not is an error in the coded arithmetic, never a witness
    def sample_11(calls, total):
        # the right side's value at sample 11, whichever chunk holds it
        start = sum(calls[:-2:2])
        return 11 - start if start <= 11 < start + total.size else None

    _corrupt_eval_codes(monkeypatch, sample_11)
    S = semiring_from_spec("nat:2,3")
    p = poly(((X, 1),))
    with pytest.raises(InternalConsistencyError, match="sample 11 "):
        _sampled(p, p, S, [X], 64, 0)


def test_tensor_witness_is_rechecked(monkeypatch):
    # the same over every assignment: a corrupted entry of the coded tensor
    # is the first difference in C order, and evaluate refutes it
    _corrupt_eval_codes(monkeypatch, lambda calls, total: (2, 1, 0))
    S = semiring_from_spec("nat:2,3")
    p = poly(((X, 1), (Y, 1)), ((Z, 1),))
    with pytest.raises(InternalConsistencyError, match=r"coded assignment \[2, 1, 0\] "):
        polynomials._by_tensor(p, p, S, [X, Y, Z])


def test_variable_universe_must_cover_polynomials():
    p = poly(mono(("a", 1, 1)))
    q = poly(mono(("b", 1, 1)))
    with pytest.raises(AlgebraError):
        functionally_equivalent(p, q, BOOL, variables=[Variable("a", 1)])


def test_finite_fallback_to_sampling_when_too_many_assignments(monkeypatch):
    monkeypatch.setattr(polynomials, "EXHAUSTIVE_CAP", 3)
    trunc = semiring_from_spec("nat:2,3")
    a, b = Variable("a", 1), Variable("b", 1)
    p = poly(((a, 1),))
    q = poly(((b, 1),))
    result = functionally_equivalent(p, q, trunc, budget=64)
    assert isinstance(result, NotEquivalent)


def test_rendering_is_stable_and_sorted():
    p = build_f_canonical("ab", "abab")
    assert p.render() == "x(a,1)*x(b,1) + x(a,2)*x(b,2) + x(a,3)*x(b,3)"
    assert ZERO_POLYNOMIAL.render() == "0"


def test_bitmask_lattices_have_no_cap(monkeypatch):
    # over bool and the diamond, x(a,1)*x(b,1) + x(a,1) absorbs its first term
    monkeypatch.setattr(polynomials, "EXHAUSTIVE_CAP", 3)
    a, b = Variable("a", 1), Variable("b", 1)
    absorbed = poly(((a, 1), (b, 1)), ((a, 1),))
    single = poly(((a, 1),))
    for S in (BOOL, DIAMOND, semiring_from_spec("nat:1,1")):
        assert functionally_equivalent(absorbed, single, S) == Equivalent("exhaustive")
    result = functionally_equivalent(single, poly(((b, 1),)), DIAMOND)
    # a = 0 and b = the atom coded 1, not the top 3
    assert result == NotEquivalent({a: DIAMOND.val(0), b: DIAMOND.val(1)}, DIAMOND.val(0), DIAMOND.val(1))
    # the same lattice listed in another order goes through the capped tensor
    shuffled = SemiringDescriptor(
        "lattice:diamond", lambda x, y: x | y, lambda x, y: x & y, 0, 3,
        idempotent=True, interval=True, carrier=FiniteCarrier((0, 1, 3, 2)),
    )
    assert isinstance(functionally_equivalent(absorbed, single, shuffled), NotFalsified)
    monkeypatch.setattr(polynomials, "EXHAUSTIVE_CAP", 16)
    assert functionally_equivalent(absorbed, single, shuffled) == Equivalent("exhaustive")


def test_minimal_supports_give_the_first_witness_in_c_order():
    # every pair of polynomials in x(a,1), x(a,2), x(b,1) with up to three
    # terms of degree <= 2, against the tensor over all 64 assignments
    a1, a2, b1 = Variable("a", 1), Variable("a", 2), Variable("b", 1)
    universe = [a1, a2, b1]
    monos = [()] + [((v, 1),) for v in universe] + [
        tuple(sorted(((v, 1), (w, 1)))) for i, v in enumerate(universe) for w in universe[i + 1:]
    ]
    rng = random.Random(3)
    polys = [poly(*rng.sample(monos, rng.randint(0, 3))) for _ in range(40)]
    for p in polys:
        for q in polys:
            want = polynomials._by_tensor(p, q, DIAMOND, universe)
            assert polynomials._by_supports(p, q, DIAMOND, universe) == want
