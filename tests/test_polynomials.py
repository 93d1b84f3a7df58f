import random

import pytest

from conftest import ALL_INSTANCES
from sgident import polynomials
from sgident.acceptance import _sampled_one_at_a_time
from sgident.errors import AlgebraError, InternalConsistencyError
from sgident.polynomials import (
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
    MAXPLUS,
    NAT,
    FiniteCarrier,
    SemiringDescriptor,
    Val,
    semiring_from_spec,
)
from sgident.words import scattered_multiplicity, words_up_to


def poly(d):
    return FormalPolynomial.from_dict(d)


def mono(*pairs):
    return tuple(sorted((Variable(s, i), e) for s, i, e in pairs))


def test_build_f_empty_word_is_the_content_monomial():
    p = build_f_canonical("", "aab")
    assert p == poly({mono(("a", 1, 2), ("b", 1, 1)): 1})
    assert p.render() == "x(a,1)^2*x(b,1)"


def test_build_f_tight_embedding_is_the_constant_one():
    p = build_f_canonical("ab", "ab")
    assert p == poly({(): 1})
    assert p.render() == "1"


def test_build_f_two_embeddings():
    p = build_f_canonical("a", "aa")
    assert p == poly({mono(("a", 1, 1)): 1, mono(("a", 2, 1)): 1})
    assert p.render() == "x(a,1) + x(a,2)"


def test_build_f_zero_iff_not_a_subword():
    assert build_f_canonical("ab", "aab").is_zero() is False
    assert build_f_canonical("ba", "aab").is_zero() is True
    for w in words_up_to("ab", 6):
        for u in words_up_to("ab", 3):
            assert build_f_canonical(u, w).is_zero() == (
                scattered_multiplicity(u, w) == 0
            )


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
        canonical = build_f_canonical(u, w)
        rho = tuple(v + 2 for v in range(1, len(u) + 2))
        shifted = build_f(u, rho, w, 8)
        relabeled = {
            tuple(
                sorted((Variable(var.letter, var.vertex + 2), e) for var, e in m)
            ): c
            for m, c in canonical.terms
        }
        assert shifted == poly(relabeled)


def test_evaluate_examples():
    assert evaluate(ZERO_POLYNOMIAL, {}, BOOL) == BOOL.zero
    square = poly({mono(("a", 1, 2)): 1})
    assert evaluate(square, {Variable("a", 1): MAXPLUS.val(3)}, MAXPLUS) == MAXPLUS.val(6)
    two_terms = poly({mono(("a", 1, 1)): 1, mono(("a", 2, 1)): 1})
    assignment = {Variable("a", 1): BOOL.one, Variable("a", 2): BOOL.one}
    assert evaluate(two_terms, assignment, BOOL) == BOOL.one


def test_evaluate_missing_binding():
    p = poly({mono(("a", 1, 1)): 1})
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
    x = poly({mono(("a", 1, 1)): 1})
    x_squared = poly({mono(("a", 1, 2)): 1})
    result = functionally_equivalent(x, x_squared, BOOL)
    assert isinstance(result, Equivalent) and result.method == "exhaustive"


def test_boolean_inequivalence_yields_lexicographically_first_witness():
    x = poly({mono(("a", 1, 1)): 1})
    y = poly({mono(("b", 1, 1)): 1})
    result = functionally_equivalent(x, y, BOOL)
    assert isinstance(result, NotEquivalent)
    # carrier order is (0, 1): the first distinguishing assignment is a=0, b=1
    assert result.witness[Variable("a", 1)] == BOOL.zero
    assert result.witness[Variable("b", 1)] == BOOL.one


def test_first_witness_follows_the_order_of_the_variables():
    # the first variable, x(a,1), varies slowest; a reversed order, or one
    # that moves x(b,1) before x(a,2), would first differ elsewhere
    a1, a2, b1 = Variable("a", 1), Variable("a", 2), Variable("b", 1)
    p = poly({((a1, 1),): 1, ((b1, 1),): 1})
    q = poly({((a2, 1),): 1})
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
    p = poly({((x, 1), (y, 3)): 1, ((x, 3), (y, 1)): 1, ((x, 2),): 13, (): 15})
    tables = S.tables
    codes = _eval_codes(p, {x: 0, y: 1}, S)
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
    p = poly({mono(("a", 1, 1)): 1, mono(("b", 1, 1)): 1})
    one = poly({(): 1})
    on_bool = functionally_equivalent(p, one, BOOL)
    assert on_bool.rhs_value == BOOL.one
    on_lattice = functionally_equivalent(p, one, lattice)
    assert isinstance(on_lattice, NotEquivalent)
    assert on_lattice.rhs_value == Val("bool", 3)


def test_tropical_absorption_is_not_falsified():
    # x^2 + x + 1 and x^2 + 1 define the same max-plus function: x can never
    # exceed both x^2 and 1
    v = Variable("a", 1)
    with_middle = poly({(): 1, ((v, 1),): 1, ((v, 2),): 1})
    without = poly({(): 1, ((v, 2),): 1})
    result = functionally_equivalent(with_middle, without, MAXPLUS, budget=512)
    assert isinstance(result, NotFalsified)
    assert result.samples == 512


def test_sampling_over_naturals_finds_a_witness():
    v = Variable("a", 1)
    x_plus_x = poly({((v, 1),): 2})
    x = poly({((v, 1),): 1})
    result = functionally_equivalent(x_plus_x, x, NAT)
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
    (poly({((X, 1), (Y, 1)): 1, ((Z, 1),): 1}), poly({((Z, 1),): 1})),
    (poly({((X, 1),): 1, ((Y, 1),): 1, ((Z, 1),): 1}), poly({((X, 1),): 1, ((Y, 1),): 1})),
    (poly({((X, 2), (Y, 1)): 1}), poly({((X, 1), (Y, 2)): 1})),
    (poly({tuple((v, 1) for v in FACTORS): 1, ((Z, 1),): 1}), poly({((Z, 1),): 1})),
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
    one, two, x = poly({(): 1}), poly({(): 2}), poly({((X, 1),): 1})
    cases = (
        # an empty variable universe: constants, compared at the first sample
        (one, two, []),
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
    # x + x^2 is x over [0, 1] under max-times and under min-plus; scaled by
    # d under max-times, x^2 gains d^2 and x only d unless the terms are
    # brought to one degree
    S = semiring_from_spec(spec)
    x = poly({((X, 1),): 1})
    with_square = poly({((X, 1),): 1, ((X, 2),): 1})
    square_and_one = poly({((X, 2),): 1, (): 1})
    for p, q in ((x, with_square), (x, square_and_one), (with_square, square_and_one)):
        want, _ = _sampled_one_at_a_time(p, q, S, [X], 512, 5)
        assert_same_result(_sampled(p, q, S, [X], 512, 5), want)
    if spec in ("interval01", "minplus01inf"):
        assert _sampled(x, with_square, S, [X], 4096, 0) == NotFalsified(4096)


def test_batched_sampling_witness_is_rechecked(monkeypatch):
    # a batch that separates the sides where evaluate does not is an error
    # in the batched arithmetic, never a witness
    calls = []
    original = polynomials._eval_columns

    def corrupted(*args):
        # the right side's value at sample 11, whichever chunk holds it
        total = original(*args)
        calls.append(len(total))
        start = sum(calls[:-2:2])
        if len(calls) % 2 == 0 and start <= 11 < start + len(total):
            total[11 - start] = "corrupted"
        return total

    monkeypatch.setattr(polynomials, "_eval_columns", corrupted)
    p = poly({((X, 1),): 1})
    with pytest.raises(InternalConsistencyError, match="sample 11 "):
        _sampled(p, p, NAT, [X], 64, 0)


def test_variable_universe_must_cover_polynomials():
    p = poly({mono(("a", 1, 1)): 1})
    q = poly({mono(("b", 1, 1)): 1})
    with pytest.raises(AlgebraError):
        functionally_equivalent(p, q, BOOL, variables=[Variable("a", 1)])


def test_finite_fallback_to_sampling_when_too_many_assignments(monkeypatch):
    monkeypatch.setattr(polynomials, "EXHAUSTIVE_CAP", 3)
    trunc = semiring_from_spec("nat:2,3")
    a, b = Variable("a", 1), Variable("b", 1)
    p = poly({((a, 1),): 1})
    q = poly({((b, 1),): 1})
    result = functionally_equivalent(p, q, trunc, budget=64)
    assert isinstance(result, NotEquivalent)


def test_rendering_is_stable_and_sorted():
    p = build_f_canonical("ab", "abab")
    assert p.render() == "x(a,1)*x(b,1) + x(a,2)*x(b,2) + x(a,3)*x(b,3)"
    assert ZERO_POLYNOMIAL.render() == "0"
    with_coeff = poly({(): 3, mono(("a", 2, 1)): 2})
    assert with_coeff.render() == "3 + 2*x(a,2)"


def test_coefficient_cap():
    p = poly({mono(("a", 1, 1)): 5, (): 2})
    capped = p.cap()
    assert capped == poly({mono(("a", 1, 1)): 1, (): 1})


def test_bitmask_lattices_have_no_cap(monkeypatch):
    # over bool and the diamond, x(a,1)*x(b,1) + x(a,1) absorbs its first term
    monkeypatch.setattr(polynomials, "EXHAUSTIVE_CAP", 3)
    a, b = Variable("a", 1), Variable("b", 1)
    absorbed = poly({((a, 1), (b, 1)): 1, ((a, 1),): 1})
    single = poly({((a, 1),): 1})
    for S in (BOOL, DIAMOND, semiring_from_spec("nat:1,1")):
        assert functionally_equivalent(absorbed, single, S) == Equivalent("exhaustive")
    result = functionally_equivalent(single, poly({((b, 1),): 1}), DIAMOND)
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
    polys = [poly({m: 1 for m in rng.sample(monos, rng.randint(0, 3))}) for _ in range(40)]
    for p in polys:
        for q in polys:
            want = polynomials._by_tensor(p, q, DIAMOND, universe)
            assert polynomials._by_supports(p, q, DIAMOND, universe) == want
