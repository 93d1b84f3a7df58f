import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import IDEMPOTENT_INSTANCES, INTERVAL_INSTANCES
from sgident.errors import (
    InstanceMismatchError,
    UnsupportedStructureError,
)
from sgident.acceptance import HALVES
from sgident.matrices import (
    MissingImageError,
    MorphismTable,
    all_ones,
    block_chain_entry,
    catalan_generator,
    coded_agreement,
    coded_images,
    decompose_convex,
    format_matrix,
    identity_matrix,
    is_convex,
    is_reflexive,
    is_unitriangular,
    is_upper_triangular,
    leq_entrywise,
    matrix_from_payloads,
    multiply,
    one_way_call,
    parse_matrix,
    power_stabilize,
    product,
    random_reflexive,
    random_reflexive_codes,
    random_upper_triangular,
    two_way_call,
    upper_profile,
    walk_entry,
)
from sgident.monoids import family
from sgident.semirings import (
    BOOL,
    DIAMOND,
    INF,
    INF_CODE,
    INTERVAL01,
    MAXPLUS,
    MINPLUS01INF,
    NAT,
    SplitMix64,
    semiring_from_spec,
)


def bool_matrix(rows):
    return matrix_from_payloads(BOOL, [[bool(x) for x in row] for row in rows])


def test_multiply_identity_and_shapes():
    A = bool_matrix([[1, 0], [1, 1]])
    assert multiply(A, identity_matrix(2, BOOL)) == A
    assert multiply(identity_matrix(2, BOOL), A) == A
    with pytest.raises(ValueError):
        multiply(A, identity_matrix(3, BOOL))
    with pytest.raises(InstanceMismatchError):
        multiply(A, identity_matrix(2, NAT))


def test_equal_payloads_over_different_instances_stay_apart():
    # nat:1,1 stores 0 and 1 where bool stores False and True, and True == 1
    T = semiring_from_spec("nat:1,1")
    over_bool, over_t = identity_matrix(2, BOOL), identity_matrix(2, T)
    assert over_bool.rows == over_t.rows
    assert over_bool != over_t
    assert over_bool.entry(1, 1) == BOOL.one != over_t.entry(1, 1)
    assert len({over_bool: "bool", over_t: "nat:1,1"}) == 2
    catalan = family("catalanU", 2)
    assert over_bool in catalan and over_t not in catalan
    with pytest.raises(InstanceMismatchError):
        multiply(over_bool, over_t)


def test_one_way_calls_compose_to_the_full_exchange():
    assert multiply(one_way_call(1, 2, 2), one_way_call(2, 1, 2)) == all_ones(2, BOOL)


def test_minplus_unitriangular_product():
    S = MINPLUS01INF
    a, b = Fraction(3), Fraction(5)
    A = matrix_from_payloads(S, [[0, a], [S.zero.payload, 0]])
    B = matrix_from_payloads(S, [[0, b], [S.zero.payload, 0]])
    expected = matrix_from_payloads(S, [[0, min(a, b)], [S.zero.payload, 0]])
    assert multiply(A, B) == expected
    assert multiply(A, B).entry(1, 2) == S.val(3) and A.entry(2, 1) == S.zero


def test_predicates():
    eye = identity_matrix(3, BOOL)
    assert is_upper_triangular(eye) and is_unitriangular(eye) and is_reflexive(eye)
    exch = two_way_call(1, 2, 2)
    assert is_reflexive(exch) and not is_upper_triangular(exch)
    assert leq_entrywise(eye, all_ones(3, BOOL))
    with pytest.raises(UnsupportedStructureError):
        leq_entrywise(identity_matrix(2, NAT), identity_matrix(2, NAT))


def test_call_constructors():
    assert two_way_call(1, 3, 4) == two_way_call(3, 1, 4)
    assert two_way_call(1, 2, 3, BOOL, BOOL.one) == two_way_call(1, 2, 3)
    with pytest.raises(ValueError):
        one_way_call(1, 1, 3)
    with pytest.raises(ValueError):
        one_way_call(0, 2, 3)
    with pytest.raises(UnsupportedStructureError):
        one_way_call(1, 2, 3, NAT, NAT.val(2))
    with pytest.raises(ValueError):
        one_way_call(1, 2, 3, INTERVAL01, 2)
    with pytest.raises(InstanceMismatchError):
        one_way_call(1, 2, 3, BOOL, INTERVAL01.one)


@pytest.mark.parametrize("name", sorted(INTERVAL_INSTANCES))
def test_weighted_exchange_keeps_unit_diagonal(name):
    S = INTERVAL_INSTANCES[name]
    rng = random.Random(11)
    values = S.values() if S.is_finite else [S.sample_value(rng) for _ in range(12)]
    for s in values:
        E = two_way_call(1, 2, 3, S, s)
        # 1 + s*s = 1 since s*s <= 1 in an interval instance
        assert E.entry(1, 1) == S.one
        assert E.entry(1, 2) == S.val(s) or S.natural_leq(E.entry(1, 2), S.one)
        assert is_reflexive(E)


def test_walk_entry_examples():
    rng = random.Random(23)
    S = BOOL
    for _ in range(200):
        n = rng.randint(1, 4)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        phi = MorphismTable({s: random_upper_triangular(S, n, rng) for s in set(w)})
        target = phi.apply(w)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert walk_entry(phi, w, i, j) == target.entry(i, j)


def test_walk_entry_degenerate_cases():
    rng = random.Random(5)
    phi = MorphismTable({"a": random_upper_triangular(NAT, 3, rng)})
    assert walk_entry(phi, "aa", 3, 1) == NAT.zero
    assert walk_entry(phi, "a", 2, 2) == phi.image("a").entry(2, 2)


def test_walk_entry_needs_triangular_images():
    phi = MorphismTable({"a": two_way_call(1, 2, 2)})
    with pytest.raises(UnsupportedStructureError):
        walk_entry(phi, "a", 1, 1)


def test_block_chain_entry_examples():
    rng = random.Random(29)
    single = random_reflexive(INTERVAL01, 3, rng)
    for i in range(1, 4):
        for j in range(1, 4):
            assert block_chain_entry([single], i, j) == single.entry(i, j)
    for _ in range(200):
        n = rng.randint(1, 3)
        factors = [random_reflexive(INTERVAL01, n, rng) for _ in range(rng.randint(1, 4))]
        target = product(factors)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert block_chain_entry(factors, i, j) == target.entry(i, j)
    eyes = [identity_matrix(3, BOOL)] * 3
    assert block_chain_entry(eyes, 1, 1) == BOOL.one
    assert block_chain_entry(eyes, 1, 2) == BOOL.zero


def test_block_chain_preconditions():
    with pytest.raises(UnsupportedStructureError):
        block_chain_entry([identity_matrix(2, NAT)], 1, 1)
    not_reflexive = matrix_from_payloads(BOOL, [[True, False], [False, False]])
    with pytest.raises(UnsupportedStructureError):
        block_chain_entry([not_reflexive], 1, 1)


def test_power_stabilize():
    assert power_stabilize(identity_matrix(1, BOOL)) == identity_matrix(1, BOOL)
    Z = all_ones(4, BOOL)
    assert power_stabilize(Z) == Z
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        A = random_reflexive(MINPLUS01INF, n, rng)
        stable = power_stabilize(A)
        eye = identity_matrix(n, MINPLUS01INF)
        assert stable == product([eye] + [A] * (n - 1))
        assert product([eye] + [A] * n) == stable
        assert product([eye] + [A] * (n + 1)) == stable


@pytest.mark.parametrize("name", sorted(IDEMPOTENT_INSTANCES))
def test_order_compatibility_of_multiplication(name):
    S = IDEMPOTENT_INSTANCES[name]
    rng = random.Random(37)
    from sgident.matrices import random_matrix

    for _ in range(500):
        n = rng.randint(1, 4)
        A = random_matrix(S, n, rng)
        bump = random_matrix(S, n, rng)
        B = matrix_from_payloads(
            S,
            [
                [S.add(A.entry(i, j), bump.entry(i, j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ],
        )
        C = random_matrix(S, n, rng)
        assert leq_entrywise(A, B)
        assert leq_entrywise(multiply(C, A), multiply(C, B))
        assert leq_entrywise(multiply(A, C), multiply(B, C))


@pytest.mark.parametrize("name", sorted(INTERVAL_INSTANCES))
def test_reflexive_padding_dominates_the_core_product(name):
    S = INTERVAL_INSTANCES[name]
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 4)
        L = rng.randint(1, 3)
        X = [random_reflexive(S, n, rng) for _ in range(L)]
        U = [random_reflexive(S, n, rng) for _ in range(L + 1)]
        core = product(X)
        padded = U[0]
        for k in range(L):
            padded = multiply(multiply(padded, X[k]), U[k + 1])
        assert leq_entrywise(core, padded)


@pytest.mark.parametrize("name", sorted(INTERVAL_INSTANCES))
def test_powers_of_reflexive_matrices_grow(name):
    S = INTERVAL_INSTANCES[name]
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 4)
        A = random_reflexive(S, n, rng)
        prev = identity_matrix(n, S)
        for _ in range(n):
            nxt = multiply(prev, A)
            assert leq_entrywise(prev, nxt)
            prev = nxt


def test_convexity():
    assert is_convex(identity_matrix(4, BOOL))
    assert is_convex(two_way_call(1, 2, 3))
    gap = bool_matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert not is_convex(gap)
    assert not is_convex(bool_matrix([[0, 1], [0, 1]]))
    with pytest.raises(UnsupportedStructureError):
        is_convex(identity_matrix(2, NAT))


def test_upper_profile_drops_the_lower_entry():
    assert upper_profile(two_way_call(1, 2, 2)) == catalan_generator(1, 2)


def test_decompose_convex():
    assert decompose_convex(identity_matrix(4, BOOL)) == []
    A = bool_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # row reaches (2, 3, 3)
    word = decompose_convex(A)
    rebuilt = identity_matrix(3, BOOL)
    for idx in word:
        rebuilt = multiply(rebuilt, catalan_generator(idx, 3))
    assert rebuilt == A
    with pytest.raises(ValueError):
        decompose_convex(bool_matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))


def test_decompose_convex_covers_the_whole_monoid():
    for n in (2, 3, 4):
        for element in family("catalanU", n).elements:
            word = decompose_convex(element)
            rebuilt = identity_matrix(n, BOOL)
            for idx in word:
                rebuilt = multiply(rebuilt, catalan_generator(idx, n))
            assert rebuilt == element


def test_text_roundtrip():
    A = bool_matrix([[1, 1], [0, 1]])
    assert format_matrix(A) == "1 1; 0 1"
    assert parse_matrix(BOOL, "1 1; 0 1") == A
    S = MINPLUS01INF
    B = matrix_from_payloads(S, [[0, Fraction(1, 2)], [S.zero.payload, 0]])
    assert parse_matrix(S, format_matrix(B)) == B
    with pytest.raises(ValueError):
        parse_matrix(BOOL, "1 1; 0")


def test_matrix_from_payloads_checks_its_input():
    assert matrix_from_payloads(BOOL, [[BOOL.one, False], [False, True]]) == identity_matrix(2, BOOL)
    with pytest.raises(ValueError):
        matrix_from_payloads(BOOL, [[True, False]])
    with pytest.raises(ValueError):
        matrix_from_payloads(BOOL, [])
    with pytest.raises(ValueError):
        matrix_from_payloads(BOOL, [[True, 2], [False, True]])
    with pytest.raises(InstanceMismatchError):
        matrix_from_payloads(BOOL, [[NAT.one, False], [False, True]])


def _decoded(S, images, t):
    return MorphismTable({
        s: matrix_from_payloads(S, [[S.codes.payload(c) for c in row] for row in a[t].tolist()])
        for s, a in images.items()
    })


def _coded(S, letters):
    """Coded morphisms, one trial each, from per-letter rows of payloads."""
    return {
        s: np.array([[[S.codes.encode(p) for p in row] for row in rows]], dtype=np.int64)
        for s, rows in letters.items()
    }


# random_reflexive_codes(S, 3, "ab", 4, SplitMix64(0)) per letter, as the
# spot-check drew it before its code format moved behind S.codes
PINNED_DRAWS = {
    "bool": {
        "a": [[[1, 0, 0], [1, 1, 0], [0, 1, 1]], [[1, 1, 1], [1, 1, 0], [1, 1, 1]],
              [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [1, 1, 1], [1, 0, 1]]],
        "b": [[[1, 0, 1], [1, 1, 1], [1, 0, 1]], [[1, 1, 1], [1, 1, 0], [0, 1, 1]],
              [[1, 0, 0], [0, 1, 1], [1, 0, 1]], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]],
    },
    "interval01": {
        "a": [[[120, 80, 0], [105, 120, 120], [0, 72, 120]],
              [[120, 0, 15], [120, 120, 120], [15, 60, 120]],
              [[120, 60, 80], [120, 120, 0], [0, 0, 120]],
              [[120, 90, 0], [120, 120, 48], [75, 0, 120]]],
        "b": [[[120, 40, 72], [0, 120, 24], [0, 120, 120]],
              [[120, 120, 75], [75, 120, 0], [0, 120, 120]],
              [[120, 60, 40], [120, 120, 45], [30, 120, 120]],
              [[120, 120, 60], [60, 120, 0], [90, 75, 120]]],
    },
}


@pytest.mark.parametrize(
    "S",
    [BOOL, DIAMOND, semiring_from_spec("nat:1,1"), semiring_from_spec("nat:2,3"),
     HALVES, MINPLUS01INF, INTERVAL01],
    ids=lambda S: S.name,
)
def test_code_object_round_trips_multiplies_and_keeps_its_draws(S):
    codes = S.codes
    if S.is_finite:
        assert codes is S.tables
        payloads = list(S.carrier.values)
    else:
        rng = random.Random(5)
        payloads = [S.sample_payload(rng) for _ in range(200)]
    assert [codes.payload(codes.encode(p)) for p in payloads] == payloads
    if not S.is_finite:
        with pytest.raises(ValueError):
            codes.encode(Fraction(1, 7))  # no multiple of 1/scale
    # one trial of two plain draws: the kernel's product against multiply on
    # the decoded matrices, whose payloads a 2-letter product carries times
    # weight(2) // weight(1) under the degree law
    a, b = codes.draw(SplitMix64(2), (2, 1, 3, 3)).astype(codes.dtype(2))
    phi = _decoded(S, {"a": a, "b": b}, 0)
    lift = codes.weight(2) // codes.weight(1)
    want = [
        [codes.encode(p * lift if lift > 1 else p) for p in row]
        for row in multiply(phi.image("a"), phi.image("b")).rows
    ]
    assert codes.product(a, b)[0].tolist() == want
    if S.name in PINNED_DRAWS:
        drawn = random_reflexive_codes(S, 3, "ab", 4, SplitMix64(0))
        assert {s: d.tolist() for s, d in drawn.items()} == PINNED_DRAWS[S.name]


@pytest.mark.parametrize(
    "S", [BOOL, DIAMOND, MINPLUS01INF, INTERVAL01, semiring_from_spec("nat:1,1")]
)
def test_batched_agreement_matches_one_product_per_morphism(S):
    # draws of 7 trials at a time continue one stream: trials on both sides
    # of every boundary, and a short last draw, are those of one draw of 30
    whole = random_reflexive_codes(S, 3, "ab", 30, SplitMix64(3))
    gen = SplitMix64(3)
    parts = [random_reflexive_codes(S, 3, "ab", k, gen) for k in (7, 7, 7, 7, 2)]
    for s in "ab":
        assert (np.concatenate([part[s] for part in parts]) == whole[s]).all()
    tables = [_decoded(S, whole, t) for t in range(30)]
    assert all(is_reflexive(m) for phi in tables for m in phi.images.values())
    for w, v in (("abab", "abba"), ("aab", "aabab"), ("ba", "ab"), ("abba", "abba")):
        expected = [phi.apply(w) == phi.apply(v) for phi in tables]
        assert coded_agreement(S, whole, w, v).tolist() == expected
        chunked = np.concatenate([coded_agreement(S, part, w, v) for part in parts])
        assert chunked.tolist() == expected
    empty = random_reflexive_codes(S, 3, "ab", 0, gen)
    assert coded_agreement(S, empty, "ab", "ba").size == 0


KERNEL_INSTANCES = [BOOL, DIAMOND, semiring_from_spec("nat:2,3"), HALVES, MINPLUS01INF, INTERVAL01]


def _lifted(S, m, k):
    """The codes of the matrix ``m`` as a product of k codes carries them:
    payloads times weight(k) // weight(1) under the degree law."""
    codes = S.codes
    lift = codes.weight(k) // codes.weight(1)
    return [[codes.encode(p * lift if lift > 1 else p) for p in row] for row in m.rows]


@pytest.mark.parametrize("S", KERNEL_INSTANCES, ids=lambda S: S.name)
def test_code_products_are_the_products_of_the_decoded_matrices(S):
    """``codes.product`` against ``multiply`` on the decoded matrices, trial
    by trial: stacks of two and of three factors, and a stack times one
    unbroadcast (n, n) factor, as the closure step passes its generators."""
    codes = S.codes
    for n in range(1, 6):
        a, b, c = codes.draw(SplitMix64(n), (3, 5, n, n)).astype(codes.dtype(3))
        if S is MINPLUS01INF and n > 2:
            assert (a == INF_CODE).any() and (b == INF_CODE).any()
        ab = codes.product(a, b)
        abc = codes.product(ab, c)
        ab0 = codes.product(a, b[0])
        assert ab.shape == abc.shape == ab0.shape == (5, n, n)
        phi = [_decoded(S, {"a": a, "b": b, "c": c}, t) for t in range(5)]
        for t, m in enumerate(phi):
            assert ab[t].tolist() == _lifted(S, m.apply("ab"), 2)
            assert abc[t].tolist() == _lifted(S, m.apply("abc"), 3)
            assert ab0[t].tolist() == _lifted(S, multiply(m.image("a"), phi[0].image("b")), 2)


def test_min_plus_code_products_saturate_at_the_infinite_code():
    # inf + inf and inf + x stay INF_CODE, and a finite entry of an
    # infinite row or column is no product's minimum
    codes = MINPLUS01INF.codes
    inf = np.full((1, 3, 3), INF_CODE, dtype=np.int64)
    finite = np.arange(9, dtype=np.int64).reshape(1, 3, 3) * 12
    assert (codes.product(inf, inf) == INF_CODE).all()
    assert (codes.product(inf, finite) == INF_CODE).all()
    assert (codes.product(finite, inf[0]) == INF_CODE).all()
    mixed = finite.copy()
    mixed[0, 0, 0] = mixed[0, 2] = INF_CODE
    assert codes.product(mixed, finite)[0].tolist() == [
        [min(min(x + y for x, y in zip(row, col)), INF_CODE) for col in finite[0].T.tolist()]
        for row in mixed[0].tolist()
    ]


def test_ten_letter_interval_code_products_run_on_python_ints():
    # 120^10 passes 2^63: the codes of a 10-letter word are Python ints, and
    # each trial's product is the product of its decoded letters
    codes = INTERVAL01.codes
    assert codes.dtype(10) is object
    word = "abaabbbaba"
    images = random_reflexive_codes(INTERVAL01, 4, "ab", 3, SplitMix64(10))
    coded = {s: a.astype(object) for s, a in images.items()}
    acc = coded[word[0]]
    for ch in word[1:]:
        acc = codes.product(acc, coded[ch])
    assert acc.dtype == object
    for t in range(3):
        want = _lifted(INTERVAL01, _decoded(INTERVAL01, images, t).apply(word), 10)
        assert acc[t].tolist() == want


def test_coded_images_carry_the_instance_scale():
    third, quarter, half = Fraction(1, 3), Fraction(3, 4), Fraction(1, 2)

    def images(S, a, b):
        return _coded(S, {
            "a": [[S.one.payload, a], [S.zero.payload, S.one.payload]],
            "b": [[S.one.payload, S.zero.payload], [b, S.one.payload]],
        })

    # max-times: codes are payloads times 120, an L-fold product carries 120^L
    cases = [images(INTERVAL01, third, 1), images(INTERVAL01, 0, quarter),
             images(INTERVAL01, half, 0)]
    for coded in cases:
        phi = _decoded(INTERVAL01, coded, 0)
        got = coded_images(INTERVAL01, coded, "aba")
        assert got.dtype == np.int64
        assert got[0].tolist() == [[p * 120**3 for p in row] for row in phi.apply("aba").rows]
        # nine letters stay on int64, ten go over to Python ints
        assert coded_images(INTERVAL01, coded, "ab" * 4 + "a").dtype == np.int64
        ten = coded_images(INTERVAL01, coded, "ab" * 5)
        assert ten.dtype == object and all(type(x) is int for x in ten.flat)
        assert ten[0].tolist() == [[p * 120**10 for p in row] for row in phi.apply("ab" * 5).rows]
    # sides of different lengths compare after cross-multiplying
    expected = [_decoded(INTERVAL01, c, 0).apply("ab") == _decoded(INTERVAL01, c, 0).apply("a")
                for c in cases]
    assert expected == [False, False, True]
    assert [coded_agreement(INTERVAL01, c, "ab", "a")[0] for c in cases] == expected
    assert [coded_agreement(INTERVAL01, c, "ab" * 5, "a")[0] for c in cases] == [
        _decoded(INTERVAL01, c, 0).apply("ab" * 5) == _decoded(INTERVAL01, c, 0).apply("a")
        for c in cases
    ]
    # min-plus: codes are payloads times 12 whatever the length, and inf
    # saturates at INF_CODE
    coded = images(MINPLUS01INF, Fraction(5, 2), INF)
    assert coded_images(MINPLUS01INF, coded, "ab").tolist() == [[[0, 30], [INF_CODE, 0]]]
    stuck = _coded(MINPLUS01INF, {"a": [[INF, INF], [INF, 0]]})
    assert coded_images(MINPLUS01INF, stuck, "a" * 20).tolist() == [[[INF_CODE, INF_CODE], [INF_CODE, 0]]]
    assert MINPLUS01INF.codes.payload(INF_CODE) == INF
    assert MINPLUS01INF.codes.payload(30) == Fraction(5, 2)
    # finite carriers multiply their table codes, unscaled
    assert coded_images(BOOL, images(BOOL, True, False), "ab").tolist() == [[[1, 1], [0, 1]]]
    coded = images(DIAMOND, 1, 2)
    assert coded_images(DIAMOND, coded, "ab").tolist() == [[[3, 1], [2, 3]]]
    assert coded_images(DIAMOND, coded, "ba").dtype == np.uint8
    assert coded_images(DIAMOND, coded, "ba")[0].tolist() == list(
        map(list, _decoded(DIAMOND, coded, 0).apply("ba").rows)
    )


def test_batch_rejects_mixed_morphisms():
    gen = SplitMix64(1)
    a = random_reflexive_codes(INTERVAL01, 2, "a", 4, gen)
    with pytest.raises(InstanceMismatchError):
        coded_agreement(INTERVAL01, {**a, **random_reflexive_codes(INTERVAL01, 3, "b", 4, gen)}, "ab", "ba")
    with pytest.raises(InstanceMismatchError):
        coded_images(INTERVAL01, {**a, **random_reflexive_codes(INTERVAL01, 2, "b", 5, gen)}, "ab")
    with pytest.raises(MissingImageError):
        coded_agreement(INTERVAL01, a, "ab", "ba")
    with pytest.raises(ValueError):
        coded_images(INTERVAL01, a, "")
    with pytest.raises(ValueError):
        coded_agreement(INTERVAL01, a, "", "a")
    # an instance without integer codes cannot be drawn
    with pytest.raises(UnsupportedStructureError):
        random_reflexive_codes(MAXPLUS, 2, "a", 4, gen)
