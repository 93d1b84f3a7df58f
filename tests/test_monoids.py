from fractions import Fraction
from functools import cache
from itertools import product as iproduct

import numpy as np
import pytest

from sgident import acceptance, monoids
from sgident.errors import BudgetExceededError, ClosureCapExceeded
from sgident.matrices import (
    all_ones,
    identity_matrix,
    is_convex,
    is_reflexive,
    multiply,
    one_way_call,
)
from sgident.monoids import (
    BruteForceFails,
    BruteForceHolds,
    bfs_closure,
    brute_force_identity,
    catalan_number,
    check_catalan_presentation,
    check_inclusions,
    enumerate_unitriangular,
    enumerate_upper_triangular,
    family,
    structural_checks,
)
from sgident.semirings import BOOL, DIAMOND, INF, INF_CODE, INTERVAL01, MAXPLUS, MINPLUS01INF, NAT
from sgident.words import Identity

# element counts frozen from the enumeration itself; the Catalan column is
# independently pinned by the closed-form count
FROZEN_SIZES = {
    "catalanU": [1, 2, 5, 14],
    "doubleCatalan": [1, 2, 6, 23],
    "gossip": [1, 2, 11, 189],
    "oneWayGossip": [1, 4, 62, 3769],
    "reflexiveBool": [1, 4, 64, 4096],
    "convexBool": [1, 4, 25, 196],
}


def test_catalan_counts_match_the_closed_form():
    for n in range(1, 7):
        assert len(family("catalanU", n)) == catalan_number(n)


@pytest.mark.parametrize("name", sorted(FROZEN_SIZES))
def test_family_sizes(name):
    for n in range(1, 5):
        assert len(family(name, n)) == FROZEN_SIZES[name][n - 1]


def test_closure_of_the_identity_alone():
    result = bfs_closure([identity_matrix(3, BOOL)])
    assert len(result) == 1


def test_closure_is_deterministic():
    a = family("gossip", 3)
    b = family("gossip", 3)
    assert a.elements == b.elements
    assert a.witness_words == b.witness_words
    assert np.array_equal(a.cayley_right, b.cayley_right)


def test_family_options_it_does_not_read_are_errors():
    with pytest.raises(ValueError, match="no semiring maxplus"):
        family("gossip", 3, MAXPLUS)
    with pytest.raises(ValueError, match="no weight sample"):
        family("reflexiveBool", 2, BOOL, s_sample=(True,))
    for name in ("catalanU", "convexBool", "catalanU_S", "doubleCatalan_S"):
        with pytest.raises(ValueError, match="no index bound"):
            family(name, 3, MINPLUS01INF if name.endswith("_S") else None, index_bound="n-1")
    for name in ("reflexiveBool", "convexBool"):
        with pytest.raises(ValueError, match="no element cap"):
            family(name, 3, element_cap=5)
    # an empty sample is no missing default: minplus01inf declares (0, 1, 8)
    with pytest.raises(ValueError, match="empty weight sample"):
        family("gossip_S", 3, MINPLUS01INF, s_sample=())
    # what the family does read is still accepted
    assert len(family("gossip", 3, BOOL)) == FROZEN_SIZES["gossip"][2]
    bounded = family("gossip_S", 3, MINPLUS01INF, index_bound="n-1")
    assert {label.split(":")[0] for label in bounded.generator_labels} == {"1<>2"}


# a Boolean family's labels against its _S family's over bool, whose one
# weight 1 they leave out
BOOLEAN_LABELS = {
    "catalanU": lambda label: f"e{label.split('>')[0]}",
    "doubleCatalan": lambda label: label.removesuffix(":1"),
    "gossip": lambda label: label.removesuffix(":1"),
    "oneWayGossip": lambda label: label.removesuffix(":1"),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_LABELS))
def test_a_boolean_family_is_its_weighted_family_over_bool(name):
    for n in range(1, 5):
        boolean, weighted = family(name, n), family(f"{name}_S", n, BOOL)
        assert boolean.semiring is weighted.semiring is BOOL
        assert boolean.generators == weighted.generators
        assert boolean.elements == weighted.elements
        assert boolean.witness_words == weighted.witness_words
        assert boolean.cayley_right.dtype == weighted.cayley_right.dtype == np.int32
        assert np.array_equal(boolean.cayley_right, weighted.cayley_right)
        assert all(label.endswith(":1") for label in weighted.generator_labels)
        relabelled = tuple(BOOLEAN_LABELS[name](label) for label in weighted.generator_labels)
        assert boolean.generator_labels == relabelled


def test_closure_starts_at_the_identity():
    for name in ("catalanU", "doubleCatalan", "gossip", "oneWayGossip", "reflexiveBool"):
        result = family(name, 3)
        assert result.elements[0] == identity_matrix(3, BOOL)


def test_witness_words_multiply_back():
    for name in ("catalanU", "doubleCatalan", "gossip", "oneWayGossip"):
        for n in range(1, 5):
            result = family(name, n)
            for idx, element in enumerate(result.elements):
                rebuilt = identity_matrix(n, BOOL)
                for gi in result.witness_words[idx]:
                    rebuilt = multiply(rebuilt, result.generators[gi])
                assert rebuilt == element


def test_witness_words_are_shortest():
    result = family("gossip", 3)
    lengths = [len(w) for w in result.witness_words]
    # BFS layers are non-decreasing along the discovery order
    assert lengths == sorted(lengths)


def test_cayley_table_is_consistent():
    result = family("doubleCatalan", 3)
    for i, element in enumerate(result.elements):
        for gi, g in enumerate(result.generators):
            assert result.elements[result.cayley_right[i][gi]] == multiply(element, g)


# the generated closures take the Cayley-row path, reflexiveBool the product path
TABLE_CASES = {
    **{
        f"{name}({n})": (lambda name=name, n=n: family(name, n))
        for name in ("catalanU", "doubleCatalan", "gossip", "oneWayGossip")
        for n in (1, 2, 3)
    },
    "gossip_S(3)": lambda: family("gossip_S", 3, MINPLUS01INF),
    "gossip_S(3) over lattice:diamond": lambda: family("gossip_S", 3, DIAMOND),
    "closure of the identity": lambda: bfs_closure([identity_matrix(3, BOOL)]),
    "reflexiveBool(2)": lambda: family("reflexiveBool", 2),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_mult_table_equals_entry_by_entry_products(case):
    M = TABLE_CASES[case]()
    by_products = [[M.index_of(multiply(a, b)) for b in M.elements] for a in M.elements]
    assert M.mult_table().tolist() == by_products
    # the one table is in the dtype the brute-force fold gathers in
    assert M.mult_table().dtype == np.min_scalar_type(len(M) ** 2 - 1)


def test_mult_table_of_one_way_gossip_4_equals_products_at_seeded_entries():
    M = family("oneWayGossip", 4)
    table = M.mult_table()
    assert (len(M), table.dtype) == (3769, np.uint32)
    rng = np.random.default_rng(45)
    for i, j in rng.integers(len(M), size=(1000, 2)).tolist():
        assert table[i, j] == M.index_of(multiply(M.elements[i], M.elements[j])), (i, j)


def test_closure_cap_carries_a_partial_result():
    gens = [one_way_call(i, j, 4) for i in range(1, 5) for j in range(1, 5) if i != j]
    with pytest.raises(ClosureCapExceeded) as err:
        bfs_closure(gens, element_cap=10)
    partial, full = err.value.partial, bfs_closure(gens)
    assert partial.elements == full.elements[:10]
    assert partial.witness_words == full.witness_words[:10]
    assert partial.cayley_right is None


def test_a_capped_partial_has_no_table():
    # every product of the partial's elements with a generator it has not
    # yet multiplied lies outside it, so its table cannot be built
    with pytest.raises(ClosureCapExceeded) as err:
        family("gossip", 4, element_cap=10)
    partial = err.value.partial
    for build in (
        partial.mult_table,
        lambda: brute_force_identity(Identity("xy", "yx"), partial),
        lambda: structural_checks(partial),
    ):
        with pytest.raises(ClosureCapExceeded, match="cut off at its element cap of 10"):
            build()


def test_weighted_closure_cap_carries_a_partial_result():
    with pytest.raises(ClosureCapExceeded) as err:
        family("gossip_S", 3, MINPLUS01INF, element_cap=10)
    partial, full = err.value.partial, family("gossip_S", 3, MINPLUS01INF)
    assert partial.elements == full.elements[:10]
    assert partial.witness_words == full.witness_words[:10]
    assert partial.cayley_right is None


@pytest.fixture
def closure_paths(monkeypatch):
    """The closure paths that bfs_closure calls, in call order."""
    taken = []
    for name in ("_bitmask_encoding", "_coded_encoding", "_bfs_products"):
        real = getattr(monoids, name)
        monkeypatch.setattr(
            monoids, name, lambda *args, real=real, name=name: taken.append(name) or real(*args)
        )
    return taken


CODED = ["_coded_encoding"]
PRODUCTS = ["_coded_encoding", "_bfs_products"]  # the codes declined


@pytest.mark.parametrize(
    "S, paths",
    # max-times codes follow the degree law: one product at a time
    [(BOOL, ["_bitmask_encoding"]), (DIAMOND, CODED), (MINPLUS01INF, CODED), (INTERVAL01, PRODUCTS)],
    ids=["bool", "lattice:diamond", "minplus01inf", "interval01"],
)
def test_each_interval_instance_takes_its_closure_path(S, paths, closure_paths):
    family("gossip_S", 3, S)
    assert closure_paths == paths


@pytest.mark.parametrize("weight", [Fraction(1, 5), 2**59])
def test_weights_the_codes_cannot_hold_take_the_product_path(weight, closure_paths):
    # 1/5 is no multiple of min-plus's 1/12; 2^59 has no finite code
    result = bfs_closure([one_way_call(1, 2, 2, MINPLUS01INF, w) for w in (0, weight)])
    assert closure_paths == PRODUCTS
    assert [m.rows[0][1] for m in result.elements] == [INF, 0, weight]


@pytest.mark.parametrize("cap, paths", [(3, CODED), (4, PRODUCTS)], ids=["coded", "products"])
def test_min_plus_codes_past_the_cap_bound_take_the_product_path(cap, paths, closure_paths):
    # every finite code of a depth-d element is a sum of d generator codes:
    # the coded path needs element_cap times the widest one below INF_CODE
    wide = Fraction(INF_CODE // 4, 12)  # code 2^59
    assert len(bfs_closure([one_way_call(1, 2, 2, MINPLUS01INF, wide)], element_cap=cap)) == 2
    assert closure_paths == paths


def test_double_catalan_elements_are_convex():
    for n in range(1, 5):
        assert all(is_convex(m) for m in family("doubleCatalan", n).elements)


def test_reflexive_enumeration_counts():
    assert len(family("reflexiveBool", 3)) == 64
    assert all(is_reflexive(m) for m in family("reflexiveBool", 3).elements)


def test_weighted_families_respect_reflexivity_and_frozen_sizes():
    lossy = family("gossip_S", 3, MINPLUS01INF)
    assert len(lossy) == 220
    assert all(is_reflexive(m) for m in lossy.elements)
    assert len(family("catalanU_S", 3, MINPLUS01INF)) == 46
    assert len(family("doubleCatalan_S", 3, MINPLUS01INF)) == 76


def test_weighted_families_need_an_interval_instance():
    from sgident.errors import UnsupportedStructureError

    with pytest.raises(UnsupportedStructureError):
        family("gossip_S", 3, NAT)
    with pytest.raises(UnsupportedStructureError):
        family("gossip_S", 3)


def test_index_bound_flag_shrinks_the_generator_range():
    wide = family("gossip_S", 3, MINPLUS01INF, s_sample=(MINPLUS01INF.one,))
    narrow = family(
        "gossip_S", 3, MINPLUS01INF, s_sample=(MINPLUS01INF.one,), index_bound="n-1"
    )
    assert len(narrow.generators) < len(wide.generators)
    assert all(m in wide for m in narrow.elements)


def test_family_validation():
    with pytest.raises(ValueError):
        family("nonsense", 3)
    with pytest.raises(ValueError):
        family("gossip", 9)
    assert len(family("catalanU", 7, max_n=8)) == catalan_number(7)


def test_presentation_checks():
    for n in range(2, 6):
        report = check_catalan_presentation(n)
        assert report.ok, report
        assert report.closure_size == catalan_number(n)
    relations = dict(
        ((lhs, rhs), ok) for lhs, rhs, ok in check_catalan_presentation(4).relations
    )
    assert relations[("e1 e1", "e1")]
    assert relations[("e1 e3", "e3 e1")]
    assert relations[("e1 e2 e1", "e2 e1 e2")]
    assert relations[("e1 e2 e1", "e1 e2")]


def test_inclusion_chains():
    for n in (2, 3):
        report = check_inclusions(n)
        assert report.ok, report.entries


def test_weighted_inclusions_at_small_size():
    report = check_inclusions(2, MINPLUS01INF)
    assert report.ok, report.entries


def test_brute_force_identity_examples():
    commutativity = Identity.parse("xy=yx")
    assert isinstance(
        brute_force_identity(commutativity, family("catalanU", 2)), BruteForceHolds
    )
    result = brute_force_identity(commutativity, family("catalanU", 3))
    assert isinstance(result, BruteForceFails)
    lhs = multiply(result.matrices["x"], result.matrices["y"])
    rhs = multiply(result.matrices["y"], result.matrices["x"])
    assert lhs != rhs

    u3 = enumerate_unitriangular(3, BOOL)
    assert len(u3) == 8
    assert isinstance(
        brute_force_identity(Identity.parse("abab=abba"), u3), BruteForceHolds
    )
    ut2 = enumerate_upper_triangular(2, BOOL)
    assert len(ut2) == 8


def test_brute_force_counterexamples_are_canonical():
    ident = Identity.parse("xy=yx")
    a = brute_force_identity(ident, family("catalanU", 3))
    b = brute_force_identity(ident, family("catalanU", 3))
    assert a.assignment == b.assignment


# results of the fold one side at a time, which the shared-prefix fold keeps
BRUTE_FORCE_PINS = [
    ("x=xx", "oneWayGossip", 3, None, "fails", {"x": 10}),
    ("xy=xyx", "oneWayGossip", 3, None, "fails", {"x": 1, "y": 5}),
    ("xx=xx", "oneWayGossip", 3, None, "holds", 62),
    ("xyx=xyxx", "oneWayGossip", 3, None, "holds", 3844),
    ("xy=xyx", "gossip", 3, None, "fails", {"x": 1, "y": 2}),
    ("xyxy=xyxyx", "catalanU", 4, 3000, "fails", {"x": 12, "y": 0}),
    ("xyx=xxyx", "gossip", 3, 5000, "holds", 5000),
]


@pytest.mark.parametrize("text, name, n, sample, verdict, pinned", BRUTE_FORCE_PINS)
def test_brute_force_results_are_pinned(text, name, n, sample, verdict, pinned):
    seed = 2 if name == "catalanU" else 7
    result = brute_force_identity(Identity.parse(text), family(name, n), sample=sample, seed=seed)
    if verdict == "holds":
        assert result == BruteForceHolds(pinned)
    else:
        assert isinstance(result, BruteForceFails) and result.assignment == pinned


SMALL_MONOIDS = {
    "gossip(3)": lambda: family("gossip", 3),
    "catalanU(3)": lambda: family("catalanU", 3),
    "doubleCatalan(3)": lambda: family("doubleCatalan", 3),
    "U(3)": lambda: enumerate_unitriangular(3, BOOL),
}

# one to three letters, holds and fails, some with a common prefix
FOLD_IDENTITIES = (
    "x=xx", "xx=xxx", "xy=yx", "xyxy=yxyx", "xyz=zyx", "xyzxy=xyzyx", "zxyz=zyxz",
)


@cache
def _small_monoid(key):
    return SMALL_MONOIDS[key]()


@cache
def _first_failure_by_products(key, text):
    """The first counterexample in canonical order, or the number of
    assignments when there is none, one product per assignment: criterion
    23's reference, with each product formed by ``multiply`` and found back
    with ``index_of``; no table."""
    M = _small_monoid(key)
    ident = Identity.parse(text)

    def times(i, j):
        return M.index_of(multiply(M.elements[i], M.elements[j]))

    assignments = iproduct(range(len(M)), repeat=len(ident.alphabet))
    return acceptance._first_failure_by_products(ident, assignments, times)


@pytest.mark.parametrize("chunk", ["default", "1", "5", "m-1", "m+1"])
@pytest.mark.parametrize("key", list(SMALL_MONOIDS))
def test_brute_force_fold_matches_one_product_per_assignment(monkeypatch, key, chunk):
    # the default chunk holds every assignment in one block; m - 1 and m + 1
    # make blocks that cut one letter's range
    M = _small_monoid(key)
    m = len(M)
    if chunk != "default":
        monkeypatch.setattr(monoids, "_FOLD_CHUNK", {"1": 1, "5": 5, "m-1": m - 1, "m+1": m + 1}[chunk])
    verdicts = set()
    for text in FOLD_IDENTITIES:
        result = brute_force_identity(Identity.parse(text), M)
        want = _first_failure_by_products(key, text)
        if isinstance(want, int):
            assert want == m ** len(set(text) - {"="})
            assert result == BruteForceHolds(want), text
        else:
            assert isinstance(result, BruteForceFails) and result.assignment == want, text
        verdicts.add(type(result))
    assert verdicts == {BruteForceHolds, BruteForceFails}


def test_brute_force_refuses_a_negative_sample():
    with pytest.raises(ValueError, match="sample"):
        brute_force_identity(Identity.parse("ab=ba"), family("catalanU", 3), sample=-5)


def test_brute_force_budget_gate(monkeypatch):
    big = family("reflexiveBool", 3)
    monkeypatch.setattr(monoids, "ASSIGNMENT_CAP", 1000)
    with pytest.raises(BudgetExceededError):
        brute_force_identity(Identity.parse("abc=cba"), big)
    sampled = brute_force_identity(
        Identity.parse("abc=cba"), big, sample=500, seed=3
    )
    assert isinstance(sampled, BruteForceFails)
    # pinned: a change to the seeded assignment stream shows here
    assert sampled.assignment == {"a": 2, "b": 7, "c": 28}


def test_structural_checks_on_gossip():
    report = structural_checks(family("gossip", 3))
    # every element stabilizes by the square: A^2 = A^3
    assert report.aperiodic_within_bound
    assert all(p is not None and p <= 2 for p in report.power_index)
    assert report.j_trivial


def test_structural_checks_on_reflexive():
    monoid = family("reflexiveBool", 3)
    report = structural_checks(monoid)
    assert report.j_trivial
    z = all_ones(3, BOOL)
    assert monoid.index_of(z) in report.idempotents


def test_reflexive_families_sit_between_identity_and_the_top():
    from sgident.matrices import leq_entrywise

    for name in ("gossip", "oneWayGossip", "reflexiveBool"):
        monoid = family(name, 3)
        eye = identity_matrix(3, BOOL)
        z = all_ones(3, BOOL)
        for a in monoid.elements:
            assert leq_entrywise(eye, a) and leq_entrywise(a, z)
            assert multiply(a, z) == z == multiply(z, a)


def test_dump_labels():
    result = family("gossip", 3)
    assert result.witness_word(0) == "-"
    assert all(
        label.count("<>") == 1 for label in result.generator_labels
    )
