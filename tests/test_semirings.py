import functools
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_INSTANCES, IDEMPOTENT_INSTANCES, INTERVAL_INSTANCES
from sgident.errors import (
    InstanceMismatchError,
    InternalConsistencyError,
    UnsupportedStructureError,
)
from sgident.semirings import (
    BOOL,
    INF,
    INF_CODE,
    INTERVAL01,
    MAXPLUS,
    MINPLUS01INF,
    NAT,
    NEG_INF,
    Cyclic,
    FiniteCarrier,
    Free,
    SemiringDescriptor,
    SplitMix64,
    _mp_mul,
    _tp_mul,
    semiring_from_spec,
    truncated_nat,
)


def triples(S, seed=7, count=150):
    if S.is_finite:
        return list(product(S.values(), repeat=3))
    rng = random.Random(seed)
    return [tuple(S.sample_value(rng) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_semiring_laws(name):
    S = ALL_INSTANCES[name]
    for a, b, c in triples(S):
        assert S.add(a, b) == S.add(b, a)
        assert S.mul(a, b) == S.mul(b, a)
        assert S.add(S.add(a, b), c) == S.add(a, S.add(b, c))
        assert S.mul(S.mul(a, b), c) == S.mul(a, S.mul(b, c))
        assert S.mul(a, S.add(b, c)) == S.add(S.mul(a, b), S.mul(a, c))
        assert S.add(a, S.zero) == a
        assert S.mul(a, S.one) == a
        assert S.mul(a, S.zero) == S.zero


@pytest.mark.parametrize("name", sorted(IDEMPOTENT_INSTANCES))
def test_idempotency_and_order_compatibility(name):
    S = IDEMPOTENT_INSTANCES[name]
    for a, b, c in triples(S):
        assert S.add(a, a) == a
        assert S.natural_leq(a, a)
        if S.natural_leq(a, b):
            assert S.natural_leq(S.mul(S.mul(c, a), c), S.mul(S.mul(c, b), c))
            assert S.natural_leq(S.add(a, c), S.add(b, c))
        # zero is the least element
        assert S.natural_leq(S.zero, a)


@pytest.mark.parametrize("name", sorted(INTERVAL_INSTANCES))
def test_interval_instances_have_one_on_top(name):
    S = INTERVAL_INSTANCES[name]
    rng = random.Random(3)
    values = S.values() if S.is_finite else [S.sample_value(rng) for _ in range(200)]
    for a in values:
        assert S.natural_leq(a, S.one)


def test_boolean_addition_saturates():
    assert BOOL.add(BOOL.one, BOOL.one) == BOOL.one
    assert BOOL.natural_leq(BOOL.zero, BOOL.one)


def test_maxplus_arithmetic():
    assert MAXPLUS.add(MAXPLUS.val(3), MAXPLUS.val(5)) == MAXPLUS.val(5)
    assert MAXPLUS.mul(MAXPLUS.val(3), MAXPLUS.val(5)) == MAXPLUS.val(8)
    assert MAXPLUS.mul(MAXPLUS.val(3), MAXPLUS.zero) == MAXPLUS.zero
    assert MAXPLUS.zero.payload == NEG_INF


def test_minplus_interval_order_is_reversed():
    S = MINPLUS01INF
    # addition is min, so 5 + 2 = 2 and therefore 5 <= 2 in the natural order
    assert S.natural_leq(S.val(5), S.val(2))
    assert S.natural_leq(S.val(INF), S.val(0))
    assert S.one == S.val(0)


def test_interval01_multiplication():
    S = ALL_INSTANCES["interval01"]
    half = S.val(Fraction(1, 2))
    assert S.mul(half, half) == S.val(Fraction(1, 4))


def test_natural_order_rejected_outside_idempotent_instances():
    with pytest.raises(UnsupportedStructureError):
        NAT.natural_leq(NAT.val(1), NAT.val(2))


def test_instance_mismatch_is_an_error():
    with pytest.raises(InstanceMismatchError):
        BOOL.add(BOOL.one, NAT.val(1))


def test_nat_embed_examples():
    assert BOOL.nat_embed(5) == BOOL.one
    assert NAT.nat_embed(7) == NAT.val(7)
    trunc = semiring_from_spec("nat:2,3")
    # 6 reduces to 2 + ((6 - 2) mod 3) = 3; repeated addition agrees
    by_addition = trunc.zero
    for _ in range(6):
        by_addition = trunc.add(by_addition, trunc.one)
    assert trunc.nat_embed(6) == by_addition == trunc.val(3)
    assert trunc.nat_embed(10 ** 12) == trunc.nat_embed(2 + (10 ** 12 - 2) % 3)


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_nat_embed_is_additive(name):
    S = ALL_INSTANCES[name]
    for j in range(0, 33, 3):
        for k in range(0, 33, 5):
            assert S.nat_embed(j + k) == S.add(S.nat_embed(j), S.nat_embed(k))


def test_monogenic_classification():
    assert BOOL.monogenic == Cyclic(1, 1)
    assert NAT.monogenic == Free()
    assert semiring_from_spec("nat:2,3").monogenic == Cyclic(2, 3)
    assert MAXPLUS.monogenic == Cyclic(1, 1)
    for name, S in IDEMPOTENT_INSTANCES.items():
        assert S.monogenic == Cyclic(1, 1), name


def test_declared_classification_is_verified():
    from sgident.semirings import InfiniteCarrier, SemiringDescriptor

    with pytest.raises(InternalConsistencyError):
        SemiringDescriptor(
            "broken",
            max,
            lambda a, b: a and b,
            False,
            True,
            idempotent=True,
            interval=False,
            carrier=InfiniteCarrier(lambda rng: True),
            monogenic=Free(),
        )


def _z3(**flags):
    add, mul = lambda a, b: (a + b) % 3, lambda a, b: (a * b) % 3
    return SemiringDescriptor("z3", add, mul, 0, 1, carrier=FiniteCarrier((0, 1, 2)), **flags)


def test_finite_flags_are_read_off_the_addition():
    assert (BOOL.is_idempotent, BOOL.is_interval) == (True, True)
    assert (_z3().is_idempotent, _z3().is_interval) == (False, False)
    # the truncated naturals: idempotent only when 1 + 1 = 1; then 1 is the top
    for spec, flags in (("nat:1,1", (True, True)), ("nat:2,3", (False, False)), ("nat:0,1", (True, True))):
        S = semiring_from_spec(spec)
        assert (S.is_idempotent, S.is_interval) == flags, spec
    # max and min on {0, 1, 2} with unit 1: idempotent, but 2 lies above 1
    above = SemiringDescriptor("above", max, min, 0, 1, carrier=FiniteCarrier((0, 1, 2)))
    assert (above.is_idempotent, above.is_interval) == (True, False)
    assert _z3(idempotent=False, interval=False).is_interval is False


def test_wrong_finite_flags_are_refused():
    with pytest.raises(InternalConsistencyError, match="declared idempotent=True"):
        _z3(idempotent=True, interval=True)
    with pytest.raises(InternalConsistencyError, match="declared interval=True"):
        SemiringDescriptor(
            "above", max, min, 0, 1, carrier=FiniteCarrier((0, 1, 2)), interval=True
        )
    # an infinite carrier's flags cannot be read off; they must be declared
    with pytest.raises(ValueError, match="must declare idempotent and interval"):
        SemiringDescriptor("nat", NAT._add, NAT._mul, 0, 1, carrier=NAT.carrier, monogenic=Free())


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_truncated_embedding_matches_plain_reduction(m):
    trunc = truncated_nat(2, 3)
    expected = m if m < 5 else 2 + (m - 2) % 3
    assert trunc.nat_embed(m) == trunc.val(expected)


def test_spec_parsing_roundtrip():
    assert semiring_from_spec("bool") is BOOL
    assert semiring_from_spec("nat:2,3") is semiring_from_spec("nat:2,3")
    with pytest.raises(ValueError):
        semiring_from_spec("frobnicate")
    with pytest.raises(ValueError):
        semiring_from_spec("nat:2")


def test_every_spelling_of_a_truncated_naturals_spec_gives_one_instance():
    S = semiring_from_spec("nat:2,3")
    assert semiring_from_spec("nat:02,3") is S
    assert semiring_from_spec("nat: 2, 3") is S


def test_value_formatting():
    assert MAXPLUS.format_value(MAXPLUS.zero) == "-inf"
    assert MINPLUS01INF.parse_value("inf") == MINPLUS01INF.zero
    S = ALL_INSTANCES["interval01"]
    assert S.parse_value("1/2") == S.val(Fraction(1, 2))
    D = ALL_INSTANCES["lattice:diamond"]
    assert D.format_value(D.one) == "1"
    assert D.parse_value("a") == D.val(1)
    with pytest.raises(ValueError):
        D.parse_value("c")


def test_carrier_membership_enforced():
    S = ALL_INSTANCES["interval01"]
    with pytest.raises(ValueError):
        S.val(Fraction(3, 2))
    with pytest.raises(ValueError):
        NAT.val(-1)


def test_sampling_is_deterministic():
    a = [MAXPLUS.sample_value(random.Random(42)) for _ in range(20)]
    b = [MAXPLUS.sample_value(random.Random(42)) for _ in range(20)]
    assert a == b


# the first draws at seed 7, as drawn before raw draws existed
FIRST_DRAWS = {
    "bool": "1 0 1 0 0 0",
    "interval01": "1/3 0 0 0 1/5 0",
    "lattice:diamond": "b a 1 0 0 0",
    "maxplus": "-7/3 -3 -inf 16 -inf -12",
    "minplus01inf": "4/3 1/2 inf 16 inf 2",
    "nat": "2 0 8 9 8 1",
    "nat:2,3": "2 1 3 0 0 4",
}


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_raw_draws_match_the_wrapped_draws(name):
    S = ALL_INSTANCES[name]
    raw_rng, wrapped_rng = random.Random(7), random.Random(7)
    raw = [S.sample_payload(raw_rng) for _ in range(300)]
    wrapped = [S.sample_value(wrapped_rng).payload for _ in range(300)]
    # the same values of the same types, so the rng streams stay in step
    assert [(type(p), p) for p in raw] == [(type(p), p) for p in wrapped]
    assert raw_rng.random() == wrapped_rng.random()
    assert " ".join(S._format(p) for p in raw[:6]) == FIRST_DRAWS[name]


def test_splitmix64_stream():
    # the published first output of SplitMix64 from state 0
    assert int(SplitMix64(0).raw(1)[0]) == 0xE220A8397B1DCDAF
    # any split over calls continues one stream
    whole = SplitMix64(11).integers(0, 1000, (6, 7))
    gen = SplitMix64(11)
    parts = [gen.integers(0, 1000, k) for k in (1, 5, 13, 23)]
    assert np.concatenate(parts).tolist() == whole.ravel().tolist()
    assert whole.dtype == np.int64 and whole.shape == (6, 7)
    # every int is a seed of its own stream: negatives, and past 64 bits
    seeds = (0, 1, -1, 2, -2, 2**63, -(2**63), 2**64, 2**64 + 1, -(2**64), 10**40)
    firsts = {tuple(SplitMix64(seed).raw(4).tolist()) for seed in seeds}
    assert len(firsts) == len(seeds)
    drawn = SplitMix64(5).integers(-3, 4, 7000)
    assert drawn.min() == -3 and drawn.max() == 3
    assert all(900 < count < 1100 for count in np.bincount(drawn + 3))
    for low, high in ((0, 0), (0, 2**11 + 1)):
        with pytest.raises(ValueError):
            SplitMix64(0).integers(low, high, 3)


class _EveryDraw:
    """A stand-in Generator whose ``integers`` returns each value once."""

    def integers(self, low, high, shape):
        return np.arange(low, high)


def _sampler_law(name):
    """The exact distribution of the code draws, payload -> probability: the
    payload sampler's over minplus01inf, and over interval01 the nine values
    1, 1/2, ..., 1/128 and 0 alike."""
    law = {}
    if name == "minplus01inf":
        law[INF] = Fraction(1, 8)
        for num in range(25):
            for den in (1, 1, 2, 3, 4):
                p = Fraction(num, den)
                law[p] = law.get(p, 0) + Fraction(7, 8) / 25 / 5
    else:
        for p in [Fraction(1, 2**k) for k in range(8)] + [0]:
            law[p] = Fraction(1, 9)
    return law


@pytest.mark.parametrize("name", ["minplus01inf", "interval01"])
def test_code_draws_follow_the_payload_sampler(name):
    S = ALL_INSTANCES[name]
    # every value of the one integer draw per entry, each equally likely
    codes = S.codes.draw(_EveryDraw(), None).tolist()
    law = {}
    for c in codes:
        p = S.codes.payload(c)
        law[p] = law.get(p, 0) + Fraction(1, len(codes))
    assert law == _sampler_law(name)
    # min and + on codes, clamped at INF_CODE, are the instance's operations
    # on payloads
    a, b = S.codes.draw(SplitMix64(9), (2, 500))
    added, multiplied = np.minimum(a, b), np.minimum(a + b, INF_CODE)
    for x, y, s, m in zip(a.tolist(), b.tolist(), added.tolist(), multiplied.tolist()):
        px, py = S.codes.payload(x), S.codes.payload(y)
        assert S.codes.payload(s) == S._add(px, py)
        assert S.codes.payload(m) == S._mul(px, py)


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_finite_code_draws_are_the_table_codes(name):
    S = ALL_INSTANCES[name]
    if not S.is_finite:
        if S.carrier.codes is None:
            with pytest.raises(UnsupportedStructureError):
                S.codes.draw(SplitMix64(0), (3,))
        return
    c = len(S.carrier.values)
    assert S.codes.draw(_EveryDraw(), None).tolist() == list(range(c))
    assert [S.codes.payload(k) for k in range(c)] == S.tables.payloads
    drawn = S.codes.draw(SplitMix64(0), (4, 5))
    assert drawn.shape == (4, 5) and drawn.dtype == np.uint8


# -- coded arithmetic ------------------------------------------------------------

# the instances with integer codes; the others have none
INTEGER_CODES = ("interval01", "minplus01inf")


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_batch_arithmetic_is_built_once(name):
    S = ALL_INSTANCES[name]
    if S.is_finite:
        assert S.tables is S.tables
        assert S.tables.payloads == list(S.carrier.values)
    else:
        with pytest.raises(UnsupportedStructureError):
            S.tables


@pytest.mark.parametrize("name", sorted(ALL_INSTANCES))
def test_scaled_batch_follows_the_declared_law(name):
    # a product of k drawn codes, their sum clamped at INF_CODE, is the code
    # of the payloads' product, in int64
    S = ALL_INSTANCES[name]
    codes = None if S.is_finite else S.carrier.codes
    if name not in INTEGER_CODES:
        assert codes is None
        return
    assert codes.dtype is np.int64
    drawn = S.codes.draw(SplitMix64(11), (3, 200))
    assert drawn.dtype == np.int64
    for k in (1, 2, 3):
        products = np.minimum(drawn[:k].sum(axis=0), INF_CODE)
        for column, code in zip(drawn[:k].T.tolist(), products.tolist()):
            want = functools.reduce(S._mul, [S.codes.payload(c) for c in column])
            assert S.codes.payload(code) == want
            assert code == S.codes.encode(want)


@pytest.mark.parametrize(
    "S, payloads, expected",
    [
        # (the payloads' codes, the code of their product)
        (INTERVAL01, [Fraction(1, 2), Fraction(1, 8), 1], ([1, 3, 0], 4)),
        (MINPLUS01INF, [INF, Fraction(3, 2), 0], ([INF_CODE, 18, 0], INF_CODE)),
        (MINPLUS01INF, [Fraction(3, 2), Fraction(1, 3), 0], ([18, 4, 0], 22)),
        (INTERVAL01, [0, Fraction(1, 4), Fraction(1, 2)], ([INF_CODE, 2, 1], INF_CODE)),
    ],
)
def test_scaled_batch_examples(S, payloads, expected):
    codes = S.codes
    want_codes, want_product = expected
    assert [codes.encode(p) for p in payloads] == want_codes
    assert [codes.payload(c) for c in want_codes] == payloads
    assert min(sum(want_codes), INF_CODE) == want_product
    assert codes.payload(want_product) == functools.reduce(S._mul, payloads)


def test_scaled_batch_leaves_a_user_instance_without_a_law_untouched():
    # a finite carrier's codes are its table codes, never scaled
    halves = SemiringDescriptor(
        "halves", max, min, 0, 1,
        idempotent=True, interval=True, carrier=FiniteCarrier((0, Fraction(1, 2), 1)),
    )
    assert halves.codes.draw(_EveryDraw(), None).tolist() == [0, 1, 2]
    assert [halves.codes.payload(k) for k in range(3)] == list(halves.carrier.values)
    assert halves.codes.dtype is np.uint8


@pytest.mark.parametrize("payload", [Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), 2, Fraction(-1, 2)])
def test_interval_codes_refuse_payloads_other_than_zero_and_powers_of_one_half(payload):
    with pytest.raises(ValueError, match="power of 1/2"):
        INTERVAL01.codes.encode(payload)


def test_interval_codes_of_zero_and_powers_of_one_half_round_trip():
    codes = INTERVAL01.codes
    payloads = [0] + [Fraction(1, 2**k) for k in range(61)]
    assert [codes.encode(p) for p in payloads] == [INF_CODE] + list(range(61))
    assert [codes.payload(codes.encode(p)) for p in payloads] == payloads
    assert codes.payload(INF_CODE + 5) == 0 and codes.payload(np.int64(3)) == Fraction(1, 8)


def _finite(name, add, mul, carrier, zero, one):
    return SemiringDescriptor(
        name, add, mul, zero, one,
        idempotent=True, interval=True, carrier=FiniteCarrier(carrier),
    )


def test_bitmask_lattices_are_read_off_the_tables():
    eligible = {name for name, S in ALL_INSTANCES.items() if S.is_bitmask_lattice}
    assert eligible == {"bool", "lattice:diamond"}
    assert semiring_from_spec("nat:1,1").is_bitmask_lattice
    assert not semiring_from_spec("nat:2,2").is_bitmask_lattice
    # B^3 under an unrelated name
    cube = _finite("chain", lambda a, b: a | b, lambda a, b: a & b, tuple(range(8)), 0, 7)
    assert cube.is_bitmask_lattice


def test_lattices_whose_codes_are_not_bitmasks_are_not_bitmask_lattices():
    # a 3-element chain: not a power of two
    chain3 = _finite("bool", max, min, (0, 1, 2), 0, 2)
    # a 4-element chain: join 1 + 2 is 2, not the bitwise 1 | 2 = 3
    chain4 = _finite("lattice:diamond", max, min, (0, 1, 2, 3), 0, 3)
    # the diamond listed as (0, 1, 3, 2): payload 3 has code 2, so the codes
    # add as bitmasks no longer
    shuffled = _finite("lattice:diamond", lambda a, b: a | b, lambda a, b: a & b, (0, 1, 3, 2), 0, 3)
    for S in (chain3, chain4, shuffled):
        assert not S.is_bitmask_lattice


def test_min_plus_codes_refuse_finite_payloads_that_reach_the_infinite_code():
    codes = MINPLUS01INF.codes
    largest = Fraction(INF_CODE - 1, codes.scale)
    assert codes.payload(codes.encode(largest)) == largest
    for payload in (Fraction(INF_CODE, codes.scale), Fraction(2**59), 2**60):
        with pytest.raises(ValueError, match="INF_CODE"):
            codes.encode(payload)
    assert codes.encode(INF) == INF_CODE


@pytest.mark.parametrize("infinity", [INF, float("inf")], ids=["INF", "built"])
@pytest.mark.parametrize("finite", [Fraction(7, 3), 5, 0], ids=repr)
def test_tropical_products_absorb_an_infinity(finite, infinity):
    assert _tp_mul(finite, infinity) == INF and _tp_mul(infinity, finite) == INF
    assert _tp_mul(infinity, infinity) == INF
    assert _mp_mul(finite, -infinity) == NEG_INF and _mp_mul(-infinity, finite) == NEG_INF
    assert _tp_mul(finite, Fraction(1, 3)) == _mp_mul(finite, Fraction(1, 3)) == finite + Fraction(1, 3)
