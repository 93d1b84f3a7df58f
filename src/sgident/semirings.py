"""Exact commutative semirings and their arithmetic.

Every value is a tagged exact scalar: a bool, an arbitrary-precision int, a
Fraction, or an IEEE infinity used as a formal +/-inf element.  Finite floats
are never produced, so equality of values is always exact and verdicts built
on top of them are bit-reproducible.

Shipped instances (see :func:`semiring_from_spec` for the CLI spellings):

* ``bool``            -- the Boolean semiring {0, 1} with 1+1=1;
* ``nat``             -- the natural numbers with ordinary + and *;
* ``nat:<i>,<p>``     -- naturals truncated so that m and m+p coincide once
                         m >= i; a finite quotient realizing every eventually
                         periodic arithmetic of repeated sums of 1;
* ``maxplus``         -- rationals with -inf, addition = max, product = +;
* ``minplus01inf``    -- rationals in [0, inf], addition = min, product = +;
* ``interval01``      -- rationals in [0, 1], addition = max, ordinary *;
* ``lattice:diamond`` -- the four-element distributive lattice 2x2 with
                         join as addition and meet as product.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    AlgebraError,
    InstanceMismatchError,
    InternalConsistencyError,
    UnsupportedStructureError,
)

INF = math.inf
NEG_INF = -math.inf

Payload = Union[bool, int, Fraction, float]

def _normalize(payload: Payload) -> Payload:
    # bool first: bool is a subclass of int
    if isinstance(payload, bool):
        return payload
    if isinstance(payload, Fraction) and payload.denominator == 1:
        return int(payload)
    return payload


@dataclass(frozen=True, slots=True)
class Val:
    """A semiring element: instance tag plus exact scalar payload."""

    tag: str
    payload: Payload

    def __repr__(self) -> str:
        return f"<{self.tag}:{self.payload}>"


@dataclass(frozen=True)
class Free:
    """Repeated sums of 1 are pairwise distinct."""


@dataclass(frozen=True)
class Cyclic:
    """Repeated sums of 1 repeat: the m-fold and (m+period)-fold sums coincide
    once m >= index, and the first index+period sums are pairwise distinct."""

    index: int
    period: int


Monogenic = Union[Free, Cyclic]

FREE = Free()


@dataclass(frozen=True)
class FiniteCarrier:
    values: tuple


class SplitMix64:
    """A seeded stream of uniform integers for numpy kernels: SplitMix64
    (Steele, Lea and Flood 2014), whose i-th output depends on the seed and
    i alone, so any split of the stream over calls gives the same values.

    Every int is a seed.  It is mapped one-to-one onto the naturals (0, 1,
    2, ... to 0, 2, 4, ...; -1, -2, ... to 1, 3, ...); a natural below 2^64
    is the initial state, and a larger one is folded into it 64 bits at a
    time, each fold one SplitMix64 step.  ``numpy.random`` is not used:
    importing it loads ``secrets``, OpenSSL and nine extension modules,
    about 6 MB of resident memory."""

    _GAMMA = np.uint64(0x9E3779B97F4A7C15)
    _MASK = 2**64 - 1

    def __init__(self, seed: int):
        z = 2 * seed if seed >= 0 else -2 * seed - 1
        state = np.array([z & self._MASK], dtype=np.uint64)
        while z := z >> 64:
            state = self._mix(state + self._GAMMA) ^ np.uint64(z & self._MASK)
        self._state = state[0]
        self._position = 0

    @staticmethod
    def _mix(x: np.ndarray) -> np.ndarray:
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def raw(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs."""
        steps = np.arange(self._position + 1, self._position + count + 1, dtype=np.uint64)
        self._position += count
        return self._mix(self._state + steps * self._GAMMA)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        """An array of int64 draws in ``low .. high - 1`` (the signature of
        numpy's ``Generator.integers``).  Each value has probability
        1/(high - low), up to a relative error below (high - low)/2^52; spans
        of up to 2^11 values."""
        span = high - low
        if not 0 < span <= 2**11:
            raise ValueError(f"spans of 1 to 2048 integers, not {span}")
        top = self.raw(math.prod(np.atleast_1d(shape))) >> np.uint64(12)
        drawn = (top * np.uint64(span)) >> np.uint64(52)
        return drawn.astype(np.int64).reshape(shape) + low


# Every integer code from INF_CODE up stands for the min-plus infinity (inf
# over minplus01inf, 0 over interval01); two such codes still add up within
# int64.
INF_CODE = 2**61


class IntegerCodes(NamedTuple):
    """An infinite carrier's seeded sampler drawn as exact integer codes, for
    numpy kernels, which multiply them as min-plus: a sum of codes is their
    ``np.minimum``, a product their ``np.add``, and every code from
    ``INF_CODE`` up stands for the formal infinity.  A code is a payload
    times ``scale``, and x -> scale*x respects min and +, so a product of
    codes is the code of the product; ``encode`` refuses a finite payload
    whose code would reach ``INF_CODE``.  ``draw(gen, shape)`` returns
    int64 codes from one ``gen.integers`` call on a :class:`SplitMix64`
    stream.  Products clamp at ``INF_CODE`` and two codes up to it add
    within int64, so every product is ``dtype``, int64, whatever its
    length."""

    draw: Callable[[SplitMix64, tuple], np.ndarray]
    scale: int = 1

    dtype = np.int64

    def encode(self, payload: Payload) -> int:
        if payload == INF:
            return INF_CODE
        code = Fraction(payload) * self.scale
        if code.denominator != 1:
            raise ValueError(f"{payload} is no multiple of 1/{self.scale}")
        if code >= INF_CODE:
            raise ValueError(f"{payload} is finite but its code reaches INF_CODE")
        return code.numerator

    def payload(self, code: int) -> Payload:
        if code >= INF_CODE:
            return INF
        return _normalize(Fraction(code, self.scale))

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products of (..., n, n) code stacks whose leading axes
        broadcast, clamped at ``INF_CODE``.  The inner index is summed one k
        at a time, so no (..., n, n, n) array of entry products is formed."""
        out = a[..., :, :1] + b[..., :1, :]
        for k in range(1, a.shape[-1]):
            np.minimum(out, a[..., :, k : k + 1] + b[..., k : k + 1, :], out=out)
        return np.minimum(out, INF_CODE, out=out)


class DyadicCodes(IntegerCodes):
    """Integer codes of D = {0} ∪ {2^-k : k >= 0} under max and ×: code k
    for 2^-k and ``INF_CODE`` for 0.  x -> -log2(x) maps D onto the
    naturals with infinity, max onto min and × onto +, so the min-plus
    kernels multiply these codes as they are; ``scale`` is not read.
    ``encode`` refuses a payload outside D."""

    __slots__ = ()

    def encode(self, payload: Payload) -> int:
        if payload == 0:
            return INF_CODE
        k = Fraction(payload).denominator.bit_length() - 1
        if payload != Fraction(1, 1 << k):
            raise ValueError(f"{payload} is neither 0 nor a power of 1/2")
        return k

    def payload(self, code: int) -> Payload:
        return 0 if code >= INF_CODE else _normalize(Fraction(1, 1 << int(code)))


class TropicalShape(NamedTuple):
    """How an idempotent instance reads as a tropical semiring, which the
    exact hull decision of :func:`sgident.polynomials.functionally_equivalent`
    runs on.  A polynomial there is, monomial by monomial, the linear form
    of its exponent vector, and a variable at the zero element drops every
    monomial that holds it.  Without ``orthant`` the polynomial is the max
    of its forms over all rationals (max-plus, no recession cone); with it,
    the min over the non-negative rationals (min-plus, the orthant as
    recession cone).  ``point(y)`` is the payload at which a variable takes
    the integer coordinate y (y >= 0 under ``orthant``)."""

    orthant: bool
    point: Callable[[int], Payload]


@dataclass(frozen=True)
class InfiniteCarrier:
    """A seeded sampler over a fixed countable subset of the carrier, and
    optionally integer codes, which the spot-check draws: with the
    sampler's distribution over ``minplus01inf``, and from the dyadic subset
    D of the carrier over ``interval01`` (see :class:`DyadicCodes`)."""

    sample: Callable[[random.Random], Payload]
    codes: Optional[IntegerCodes] = None


class FiniteTables:
    """A finite carrier coded as 0..c-1 with (c, c) numpy add/mul tables for
    bulk evaluation: the sum of codes a and b is ``add[a, b]``, and arrays of
    codes index a table as they are, broadcast against each other (a flat
    index a * c + b would be one more array, of intp, 8 bytes per entry).
    Codes are ``dtype``: uint8 up to 256 values, uint16 up to 2^16."""

    def __init__(self, S: SemiringDescriptor):
        payloads = list(S.carrier.values)
        c = len(payloads)
        if c > 1 << 16:
            raise AlgebraError("finite carrier too large for coded evaluation")
        self.dtype = np.uint8 if c <= 1 << 8 else np.uint16
        self.payloads = payloads
        self.code = {p: i for i, p in enumerate(payloads)}
        self.add = np.zeros((c, c), dtype=self.dtype)
        self.mul = np.zeros((c, c), dtype=self.dtype)
        for i, a in enumerate(payloads):
            for j, b in enumerate(payloads):
                self.add[i, j] = self.code[_normalize(S._add(a, b))]
                self.mul[i, j] = self.code[_normalize(S._mul(a, b))]
        self.zero_code = self.code[S._zero_payload]
        self.size = c
        self.powers = {1: np.arange(c, dtype=self.dtype)}

    def power(self, exponent: int) -> np.ndarray:
        """The codes of x^exponent for x = 0..c-1."""
        vec = self.powers.get(exponent)
        if vec is None:
            base = vec = self.powers[1]
            for _ in range(exponent - 1):
                vec = self.mul[vec, base]
            self.powers[exponent] = vec
        return vec

    def draw(self, gen: SplitMix64, shape: tuple) -> np.ndarray:
        """Uniform codes, as :meth:`SemiringDescriptor.sample_payload` draws."""
        return gen.integers(0, self.size, shape).astype(self.dtype)

    def encode(self, payload: Payload) -> int:
        return self.code[payload]

    def payload(self, code: int) -> Payload:
        return _normalize(self.payloads[code])

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products of (..., n, n) code stacks whose leading axes
        broadcast, by table gathers, one inner index k at a time."""
        out = self.mul[a[..., :, :1], b[..., :1, :]]
        for k in range(1, a.shape[-1]):
            out = self.add[out, self.mul[a[..., :, k : k + 1], b[..., k : k + 1, :]]]
        return out


class SemiringDescriptor:
    """A commutative semiring instance with exact, total operations.

    ``add``/``mul`` work on raw payloads; the public methods wrap results in
    tagged values and reject operands from other instances.
    ``is_idempotent`` and ``is_interval`` (idempotent with 1 the top) are
    read off a finite carrier's addition, where a declared value must
    agree, and declared for an infinite one.  ``tropical`` declares a
    :class:`TropicalShape`, or is None.  The array arithmetic of
    coded evaluation lives here too: :attr:`tables` (coded tables of a
    finite carrier) and :attr:`is_bitmask_lattice` (read off those tables),
    both built on first use.  So does :attr:`codes`, the code object that
    the spot-check draws and multiplies with and the weighted closures run
    on: the :attr:`tables`, or an infinite carrier's :class:`IntegerCodes`.
    Descriptors are immutable after construction and may be shared
    freely across workers.
    """

    def __init__(
        self,
        name: str,
        add: Callable[[Payload, Payload], Payload],
        mul: Callable[[Payload, Payload], Payload],
        zero: Payload,
        one: Payload,
        *,
        carrier: Union[FiniteCarrier, InfiniteCarrier],
        idempotent: Optional[bool] = None,
        interval: Optional[bool] = None,
        monogenic: Optional[Monogenic] = None,
        free_rank1: Optional[Payload] = None,
        partial_sums_distinct: bool = False,
        contains: Optional[Callable[[Payload], bool]] = None,
        format_payload: Optional[Callable[[Payload], str]] = None,
        parse_payload: Optional[Callable[[str], Payload]] = None,
        interval_sample: Optional[tuple] = None,
        tropical: Optional[TropicalShape] = None,
    ):
        self.name = name
        self._add = add
        self._mul = mul
        self._zero_payload = _normalize(zero)
        self._one_payload = _normalize(one)
        self.carrier = carrier
        self.is_idempotent, self.is_interval = self._establish_flags(idempotent, interval)
        self._contains = contains
        self._format = format_payload or str
        self._parse = parse_payload
        self.free_rank1_payload = (
            _normalize(free_rank1) if free_rank1 is not None else None
        )
        self.partial_sums_distinct = partial_sums_distinct
        self._interval_sample = interval_sample
        if tropical is not None and not self.is_idempotent:
            raise ValueError(f"{name}: a tropical shape needs an idempotent instance")
        self.tropical = tropical
        self._embed_cache: dict = {}
        self.monogenic = self._establish_monogenic(monogenic)

    # -- construction helpers -------------------------------------------------

    def _establish_flags(self, idempotent: Optional[bool], interval: Optional[bool]) -> tuple:
        """``(idempotent, interval)``: a + a = a for every a, and moreover
        a + 1 = 1 (1 is the top).  A finite carrier's are read off its
        addition, and a declared value must agree; an infinite carrier
        declares both."""
        declared = (idempotent, interval)
        if not isinstance(self.carrier, FiniteCarrier):
            if None in declared:
                raise ValueError(f"{self.name}: infinite carriers must declare idempotent and interval")
            return declared
        values = [_normalize(p) for p in self.carrier.values]
        idempotent = all(_normalize(self._add(a, a)) == a for a in values)
        one = self._one_payload
        computed = (
            idempotent,
            idempotent and all(_normalize(self._add(a, one)) == one for a in values),
        )
        for name, flag, value in zip(("idempotent", "interval"), declared, computed):
            if flag is not None and flag != value:
                raise InternalConsistencyError(
                    f"{self.name}: declared {name}={flag} but its addition gives {value}"
                )
        return computed

    def _establish_monogenic(self, declared: Optional[Monogenic]) -> Monogenic:
        if isinstance(self.carrier, FiniteCarrier):
            limit = len(self.carrier.values) + 2
            repeat = self._first_repeat(limit + 1)
            if repeat is None:
                raise InternalConsistencyError(
                    f"{self.name}: no repetition among the first {limit} sums of 1 "
                    "in a finite carrier"
                )
            m, first = repeat
            computed = Cyclic(index=first, period=m - first)
            if declared is not None and declared != computed:
                raise InternalConsistencyError(
                    f"{self.name}: declared monogenic class {declared} but "
                    f"iteration of repeated sums of 1 gives {computed}"
                )
            return computed
        if declared is None:
            raise ValueError(f"{self.name}: infinite carriers must declare a monogenic class")
        # a declared collision is checked at the first sum past the distinct ones
        distinct = 64 if isinstance(declared, Free) else declared.index + declared.period
        repeat = self._first_repeat(distinct + isinstance(declared, Cyclic))
        if repeat is not None and repeat[0] < distinct:
            raise InternalConsistencyError(
                f"{self.name}: sums of 1 repeat before index {repeat[0]}, "
                "contradicting the declared monogenic class"
            )
        if isinstance(declared, Cyclic) and repeat != (distinct, declared.index):
            raise InternalConsistencyError(
                f"{self.name}: declared collision at index {declared.index}, "
                f"period {declared.period} does not hold"
            )
        return declared

    def _first_repeat(self, count: int) -> Optional[tuple]:
        """``(m, first)`` for the first m < ``count`` whose m-fold sum of 1
        (built by adding 1 to the last) is the first-fold one, first < m, or
        None when the first ``count`` sums are distinct."""
        seen: dict = {}
        current = self._zero_payload
        for m in range(count):
            if current in seen:
                return m, seen[current]
            seen[current] = m
            current = _normalize(self._add(current, self._one_payload))
        return None

    # -- values ---------------------------------------------------------------

    @property
    def zero(self) -> Val:
        return Val(self.name, self._zero_payload)

    @property
    def one(self) -> Val:
        return Val(self.name, self._one_payload)

    def val(self, payload: Payload) -> Val:
        """Wrap a payload, normalizing and checking carrier membership."""
        if isinstance(payload, Val):
            if payload.tag != self.name:
                raise InstanceMismatchError(
                    f"value tagged {payload.tag!r} used with instance {self.name!r}"
                )
            return payload
        payload = _normalize(payload)
        if self._contains is not None and not self._contains(payload):
            raise ValueError(f"{payload!r} is not in the carrier of {self.name}")
        return Val(self.name, payload)

    def _wrap(self, payload: Payload) -> Val:
        return Val(self.name, _normalize(payload))

    def payload_of(self, v: Val) -> Payload:
        if v.tag != self.name:
            raise InstanceMismatchError(
                f"value tagged {v.tag!r} used with instance {self.name!r}"
            )
        return v.payload

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: Val, b: Val) -> Val:
        return self._wrap(self._add(self.payload_of(a), self.payload_of(b)))

    def mul(self, a: Val, b: Val) -> Val:
        return self._wrap(self._mul(self.payload_of(a), self.payload_of(b)))

    def natural_leq(self, a: Val, b: Val) -> bool:
        """a <= b in the natural partial order, i.e. a + b equals b."""
        if not self.is_idempotent:
            raise UnsupportedStructureError(
                f"{self.name} is not idempotent; the natural order is undefined"
            )
        return self.add(a, b) == b

    def nat_embed(self, m: int) -> Val:
        """The m-fold sum of 1 (the empty sum for m = 0)."""
        if m < 0:
            raise ValueError("nat_embed needs a nonnegative argument")
        cls = self.monogenic
        if isinstance(cls, Cyclic) and m >= cls.index + cls.period:
            m = cls.index + (m - cls.index) % cls.period
        cached = self._embed_cache.get(m)
        if cached is not None:
            return cached
        result = self._zero_payload
        addend = self._one_payload
        k = m
        while k:
            if k & 1:
                result = self._add(result, addend)
            k >>= 1
            if k:
                addend = self._add(addend, addend)
        wrapped = self._wrap(result)
        if m <= 128:
            self._embed_cache[m] = wrapped
        return wrapped

    # -- carrier access -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return isinstance(self.carrier, FiniteCarrier)

    def values(self) -> list:
        if not self.is_finite:
            raise UnsupportedStructureError(f"{self.name} has an infinite carrier")
        return [self._wrap(p) for p in self.carrier.values]

    def sample_payload(self, rng: random.Random) -> Payload:
        """One seeded draw from the carrier, as a normalized raw payload."""
        if self.is_finite:
            return _normalize(rng.choice(self.carrier.values))
        return _normalize(self.carrier.sample(rng))

    def sample_value(self, rng: random.Random) -> Val:
        return Val(self.name, self.sample_payload(rng))

    @property
    def interval_sample(self) -> Optional[tuple]:
        if self._interval_sample is None:
            return None
        return tuple(self._wrap(p) for p in self._interval_sample)

    # -- coded arithmetic -----------------------------------------------------

    @cached_property
    def tables(self) -> FiniteTables:
        """The coded add/mul tables of a finite carrier."""
        if not self.is_finite:
            raise UnsupportedStructureError(f"{self.name} has an infinite carrier")
        return FiniteTables(self)

    @cached_property
    def codes(self) -> Union[FiniteTables, IntegerCodes]:
        """The spot-check's code object: :attr:`tables`, else the declared
        :class:`IntegerCodes`; both answer ``draw``, ``encode``,
        ``payload``, ``dtype`` and ``product``."""
        if self.is_finite:
            return self.tables
        if self.carrier.codes is None:
            raise UnsupportedStructureError(f"{self.name} declares no integer codes")
        return self.carrier.codes

    @cached_property
    def is_bitmask_lattice(self) -> bool:
        """Whether the coded tables are those of a Boolean lattice B^m, m >= 1:
        the codes are the bitmasks 0..2^m-1, zero is code 0, addition is
        bitwise OR and product bitwise AND.  Read off the tables, so it holds
        whatever the instance is called (``bool``, ``lattice:diamond``,
        ``nat:1,1``)."""
        if not self.is_finite:
            return False
        tables = self.tables
        c = tables.size
        if c < 2 or c & (c - 1) or tables.zero_code != 0:
            return False
        a, b = np.ogrid[:c, :c]
        return bool((tables.add == a | b).all() and (tables.mul == a & b).all())

    # -- text -----------------------------------------------------------------

    def format_value(self, v: Val) -> str:
        return self._format(self.payload_of(v))

    def parse_value(self, text: str) -> Val:
        if self._parse is None:
            raise UnsupportedStructureError(f"{self.name} has no value parser")
        return self.val(self._parse(text.strip()))

    def __repr__(self) -> str:
        return f"SemiringDescriptor({self.name!r})"


# -- concrete instances -------------------------------------------------------


def _parse_bool(text: str) -> Payload:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError(f"bad boolean entry {text!r}")


def _parse_nonneg_int(text: str) -> Payload:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative entry {text!r}")
    return value


def _format_extended(p: Payload) -> str:
    if p == INF:
        return "inf"
    if p == NEG_INF:
        return "-inf"
    return str(p)


def _nat_sampler(rng: random.Random) -> Payload:
    r = rng.random()
    if r < 0.75:
        return rng.randrange(0, 10)
    if r < 0.95:
        return rng.randrange(10, 100)
    return rng.randrange(100, 1 << 16)


def _maxplus_sampler(rng: random.Random) -> Payload:
    if rng.random() < 0.125:
        return NEG_INF
    return Fraction(rng.randrange(-16, 17), rng.choice((1, 1, 2, 3, 4)))


def _minplus_sampler(rng: random.Random) -> Payload:
    if rng.random() < 0.125:
        return INF
    return Fraction(rng.randrange(0, 25), rng.choice((1, 1, 2, 3, 4)))


def _minplus_codes(gen: SplitMix64, shape: tuple) -> np.ndarray:
    # _minplus_sampler's distribution from one draw in 0..999 per entry: the
    # first eighth is inf, the rest picks the numerator and the denominator
    r = gen.integers(0, 1000, shape)
    numerator, pick = np.divmod(r % 125, 5)
    return np.where(r < 125, INF_CODE, numerator * np.array((12, 12, 6, 4, 3))[pick])


def _interval01_sampler(rng: random.Random) -> Payload:
    den = rng.choice((1, 2, 3, 4, 5, 8))
    return Fraction(rng.randrange(0, den + 1), den)


def _dyadic_codes(gen: SplitMix64, shape: tuple) -> np.ndarray:
    # 2^0 .. 2^-7 and 0 as DyadicCodes, each from one of nine equally likely
    # draws per entry
    drawn = gen.integers(0, 9, shape)
    return np.where(drawn == 8, INF_CODE, drawn)


# a float payload of max-plus can only be -inf, and of min-plus only +inf:
# a type test is cheaper than comparing a Fraction with a float
def _mp_mul(a: Payload, b: Payload) -> Payload:
    if type(a) is float or type(b) is float:
        return NEG_INF
    return a + b


def _tp_mul(a: Payload, b: Payload) -> Payload:
    if type(a) is float or type(b) is float:
        return INF
    return a + b


def _is_rational(p: Payload) -> bool:
    return (isinstance(p, int) and not isinstance(p, bool)) or isinstance(p, Fraction)


BOOL = SemiringDescriptor(
    "bool",
    lambda a, b: a or b,
    lambda a, b: a and b,
    False,
    True,
    carrier=FiniteCarrier((False, True)),
    contains=lambda p: isinstance(p, bool),
    format_payload=lambda p: "1" if p else "0",
    parse_payload=_parse_bool,
    interval_sample=(True,),
)

NAT = SemiringDescriptor(
    "nat",
    lambda a, b: a + b,
    lambda a, b: a * b,
    0,
    1,
    idempotent=False,
    interval=False,
    carrier=InfiniteCarrier(_nat_sampler),
    monogenic=FREE,
    free_rank1=2,
    partial_sums_distinct=True,
    contains=lambda p: isinstance(p, int) and not isinstance(p, bool) and p >= 0,
    parse_payload=_parse_nonneg_int,
)

MAXPLUS = SemiringDescriptor(
    "maxplus",
    max,
    _mp_mul,
    NEG_INF,
    0,
    idempotent=True,
    interval=False,
    carrier=InfiniteCarrier(_maxplus_sampler),
    monogenic=Cyclic(1, 1),
    free_rank1=1,
    partial_sums_distinct=True,
    contains=lambda p: p == NEG_INF or _is_rational(p),
    format_payload=_format_extended,
    parse_payload=lambda t: NEG_INF if t == "-inf" else Fraction(t),
    tropical=TropicalShape(orthant=False, point=int),
)

MINPLUS01INF = SemiringDescriptor(
    "minplus01inf",
    min,
    _tp_mul,
    INF,
    0,
    idempotent=True,
    interval=True,
    carrier=InfiniteCarrier(
        _minplus_sampler,
        IntegerCodes(_minplus_codes, 12),
    ),
    monogenic=Cyclic(1, 1),
    free_rank1=1,
    contains=lambda p: p == INF or (_is_rational(p) and p >= 0),
    format_payload=_format_extended,
    parse_payload=lambda t: INF if t == "inf" else Fraction(t),
    interval_sample=(0, 1, 8),
    tropical=TropicalShape(orthant=True, point=int),
)

INTERVAL01 = SemiringDescriptor(
    "interval01",
    max,
    lambda a, b: a * b,
    0,
    1,
    idempotent=True,
    interval=True,
    # the codes draw from D = {0} ∪ {2^-k}: closed under max and ×, with 1
    # the top, so R_n(D) generates J_{n-1} as R_n([0, 1]) does
    carrier=InfiniteCarrier(_interval01_sampler, DyadicCodes(_dyadic_codes)),
    monogenic=Cyclic(1, 1),
    free_rank1=Fraction(1, 2),
    contains=lambda p: _is_rational(p) and 0 <= p <= 1,
    parse_payload=Fraction,
    interval_sample=(1, Fraction(1, 2), Fraction(1, 16)),
    # max-times on [0, 1] is min-plus on [0, inf] through x -> -log2(x)
    tropical=TropicalShape(orthant=True, point=lambda y: Fraction(1, 2**y)),
)

_DIAMOND_NAMES = {0: "0", 1: "a", 2: "b", 3: "1"}
_DIAMOND_CODES = {v: k for k, v in _DIAMOND_NAMES.items()}


def _parse_diamond(text: str) -> Payload:
    if text not in _DIAMOND_CODES:
        raise ValueError(f"bad lattice entry {text!r}")
    return _DIAMOND_CODES[text]


DIAMOND = SemiringDescriptor(
    "lattice:diamond",
    lambda a, b: a | b,
    lambda a, b: a & b,
    0,
    3,
    carrier=FiniteCarrier((0, 1, 2, 3)),
    contains=lambda p: isinstance(p, int) and not isinstance(p, bool) and 0 <= p <= 3,
    format_payload=lambda p: _DIAMOND_NAMES[p],
    parse_payload=_parse_diamond,
    interval_sample=(3, 1),
)


def truncated_nat(index: int, period: int) -> SemiringDescriptor:
    """The quotient of the naturals identifying m with m+period once m >= index."""
    if index < 0 or period < 1:
        raise ValueError("truncated naturals need index >= 0 and period >= 1")
    size = index + period

    def norm(m: int) -> int:
        return m if m < size else index + (m - index) % period

    add = lambda a, b: norm(a + b)
    mul = lambda a, b: norm(a * b)
    return SemiringDescriptor(
        f"nat:{index},{period}",
        add,
        mul,
        0,
        norm(1),
        carrier=FiniteCarrier(tuple(range(size))),
        contains=lambda p: isinstance(p, int) and not isinstance(p, bool) and 0 <= p < size,
        parse_payload=_parse_nonneg_int,
    )


_BUILTINS = {
    "bool": BOOL,
    "nat": NAT,
    "maxplus": MAXPLUS,
    "minplus01inf": MINPLUS01INF,
    "interval01": INTERVAL01,
    "lattice:diamond": DIAMOND,
}

_SPEC_CACHE: dict = dict(_BUILTINS)


def semiring_from_spec(spec: str) -> SemiringDescriptor:
    """Resolve a CLI semiring spec string to a (shared) descriptor instance,
    cached by its canonical name, so every spelling of one gives one."""
    spec = spec.strip()
    if spec in _SPEC_CACHE:
        return _SPEC_CACHE[spec]
    if not spec.startswith("nat:"):
        raise ValueError(
            f"unknown semiring spec {spec!r}; known: bool, nat, nat:<index>,<period>, "
            "maxplus, minplus01inf, interval01, lattice:diamond"
        )
    parts = spec[len("nat:") :].split(",")
    if len(parts) != 2:
        raise ValueError(f"bad truncated-naturals spec {spec!r}; expected nat:<index>,<period>")
    try:
        index, period = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad truncated-naturals spec {spec!r}") from None
    name = f"nat:{index},{period}"
    if name not in _SPEC_CACHE:
        _SPEC_CACHE[name] = truncated_nat(index, period)
    return _SPEC_CACHE[name]
