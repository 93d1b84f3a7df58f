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

# How x -> d*x, for a positive integer d, acts on the rational payloads of an
# instance (formal infinities stay put).  Under SCALING_AUTOMORPHISM it is an
# automorphism (min-plus and max-plus: it respects min or max, and +).  Under
# SCALING_DEGREE it respects addition and the order, and a product of L scaled
# factors is d^L times the product of the unscaled ones (max-times).  Either
# way, multiplying every payload of a batch by the lcm of its denominators
# turns the batch's arithmetic into arithmetic on exact ints; see
# SemiringDescriptor.scaled_batch and SemiringDescriptor.weight.
SCALING_AUTOMORPHISM = "automorphism"
SCALING_DEGREE = "degree"


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


# The code that stands for the formal infinity of a saturating instance
# (min-plus); two of them still add up within int64.
INF_CODE = 2**61


class IntegerCodes(NamedTuple):
    """An infinite carrier's seeded sampler drawn as exact integer codes, for
    numpy kernels.  A code is a payload times ``scale``; under ``saturating``
    every code from ``INF_CODE`` up stands for the formal infinity.
    ``draw(gen, shape)`` returns int64 codes from one ``gen.integers`` call
    on a :class:`SplitMix64` stream.  ``add`` and ``mul`` are numpy ufuncs
    acting on codes as the instance's operations act on payloads, under its
    scaling law.  ``top`` bounds every finite code drawn, the unit's
    included."""

    draw: Callable[[SplitMix64, tuple], np.ndarray]
    scale: int
    add: np.ufunc
    mul: np.ufunc
    top: int
    saturating: bool = False


@dataclass(frozen=True)
class InfiniteCarrier:
    """A seeded sampler over a fixed countable subset of the carrier, and
    optionally the same distribution drawn as integer codes."""

    sample: Callable[[random.Random], Payload]
    codes: Optional[IntegerCodes] = None


class FiniteTables:
    """A finite carrier coded as 0..c-1 with flat numpy add/mul tables for
    bulk evaluation: the sum of codes a and b is ``add[a * c + b]``."""

    def __init__(self, S: SemiringDescriptor):
        payloads = list(S.carrier.values)
        if len(payloads) > 255:
            raise AlgebraError("finite carrier too large for coded evaluation")
        self.payloads = payloads
        self.code = {p: i for i, p in enumerate(payloads)}
        c = len(payloads)
        self.add = np.zeros(c * c, dtype=np.uint8)
        self.mul = np.zeros(c * c, dtype=np.uint8)
        for i, a in enumerate(payloads):
            for j, b in enumerate(payloads):
                self.add[i * c + j] = self.code[_normalize(S._add(a, b))]
                self.mul[i * c + j] = self.code[_normalize(S._mul(a, b))]
        self.zero_code = self.code[S._zero_payload]
        self.size = c
        # the narrowest unsigned type that holds every flat index a * c + b
        self.index_type = np.min_scalar_type(c * c - 1)
        self.powers = {1: np.arange(c, dtype=np.uint8)}

    def apply(self, table: np.ndarray, a, b) -> np.ndarray:
        """table[a, b] elementwise, broadcasting a against b."""
        t = self.index_type
        return table.take(np.add(np.multiply(a, self.size, dtype=t), b, dtype=t))

    def power(self, exponent: int) -> np.ndarray:
        """The codes of x^exponent for x = 0..c-1."""
        vec = self.powers.get(exponent)
        if vec is None:
            base = vec = self.powers[1]
            for _ in range(exponent - 1):
                vec = self.apply(self.mul, vec, base)
            self.powers[exponent] = vec
        return vec


class SemiringDescriptor:
    """A commutative semiring instance with exact, total operations.

    ``add``/``mul`` work on raw payloads; the public methods wrap results in
    tagged values and reject operands from other instances.  ``scaling``
    declares how the instance's rational payloads scale (``SCALING_*``), or
    is None.  The array arithmetic of batched evaluation lives here too:
    :attr:`tables` (coded tables of a finite carrier),
    :attr:`is_bitmask_lattice` (read off those tables), :attr:`ufuncs` (the
    raw operations as numpy object ufuncs), :meth:`scaled_batch` and
    :meth:`weight` (the scaling law); the first three are built on first use.
    So do the spot-check's draws: :meth:`draw_codes` draws entries as integer
    codes, and :meth:`code_payload` reads a code back.  Descriptors are
    immutable after construction and may be shared freely across workers.
    """

    def __init__(
        self,
        name: str,
        add: Callable[[Payload, Payload], Payload],
        mul: Callable[[Payload, Payload], Payload],
        zero: Payload,
        one: Payload,
        *,
        idempotent: bool,
        interval: bool,
        carrier: Union[FiniteCarrier, InfiniteCarrier],
        monogenic: Optional[Monogenic] = None,
        free_rank1: Optional[Payload] = None,
        partial_sums_distinct: bool = False,
        contains: Optional[Callable[[Payload], bool]] = None,
        format_payload: Optional[Callable[[Payload], str]] = None,
        parse_payload: Optional[Callable[[str], Payload]] = None,
        interval_sample: Optional[tuple] = None,
        scaling: Optional[str] = None,
    ):
        self.name = name
        self._add = add
        self._mul = mul
        self._zero_payload = _normalize(zero)
        self._one_payload = _normalize(one)
        self.is_idempotent = idempotent
        self.is_interval = interval
        self.carrier = carrier
        self._contains = contains
        self._format = format_payload or str
        self._parse = parse_payload
        self.free_rank1_payload = (
            _normalize(free_rank1) if free_rank1 is not None else None
        )
        self.partial_sums_distinct = partial_sums_distinct
        self._interval_sample = interval_sample
        if scaling not in (None, SCALING_AUTOMORPHISM, SCALING_DEGREE):
            raise ValueError(f"{name}: unknown scaling law {scaling!r}")
        self.scaling = scaling
        self._embed_cache: dict = {}
        self.monogenic = self._establish_monogenic(monogenic)

    # -- construction helpers -------------------------------------------------

    def _establish_monogenic(self, declared: Optional[Monogenic]) -> Monogenic:
        if isinstance(self.carrier, FiniteCarrier):
            computed = self._classify_by_iteration(len(self.carrier.values) + 2)
            if declared is not None and declared != computed:
                raise InternalConsistencyError(
                    f"{self.name}: declared monogenic class {declared} but "
                    f"iteration of repeated sums of 1 gives {computed}"
                )
            return computed
        if declared is None:
            raise ValueError(f"{self.name}: infinite carriers must declare a monogenic class")
        if isinstance(declared, Free):
            self._verify_distinct_embeds(64)
        else:
            self._verify_distinct_embeds(declared.index + declared.period)
            lo = self._embed_by_addition(declared.index)
            hi = self._embed_by_addition(declared.index + declared.period)
            if lo != hi:
                raise InternalConsistencyError(
                    f"{self.name}: declared collision at index {declared.index}, "
                    f"period {declared.period} does not hold"
                )
        return declared

    def _classify_by_iteration(self, limit: int) -> Monogenic:
        seen: dict = {}
        current = self._zero_payload
        m = 0
        while m <= limit:
            if current in seen:
                first = seen[current]
                return Cyclic(index=first, period=m - first)
            seen[current] = m
            current = _normalize(self._add(current, self._one_payload))
            m += 1
        raise InternalConsistencyError(
            f"{self.name}: no repetition among the first {limit} sums of 1 in a finite carrier"
        )

    def _embed_by_addition(self, m: int) -> Payload:
        current = self._zero_payload
        for _ in range(m):
            current = _normalize(self._add(current, self._one_payload))
        return current

    def _verify_distinct_embeds(self, count: int) -> None:
        seen = set()
        current = self._zero_payload
        for m in range(count):
            if current in seen:
                raise InternalConsistencyError(
                    f"{self.name}: sums of 1 repeat before index {m}, "
                    "contradicting the declared monogenic class"
                )
            seen.add(current)
            current = _normalize(self._add(current, self._one_payload))

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

    def draw_codes(self, gen: SplitMix64, shape: tuple) -> np.ndarray:
        """Seeded draws as int64 codes from one ``gen.integers`` call, so
        that consecutive calls continue one stream whatever their shapes.  A
        finite carrier's code is the index of a value drawn uniformly, as
        :meth:`sample_payload` draws it, which is its code in :attr:`tables`;
        an infinite carrier draws its :class:`IntegerCodes`."""
        if self.is_finite:
            return gen.integers(0, len(self.carrier.values), shape)
        if self.carrier.codes is None:
            raise UnsupportedStructureError(f"{self.name} declares no integer codes")
        return self.carrier.codes.draw(gen, shape)

    def code_payload(self, code: int) -> Payload:
        """The payload that a code of :meth:`draw_codes` stands for."""
        if self.is_finite:
            return _normalize(self.carrier.values[code])
        codes = self.carrier.codes
        if codes.saturating and code >= INF_CODE:
            return INF
        return _normalize(Fraction(code, codes.scale))

    def sample_value(self, rng: random.Random) -> Val:
        return Val(self.name, self.sample_payload(rng))

    @property
    def interval_sample(self) -> Optional[tuple]:
        if self._interval_sample is None:
            return None
        return tuple(self._wrap(p) for p in self._interval_sample)

    # -- batch arithmetic -----------------------------------------------------

    @cached_property
    def tables(self) -> FiniteTables:
        """The coded add/mul tables of a finite carrier."""
        if not self.is_finite:
            raise UnsupportedStructureError(f"{self.name} has an infinite carrier")
        return FiniteTables(self)

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
        a, b = np.divmod(np.arange(c * c), c)
        return bool((tables.add == a | b).all() and (tables.mul == a & b).all())

    @cached_property
    def ufuncs(self) -> tuple:
        """``(add, mul)``: the raw operations as numpy object ufuncs."""
        return np.frompyfunc(self._add, 2, 1), np.frompyfunc(self._mul, 2, 1)

    def scaled_batch(self, payloads: list) -> tuple:
        """``(d, payloads * d)`` under a scaling law: d is the lcm of the
        payloads' denominators, every rational payload times d comes back as
        an exact int, and formal infinities stay as they are.  ``(1,
        payloads)``, untouched, without a law."""
        if self.scaling is None:
            return 1, payloads
        d = math.lcm(*{getattr(p, "denominator", 1) for p in payloads})
        return d, [
            p if isinstance(p, float) else p.numerator * (d // p.denominator)
            for p in payloads
        ]

    def weight(self, d: int, k: int) -> int:
        """The factor by which a product of k payloads scaled by d exceeds
        the true product scaled back: d**k under the degree law, d
        otherwise (and d is 1 without a law)."""
        return d**k if self.scaling == SCALING_DEGREE else d

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


def _interval01_codes(gen: SplitMix64, shape: tuple) -> np.ndarray:
    # _interval01_sampler's distribution from one draw in 0..1079 per entry:
    # the denominator, then a numerator in 0..den (180 is a multiple of each
    # den + 1)
    r = gen.integers(0, 1080, shape)
    den = np.array((1, 2, 3, 4, 5, 8))[r // 180]
    return (r % 180) * (den + 1) // 180 * (120 // den)


def _mp_mul(a: Payload, b: Payload) -> Payload:
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def _tp_mul(a: Payload, b: Payload) -> Payload:
    if a == INF or b == INF:
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
    idempotent=True,
    interval=True,
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
    scaling=SCALING_AUTOMORPHISM,
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
        IntegerCodes(_minplus_codes, 12, np.minimum, np.add, top=288, saturating=True),
    ),
    monogenic=Cyclic(1, 1),
    free_rank1=1,
    contains=lambda p: p == INF or (_is_rational(p) and p >= 0),
    format_payload=_format_extended,
    parse_payload=lambda t: INF if t == "inf" else Fraction(t),
    interval_sample=(0, 1, 8),
    scaling=SCALING_AUTOMORPHISM,
)

INTERVAL01 = SemiringDescriptor(
    "interval01",
    max,
    lambda a, b: a * b,
    0,
    1,
    idempotent=True,
    interval=True,
    carrier=InfiniteCarrier(
        _interval01_sampler,
        IntegerCodes(_interval01_codes, 120, np.maximum, np.multiply, top=120),
    ),
    monogenic=Cyclic(1, 1),
    free_rank1=Fraction(1, 2),
    contains=lambda p: _is_rational(p) and 0 <= p <= 1,
    parse_payload=Fraction,
    interval_sample=(1, Fraction(1, 2), Fraction(1, 16)),
    scaling=SCALING_DEGREE,
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
    idempotent=True,
    interval=True,
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
    one = norm(1)
    idempotent = all(add(a, a) == a for a in range(size))
    interval = idempotent and all(add(a, one) == one for a in range(size))
    return SemiringDescriptor(
        f"nat:{index},{period}",
        add,
        mul,
        0,
        one,
        idempotent=idempotent,
        interval=interval,
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
    """Resolve a CLI semiring spec string to a (shared) descriptor instance."""
    spec = spec.strip()
    cached = _SPEC_CACHE.get(spec)
    if cached is not None:
        return cached
    if spec.startswith("nat:"):
        body = spec[len("nat:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad truncated-naturals spec {spec!r}; expected nat:<index>,<period>")
        try:
            index, period = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad truncated-naturals spec {spec!r}") from None
        descriptor = truncated_nat(index, period)
        _SPEC_CACHE[spec] = descriptor
        return descriptor
    raise ValueError(
        f"unknown semiring spec {spec!r}; known: bool, nat, nat:<index>,<period>, "
        "maxplus, minplus01inf, interval01, lattice:diamond"
    )
