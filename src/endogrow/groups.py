"""Concrete finitely generated groups with canonical normal forms.

Elements are plain hashable tuples; each group descriptor knows how to
multiply, invert and measure its own elements.  Equality of normal forms is
equality of elements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property, partial, reduce
from itertools import repeat
from math import isqrt
from operator import add, eq, floordiv, mod, mul, sub

from endogrow.record import record


EXACT = "exact"
QUASI_EQUIVALENT = "quasi-equivalent"


class KindMismatchError(ValueError):
    """Element does not belong to the group it was used with."""


class UnsupportedOperationError(ValueError):
    """The operation is not defined for this group kind or parameter."""


class OutOfBallError(LookupError):
    """A BFS-backed length was requested beyond the enumerated radius."""


@record
class BallCoding:
    """How a BFS census codes a kind's normal forms.

    encode maps a checked element to its int code, or to None when the
    element lies outside the box the coding was built for; decode inverts
    encode, and every code in the box satisfies 0 <= code < size.  The census
    starts at the identity's code and reaches x * s as step(x, c) for each c
    in `generators`, one per symmetric generator s, in that order.  encode
    and decode outlive the run in its census, so they hold no reference to a
    group.
    """

    generators: tuple
    step: object
    encode: object
    decode: object
    size: int


class _Box:
    """Mixed-radix int codes of int vectors with lows[i] <= v[i] <= highs[i]:
    coordinate i is the digit v[i] - lows[i] of weight weights[i], and
    coordinate 0 is the lowest digit."""

    __slots__ = ("lows", "highs", "radices", "weights", "offset", "size")

    def __init__(self, lows, highs):
        self.lows, self.highs = tuple(lows), tuple(highs)
        self.radices = tuple(high - low + 1 for low, high in zip(self.lows, self.highs))
        weights = [1]
        for radix in self.radices:
            weights.append(weights[-1] * radix)
        self.size = weights.pop()
        self.weights = tuple(weights)
        self.offset = -self.delta(self.lows)

    def delta(self, v) -> int:
        """What adding the vector v adds to a code, while both stay in the box."""
        return sum(map(mul, v, self.weights))

    def encode(self, v):
        if any(not low <= x <= high for low, x, high in zip(self.lows, v, self.highs)):
            return None  # a digit out of range would carry into the next one
        return self.offset + self.delta(v)

    def decode(self, code) -> tuple:
        out = []
        for radix, low in zip(self.radices, self.lows):
            code, digit = divmod(code, radix)
            out.append(digit + low)
        return tuple(out)

    def dots(self, codes, row, modulus=None):
        """row . decode(code) for each code of the collection codes, as a
        constant plus a map stage c * (code // w) per nonzero digit coefficient
        c; given a modulus d, whether d divides it (d = 0: whether it is 0)."""
        coefficients = map(sub, row, map(mul, (0, *row), (0, *self.radices)))
        terms = []
        for c, w in zip(coefficients, self.weights):
            if c:
                term = codes if w == 1 else map(floordiv, codes, repeat(w))
                terms.append(term if c == 1 else map(mul, term, repeat(c)))
        constant = sum(map(mul, row, self.lows))
        sums = reduce(partial(map, add), terms) if terms else repeat(0, len(codes))
        if modulus is None:
            return map(add, sums, repeat(constant))
        if modulus:
            return map(eq, map(mod, sums, repeat(modulus)), repeat(-constant % modulus))
        return map(eq, sums, repeat(-constant))


def _require_type(name: str, value, kind=int) -> None:
    """Reject a constructor argument whose type is not exactly `kind`: a bool
    is no int, and a nested list is no IntMatrix."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _check_bfs_radius(radius) -> None:
    _require_type("bfs_radius", radius)
    if radius < 0:
        raise ValueError(f"bfs_radius must be >= 0, got {radius}")


def ceil_sqrt(n: int) -> int:
    """The least s >= 0 with s * s >= n: isqrt(n - 1) + 1, as n - 1 < s * s
    exactly when isqrt(n - 1) < s."""
    if n < 0:
        raise ValueError("negative argument")
    return isqrt(n - 1) + 1 if n else 0


class Group(ABC):
    """Common surface of every supported group kind.

    The public operations check their arguments, then run the kind's
    unchecked kernel (_mul, _inv, _length).  Loops over elements the program
    made itself from checked ones call the kernels directly.

    A group measures with its kind's own metric, OWN_METRIC, unless it has
    a bfs_radius >= 1: then it reads exact lengths from a census of that
    radius.  Only the kinds that take a bfs_radius field set one.
    """

    OWN_METRIC = "exact"  # or "quasi": within constants of the word metric
    bfs_radius = 0

    @property
    @abstractmethod
    def kind(self) -> str: ...

    @property
    @abstractmethod
    def generators(self) -> tuple[tuple, ...]:
        """The generating elements in a fixed order; generating by construction."""

    @abstractmethod
    def identity(self) -> tuple: ...

    @abstractmethod
    def check(self, g) -> None:
        """Raise KindMismatchError unless g is a normal form of this group."""

    @abstractmethod
    def _mul(self, g, h) -> tuple:
        """The product of two normal forms, which the caller has checked."""

    @abstractmethod
    def _inv(self, g) -> tuple:
        """The inverse of a normal form, which the caller has checked."""

    @abstractmethod
    def _length(self, g) -> int:
        """The kind's own length of a checked normal form (not in bfs mode)."""

    @property
    def length_kind(self) -> str:
        """The metric the group measures with: "bfs" or its OWN_METRIC."""
        return "bfs" if self.bfs_radius else self.OWN_METRIC

    @property
    def exactness(self) -> str:
        """How literally every length the group measures reads: EXACT for a
        word length, QUASI_EQUIVALENT for one within multiplicative constants
        of it.  It is the metric's, the same for every element."""
        return EXACT

    def multiply(self, g, h) -> tuple:
        self.check(g)
        self.check(h)
        return self._mul(g, h)

    def invert(self, g) -> tuple:
        self.check(g)
        return self._inv(g)

    def word_length(self, g) -> int:
        """The length of g in the group's metric; `exactness` says how
        literally it reads."""
        self.check(g)
        return self._word_length(g)

    def _word_length(self, g) -> int:
        """The length of a checked normal form: a bfs-mode group reads its
        census, any other group measures with its kind's _length."""
        if self.bfs_radius:
            from endogrow import ball  # groups -> ball -> products -> groups

            return ball.exact_length(self._bfs_census, g)
        return self._length(g)

    def symmetric_generators(self) -> tuple[tuple, ...]:
        """Generators and their inverses, deduplicated, in a fixed order."""
        out = []
        seen = set()
        for g in self.generators:
            for el in (g, self.invert(g)):
                if el not in seen and el != self.identity():
                    seen.add(el)
                    out.append(el)
        return tuple(out)

    @abstractmethod
    def _ball_coding(self, radius: int) -> BallCoding:
        """The int coding a census of the given radius steps through."""

    @cached_property
    def _bfs_census(self):
        """The ball a bfs length mode reads: enumerated once, on first use,
        under the resolved budget, and collected with the group."""
        from endogrow import ball  # groups -> ball -> products -> groups

        return ball.enumerate_ball(self, self.bfs_radius)


@record
class FreeAbelian(Group):
    """Z^rank with the standard basis generators; elements are int tuples."""

    rank: int
    bfs_radius: int = 0

    def __post_init__(self):
        _require_type("rank", self.rank)
        _check_bfs_radius(self.bfs_radius)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def kind(self) -> str:
        return "free_abelian"

    @property
    def generators(self):
        return tuple(tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank))

    def identity(self):
        return (0,) * self.rank

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == self.rank
                and all(type(a) is int for a in g)):
            raise KindMismatchError(f"not a rank-{self.rank} lattice element: {g!r}")

    def _mul(self, g, h):
        return tuple(map(add, g, h))

    def _inv(self, g):
        return tuple(-a for a in g)

    def _length(self, g) -> int:
        return sum(map(abs, g))

    def _box(self, radius):
        # every coordinate of an element of the ball lies in [-radius, radius]
        return _Box((-radius,) * self.rank, (radius,) * self.rank)

    def _ball_coding(self, radius):
        box = self._box(radius)
        steps = tuple(map(box.delta, self.symmetric_generators()))
        return BallCoding(steps, add, box.encode, box.decode, box.size)


@record
class Free(Group):
    """Free group of given rank; elements are reduced words of signed
    generator indices (1-based, negative for inverses)."""

    rank: int
    bfs_radius: int = 0

    def __post_init__(self):
        _require_type("rank", self.rank)
        _check_bfs_radius(self.bfs_radius)
        if self.rank < 1:
            raise ValueError("free groups here have rank >= 1")

    @property
    def kind(self) -> str:
        return "free"

    @property
    def generators(self):
        return tuple((i + 1,) for i in range(self.rank))

    def identity(self):
        return ()

    def check(self, g):
        if not isinstance(g, tuple):
            raise KindMismatchError("free-group elements are tuples of letters")
        for x in g:
            if type(x) is not int or x == 0 or abs(x) > self.rank:
                raise KindMismatchError(f"letter {x!r} outside rank {self.rank}")
        for a, b in zip(g, g[1:]):
            if a == -b:
                raise KindMismatchError("word is not freely reduced")

    def _mul(self, g, h):
        # both words are reduced, so letters cancel only where they meet; a
        # one-letter h is therefore a pop or an append
        k = 0
        while k < len(g) and k < len(h) and g[-1 - k] == -h[k]:
            k += 1
        return g[: len(g) - k] + h[k:]

    def _inv(self, g):
        return tuple(-x for x in reversed(g))

    def _length(self, g) -> int:
        return len(g)

    def _ball_coding(self, radius):
        return _word_coding(self.rank, radius)


@record
class Heisenberg(Group):
    """Discrete Heisenberg group; elements are integer triples (a, b, c)
    multiplying as (a,b,c)(p,q,r) = (a+p, b+q+a*r, c+r).

    generator_count 3 uses {(1,0,0),(0,1,0),(0,0,1)}, generator_count 2 the
    minimal set {(1,0,0),(0,0,1)}.  The kind's own metric is a quasi-length
    (within multiplicative constants of the word metric, which is all that
    m-th-root growth quantities can see); a bfs_radius gives exact lengths
    inside that radius.
    """

    OWN_METRIC = "quasi"

    generator_count: int = 3
    bfs_radius: int = 0

    def __post_init__(self):
        if type(self.generator_count) is not int or self.generator_count not in (2, 3):
            raise ValueError("generator_count must be 2 or 3")
        _check_bfs_radius(self.bfs_radius)

    @property
    def kind(self) -> str:
        return "heisenberg"

    @property
    def generators(self):
        if self.generator_count == 3:
            return ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return ((1, 0, 0), (0, 0, 1))

    def identity(self):
        return (0, 0, 0)

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == 3 and all(type(a) is int for a in g)):
            raise KindMismatchError(f"not a Heisenberg triple: {g!r}")

    def _mul(self, g, h):
        a, b, c = g
        p, q, r = h
        return (a + p, b + q + a * r, c + r)

    def _inv(self, g):
        a, b, c = g
        return (-a, a * c - b, -c)

    @property
    def exactness(self) -> str:
        return QUASI_EQUIVALENT if self.length_kind == "quasi" else EXACT

    def _ball_coding(self, radius):
        # digits a, b, c from the lowest; within the ball |a|, |c| <= radius,
        # and the n-th step moves b by at most max(1, n - 1), so |b| <= radius**2
        box = _Box((-radius, -radius * radius, -radius), (radius, radius * radius, radius))
        a_radix, b_weight = box.radices[0], box.weights[1]

        def step(code, s):
            # (a, b, c)(p, q, r) = (a + p, b + q + a r, c + r): a fixed part
            # and r times b's weight for each unit of a, read from the lowest digit
            fixed, twist = s
            return code + fixed + twist * (code % a_radix - radius)

        steps = tuple((box.delta(s), s[2] * b_weight) for s in self.symmetric_generators())
        return BallCoding(steps, step, box.encode, box.decode, box.size)

    def _length(self, g) -> int:
        """max(|a|, |c|, ceil(sqrt(|2b - ac|))).

        The centered combination 2b - ac flips sign under inversion, which
        makes this quasi-length exactly symmetric; it stays within
        multiplicative constants of the word metric.
        """
        a, b, c = g
        return max(abs(a), abs(c), ceil_sqrt(abs(2 * b - a * c)))


def _word_coding(rank: int, radius: int) -> BallCoding:
    """Reduced words over the letters +-1..+-rank as ints in base 2 rank + 1,
    the last letter lowest.  Letter x is the digit x mod base, so a letter
    and its inverse have digits that sum to the base, and 0 is no letter.
    The generators are 1, -1, 2, -2, ..., the order of the symmetric
    generators of Free(rank)."""
    base = 2 * rank + 1

    def step(code, digit):
        return code // base if code % base + digit == base else code * base + digit

    def encode(word):
        if len(word) > radius:
            return None
        code = 0
        for x in word:
            code = code * base + x % base
        return code

    def decode(code):
        word = []
        while code:
            code, digit = divmod(code, base)
            word.append(digit if digit <= rank else digit - base)
        return tuple(reversed(word))

    letters = tuple(x for i in range(1, rank + 1) for x in (i, base - i))
    return BallCoding(letters, step, encode, decode, base**radius)


@record
class LowerCentralLayer:
    """One step of the lower central series: the subgroup layer_j together
    with the quotient layer_j / layer_{j+1}, both as concrete descriptors."""

    group: Group
    j: int
    subgroup: Group
    quotient: Group


def lower_central_layer(group: Group, j: int) -> LowerCentralLayer:
    """Lower-central-series data, implemented for the kinds whose series is
    known in closed form (Heisenberg: class 2; abelian: class 1)."""
    if j < 1:
        raise UnsupportedOperationError("layer index must be >= 1")
    if isinstance(group, Heisenberg):
        if j == 1:
            return LowerCentralLayer(group, 1, group, FreeAbelian(2))
        if j == 2:
            # the center {(0, n, 0)}, infinite cyclic
            return LowerCentralLayer(group, 2, FreeAbelian(1), FreeAbelian(1))
        if j == 3:
            return LowerCentralLayer(group, 3, FreeAbelian(0), FreeAbelian(0))
        raise UnsupportedOperationError(f"Heisenberg layers stop at 3, got {j}")
    if isinstance(group, FreeAbelian):
        if j == 1:
            return LowerCentralLayer(group, 1, group, group)
        if j == 2:
            return LowerCentralLayer(group, 2, FreeAbelian(0), FreeAbelian(0))
        raise UnsupportedOperationError(f"abelian layers stop at 2, got {j}")
    raise UnsupportedOperationError(
        f"lower central series not implemented for kind {group.kind!r}"
    )
