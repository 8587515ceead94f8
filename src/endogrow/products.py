"""Products of groups, sublattices of Z^n with their quotients, and
cyclic-by-cyclic towers."""

from __future__ import annotations

import math
from functools import cached_property, partial, reduce
from itertools import compress, repeat
from operator import add, and_, floordiv, mul, neg

from endogrow.groups import (
    EXACT,
    QUASI_EQUIVALENT,
    BallCoding,
    Free,
    FreeAbelian,
    Group,
    KindMismatchError,
    UnsupportedOperationError,
    _Box,
    _check_bfs_radius,
    _require_type,
    _word_coding,
)
from endogrow.intmat import (
    IntMatrix,
    SmithForm,
    inverse_unimodular,
    mat_mul,
    mat_pow,
    max_finite_order,
    smith_normal_form,
)
from endogrow.record import record


@record
class DirectProduct(Group):
    """A x B with the union generating set; elements are pairs and the word
    length is exactly the sum of the factor lengths."""

    left: Group
    right: Group

    @property
    def kind(self) -> str:
        return "direct_product"

    @property
    def generators(self):
        left, right = self.left.identity(), self.right.identity()
        return tuple((g, right) for g in self.left.generators) + tuple(
            (left, g) for g in self.right.generators
        )

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def check(self, g):
        if not isinstance(g, tuple) or len(g) != 2:
            raise KindMismatchError(f"not a product pair: {g!r}")
        self.left.check(g[0])
        self.right.check(g[1])

    def _mul(self, g, h):
        return (self.left._mul(g[0], h[0]), self.right._mul(g[1], h[1]))

    def _inv(self, g):
        return (self.left._inv(g[0]), self.right._inv(g[1]))

    @property
    def exactness(self) -> str:
        if self.left.exactness == self.right.exactness == EXACT:
            return EXACT
        return QUASI_EQUIVALENT

    def _length(self, g) -> int:
        return self.left._word_length(g[0]) + self.right._word_length(g[1])

    def _ball_coding(self, radius):
        left, right = self.left._ball_coding(radius), self.right._ball_coding(radius)
        # code = left code * size + right code; the symmetric generators are
        # the left factor's, then the right factor's, each on its own side.
        # The closures take the factor codings' functions, not the codings,
        # so that a census keeps no factor's step and its caches alive
        size = right.size
        left_step, right_step = left.step, right.step
        left_encode, right_encode = left.encode, right.encode
        left_decode, right_decode = left.decode, right.decode

        def step(code, s):
            side, c = s
            low = code % size
            if side:
                return code - low + right_step(low, c)
            return left_step(code // size, c) * size + low

        def encode(g):
            a, b = left_encode(g[0]), right_encode(g[1])
            return None if a is None or b is None else a * size + b

        def decode(code):
            return (left_decode(code // size), right_decode(code % size))

        steps = tuple((0, c) for c in left.generators) + tuple((1, c) for c in right.generators)
        return BallCoding(steps, step, encode, decode, left.size * size)


def direct_product(left: Group, right: Group) -> DirectProduct:
    return DirectProduct(left, right)


_FREE_FACTOR_KINDS = (Free, FreeAbelian)


@record
class FreeProduct(Group):
    """A * B for factors with syllable normal forms (free groups and Z).

    Elements are tuples of (factor_index, factor_element) syllables with
    alternating indices and no identity syllables; length is the sum of the
    factor lengths of the syllables.
    """

    left: Group
    right: Group

    def __post_init__(self):
        for f in (self.left, self.right):
            if not isinstance(f, _FREE_FACTOR_KINDS):
                raise UnsupportedOperationError(
                    f"free product factors must be free or Z, got {f.kind!r}"
                )
            if isinstance(f, FreeAbelian) and f.rank != 1:
                raise UnsupportedOperationError(
                    "abelian free-product factors must have rank 1"
                )

    @property
    def kind(self) -> str:
        return "free_product"

    def factor(self, i: int) -> Group:
        return self.left if i == 0 else self.right

    @property
    def generators(self):
        return tuple(((i, g),) for i in (0, 1) for g in self.factor(i).generators)

    def identity(self):
        return ()

    def check(self, g):
        if not isinstance(g, tuple):
            raise KindMismatchError("free-product elements are syllable tuples")
        last = None
        for syl in g:
            if not (isinstance(syl, tuple) and len(syl) == 2 and syl[0] in (0, 1)):
                raise KindMismatchError(f"bad syllable {syl!r}")
            i, s = syl
            if s == self.factor(i).identity():
                raise KindMismatchError("identity syllable in normal form")
            if i == last:
                raise KindMismatchError("adjacent syllables from the same factor")
            self.factor(i).check(s)
            last = i

    def _mul(self, g, h):
        # both are normal forms, so syllables merge only where they meet; a
        # merge that cancels to the identity exposes the next pair
        i, j = len(g), 0
        while i and j < len(h) and g[i - 1][0] == h[j][0]:
            k = h[j][0]
            fac = self.factor(k)
            merged = fac._mul(g[i - 1][1], h[j][1])
            if merged != fac.identity():
                return g[: i - 1] + ((k, merged),) + h[j + 1 :]
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def _inv(self, g):
        return tuple((i, self.factor(i)._inv(s)) for i, s in reversed(g))

    def _length(self, g) -> int:
        return sum(self.factor(i)._word_length(s) for i, s in g)

    def _ball_coding(self, radius):
        # a product of free groups and copies of Z is the free group on the
        # union of their letters: the right factor's letter j is left rank + j
        shift = self.left.rank
        cyclic = tuple(isinstance(f, FreeAbelian) for f in (self.left, self.right))
        words = _word_coding(shift + self.right.rank, radius)
        word_encode, word_decode = words.encode, words.decode

        def letter(i, x):
            return x if not i else x + shift if x > 0 else x - shift

        def encode(g):
            # a Z syllable s is |s| letters: measure before writing them
            if sum(abs(s[0]) if cyclic[i] else len(s) for i, s in g) > radius:
                return None
            word = []
            for i, s in g:
                if cyclic[i]:
                    word += [letter(i, 1 if s[0] > 0 else -1)] * abs(s[0])
                else:
                    word += [letter(i, x) for x in s]
            return word_encode(word)

        def decode(code):
            syllables = []
            for x in word_decode(code):
                i = int(abs(x) > shift)
                if i:
                    x = x - shift if x > 0 else x + shift
                if syllables and syllables[-1][0] == i:
                    syllables[-1][1].append(x)
                else:
                    syllables.append((i, [x]))
            return tuple((i, (sum(xs),) if cyclic[i] else tuple(xs)) for i, xs in syllables)

        return BallCoding(words.generators, words.step, encode, decode, words.size)


def free_product(left: Group, right: Group) -> FreeProduct:
    return FreeProduct(left, right)


@record
class Semidirect(Group):
    """H x| Q for free abelian H and Q, with Q acting on H through
    commuting unimodular integer matrices (one per Q generator, acting on
    column vectors).

    Elements are pairs (h, q) of int tuples with
    (h, q)(h', q') = (h + action(q) h', q + q').
    """

    OWN_METRIC = "quasi"

    base_rank: int
    quotient_rank: int
    action: tuple[IntMatrix, ...]
    bfs_radius: int = 0

    def __post_init__(self):
        _require_type("base_rank", self.base_rank)
        _require_type("quotient_rank", self.quotient_rank)
        _require_type("action", self.action, tuple)
        _check_bfs_radius(self.bfs_radius)
        if len(self.action) != self.quotient_rank:
            raise ValueError("need one action matrix per quotient generator")
        for a in self.action:
            _require_type("action matrix", a, IntMatrix)
            if a.rows != self.base_rank or a.cols != self.base_rank:
                raise ValueError("action matrix has wrong shape")
        try:
            self._inverse_action
        except ValueError:
            raise ValueError("action matrix is not unimodular") from None
        for i, a in enumerate(self.action):
            for b in self.action[i + 1 :]:
                if mat_mul(a, b).entries != mat_mul(b, a).entries:
                    raise ValueError("action matrices must commute (abelian quotient)")

    @property
    def kind(self) -> str:
        return "semidirect"

    @cached_property
    def base(self) -> FreeAbelian:
        return FreeAbelian(self.base_rank)

    @cached_property
    def quotient(self) -> FreeAbelian:
        return FreeAbelian(self.quotient_rank)

    @cached_property
    def _inverse_action(self) -> tuple[IntMatrix, ...]:
        return tuple(inverse_unimodular(a) for a in self.action)

    def generator_power(self, i: int, n: int) -> IntMatrix:
        """action_i ** n for any integer n (negative powers via exact inverse)."""
        return mat_pow(self.action[i] if n >= 0 else self._inverse_action[i], abs(n))

    def action_of(self, q: tuple[int, ...]) -> IntMatrix:
        """The automorphism of H attached to q (product of generator powers)."""
        powers = [self.generator_power(i, e) for i, e in enumerate(q) if e]
        return reduce(mat_mul, powers) if powers else IntMatrix.identity(self.base_rank)

    @cached_property
    def action_orders(self) -> tuple:
        """Multiplicative order of each action generator, or None if infinite
        (searched up to the largest finite order in GL(base_rank, Z))."""
        orders = []
        ident = IntMatrix.identity(self.base_rank).entries
        bound = max_finite_order(self.base_rank)
        for a in self.action:
            power = a
            found = None
            for k in range(1, bound + 1):
                if power.entries == ident:
                    found = k
                    break
                power = mat_mul(power, a)
            orders.append(found)
        return tuple(orders)

    @property
    def action_is_finite_order(self) -> bool:
        return all(o is not None for o in self.action_orders)

    @property
    def action_is_trivial(self) -> bool:
        ident = IntMatrix.identity(self.base_rank).entries
        return all(a.entries == ident for a in self.action)

    @property
    def generators(self):
        base, quotient = self.base.identity(), self.quotient.identity()
        return tuple((g, quotient) for g in self.base.generators) + tuple(
            (base, q) for q in self.quotient.generators
        )

    def identity(self):
        return (self.base.identity(), self.quotient.identity())

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == 2):
            raise KindMismatchError(f"not a semidirect pair: {g!r}")
        self.base.check(g[0])
        self.quotient.check(g[1])

    def _mul(self, g, h):
        gh, gq = g
        hh, hq = h
        if any(hh):
            rows = self.action_of(gq).to_rows()
            gh = tuple(a + sum(map(mul, row, hh)) for a, row in zip(gh, rows))
        if any(hq):
            gq = tuple(map(add, gq, hq))
        return (gh, gq)

    def _inv(self, g):
        h, q = g
        q_inv = tuple(-x for x in q)
        if any(q) and any(h):
            h = self.action_of(q_inv).apply_col(h)
        return (tuple(-x for x in h), q_inv)

    def _box(self, radius):
        """The box of h + q, base digits lowest, for a ball of the given
        radius.  Each step moves the base part by a column of A(q) with |q| <
        radius, whose L1 norm is at most M**radius for M the largest column L1
        norm of an action generator or its inverse."""
        norm = max(
            (sum(map(abs, col)) for a in self.action + self._inverse_action for col in a.columns),
            default=1,
        )
        highs = (radius * norm**radius,) * self.base_rank + (radius,) * self.quotient_rank
        return _Box(map(neg, highs), highs)

    def column_reach(self, radius: int) -> list:
        """reach[d] for d <= radius: the largest column L1 norm of an A(q)
        with |q|_1 = d, or 0 where there is none.  Each A(q) is one product
        A(e) a from a neighbour e one step nearer 0, with a an action
        generator or its inverse; a step moves |q|_1 by one, so the walk
        keeps only the last two spheres, and stops at an empty one."""
        steps = [(i, s, a) for i in range(self.quotient_rank)
                 for s, a in ((1, self.action[i]), (-1, self._inverse_action[i]))]
        last, sphere = {}, {(0,) * self.quotient_rank: IntMatrix.identity(self.base_rank)}
        reach = []
        while True:
            reach.append(max((sum(map(abs, c)) for a in sphere.values() for c in a.columns), default=0))
            if len(reach) > radius or not sphere:
                return reach + [0] * (radius + 1 - len(reach))
            grown = {}
            for e, ae in sphere.items():
                for i, s, a in steps:
                    f = e[:i] + (e[i] + s,) + e[i + 1 :]
                    if f not in last and f not in grown:
                        grown[f] = mat_mul(ae, a)
            last, sphere = sphere, grown

    def _ball_coding(self, radius):
        # g s = (g_H + A(g_Q) s_H, g_Q + s_Q): for each quotient part this
        # run reaches, code // size, keep what each generator adds to a code
        box = self._box(radius)
        n = self.base_rank
        size = box.weights[n] if self.quotient_rank else box.size
        gens = self.symmetric_generators()
        adds_at = {}
        low, adds = -size, ()  # no block yet: every code lies past [-size, 0)

        def step(code, j):
            # the census steps a code by each generator in turn, so look its
            # quotient part up only when it leaves the last one's block
            nonlocal low, adds
            if not 0 <= code - low < size:
                q_code = code // size
                low = q_code * size
                adds = adds_at.get(q_code)
                if adds is None:
                    rows = self.action_of(box.decode(code)[n:]).to_rows()
                    adds = adds_at[q_code] = tuple(
                        box.delta([*(sum(map(mul, row, sh)) for row in rows), *sq])
                        for sh, sq in gens
                    )
            return code + adds[j]

        def encode(g):
            return box.encode(g[0] + g[1])

        def decode(code):
            v = box.decode(code)
            return (v[:n], v[n:])

        return BallCoding(tuple(range(len(gens))), step, encode, decode, box.size)

    @property
    def exactness(self) -> str:
        if self.length_kind == "quasi" and not self.action_is_trivial:
            return QUASI_EQUIVALENT
        return EXACT

    def _length(self, g) -> int:
        if not self.action_is_finite_order:
            raise UnsupportedOperationError(
                "additive quasi-length is only honest for finite-order actions; "
                "use bfs mode"
            )
        return sum(abs(x) for x in g[0]) + sum(abs(x) for x in g[1])


def semidirect(
    base: FreeAbelian, quotient: FreeAbelian, action, bfs_radius: int = 0
) -> Semidirect:
    matrices = tuple(
        a if isinstance(a, IntMatrix) else IntMatrix.from_rows(a) for a in action
    )
    return Semidirect(base.rank, quotient.rank, matrices, bfs_radius)


@record
class Sublattice:
    """A subgroup of Z^n spanned by the independent columns of `basis`.

    Intrinsically it is Z^k with L1 length in the basis coordinates.  The
    lattice and its quotient Z^n / L share one Smith form of the basis; the
    index in the ambient lattice is the product of its diagonal (|det basis|)
    when k = n, infinite otherwise.
    """

    ambient_rank: int
    basis: IntMatrix  # ambient_rank x k, columns generate

    def __post_init__(self):
        _require_type("ambient_rank", self.ambient_rank)
        _require_type("basis", self.basis, IntMatrix)
        if self.basis.rows != self.ambient_rank:
            raise ValueError("basis rows must match the ambient rank")
        if self.snf.rank != self.basis.cols:
            raise ValueError("basis columns are dependent")

    @cached_property
    def quotient(self) -> "AbelianQuotient":
        return AbelianQuotient(self.ambient_rank, self.basis)

    @property
    def snf(self) -> SmithForm:
        return self.quotient.snf

    @property
    def rank(self) -> int:
        return self.basis.cols

    @property
    def index(self):
        """Index in Z^n: |det| for full-rank square bases, else None (infinite)."""
        if self.basis.cols != self.ambient_rank:
            return None
        return math.prod(self.snf.diagonal)

    @cached_property
    def intrinsic_group(self) -> FreeAbelian:
        return FreeAbelian(self.rank)

    @cached_property
    def _coordinate_map(self):
        """(member rows, moduli, coordinate forms, top), read off the shared
        Smith form U B V = D.  With y = U v, v is a member iff d_j divides
        y_j on every row with d_j != 1 (y_j = 0 where d_j = 0): the
        quotient's kept rows and moduli.  A member's coordinates are
        V (y / d) = V diag(top / d) U v / top, with top the largest nonzero
        d_j, which every other one divides; the forms are the rows of
        V diag(top / d) U[:rank]."""
        u, diagonal, quotient = self.snf.u, self.snf.diagonal, self.quotient
        top = diagonal[-1] if diagonal else 1
        scaled = [[x * (top // d) for x in u.row(i)] for i, d in enumerate(diagonal)]
        forms = tuple(
            tuple(sum(map(mul, self.snf.v.row(i), col)) for col in zip(*scaled))
            for i in range(self.rank)
        )
        return tuple(map(u.row, quotient._kept_rows)), quotient._moduli, forms, top

    def coordinates(self, v: tuple[int, ...]):
        """Basis coordinates of an ambient vector, or None if not a member."""
        FreeAbelian(self.ambient_rank).check(v)
        rows, moduli, forms, top = self._coordinate_map
        for row, d in zip(rows, moduli):
            y = sum(map(mul, row, v))
            if y % d if d else y:
                return None
        return tuple(sum(map(mul, form, v)) // top for form in forms)

    def _members(self, codes, box):
        """(length, intrinsic length) for each code -> length of a census
        coded in `box` of Z^n whose vector lies in the lattice, read from the
        codes through the coordinate map and `box.dots`: membership and the
        coordinates' L1 norms are computed at C level, over whole lists."""
        rows, moduli, forms, top = self._coordinate_map
        tests = [box.dots(codes, row, d) for row, d in zip(rows, moduli)]
        # with no membership row every code is a member
        members = list(compress(codes, reduce(partial(map, and_), tests)) if tests else codes)
        # zip stops at the last member, also for a rank-0 lattice's endless zeros
        norms = reduce(partial(map, add), (map(abs, box.dots(members, f)) for f in forms), repeat(0))
        return zip(map(codes.__getitem__, members), map(floordiv, norms, repeat(top)))


def sublattice(ambient: FreeAbelian, basis) -> Sublattice:
    b = basis if isinstance(basis, IntMatrix) else IntMatrix.from_rows(basis)
    return Sublattice(ambient.rank, b)


@record
class AbelianQuotient(Group):
    """Z^n modulo the column span of a relation matrix, presented through its
    Smith normal form U R V = D as (torsion cyclic factors) x Z^free_rank.

    Normal forms are the coordinates of w = U v on the Smith rows with d != 1:
    residues in [0, d) for d > 1 first, then free coordinates for d = 0.  The
    length is the sum of minimal absolute residues on torsion factors plus the
    L1 norm of the free part, the word length in the canonical generators.
    """

    ambient_rank: int
    relations: IntMatrix  # ambient_rank x k columns

    def __post_init__(self):
        _require_type("ambient_rank", self.ambient_rank)
        _require_type("relations", self.relations, IntMatrix)
        if self.relations.rows != self.ambient_rank:
            raise ValueError("relation rows must match the ambient rank")

    @cached_property
    def snf(self) -> SmithForm:
        return smith_normal_form(self.relations)

    @cached_property
    def _kept_rows(self) -> tuple[int, ...]:
        """The Smith rows that carry a component, in component order."""
        return tuple(i for i, d in enumerate(self.snf.padded_diagonal) if d != 1)

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        """One per component: d > 1 for a torsion factor, 0 for a free one."""
        return tuple(self.snf.padded_diagonal[i] for i in self._kept_rows)

    @property
    def torsion_moduli(self) -> tuple[int, ...]:
        return tuple(d for d in self._moduli if d)

    @property
    def free_rank(self) -> int:
        return self._moduli.count(0)

    def component_matrix(self, column_matrix: IntMatrix) -> IntMatrix:
        """The map a column-convention matrix A on Z^n that keeps the relations
        induces on the components: U A U^-1 cut to the kept rows and columns."""
        full = mat_mul(mat_mul(self.snf.u, column_matrix), inverse_unimodular(self.snf.u))
        rows = self._kept_rows
        return IntMatrix.from_rows([[full.get(i, j) for j in rows] for i in rows])

    @property
    def kind(self) -> str:
        return "abelian_quotient"

    @property
    def generators(self):
        k = len(self._moduli)
        return tuple(tuple(int(j == i) for j in range(k)) for i in range(k))

    def identity(self):
        return (0,) * len(self._moduli)

    def check(self, g):
        size = len(self._moduli)
        if not isinstance(g, tuple) or len(g) != size:
            raise KindMismatchError(f"quotient element must have {size} components")
        for x, d in zip(g, self._moduli):
            if type(x) is not int:
                raise KindMismatchError(f"quotient component {x!r} is not an integer")
            if d and not 0 <= x < d:
                raise KindMismatchError(f"torsion residue {x} is not in [0, {d})")

    def _reduce(self, comps) -> tuple:
        """The normal form of an iterable of component values."""
        return tuple(x % d if d else x for x, d in zip(comps, self._moduli))

    def _mul(self, g, h):
        return self._reduce(map(add, g, h))

    def _inv(self, g):
        return self._reduce(-a for a in g)

    def _length(self, g) -> int:
        return sum(min(x, d - x) if d else abs(x) for x, d in zip(g, self._moduli))

    def _ball_coding(self, radius):
        # a torsion residue is its own digit, of radix d; a free coordinate
        # in [-radius, radius] is a digit of radix 2 radius + 1.  A step adds
        # +-1 to one digit modulo its radix (a torsion inverse's component
        # d - 1 is -1 mod d); inside the ball only a torsion digit wraps
        box = _Box(
            [0 if d else -radius for d in self._moduli],
            [d - 1 if d else radius for d in self._moduli],
        )

        def step(code, s):
            weight, radix, delta = s
            digit = code // weight % radix
            return code + ((digit + delta) % radix - digit) * weight

        steps = tuple(
            (box.weights[i], box.radices[i], x)
            for g in self.symmetric_generators()
            for i, x in enumerate(g)
            if x
        )
        return BallCoding(steps, step, box.encode, box.decode, box.size)


def abelian_quotient(ambient: FreeAbelian, lattice: Sublattice) -> AbelianQuotient:
    """The quotient of Z^n by a sublattice, realized through Smith reduction."""
    if lattice.ambient_rank != ambient.rank:
        raise ValueError("sublattice lives in a different ambient rank")
    return lattice.quotient
