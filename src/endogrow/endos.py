"""Endomorphisms of the supported groups: application, composition, powers,
restriction to invariant subgroups, and induced quotient maps."""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from itertools import repeat
from operator import add, mul, neg, sub

from endogrow.groups import (
    Free,
    FreeAbelian,
    Group,
    Heisenberg,
    KindMismatchError,
    LowerCentralLayer,
    UnsupportedOperationError,
    _require_type,
)
from endogrow.intmat import IntMatrix, _binary_power, mat_mul
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    Semidirect,
    Sublattice,
    abelian_quotient,
)
from endogrow.record import record


class InvarianceError(ValueError):
    """A subgroup required to be invariant is not; names a violating generator."""


class Endomorphism(ABC):
    """A self-map of a group, applied to normal forms.

    apply checks its argument; _apply, which loops over elements the program
    made itself call directly, does not.
    """

    group: Group

    def apply(self, g):
        self.group.check(g)
        return self._apply(g)

    @abstractmethod
    def _apply(self, g):
        """The image of a normal form, which the caller has checked."""

    def _next_images(self, images):
        """The generators' images one power on, given theirs in generator order."""
        return list(map(self._apply, images))

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other, an endo of the same kind on the same group."""
        if not isinstance(other, type(self)) or other.group != self.group:
            raise KindMismatchError(f"can only compose {type(self).__name__}s on the same group")
        return self._compose(other)

    @abstractmethod
    def _compose(self, other):
        """self after other, which the caller has checked."""

    def power(self, n: int) -> "Endomorphism":
        """self composed n times, by binary powering."""
        if n < 0:
            raise ValueError("powers of endomorphisms need n >= 0")
        return _binary_power(self, n, Endomorphism.compose) if n else identity_endo(self.group)


@record
class MatrixEndo(Endomorphism):
    """Endomorphism of a free abelian group given by an integer matrix whose
    ROWS are the generator images (so apply(v) = v * matrix)."""

    group: FreeAbelian
    matrix: IntMatrix

    def __post_init__(self):
        _require_type("matrix", self.matrix, IntMatrix)
        if self.matrix.rows != self.group.rank or self.matrix.cols != self.group.rank:
            raise KindMismatchError("matrix shape does not match the group rank")

    def _apply(self, g):
        return self.matrix.apply_row(g)

    @cached_property
    def _row_terms(self):
        """Row i of the matrix A as (scaled, unit).  unit holds (add, k) for
        each A[i][k] = 1, then (sub, k) for each A[i][k] = -1.  scaled holds
        one (c, first, rest) for each |c| > 1 among the row's entries: the
        sum of row first and the (op, k) in rest, times c.  A class with no
        positive entry puts its sign into c; so does a row whose only
        entries are -1, which is the one class c = -1."""
        rows = []
        for row in self.matrix.to_rows():
            classes = {}
            for k, c in enumerate(row):
                if c:
                    classes.setdefault(abs(c), ([], []))[c < 0].append(k)
            plus, minus = classes.pop(1, ([], []))
            if minus and not plus and not classes:
                classes[1], minus = ([], minus), []
            scaled = []
            for c, (cplus, cminus) in classes.items():
                if not cplus:
                    c, cplus, cminus = -c, cminus, cplus
                rest = [(add, k) for k in cplus[1:]] + [(sub, k) for k in cminus]
                scaled.append((c, cplus[0], tuple(rest)))
            unit = [(add, k) for k in plus] + [(sub, k) for k in minus]
            rows.append((tuple(scaled), tuple(unit)))
        return tuple(rows)

    def _next_images(self, images):
        # the m-th images are the rows of A^m, and row i of A^(m+1) = A A^m
        # sums A[i][k] * row k of A^m over the nonzero A[i][k]: the rows of
        # one |A[i][k]| are added and subtracted first and their sum is
        # multiplied once, so a row costs one vector add or subtract per
        # nonzero entry and one multiply per distinct |A[i][k]| > 1
        out = []
        for scaled, unit in self._row_terms:
            acc = None
            for c, first, rest in scaled:
                part = images[first]
                for op, k in rest:
                    part = map(op, part, images[k])
                part = map(neg, part) if c == -1 else map(mul, part, repeat(c))
                acc = part if acc is None else map(add, acc, part)
            # unit lists its adds first, so a row with no scaled class
            # starts from a row of A^m
            for op, k in unit:
                acc = images[k] if acc is None else map(op, acc, images[k])
            out.append((0,) * len(images) if acc is None else tuple(acc))
        return out

    def _compose(self, other):
        return MatrixEndo(self.group, mat_mul(other.matrix, self.matrix))


def _substitute(word, images):
    """The reduced product of images[x] along the letters x of word; every
    image is reduced."""
    out = []
    for letter in word:
        img = images[letter]
        # out and img are reduced, so they cancel only where they meet, as in
        # Free._mul
        n = len(out)
        k = 0
        while k < n and k < len(img) and out[n - 1 - k] == -img[k]:
            k += 1
        del out[n - k :]
        out += img[k:]
    return tuple(out)


@record
class WordEndo(Endomorphism):
    """Endomorphism of a free group: one reduced image word per generator."""

    group: Free
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != self.group.rank:
            raise KindMismatchError("need one image per generator")
        for w in self.images:
            self.group.check(w)

    @cached_property
    def _letter_images(self) -> dict:
        """Letter x -> the image of a_x, or of a_-x inverted for x < 0."""
        inverses = {-i: self.group._inv(w) for i, w in enumerate(self.images, 1)}
        return dict(enumerate(self.images, 1)) | inverses

    @cached_property
    def letter_matrix(self) -> IntMatrix:
        """C[i][j] = the number of letters a_j^{+-1} in the image of a_i."""
        rank = self.group.rank
        counts = [[0] * rank for _ in range(rank)]
        for i, w in enumerate(self.images):
            for x in w:
                counts[i][abs(x) - 1] += 1
        return IntMatrix.from_rows(counts)

    @cached_property
    def is_cancellation_free(self) -> bool:
        """Whether every iterate phi^m(a_i) of a generator is the reduced
        concatenation of its letters' images, so that its length is row i's
        sum in letter_matrix^m.

        Closes over the letters reachable from the generators, each of which
        must have a non-empty image, and over the adjacent letter pairs their
        iterates can hold: the pairs inside a reachable letter's image, and
        (last of phi(x), first of phi(y)) for every such pair (x, y).  No
        pair may be (z, z^-1).
        """
        image = self._letter_images.__getitem__
        letters = set()
        todo = list(range(1, self.group.rank + 1))
        while todo:
            x = todo.pop()
            if x not in letters:
                letters.add(x)
                if not image(x):
                    return False
                todo.extend(image(x))
        pairs = set()
        todo = [pair for x in letters for pair in zip(image(x), image(x)[1:])]
        while todo:
            pair = todo.pop()
            if pair not in pairs:
                x, y = pair
                if x == -y:
                    return False
                pairs.add(pair)
                todo.append((image(x)[-1], image(y)[0]))
        return True

    def _apply(self, g):
        return _substitute(g, self._letter_images)

    def _next_images(self, images):
        # phi^(m+1)(a_i) = phi^m(phi(a_i)): substitute the m-th images along
        # phi(a_i); only the letters phi's images hold need one
        letters = {x for w in self.images for x in w}
        inv = self.group._inv
        table = {x: images[x - 1] if x > 0 else inv(images[-x - 1]) for x in letters}
        return [_substitute(w, table) for w in self.images]

    def _compose(self, other):
        return WordEndo(self.group, tuple(self._apply(w) for w in other.images))


@record
class HeisenbergEndo(Endomorphism):
    """The two-parameter family (a, b, c) -> (m_a * a, m_a*m_c * b, m_c * c).

    The parameters must be integers for the map to preserve the integer
    lattice; it is an endomorphism for every integer pair.
    """

    group: Heisenberg
    lam: int
    gam: int

    def __post_init__(self):
        _require_type("lam", self.lam)
        _require_type("gam", self.gam)

    def _apply(self, g):
        a, b, c = g
        return (self.lam * a, self.lam * self.gam * b, self.gam * c)

    def _compose(self, other):
        return HeisenbergEndo(self.group, self.lam * other.lam, self.gam * other.gam)


@record
class ProductEndo(Endomorphism):
    """Componentwise endomorphism of a direct or free product (each factor is
    mapped into itself, by an endo on that very factor group).  Checking the
    factor groups suffices: such a map is a homomorphism, componentwise on a
    direct product and by the universal property on a free product."""

    group: Group  # DirectProduct or FreeProduct
    factors: tuple[Endomorphism, Endomorphism]

    def __post_init__(self):
        if not isinstance(self.group, (DirectProduct, FreeProduct)):
            raise KindMismatchError("ProductEndo needs a product group")
        for i, (f, factor) in enumerate(zip(self.factors, (self.group.left, self.group.right))):
            if f.group != factor:
                raise KindMismatchError(f"factor endo {i} acts on a group other than factor {i}")

    def _apply(self, g):
        if isinstance(self.group, DirectProduct):
            return (self.factors[0]._apply(g[0]), self.factors[1]._apply(g[1]))
        # free product: map syllables and renormalize
        out = self.group.identity()
        for i, s in g:
            image = self.factors[i]._apply(s)
            if image == self.group.factor(i).identity():
                continue
            out = self.group._mul(out, ((i, image),))
        return out

    def _compose(self, other):
        return ProductEndo(
            self.group,
            (self.factors[0].compose(other.factors[0]), self.factors[1].compose(other.factors[1])),
        )


@record
class SemidirectEndo(Endomorphism):
    """Blockwise endomorphism (h, q) -> (h * base, q * quotient) of a
    semidirect product; keeps the base subgroup invariant.

    Construction verifies the intertwining condition that makes the block
    map a homomorphism: for every quotient generator with action matrix A,
    base^T A == action(image of that generator) base^T exactly.
    """

    group: Semidirect
    base_matrix: IntMatrix  # rows are images of base generators
    quotient_matrix: IntMatrix  # rows are images of quotient generators

    def __post_init__(self):
        g = self.group
        _require_type("base_matrix", self.base_matrix, IntMatrix)
        _require_type("quotient_matrix", self.quotient_matrix, IntMatrix)
        if self.base_matrix.rows != g.base_rank or self.base_matrix.cols != g.base_rank:
            raise KindMismatchError("base matrix shape mismatch")
        if (
            self.quotient_matrix.rows != g.quotient_rank
            or self.quotient_matrix.cols != g.quotient_rank
        ):
            raise KindMismatchError("quotient matrix shape mismatch")
        c_base = self.base_matrix.transpose()
        for j in range(g.quotient_rank):
            image_q = self.quotient_matrix.row(j)
            lhs = mat_mul(c_base, g.action[j])
            rhs = mat_mul(g.action_of(image_q), c_base)
            if lhs.entries != rhs.entries:
                raise InvarianceError(
                    f"base/quotient blocks do not intertwine with the action at "
                    f"quotient generator {j + 1}"
                )

    def _apply(self, g):
        return (self.base_matrix.apply_row(g[0]), self.quotient_matrix.apply_row(g[1]))

    def _compose(self, other):
        return SemidirectEndo(
            self.group,
            mat_mul(other.base_matrix, self.base_matrix),
            mat_mul(other.quotient_matrix, self.quotient_matrix),
        )


@record
class QuotientEndo(Endomorphism):
    """Endomorphism of an abelian quotient: an integer matrix on the k
    normal-form components (column convention), reduced after each step.
    Construction checks the k x k shape and that d times the image of each
    torsion generator of order d is the identity, so the map is well defined."""

    group: AbelianQuotient
    smith_matrix: IntMatrix  # k x k on the normal-form components

    def __post_init__(self):
        _require_type("smith_matrix", self.smith_matrix, IntMatrix)
        k = len(self.group.identity())
        if self.smith_matrix.rows != k or self.smith_matrix.cols != k:
            raise KindMismatchError("matrix shape does not match the quotient's components")
        for j, d in enumerate(self.group.torsion_moduli):
            killed = self.group._reduce(d * x for x in self.smith_matrix.column(j))
            if killed != self.group.identity():
                raise InvarianceError(
                    f"component c{j + 1} has order {d} but {d} times its image is not "
                    f"the identity; quotient map undefined"
                )

    def _apply(self, g):
        return self.group._reduce(self.smith_matrix.apply_col(g))

    def free_block(self) -> IntMatrix:
        """The induced map on (quotient / torsion) = Z^free_rank, columns."""
        t = len(self.group.torsion_moduli)
        return IntMatrix.from_rows(
            [self.smith_matrix.row(i)[t:] for i in range(t, self.smith_matrix.rows)]
        )

    def _compose(self, other):
        return QuotientEndo(self.group, mat_mul(self.smith_matrix, other.smith_matrix))


def abelianization(endo: HeisenbergEndo) -> MatrixEndo:
    """The induced map on the (a, c) coordinates: diag(m_a, m_c) on Z^2."""
    if not isinstance(endo, HeisenbergEndo):
        raise KindMismatchError("abelianization is defined for Heisenberg endos")
    return MatrixEndo(
        FreeAbelian(2), IntMatrix.from_rows([[endo.lam, 0], [0, endo.gam]])
    )


def restrict(endo: Endomorphism, subgroup):
    """The endomorphism in the intrinsic coordinates of an invariant subgroup.

    Supported: matrix endos restricted to sublattices (exact change of
    basis), and Heisenberg endos restricted to lower-central layers.
    Raises InvarianceError naming a violating generator if the subgroup is
    not mapped into itself.
    """
    if isinstance(endo, MatrixEndo) and isinstance(subgroup, Sublattice):
        if subgroup.ambient_rank != endo.group.rank:
            raise KindMismatchError("sublattice has the wrong ambient rank")
        rows = []
        for j in range(subgroup.rank):
            image = endo._apply(subgroup.basis.column(j))
            coords = subgroup.coordinates(image)
            if coords is None:
                raise InvarianceError(
                    f"sublattice generator h{j + 1} = {subgroup.basis.column(j)} "
                    f"maps outside the sublattice"
                )
            rows.append(coords)
        return MatrixEndo(subgroup.intrinsic_group, IntMatrix.from_rows(rows))
    if isinstance(endo, HeisenbergEndo) and isinstance(subgroup, LowerCentralLayer):
        if subgroup.j == 1:
            return endo
        if subgroup.j == 2:
            # the center (0, n, 0) scales by lam*gam
            return MatrixEndo(subgroup.subgroup, IntMatrix.from_rows([[endo.lam * endo.gam]]))
        if subgroup.j == 3:
            return MatrixEndo(FreeAbelian(0), IntMatrix.identity(0))
    raise UnsupportedOperationError(
        f"restrict not implemented for {type(endo).__name__} on {type(subgroup).__name__}"
    )


def induce_on_quotient(endo: Endomorphism, subgroup):
    """The well-defined endomorphism of group/subgroup, for invariant subgroups.

    Abelian kinds go through the Smith normal form of the subgroup basis;
    Heisenberg endos modulo the center give the abelianized matrix.
    """
    if isinstance(endo, MatrixEndo) and isinstance(subgroup, Sublattice):
        restrict(endo, subgroup)  # raises InvarianceError unless invariant
        if subgroup.rank == 0:
            return endo
        quotient = abelian_quotient(endo.group, subgroup)
        return QuotientEndo(quotient, quotient.component_matrix(endo.matrix.transpose()))
    if isinstance(endo, HeisenbergEndo) and isinstance(subgroup, LowerCentralLayer):
        if subgroup.j == 2:
            return abelianization(endo)
        if subgroup.j == 3:
            return endo
        if subgroup.j == 1:
            return MatrixEndo(FreeAbelian(0), IntMatrix.identity(0))
    raise UnsupportedOperationError(
        f"induce_on_quotient not implemented for {type(endo).__name__} on "
        f"{type(subgroup).__name__}"
    )


def identity_endo(group: Group) -> Endomorphism:
    """The identity endomorphism in the right representation for the group."""
    if isinstance(group, FreeAbelian):
        return MatrixEndo(group, IntMatrix.identity(group.rank))
    if isinstance(group, Free):
        return WordEndo(group, group.generators)
    if isinstance(group, Heisenberg):
        return HeisenbergEndo(group, 1, 1)
    if isinstance(group, (DirectProduct, FreeProduct)):
        return ProductEndo(
            group, (identity_endo(group.left), identity_endo(group.right))
        )
    if isinstance(group, Semidirect):
        return SemidirectEndo(
            group,
            IntMatrix.identity(group.base_rank),
            IntMatrix.identity(group.quotient_rank),
        )
    if isinstance(group, AbelianQuotient):
        return QuotientEndo(group, IntMatrix.identity(len(group.identity())))
    raise UnsupportedOperationError(f"no identity endo for kind {group.kind!r}")
