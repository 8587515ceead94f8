"""The BFS steps through each group's unchecked coding: its census must
equal a plain BFS over the public, checked `multiply`, a budget must cut it
to a prefix whatever the radius asked for, a census that outgrows its box
must recode what it found, and a lookup must never read another element's
length through a code that carried out of its box; a sublattice's
coordinates, and its members and intrinsic lengths read from the census
codes, must equal those of an exact rational elimination on the decoded
vectors; a library budget must be an int >= 1; the
public operations of every group and endo kind still reject foreign
elements; and the CLI rejects bad radii, budgets and query literals with
exit code 2 and a query outside the ball with exit code 3."""

from __future__ import annotations

import gc
import json
import weakref
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings, strategies as st

from endogrow import ball
from endogrow.ball import DistortionProfile, census_length, distortion_profile, enumerate_ball
from endogrow.cli import main
from endogrow.endos import HeisenbergEndo, MatrixEndo, WordEndo, identity_endo
from endogrow.groups import (
    Free,
    FreeAbelian,
    Heisenberg,
    KindMismatchError,
    LengthMode,
    OutOfBallError,
)
from endogrow.intmat import IntMatrix, mat_mul
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    Semidirect,
    Sublattice,
    semidirect,
    sublattice,
)
from endogrow.record import replace
from test_checked_entry import free_reduce

HYPERBOLIC = [[2, 1], [1, 1]]
HYPERBOLIC_INVERSE = [[1, -1], [-1, 2]]
ROTATION = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
HYPERBOLIC_SQUARED = [[5, 3], [3, 2]]
CUBIC_COMPANION = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # x^3 - x - 1


def reference_bfs(group, radius):
    """Frontier-by-frontier BFS over the public multiply: lengths in
    discovery order and cumulative counts."""
    identity = group.identity()
    gens = group.symmetric_generators()
    lengths = {identity: 0}
    counts = [1]
    frontier = [identity]
    for n in range(1, radius + 1):
        next_frontier = []
        for g in frontier:
            for s in gens:
                x = group.multiply(g, s)
                if x not in lengths:
                    lengths[x] = n
                    next_frontier.append(x)
        counts.append(counts[-1] + len(next_frontier))
        frontier = next_frontier
    return lengths, tuple(counts)


GROUPS = {
    "z3": (FreeAbelian(3), 6),
    "free2": (Free(2), 6),
    "free3": (Free(3), 4),
    "heisenberg3": (Heisenberg(3), 6),
    "heisenberg2": (Heisenberg(2), 6),
    "direct_free_z": (DirectProduct(Free(2), FreeAbelian(1)), 5),
    "direct_heisenberg_z": (DirectProduct(Heisenberg(2), FreeAbelian(1)), 4),
    "free_product_z_z": (FreeProduct(FreeAbelian(1), FreeAbelian(1)), 6),
    "free_product_free_z": (FreeProduct(Free(2), FreeAbelian(1)), 5),
    "semidirect_hyperbolic": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC]), 6),
    "semidirect_inverse": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC_INVERSE]), 6),
    "semidirect_rotation": (semidirect(FreeAbelian(2), FreeAbelian(1), [ROTATION]), 6),
    "semidirect_shear": (semidirect(FreeAbelian(2), FreeAbelian(1), [SHEAR]), 6),
    "semidirect_rank2_quotient": (
        semidirect(FreeAbelian(2), FreeAbelian(2), [ROTATION, [[-1, 0], [0, -1]]]),
        5,
    ),
    "semidirect_rank3_hyperbolic": (
        semidirect(FreeAbelian(3), FreeAbelian(1), [CUBIC_COMPANION]),
        5,
    ),
    "semidirect_rank2_quotient_hyperbolic": (
        semidirect(FreeAbelian(2), FreeAbelian(2), [HYPERBOLIC, HYPERBOLIC_SQUARED]),
        5,
    ),
    "quotient_z6_z": (AbelianQuotient(2, IntMatrix.from_rows([[6], [0]])), 6),
    "quotient_z2_z3": (AbelianQuotient(2, IntMatrix.from_rows([[2, 0], [0, 3]])), 6),
    "direct_quotient_free": (
        DirectProduct(AbelianQuotient(2, IntMatrix.from_rows([[6], [0]])), Free(2)),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_census_equals_reference_bfs(name):
    group, radius = GROUPS[name]
    lengths, counts = reference_bfs(group, radius)
    census = enumerate_ball(group, radius, budget=10**7)
    assert census.complete
    assert census.counts == counts
    assert list(census.lengths.items()) == list(lengths.items())


# every infinite kind: the finite Z/6 completes its census within any budget
CODED = sorted(name for name in GROUPS if name != "quotient_z2_z3")


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_kind_codes_its_census_as_ints(name):
    group, radius = GROUPS[name]
    census = enumerate_ball(group, radius)
    size = group._ball_coding(census.coded_radius).size
    assert census.codes
    for code in census.codes:
        assert type(code) is int and 0 <= code < size


@pytest.mark.parametrize("name", CODED)
def test_budget_cut_census_is_a_prefix(name, monkeypatch):
    group, radius = GROUPS[name]
    full = enumerate_ball(group, radius, budget=10**7)
    cut_at = radius - 2
    budget = full.counts[cut_at] + 10
    # the run must stop at the first element over the budget: count the
    # steps it takes, against the (element, generator) pairs a plain BFS
    # tries until it finds element number budget + 1
    steps = []
    coding = type(group)._ball_coding

    def counted(self, radius):
        c = coding(self, radius)
        return replace(c, step=lambda g, s: steps.append(1) or c.step(g, s))

    monkeypatch.setattr(type(group), "_ball_coding", counted)
    cut = enumerate_ball(group, radius, budget=budget)
    assert not cut.complete
    assert cut.completed_radius == cut_at
    assert cut.counts == full.counts[: cut_at + 1]
    assert list(cut.lengths.items()) == list(full.lengths.items())[: full.counts[cut_at]]
    assert len(steps) == pairs_until_element(group, budget + 1)


def pairs_until_element(group, count):
    """How many products g * s a plain BFS forms until it has seen count
    distinct elements."""
    seen = {group.identity()}
    frontier = [group.identity()]
    pairs = 0
    while frontier:
        next_frontier = []
        for g in frontier:
            for s in group.symmetric_generators():
                pairs += 1
                x = group.multiply(g, s)
                if x not in seen:
                    seen.add(x)
                    next_frontier.append(x)
                    if len(seen) == count:
                        return pairs
        frontier = next_frontier
    raise AssertionError("the group has fewer elements than that")


def test_semidirect_census_builds_each_action_once_per_quotient_part(monkeypatch):
    group, radius = GROUPS["semidirect_rank2_quotient_hyperbolic"]
    built = []
    action_of = Semidirect.action_of

    def counted(self, q):
        built.append(q)
        return action_of(self, q)

    monkeypatch.setattr(Semidirect, "action_of", counted)
    census = enumerate_ball(group, radius)
    reached = {q for _, q in census.lengths}
    assert len(built) == len(set(built))
    assert set(built) <= reached


# -- the budget bounds every census -------------------------------------------


@pytest.mark.parametrize("name", CODED)
def test_budget_bounds_a_census_of_any_radius(name):
    # a census codes for the radius it reaches, not for the radius asked for
    group, _ = GROUPS[name]
    far = enumerate_ball(group, 10**7, budget=1000)
    near = enumerate_ball(group, far.completed_radius + 1, budget=1000)
    assert not far.complete
    assert (far.counts, far.completed_radius) == (near.counts, near.completed_radius)
    assert far.complete == near.complete
    assert list(far.lengths.items()) == list(near.lengths.items())


SEMIDIRECT = [name for name in CODED if name.startswith("semidirect")]


@pytest.mark.parametrize("name", SEMIDIRECT)
def test_budget_bounds_a_base_distortion_profile_of_any_radius(name):
    group, _ = GROUPS[name]
    far = distortion_profile(group, "base", 10**7, budget=1000)
    near = distortion_profile(group, "base", len(far.values), budget=1000)
    assert far == near
    assert not far.complete


@st.composite
def sublattices(draw):
    """A sublattice of Z^2 or Z^3 of any rank 0..n, on a basis with entries
    in [-4, 4] and independent columns."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(0, n))
    column = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    columns = draw(st.lists(column, min_size=k, max_size=k))
    entries = tuple(x for row in zip(*columns) for x in row)
    try:
        return Sublattice(n, IntMatrix(n, k, entries))
    except ValueError:
        assume(False)


def exact_coordinates(basis, v):
    """The integer x with basis . x == v, or None when there is none:
    Gauss-Jordan elimination over the rationals on [basis | v], independent
    of the Smith form the library reads."""
    k = basis.cols
    rows = [[Fraction(x) for x in basis.row(i)] + [Fraction(b)] for i, b in enumerate(v)]
    for j in range(k):
        # the columns are independent, so column j has a pivot at or below row j
        p = next(i for i in range(j, len(rows)) if rows[i][j])
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, row in enumerate(rows):
            f = row[j]
            if i != j and f:
                rows[i] = [x - f * y for x, y in zip(row, rows[j])]
    if any(row[k] for row in rows[k:]):
        return None  # v is off the rational span
    x = [row[k] for row in rows[:k]]
    return tuple(map(int, x)) if all(c.denominator == 1 for c in x) else None


def assert_coordinates_match(lattice, x, w):
    """coordinates agrees with the exact elimination on the member B x and
    on the shifted vector B x + w, which may lie off the lattice."""
    v = lattice.basis.apply_col(x)
    assert lattice.coordinates(v) == tuple(x) == exact_coordinates(lattice.basis, v)
    shifted = tuple(a + b for a, b in zip(v, w))
    assert lattice.coordinates(shifted) == exact_coordinates(lattice.basis, shifted)


@settings(max_examples=200, deadline=None)
@given(lattice=sublattices(), data=st.data())
def test_sublattice_coordinates_match_exact_elimination(lattice, data):
    n, k = lattice.ambient_rank, lattice.rank
    x = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    w = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    assert_coordinates_match(lattice, x, w)


def reference_members(census, lattice):
    """(length, intrinsic length) of the census's lattice members, through
    the decoded vectors and the exact elimination."""
    for v, n in census.lengths.items():
        coords = exact_coordinates(lattice.basis, v)
        if coords is not None:
            yield n, sum(map(abs, coords))


def reference_profile(group, lattice, radius, budget):
    census = enumerate_ball(group, radius, budget)
    best_at = [0] * (census.completed_radius + 1)
    for n, value in reference_members(census, lattice):
        best_at[n] = max(best_at[n], value)
    complete = census.complete and census.completed_radius == radius
    return DistortionProfile(tuple(accumulate(best_at, max)), complete)


@settings(max_examples=60, deadline=None)
@given(lattice=sublattices(), radius=st.integers(0, 12))
def test_sublattice_members_read_from_codes_match_coordinates(lattice, radius):
    group = FreeAbelian(lattice.ambient_rank)
    census = enumerate_ball(group, radius)
    members = lattice._members(census.codes, group._box(census.coded_radius))
    assert list(members) == list(reference_members(census, lattice))
    for r, budget in ((radius, 50), (10**7, 1000)):
        assert distortion_profile(group, lattice, r, budget) == reference_profile(
            group, lattice, r, budget
        )


def test_census_recodes_when_it_outgrows_its_box():
    # Z^120's box is 190 bits at radius 1 and 279 bits at radius 2
    group = FreeAbelian(120)
    census = enumerate_ball(group, 2)
    lengths, counts = reference_bfs(group, 2)
    assert census.coded_radius == 2
    assert census.counts == counts
    assert list(census.lengths.items()) == list(lengths.items())
    # a census that fills its budget at the box's edge stops there: the
    # next sphere would overflow it, so it is not worth recoding for
    cut = enumerate_ball(group, 2, budget=counts[1])
    assert (cut.counts, cut.complete, cut.coded_radius) == (counts[:2], False, 1)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_census_recoded_from_a_small_box_equals_reference_bfs(name, monkeypatch):
    # a 6-bit box limit codes every census for radius 1 or 2 at first, so
    # each coded kind recodes once or more on its way to the radius
    group, radius = GROUPS[name]
    reference, census = reference_and_census(name)
    semidirect = isinstance(group, Semidirect)
    profile = distortion_profile(group, "base", radius) if semidirect else None
    monkeypatch.setattr(ball, "_BOX_LIMIT", 1 << 6)
    recoded = enumerate_ball(group, radius)
    assert recoded.counts == census.counts
    assert list(recoded.lengths.items()) == list(reference.items())
    for g, n in reference_bfs(group, radius + 1)[0].items():
        if n <= radius:
            assert census_length(recoded, g) == n
        else:
            with pytest.raises(OutOfBallError):
                census_length(recoded, g)
    if semidirect:
        assert distortion_profile(group, "base", radius) == profile


# -- a lookup reads only the element's own length ------------------------------


@cache
def reference_and_census(name):
    group, radius = GROUPS[name]
    return reference_bfs(group, radius)[0], enumerate_ball(group, radius)


@pytest.mark.parametrize("name", CODED)
def test_elements_one_step_past_the_radius_are_out_of_the_ball(name):
    group, radius = GROUPS[name]
    _, census = reference_and_census(name)
    outside = [g for g, n in reference_bfs(group, radius + 1)[0].items() if n == radius + 1]
    assert outside
    for g in outside:
        with pytest.raises(OutOfBallError):
            census_length(census, g)


# elements past the box of the radius-r census, whose digits would carry:
# coordinates past r, a free word of length r + 1, and a right factor past
# its box, which would carry into the left factor's code
CARRIES = {
    "z3": [(7, 0, 0), (0, -7, 0), (0, 0, 7), (13, 0, 0), (-7, 1, 0)],
    "free2": [(1, 2, 1, 2, 1, 2, 1), (-2,) * 7],
    "free3": [(3, 1, 2, 3, 1)],
    "heisenberg3": [(7, 0, 0), (-7, 0, 0), (0, 0, 13), (0, 37, 0), (0, -37, 0), (13, 0, 0)],
    "direct_free_z": [((), (11,)), ((), (-11,)), ((1,), (11,)), ((1, 2, 1, 2, 1, 2), (0,))],
    "free_product_z_z": [((0, (13,)),), ((1, (7,)),), ((0, (2,)), (1, (-5,)))],
    "semidirect_hyperbolic": [((0, 0), (7,)), ((0, 0), (13,)), ((10**6, 0), (0,))],
    "quotient_z6_z": [(0, 7), (5, -13)],
}


@pytest.mark.parametrize("name", sorted(CARRIES))
def test_codes_never_carry_into_another_element(name):
    _, census = reference_and_census(name)
    group, _ = GROUPS[name]
    for g in CARRIES[name]:
        group.check(g)
        assert census.encode(g) is None
        with pytest.raises(OutOfBallError):
            census_length(census, g)


def coordinate(radius):
    # inside the ball, just past its radius, and far past any box
    return st.one_of(st.integers(-radius - 2, radius + 2), st.integers(-10**6, 10**6))


def lattice(rank, radius):
    return st.tuples(*[coordinate(radius)] * rank)


def word(rank, radius):
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    return st.lists(letters, max_size=radius + 3).map(free_reduce)


def elements(group, radius):
    """Checked elements of the group, inside and outside the ball."""
    if isinstance(group, FreeAbelian):
        return lattice(group.rank, radius)
    if isinstance(group, Free):
        return word(group.rank, radius)
    if isinstance(group, Heisenberg):
        return st.tuples(coordinate(radius), coordinate(radius * radius), coordinate(radius))
    if isinstance(group, DirectProduct):
        return st.tuples(elements(group.left, radius), elements(group.right, radius))
    if isinstance(group, FreeProduct):
        syllable = st.sampled_from((0, 1)).flatmap(
            lambda i: elements(group.factor(i), radius)
            .filter(lambda s: s != group.factor(i).identity())
            .map(lambda s: ((i, s),))
        )
        return st.lists(syllable, max_size=radius + 3).map(
            lambda parts: reduce(group.multiply, parts, group.identity())
        )
    if isinstance(group, AbelianQuotient):
        residues = [st.integers(0, d - 1) for d in group.torsion_moduli]
        return st.tuples(*residues, *[coordinate(radius)] * group.free_rank)
    return st.tuples(lattice(group.base_rank, radius), lattice(group.quotient_rank, radius))


@pytest.mark.parametrize("name", CODED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_census_length_is_the_reference_length_or_out_of_ball(name, data):
    group, radius = GROUPS[name]
    reference, census = reference_and_census(name)
    if data.draw(st.booleans(), label="from the ball"):
        g = data.draw(st.sampled_from(list(reference)), label="element")
    else:
        g = data.draw(elements(group, radius), label="element")
    group.check(g)
    if g in reference:
        assert census_length(census, g) == reference[g]
    else:
        with pytest.raises(OutOfBallError):
            census_length(census, g)


BFS_MODE_GROUPS = {
    "free_abelian": lambda mode: FreeAbelian(2, mode),
    "free": lambda mode: Free(2, mode),
    "heisenberg": lambda mode: Heisenberg(3, mode),
    "semidirect": lambda mode: semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC], mode),
}


@pytest.mark.parametrize("kind", sorted(BFS_MODE_GROUPS))
def test_bfs_mode_census_holds_no_reference_to_its_group(kind):
    # a coding closure kept in the census that held the group would make a
    # cycle group -> census -> closure -> group
    group = BFS_MODE_GROUPS[kind](LengthMode("bfs", 4))
    group.word_length(group.generators[0])
    ref = weakref.ref(group._bfs_census)
    gc.disable()
    try:
        del group
        assert ref() is None
    finally:
        gc.enable()


FOREIGN = {
    "z3": (FreeAbelian(3), (1, 2)),
    "free2": (Free(2), (1, 3)),
    "heisenberg3": (Heisenberg(3), (1, 2)),
    "direct_free_z": (DirectProduct(Free(2), FreeAbelian(1)), ((1, -1), (0,))),
    "free_product_z_z": (FreeProduct(FreeAbelian(1), FreeAbelian(1)), ((0, (1, 1)),)),
    "semidirect": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC]), ((1, 0), (0, 0))),
    "quotient": (AbelianQuotient(2, IntMatrix.from_rows([[6], [0]])), (1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_public_operations_reject_foreign_elements(name):
    group, foreign = FOREIGN[name]
    gen = group.generators[0]
    with pytest.raises(KindMismatchError):
        group.multiply(gen, foreign)
    with pytest.raises(KindMismatchError):
        group.multiply(foreign, gen)
    with pytest.raises(KindMismatchError):
        group.invert(foreign)
    with pytest.raises(KindMismatchError):
        group.word_length(foreign)


ENDOS = {
    "matrix": lambda: MatrixEndo(FreeAbelian(2), IntMatrix.from_rows([[2, 1], [1, 1]])),
    "words": lambda: WordEndo(Free(2), ((1, 2), (-2, 1))),
    "heisenberg": lambda: HeisenbergEndo(Heisenberg(3), 2, 3),
    "direct_product": lambda: identity_endo(DirectProduct(Free(2), FreeAbelian(1))),
    "free_product": lambda: identity_endo(FreeProduct(FreeAbelian(1), FreeAbelian(1))),
    "semidirect": lambda: identity_endo(semidirect(FreeAbelian(2), FreeAbelian(1), [ROTATION])),
    "quotient": lambda: identity_endo(AbelianQuotient(2, IntMatrix.from_rows([[6], [0]]))),
}
ENDO_FOREIGN = {
    "matrix": (1, 2, 3),
    "words": (1, 3),
    "heisenberg": (1, 2),
    "direct_product": ((1, -1), (0,)),
    "free_product": ((0, (1, 1)),),
    "semidirect": ((1, 0), (0, 0)),
    "quotient": (1, 2, 3),
}


@pytest.mark.parametrize("name", sorted(ENDOS))
def test_endo_public_entries_reject_foreign_elements(name):
    endo, foreign = ENDOS[name](), ENDO_FOREIGN[name]
    with pytest.raises(KindMismatchError):
        endo.apply(foreign)


def test_semidirect_action_moves_column_vectors():
    # (h, q)(h', q') = (h + A(q) h', q + q'); a non-symmetric A tells A from A^T
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [SHEAR])
    assert group.multiply(((0, 0), (1,)), ((0, 1), (0,))) == ((1, 1), (1,))
    assert group.multiply(((0, 0), (-2,)), ((0, 1), (0,))) == ((-2, 1), (-2,))


def test_generator_power_matches_repeated_products():
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC])
    for n in range(-7, 8):
        a = IntMatrix.from_rows(HYPERBOLIC if n >= 0 else HYPERBOLIC_INVERSE)
        expected = IntMatrix.identity(2)
        for _ in range(abs(n)):
            expected = mat_mul(expected, a)
        assert group.generator_power(0, n) == expected


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


SUBLATTICE_SPEC = {
    "group": {"kind": "free_abelian", "rank": 2},
    "subgroup": {"kind": "sublattice", "basis": [[2, 0], [0, 1]]},
}


class TestBudget:
    def test_distortion_honours_spec_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENDOGROW_BUDGET", "10")
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        assert main(["distortion", spec, "--radius", "50", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is False
        assert payload["profile"] == [0, 1]

    @pytest.mark.parametrize("command", ["ball", "distortion"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exits_2(self, tmp_path, capsys, monkeypatch, command, budget):
        monkeypatch.setenv("ENDOGROW_BUDGET", budget)
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        assert main([command, spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "ENDOGROW_BUDGET" in captured.err

    @pytest.mark.parametrize("command", ["ball", "distortion"])
    def test_budget_flag_is_gone(self, tmp_path, capsys, command):
        # ENDOGROW_BUDGET is a census's one budget source
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, spec, "--budget", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("budget", [2.7, 0, -5, True, "12"])
    def test_library_budget_is_an_int_at_least_one(self, budget):
        # neither truncated nor coerced, as the ENDOGROW_BUDGET boundary checks it
        group = FreeAbelian(2)
        with pytest.raises(ValueError, match="budget"):
            enumerate_ball(group, 3, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            distortion_profile(group, sublattice(group, [[2, 0], [0, 1]]), 3, budget=budget)

    @pytest.mark.parametrize("radius", [True, 2.5, "3", -1])
    def test_library_radius_is_a_nonnegative_int(self, radius):
        # neither read as radius 1 nor left to fail inside the BFS
        with pytest.raises(ValueError, match="radius must be an int >= 0"):
            enumerate_ball(FreeAbelian(2), radius)

    def test_spec_budget_below_one_exits_2(self, tmp_path, capsys):
        # options.budget is an unknown option, whatever its value
        for budget in (0, 10):
            spec = write_spec(tmp_path, {**SUBLATTICE_SPEC, "options": {"budget": budget}})
            assert main(["ball", spec]) == 2
            err = capsys.readouterr().err
            assert "options.budget" in err and "unknown option" in err


class TestBoundary:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("ball", "--radius", "-2"),
            ("distortion", "--radius", "-2"),
            ("estimate", "--radius", "-2"),
            ("estimate", "--max-m", "0"),
            ("distortion", "--max-m", "0"),
            ("ball", "--radius", "two"),
        ],
    )
    def test_out_of_range_argument_exits_2(self, tmp_path, capsys, command, flag, value):
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, spec, flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "group, query",
        [
            ({"kind": "free_abelian", "rank": 2}, '{"a":1}'),
            ({"kind": "free_abelian", "rank": 2}, "[1.5,0]"),
            ({"kind": "free_abelian", "rank": 2}, "[1,2,3]"),
            ({"kind": "heisenberg"}, "[1,2]"),
            ({"kind": "free", "rank": 2}, "[1,-1]"),
            ({"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
              "action": [HYPERBOLIC]}, "[[1,0],[0,0]]"),
        ],
    )
    def test_foreign_query_exits_2(self, tmp_path, capsys, group, query):
        spec = write_spec(tmp_path, {"group": group})
        assert main(["ball", spec, "--radius", "2", "--query", query]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: at query:")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, query",
    [
        ({"kind": "free_abelian", "rank": 3}, "[5,0,0]"),
        ({"kind": "free_abelian", "rank": 3}, "[3,0,0]"),
        ({"kind": "free", "rank": 2}, "[1,2,1]"),
        ({"kind": "heisenberg"}, "[0,5,0]"),
        ({"kind": "direct_product", "factors": [{"kind": "free", "rank": 2},
                                                {"kind": "free_abelian", "rank": 1}]}, "[[],[5]]"),
        ({"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
          "action": [HYPERBOLIC]}, "[[0,0],[5]]"),
        # a Z syllable is measured before its letters are written out
        ({"kind": "free_product", "factors": [{"kind": "free", "rank": 2},
                                              {"kind": "free_abelian", "rank": 1}]},
         "[[1,[1000000000000]]]"),
    ],
)
def test_query_outside_the_ball_exits_3(tmp_path, capsys, group, query):
    # [5,0,0] in Z^3 at radius 2 would carry into the code of [0,1,0]
    spec = write_spec(tmp_path, {"group": group})
    assert main(["ball", spec, "--radius", "2", "--query", query]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("computation failed:")
