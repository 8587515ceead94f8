"""Ground-truth enumeration of Cayley balls by frontier-by-frontier BFS.

Lengths recorded here are exact geodesic distances by construction; the
census is deterministic (generator order, then discovery order) and is the
reference every closed-form or quasi length is checked against.

The BFS runs over the codes of a group's `_ball_coding`.  Every kind codes
each normal form as an int in a box fixed by a radius, so a step is int
arithmetic and the census is a dict of ints.  A census first codes for a
radius doubled from 1, up to the one asked for, while its box fits in 256
bits.  Only when the BFS completes that radius with budget left does it code
for twice the radius and re-key what it found, so its cost follows the
budget and not the radius asked for.  A census decodes its `lengths` on
each access; lookups encode the element.
"""

from __future__ import annotations

import os
from itertools import accumulate, product
from math import comb
from operator import add, mul

from endogrow.groups import FreeAbelian, Group, OutOfBallError, UnsupportedOperationError
from endogrow.products import Semidirect, Sublattice
from endogrow.record import record
from endogrow.specio import SpecError

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "ENDOGROW_BUDGET"
_BOX_LIMIT = 1 << 256  # codes below it are at most 256 bits


def _resolve_budget(budget):
    if budget is not None:
        if type(budget) is not int or budget < 1:
            raise ValueError(f"budget must be an int >= 1, got {budget!r}")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise SpecError(f"at {BUDGET_ENV_VAR}: expected an integer, got {env!r}") from None
    if value < 1:
        raise SpecError(f"at {BUDGET_ENV_VAR}: must be >= 1, got {value}")
    return value


def _check_radius(radius):
    if type(radius) is not int or radius < 0:
        raise ValueError(f"radius must be an int >= 0, got {radius!r}")


@record
class BallCensus:
    """Exact lengths for every element within completed_radius of the identity.

    counts[n] is the cumulative ball size |B(n)|.  If the element budget ran
    out, complete is False and only fully enumerated radii are reported.
    codes maps each element's code to its length, in discovery order; encode
    and decode are the group's coding for coded_radius, the last radius the
    census coded for.
    """

    completed_radius: int
    coded_radius: int
    counts: tuple[int, ...]
    codes: dict
    encode: object
    decode: object
    complete: bool = True

    @property
    def lengths(self) -> dict:
        """Element -> length in discovery order, decoded anew on each access."""
        decode = self.decode
        return {decode(code): n for code, n in self.codes.items()}


def _first_coding(group: Group, radius: int):
    """(coding, r) for r = min(radius, 1), doubled up to radius while the
    box of the doubled radius still fits in 256 bits."""
    coded = min(radius, 1)
    coding = group._ball_coding(coded)
    while coded < radius:
        trial = min(2 * coded, radius)
        wider = group._ball_coding(trial)
        if wider.size > _BOX_LIMIT:
            break
        coding, coded = wider, trial
    return coding, coded


def enumerate_ball(group: Group, radius: int, budget: int | None = None) -> BallCensus:
    """Breadth-first enumeration of the ball of the given radius.

    Deterministic; dedupes on canonical normal forms, so each element's
    recorded length is its true geodesic length.  Exceeding the budget
    yields a partial census flagged incomplete (completed radii stay exact).
    """
    _check_radius(radius)
    budget = _resolve_budget(budget)
    for s in (group.identity(), *group.symmetric_generators()):
        group.check(s)
    # every element found is a product of checked ones, so the BFS steps
    # through the unchecked coding and checks none of them
    coding, coded = _first_coding(group, radius)
    gens, step = coding.generators, coding.step
    lengths = {coding.encode(group.identity()): 0}
    counts = [1]
    frontier = list(lengths)
    completed = 0
    complete = True
    for n in range(1, radius + 1):
        next_frontier = []
        overflow = False
        for g in frontier:
            for s in gens:
                x = step(g, s)
                if x not in lengths:
                    lengths[x] = n
                    next_frontier.append(x)
                    if len(lengths) > budget:
                        overflow = True
                        break
            if overflow:
                break
        if overflow:
            # drop the partially discovered frontier: only complete radii count
            for x in next_frontier:
                del lengths[x]
            complete = False
            break
        counts.append(counts[-1] + len(next_frontier))
        completed = n
        frontier = next_frontier
        if not frontier:
            # ball stabilized (finite group); remaining radii add nothing
            counts.extend(counts[-1] for _ in range(radius - n))
            completed = radius
            break
        if n == coded < radius:
            # the next step would leave the box
            if len(lengths) == budget:
                # a coded group with a non-empty sphere is infinite, so its
                # next sphere would overflow the budget
                complete = False
                break
            coded = min(2 * n, radius)
            decode, coding = coding.decode, group._ball_coding(coded)
            encode, gens, step = coding.encode, coding.generators, coding.step
            lengths = {encode(decode(x)): k for x, k in lengths.items()}
            frontier = list(lengths)[-len(frontier) :]
    return BallCensus(
        completed_radius=completed,
        coded_radius=coded,
        counts=tuple(counts[: completed + 1]),
        codes=lengths,
        encode=coding.encode,
        decode=coding.decode,
        complete=complete,
    )


def exact_length(census: BallCensus, g) -> int:
    """The geodesic length of an enumerated element.  An element outside the
    coding's box encodes to None, which no census holds."""
    found = census.codes.get(census.encode(g))
    if found is None:
        raise OutOfBallError(
            f"element {g!r} not within the enumerated radius {census.completed_radius}"
        )
    return found


@record
class DistortionProfile:
    """values[n] = max intrinsic subgroup length over subgroup elements lying
    in the ambient ball of radius n (values[0] == 0)."""

    values: tuple[int, ...]
    complete: bool


def distortion_profile(group: Group, subgroup, radius: int, budget=None) -> DistortionProfile:
    """Exact distortion measurements: a sublattice of a free abelian group
    reads its members and their intrinsic lengths from the codes of a BFS
    census, and the base of a semidirect product is profiled by `_base_profile`."""
    if isinstance(group, Semidirect) and (subgroup is None or subgroup == "base"):
        _check_radius(radius)
        return _base_profile(group, radius, _resolve_budget(budget))
    if not (isinstance(group, FreeAbelian) and isinstance(subgroup, Sublattice)):
        raise UnsupportedOperationError("unsupported group/subgroup pair for distortion")
    if subgroup.ambient_rank != group.rank:
        raise ValueError("sublattice ambient rank mismatch")
    census = enumerate_ball(group, radius, budget)
    # (ambient length, intrinsic length) for each census element in the subgroup
    members = subgroup._members(census.codes, group._box(census.coded_radius))
    top = census.completed_radius
    best_at = [0] * (top + 1)
    for n, value in members:
        if value > best_at[n]:
            best_at[n] = value
    return DistortionProfile(tuple(accumulate(best_at, max)), census.complete and top == radius)


def _base_profile(group: Semidirect, radius: int, budget: int) -> DistortionProfile:
    """rho(n), the largest |h|_1 over words of length <= n whose quotient
    letters sum to 0, as a longest walk over states (t, q) for each sign
    vector s up to -s (README, Lemma 5.8): a base letter at q gains
    max_j |s . A(q) e_j|, and a quotient letter moves q for nothing.
    Radius n keeps the q with |q|_1 <= min(t, n - t) at step t; the budget
    buys the largest radius whose states all fit, so a cut is a prefix."""
    k, b = group.quotient_rank, group.base_rank
    count = 2 ** max(b - 1, 0)  # sign vectors up to -s, counted before any is built
    n, cost = 0, count
    while n < radius:
        # radius n + 1 adds the q with |q|_1 <= (n + 1) // 2 for each s
        cost += count * sum(2**j * comb(k, j) * comb((n + 1) // 2, j) for j in range(k + 1))
        if cost > budget:
            break
        n += 1
    if n == 0:  # rho(0) = 0 needs no walk
        return DistortionProfile((0,), radius == 0)
    cols = {q: a.columns for q, a in group.actions_within(n // 2).items()}
    units = [(0,) * i + (d,) + (0,) * (k - i - 1) for i in range(k) for d in (1, -1)]
    moves = {q: [f for u in units if (f := tuple(map(add, q, u))) in cols] for q in cols}
    best = [0] * (n + 1)
    # one of s and -s: the sign vectors that do not start with -1
    for s in (s for s in product((1, -1), repeat=b) if s[:1] != (-1,)):
        gain = {q: max((abs(sum(map(mul, s, c))) for c in cs), default=0) for q, cs in cols.items()}
        values = {(0,) * k: 0}
        for t in range(1, n + 1):
            step = {}
            for q, v in values.items():
                for f, w in [(q, v + gain[q]), *((f, v) for f in moves[q])]:
                    if sum(map(abs, f)) <= n - t and step.get(f, -1) < w:
                        step[f] = w
            values = step
            best[t] = max(best[t], values[(0,) * k])
    return DistortionProfile(tuple(accumulate(best, max)), n == radius)
