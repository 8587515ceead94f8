"""Growth-rate computation and estimation for endomorphisms.

Two routes are provided and cross-checked throughout: an exact spectral
route for the kinds where the growth rate reduces to eigenvalue moduli, and
a direct route that iterates the endomorphism on the generators and takes
m-th roots of the recorded word lengths.
"""

from __future__ import annotations

import math
from itertools import islice

from endogrow.endos import (
    Endomorphism,
    HeisenbergEndo,
    MatrixEndo,
    ProductEndo,
    QuotientEndo,
    SemidirectEndo,
    WordEndo,
    induce_on_quotient,
    restrict,
)
from endogrow.groups import (
    EXACT,
    FreeAbelian,
    LowerCentralLayer,
    OutOfBallError,
    UnsupportedOperationError,
    lower_central_layer,
)
from endogrow.intmat import spectral_radius
from endogrow.products import Semidirect, Sublattice
from endogrow.record import record

DEFAULT_CONVERGENCE_TOL = 0.05


def _root(value: int, m: int) -> float:
    if value < 0:
        raise ValueError("lengths are nonnegative")
    if value == 0:
        return 0.0
    return math.exp(math.log(value) / m)


@record
class GrowthEstimate:
    """Diagnostics from iterating an endomorphism on the generators.

    table[m-1] is the largest word length among the m-th images of the
    generators; roots are the m-th roots; inf_bound their minimum (which
    dominates the limit, by subadditivity); ratio_estimate the geometric
    mean of consecutive-table ratios over the trailing half, a windowed
    ratio estimator that converges fast generically and stays sane under
    the periodic oscillation a plain median chokes on.
    """

    table: tuple[int, ...]
    roots: tuple[float, ...]
    inf_bound: float
    ratio_estimate: float
    method: str
    exactness: str
    status: str  # "converged" | "truncated" | "trivial"


def estimate_from_table(table, requested: int, method: str, exactness: str) -> GrowthEstimate:
    """Roots, bounds and status from an already-computed length table; one
    shorter than the `requested` number of powers is truncated."""
    table = tuple(int(k) for k in table)
    roots = tuple(_root(k, m) for m, k in enumerate(table, start=1))
    if not table or table[-1] == 0:
        # an empty table is a truncation; its 0.0s are placeholders (JSON has no inf)
        status = "trivial" if table else "truncated"
        return GrowthEstimate(table, roots, 0.0, 0.0, method, exactness, status)
    inf_bound = min(roots)
    # int / int is correctly rounded, also for lengths past the float range
    ratios = [table[m + 1] / table[m] for m in range(len(table) - 1)]
    if ratios:
        # geometric mean over the trailing-half window: it telescopes to
        # (K_M / K_{M-w})^(1/w), which cancels bounded oscillation that a
        # median of consecutive ratios cannot see past
        window = ratios[-max(1, len(ratios) // 2) :]
        ratio_estimate = math.exp(math.fsum(math.log(r) for r in window) / len(window))
        spread = max(window) - min(window)
        settled = len(window) >= 2 and spread <= DEFAULT_CONVERGENCE_TOL * max(1.0, ratio_estimate)
    else:
        window = []
        ratio_estimate = roots[-1]
        settled = False
    status = "converged" if settled and len(table) >= requested else "truncated"
    return GrowthEstimate(table, roots, inf_bound, ratio_estimate, method, exactness, status)


def growth_table(endo: Endomorphism, max_power: int) -> GrowthEstimate:
    """Record, for each power m <= max_power, the largest word length among
    the m-th images of the generators.

    The table is built one power at a time from the endo's length stream.  A
    zero entry means the power kills every generator, hence all later entries
    vanish too: the estimate is marked trivial with rate 0.  When a BFS length
    runs out of radius the stream ends and the table is truncated at the
    largest valid power; it is empty, and still truncated, when the first
    images already leave the ball.  The exactness is the group's, since it
    belongs to the metric and not to the element measured; an empty table
    measured nothing and is exact.
    """
    if type(max_power) is not int or max_power < 1:
        raise ValueError(f"max_power must be an int >= 1, got {max_power!r}")
    table = []
    for k in islice(_lengths(endo), max_power):
        table.append(k)
        if k == 0:
            break
    group = endo.group
    exactness = group.exactness if table else EXACT
    return estimate_from_table(table, max_power, f"lengths:{group.length_kind}", exactness)


def _may_truncate(endo: Endomorphism) -> bool:
    """Whether the endo's length stream can end: a bfs-measured one, or a
    product's with such a factor inside."""
    if isinstance(endo, ProductEndo):
        return any(map(_may_truncate, endo.factors))
    return endo.group.bfs_radius > 0


def _lengths(endo: Endomorphism):
    """Yield K_m for m = 1, 2, ..., the largest length among the m-th images
    of the generators.  The stream ends only when a BFS length runs out of
    radius.

    A product endo builds no product element: a generator's image stays in
    its own factor, beside the other factor's identity of length 0, so K_m is
    the larger of the factors' K_m (Lemma 5.1).  A factor whose stream can
    end is stepped first, so the product ends with it and no other factor is
    stepped past it.

    Every other endo runs the one orbit loop: `_next_images` steps the
    images one power on (a matrix endo by linearity, over A's nonzero
    entries) and the group measures them, so a bfs length can cut it.  A
    word endo whose generator iterates never cancel runs it as the matrix
    endo C on Z^rank, C >= 0 its letter matrix, and builds no word:
    |phi^m(a_i)| is row i's sum in C^m, the L1 length of row i of C^m.
    """
    if isinstance(endo, ProductEndo):
        factors = sorted(endo.factors, key=lambda e: not _may_truncate(e))
        yield from map(max, zip(*map(_lengths, factors)))
        return
    if isinstance(endo, WordEndo) and not endo.group.bfs_radius and endo.is_cancellation_free:
        endo = MatrixEndo(FreeAbelian(endo.group.rank), endo.letter_matrix)
    # the images go through the unchecked kernels, which is sound because
    # they start from the generators
    group = endo.group
    measure = group._word_length if group.bfs_radius else group._length
    images = group.generators
    while True:
        images = endo._next_images(images)
        try:
            k = max(map(measure, images), default=0)
        except OutOfBallError:
            return
        yield k


def _torsion_orbit_rate(endo: QuotientEndo) -> float:
    """Growth contribution of the torsion part: 0 if every generator orbit
    dies, else 1 (orbits in a finite group are eventually periodic)."""
    group = endo.group
    for g in group.generators[: len(group.torsion_moduli)]:
        seen = set()
        while g not in seen:
            seen.add(g)
            g = endo._apply(g)
        # g is the first repeated point; the orbit dies iff it is the identity
        if g != group.identity():
            return 1.0
    return 0.0


def exact_growth_rate(endo: Endomorphism) -> float:
    """Exact-route growth rate for kinds where it is a spectral quantity.

    Free abelian: largest eigenvalue modulus of the matrix.  Finitely
    generated abelian with torsion: free part spectral radius combined with
    the bounded-orbit contribution of the torsion part.  Heisenberg: the
    layer formula (see nilpotent_growth_rate).  Products: max over factors.
    Semidirect blocks: max of the two block rates, valid when the base is
    undistorted (finite-order action); otherwise raises.
    """
    if isinstance(endo, MatrixEndo):
        return spectral_radius(endo.matrix)
    if isinstance(endo, QuotientEndo):
        return max(spectral_radius(endo.free_block()), _torsion_orbit_rate(endo))
    if isinstance(endo, HeisenbergEndo):
        return nilpotent_growth_rate(endo).combined
    if isinstance(endo, ProductEndo):
        return max(exact_growth_rate(f) for f in endo.factors)
    if isinstance(endo, SemidirectEndo):
        if not endo.group.action_is_finite_order:
            raise UnsupportedOperationError(
                "exact block formula requires an undistorted base "
                "(finite-order action); the base here is exponentially distorted"
            )
        return max(
            spectral_radius(endo.base_matrix),
            spectral_radius(endo.quotient_matrix),
        )
    if isinstance(endo, WordEndo):
        raise UnsupportedOperationError(
            "free-group endomorphisms have no exact spectral route; use growth_table"
        )
    raise UnsupportedOperationError(f"no exact route for {type(endo).__name__}")


@record
class NilpotentRate:
    """Layer-by-layer growth data for a class-2 nilpotent endomorphism."""

    layer_rates: tuple[float, float]  # (on group/center, on center)
    combined: float  # max(layer_1, layer_2 ** (1/2))
    no_exponent_max: float  # max of the raw layer rates (NOT the growth rate)


def nilpotent_growth_rate(endo: HeisenbergEndo) -> NilpotentRate:
    """Combine the abelian layer rates with exponents 1/k.

    The center sits at depth 2 in the lower central series, so its rate
    enters through a square root; the raw maximum without the exponent is
    reported alongside because it genuinely differs (the equality fails
    without the exponents).
    """
    layer2 = lower_central_layer(endo.group, 2)
    ab = induce_on_quotient(endo, layer2)  # group modulo center
    center = restrict(endo, layer2)
    rate1 = exact_growth_rate(ab)
    rate2 = exact_growth_rate(center)
    combined = max(rate1, math.sqrt(rate2))
    return NilpotentRate((rate1, rate2), combined, max(rate1, rate2))


@record
class ExtensionReport:
    """Growth rates of an endomorphism on a group, an invariant subgroup, and
    the quotient."""

    full: float
    restricted: float
    quotient: float


def extension_bounds(endo: Endomorphism, subgroup) -> ExtensionReport:
    """rate(full), rate(restricted) and rate(quotient) by the exact routes;
    the laws compare them against quotient <= full <= max(restricted,
    quotient)."""
    if not (
        (isinstance(endo, MatrixEndo) and isinstance(subgroup, Sublattice))
        or (isinstance(endo, HeisenbergEndo) and isinstance(subgroup, LowerCentralLayer))
    ):
        raise UnsupportedOperationError(
            "extension bounds support matrix endos with sublattices and "
            "Heisenberg endos with lower-central layers"
        )
    return ExtensionReport(
        full=exact_growth_rate(endo),
        restricted=exact_growth_rate(restrict(endo, subgroup)),
        quotient=exact_growth_rate(induce_on_quotient(endo, subgroup)),
    )


@record
class DistortionRate:
    """The compression rate of the base lattice inside a semidirect product.

    table[m-1] is the exact max L1 norm of (product of m action-generator
    factors) applied to a base generator; estimate carries the m-th-root
    diagnostics; spectral_value is the closed-form rate for an abelian
    acting group (max spectral radius over the action generators and their
    inverses), and sqrt_spectral its square root, the growth rate of the
    distortion function itself.
    """

    table: tuple[int, ...]
    estimate: GrowthEstimate
    spectral_value: float
    sqrt_spectral: float


def distortion_rate(group: Semidirect, max_power: int) -> DistortionRate:
    """Exact table of worst-case action stretches and its limit diagnostics.

    For an abelian acting group a word's action depends only on its exponent
    sum, so the words of length m act through the vectors S_m = {e : |e|_1 <=
    m, |e|_1 = m mod 2}: the exact max over words is a finite max over S_m,
    whose action matrices `Semidirect.actions_within` builds.  In zero
    generators S_m is empty for m >= 1, and a rank-0 base stretches nothing.
    """
    if type(max_power) is not int or max_power < 1:
        raise ValueError(f"max_power must be an int >= 1, got {max_power!r}")
    rank = group.quotient_rank
    if rank > 3:
        raise UnsupportedOperationError("action exponent enumeration capped at rank 3")
    reach = [0] * (max_power + 1)  # reach[d]: the largest stretch of an A(e) with |e|_1 = d
    for e, a in group.actions_within(max_power).items():
        d = sum(map(abs, e))
        reach[d] = max([reach[d], *(sum(map(abs, col)) for col in a.columns)])
    table = [max(reach[m::-2]) if rank else 0 for m in range(1, max_power + 1)]
    estimate = estimate_from_table(table, max_power, "action-word-table", EXACT)
    spectral = max([1.0, *map(spectral_radius, group.action + group._inverse_action)])
    return DistortionRate(tuple(table), estimate, spectral, math.sqrt(spectral))
