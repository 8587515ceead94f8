"""Named, runnable checks of the growth-rate laws on concrete instances.

Each law id maps to a runner that measures the quantities the law relates
and checks each of its clauses, by name, within a stated tolerance; a law
passes when every clause holds.  Instances violating a law's
hypotheses are reported as inapplicable, never as failures.  All randomized
instances derive from the configured seed, so reports are reproducible.
"""

from __future__ import annotations

import json
import math
import random
from itertools import islice

from endogrow import specio
from endogrow.ball import _resolve_budget, distortion_profile
from endogrow.endos import (
    HeisenbergEndo,
    InvarianceError,
    MatrixEndo,
    ProductEndo,
    SemidirectEndo,
    WordEndo,
)
from endogrow.groups import EXACT, Free, FreeAbelian, UnsupportedOperationError
from endogrow.intmat import IntMatrix, mat_pow, spectral_radius
from endogrow.products import Semidirect, Sublattice
from endogrow.record import record
from endogrow.growth import (
    distortion_rate,
    exact_growth_rate,
    extension_bounds,
    growth_table,
    nilpotent_growth_rate,
)


@record
class LawConfig:
    seed: int = 20250811  # used by random instances that carry no seed of their own


@record
class LawCheck:
    id: str
    instance: str
    values: dict
    tolerance: float
    verdict: str  # "pass" | "fail" | "inapplicable"
    failed: tuple[str, ...]  # the named checks that failed; empty unless "fail"


class UnknownLawError(specio.SpecError):
    pass


class Inapplicable(Exception):
    """The instance violates a hypothesis of the law; the message says which."""


def _parse(instance: dict) -> specio.Instance:
    return specio.parse_instance(instance, "instance")


def _parse_endo(instance: dict):
    """The instance's endomorphism, for a law that cannot do without one."""
    endo = _parse(instance).endo
    if endo is None:
        raise specio.SpecError("at instance.endo: this law needs an endomorphism")
    return endo


def _int(d: dict, key: str, default=None, low=None, path="instance") -> int:
    """An integer law field, checked like any spec integer."""
    return specio.expect_int(d.get(key, default), f"{path}.{key}", low)


# -- individual law runners ---------------------------------------------------
#
# Each runner takes (instance, options, seed, tol) and returns the values it
# measured and its named checks, each name mapped to whether that clause held
# within tol, or raises Inapplicable.  run_law forms the verdict.


def _law_fekete(instance, options, seed, tol):
    """Submultiplicativity of the generator-image length table, exact."""
    est = growth_table(_parse_endo(instance), options.max_power)
    if est.exactness != EXACT:
        raise Inapplicable("needs exact word lengths")
    table = est.table
    violations = 0
    for i in range(1, len(table) + 1):
        for j in range(1, len(table) + 1 - i):
            if table[i + j - 1] > table[i - 1] * table[j - 1]:
                violations += 1
    values = {"powers": len(table), "pair_violations": violations, "inf_bound": est.inf_bound}
    return values, {"pair_violations": violations == 0}


def _law_generator_bound(instance, options, seed, tol):
    """table[m] <= table[1]**m as exact integers, over seeded random free
    endomorphisms."""
    group = specio.parse_group(instance.get("group"), "instance.group")
    if not isinstance(group, Free):
        raise Inapplicable("needs a free group")
    path = "instance.random_endos"
    params = specio.expect_dict(instance.get("random_endos", {}), path)
    count = _int(params, "count", 50, low=0, path=path)
    max_len = _int(params, "max_image_length", 4, low=1, path=path)
    powers = _int(params, "powers", 7, low=1, path=path)
    rng = random.Random(seed)
    violations = 0
    checked = 0
    for _ in range(count):
        images = []
        for _ in range(group.rank):
            length = rng.randint(1, max_len)
            word = []
            for _ in range(length):
                letter = rng.choice([s for s in range(-group.rank, group.rank + 1) if s])
                if word and word[-1] == -letter:
                    letter = -letter
                word.append(letter)
            images.append(tuple(word))
        endo = WordEndo(group, tuple(images))
        est = growth_table(endo, powers)
        k1 = est.table[0] if est.table else 0
        for m, km in enumerate(est.table, start=1):
            checked += 1
            if km > k1**m:
                violations += 1
    values = {"endos": count, "roots_checked": checked, "violations": violations}
    return values, {"violations": violations == 0}


def _law_power(instance, options, seed, tol):
    """rate(endo**n) == rate(endo)**n, exact route when available.  The law
    has no fixed default tolerance: it also returns its route's default."""
    endo = _parse_endo(instance)
    n = _int(instance, "n", 2, low=0)
    try:
        base = exact_growth_rate(endo)
        powered = exact_growth_rate(endo.power(n))
        route_tol, gap_key = 1e-6, "relative_gap"
        gap = abs(powered - base**n) / max(1.0, base**n)
    except UnsupportedOperationError:
        powered = growth_table(endo.power(n), options.max_power).ratio_estimate
        base = growth_table(endo, options.max_power).ratio_estimate
        route_tol, gap_key = 0.1, "gap"
        gap = abs(powered - base**n)
    values = {"n": n, "rate_of_power": powered, "power_of_rate": base**n, gap_key: gap}
    return values, {gap_key: gap <= (route_tol if tol is None else tol)}, route_tol


def _estimate_gap(endo, options, formula):
    """(ratio_estimate, gap): the ratio estimate of the endo's table of
    options.max_power powers, and its distance from the formula's rate."""
    estimate = growth_table(endo, options.max_power).ratio_estimate
    return estimate, abs(estimate - formula)


# Section 3 relates the rate on the group to the rates on an invariant
# subgroup and on the quotient.  Its four laws measure every instance, fixed
# or seeded, through one extension_bounds call in _extension_rates, and each
# keeps its own values dict.


def _extension_rates(endo, subgroup, max_power):
    """(key, full, restricted, quotient): the instance's three rates from one
    extension_bounds call, and the key the full rate is reported under.  A
    subgroup that is not invariant makes the instance inapplicable.  On a
    Heisenberg endo the full rate is the ratio estimate of its table of
    max_power powers, reported as rate_full_estimate, so the law
    cross-checks the estimated route against the exact layer rates."""
    try:
        report = extension_bounds(endo, subgroup)
    except InvarianceError as exc:
        raise Inapplicable(str(exc)) from exc
    if isinstance(endo, HeisenbergEndo):
        full = ("rate_full_estimate", growth_table(endo, max_power).ratio_estimate)
    else:
        full = ("rate_full", report.full)
    return (*full, report.restricted, report.quotient)


def _random_invariant_instances(rng, complemented_only=False):
    """Seeded (matrix endo, invariant sublattice, complemented?) triples,
    without end; only the complemented ones if complemented_only.

    Three families: scalar lattices d*Z^n (invariant under everything),
    coordinate sublattices with block-triangular matrices (complemented),
    and scaled coordinate sublattices (torsion quotients).
    """
    while True:
        n = rng.choice([2, 3])
        family = rng.choice(["scalar", "coordinate", "scaled"])
        entries = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if family == "scalar":
            d = rng.choice([2, 3])
            basis = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            complemented = False
        else:
            k = rng.randint(1, n - 1)
            block = sorted(rng.sample(range(n), k))
            outside = [i for i in range(n) if i not in block]
            # images of block generators stay in the block span
            for j in block:
                for i in outside:
                    entries[j][i] = 0
            d = 1 if family == "coordinate" else rng.choice([2, 3])
            basis = [[d if (j < len(block) and i == block[j]) else 0 for j in range(k)] for i in range(n)]
            complemented = family == "coordinate"
        # a draw is skipped only after all its rng calls, so the stream of
        # draws is the same with or without the filter
        if complemented_only and not complemented:
            continue
        endo = MatrixEndo(FreeAbelian(n), IntMatrix.from_rows(entries))
        yield endo, Sublattice(n, IntMatrix.from_rows(basis)), complemented


def _random_rates(seed, count, max_power, complemented_only=False):
    """The rates of the first count seeded random instances."""
    instances = _random_invariant_instances(random.Random(seed), complemented_only)
    for endo, sub, _ in islice(instances, count):
        yield _extension_rates(endo, sub, max_power)


def _law_finite_index(instance, options, seed, tol):
    """Restriction to a finite-index invariant sublattice has the same rate."""
    parsed = _parse(instance)
    sub = parsed.subgroup
    if not isinstance(sub, Sublattice) or sub.index is None:
        raise Inapplicable("subgroup is not finite index")
    _, full, on_sub, _ = _extension_rates(parsed.endo, sub, options.max_power)
    values = {"index": sub.index, "rate_full": full, "rate_restricted": on_sub}
    return values, {"rate_restricted": abs(full - on_sub) <= tol}


def _law_quotient(instance, options, seed, tol):
    """rate on the quotient <= rate on the group."""
    if "random_instances" in instance:
        count = _int(instance, "random_instances", low=0)
        rates = _random_rates(seed, count, options.max_power)
        gaps = (quotient - full for _, full, _, quotient in rates)
        worst = max(gaps, default=-math.inf)
        values = {"instances": count, "worst_quotient_minus_full": worst}
        return values, {"quotient_minus_full": worst <= tol}
    parsed = _parse(instance)
    key, full, _, quotient = _extension_rates(parsed.endo, parsed.subgroup, options.max_power)
    if key == "rate_full":
        values = {key: full, "rate_quotient": quotient}
    else:  # an estimated full rate follows the exact quotient rate
        values = {"rate_quotient": quotient, key: full}
    return values, {"quotient_minus_full": quotient - full <= tol}


def _law_extension(instance, options, seed, tol):
    """rate on the group <= max(rate on subgroup, rate on quotient)."""
    if "random_instances" in instance:
        count = _int(instance, "random_instances", low=0)
        rates = _random_rates(seed, count, options.max_power)
        worst = max((full - max(sub, quo) for _, full, sub, quo in rates), default=-math.inf)
        values = {"instances": count, "worst_full_minus_max": worst}
        return values, {"full_minus_max": worst <= tol}
    parsed = _parse(instance)
    key, full, sub_rate, quotient_rate = _extension_rates(
        parsed.endo, parsed.subgroup, options.max_power
    )
    values = {key: full, "rate_restricted": sub_rate, "rate_quotient": quotient_rate}
    return values, {"full_minus_max": full - max(sub_rate, quotient_rate) <= tol}


def _law_complement(instance, options, seed, tol):
    """Equality rate = max(subgroup, quotient) when the subgroup is generated
    by part of the generating system."""
    count = _int(instance, "random_instances", 20, low=0)
    rates = _random_rates(seed, count, options.max_power, complemented_only=True)
    worst = max((abs(full - max(sub, quo)) for _, full, sub, quo in rates), default=0.0)
    return {"instances": count, "worst_equality_gap": worst}, {"equality_gap": worst <= tol}


def _law_abelian(instance, options, seed, tol):
    """Exact spectral rate against the iterated-table estimators."""
    if "random_instances" in instance:
        rng = random.Random(seed)
        count = _int(instance, "random_instances", low=0)
        worst_est = 0.0
        worst_inf = -math.inf
        done = 0
        while done < count:
            n = rng.choice([2, 3])
            mat = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            exact = spectral_radius(mat)
            if exact < 1.0:
                continue
            endo = MatrixEndo(FreeAbelian(n), mat)
            est = growth_table(endo, options.max_power)
            # the Fekete bound inf_m K_m^(1/m) also reads K_M at M = 1024, far
            # past the table; the rows of mat^M are the M-th generator images,
            # so K_M is an exact int, and its root is taken through its log
            far = max(sum(map(abs, row)) for row in mat_pow(mat, 1024).to_rows())
            fekete = min(est.inf_bound, math.exp(math.log(far) / 1024))
            gap = min(abs(est.ratio_estimate - exact), abs(fekete - exact))
            worst_est = max(worst_est, gap)
            worst_inf = max(worst_inf, exact - est.inf_bound)
            done += 1
        values = {
            "instances": count,
            "worst_estimate_gap": worst_est,
            "worst_inf_deficit": worst_inf,
        }
        return values, {"estimate_gap": worst_est <= tol, "inf_bound": worst_inf <= 1e-9}
    endo = _parse_endo(instance)
    exact = exact_growth_rate(endo)
    est = growth_table(endo, options.max_power)
    gap = min(abs(est.ratio_estimate - exact), abs(est.inf_bound - exact))
    values = {
        "rate_exact": exact,
        "ratio_estimate": est.ratio_estimate,
        "inf_bound": est.inf_bound,
        "estimate_gap": gap,
    }
    return values, {"estimate_gap": gap <= tol, "inf_bound": est.inf_bound >= exact - 1e-9}


def _law_lcs(instance, options, seed, tol):
    """rate >= (rate on layer_j quotient)**(1/j) for the supported layers."""
    endo = _parse(instance).endo
    if not isinstance(endo, HeisenbergEndo):
        raise Inapplicable("needs a Heisenberg endo")
    rate = nilpotent_growth_rate(endo)
    full = rate.combined
    values = {"rate_full": full}
    checks = {}
    for j, layer_rate in ((1, rate.layer_rates[0]), (2, rate.layer_rates[1])):
        bound = layer_rate ** (1.0 / j)
        values[f"layer{j}_root"] = bound
        checks[f"layer{j}_root"] = full >= bound - tol
    return values, checks


def _law_nilpotent(instance, options, seed, tol):
    """Layer formula with 1/k exponents against the quasi-length estimate."""
    endo = _parse_endo(instance)
    rate = nilpotent_growth_rate(endo)
    estimate, gap = _estimate_gap(endo, options, rate.combined)
    values = {
        "layer_rates": list(rate.layer_rates),
        "combined": rate.combined,
        "ratio_estimate": estimate,
        "gap": gap,
    }
    return values, {"gap": gap <= tol}


def _law_counterexample(instance, options, seed, tol):
    """The exponent in the layer formula is necessary: without it the max
    differs from the rate, which the estimate follows."""
    endo = _parse_endo(instance)
    rate = nilpotent_growth_rate(endo)
    estimate, gap = _estimate_gap(endo, options, rate.combined)
    values = {
        "combined": rate.combined,
        "no_exponent_max": rate.no_exponent_max,
        "ratio_estimate": estimate,
    }
    return values, {"differs": abs(rate.no_exponent_max - rate.combined) > 0.5, "gap": gap <= 0.1}


def _law_direct(instance, options, seed, tol):
    """Product rate equals the max of the factor rates."""
    endo = _parse(instance).endo
    if not isinstance(endo, ProductEndo):
        raise Inapplicable("needs a product endo")
    factor_rates = [exact_growth_rate(f) for f in endo.factors]
    estimate, gap = _estimate_gap(endo, options, max(factor_rates))
    values = {"factor_rates": factor_rates, "ratio_estimate": estimate}
    return values, {"gap": gap <= tol}


def _law_free(instance, options, seed, tol):
    """Same max formula over free-product factors (factor-preserving endos)."""
    endo = _parse(instance).endo
    if not isinstance(endo, ProductEndo):
        raise Inapplicable("needs a factor-preserving product endo")
    factor_rates = [exact_growth_rate(f) for f in endo.factors]
    estimate, gap = _estimate_gap(endo, options, max(factor_rates))
    values = {"factor_rates": factor_rates, "ratio_estimate": estimate}
    return values, {"gap": gap <= tol}


def _law_semidirect(instance, options, seed, tol):
    """Block formula max(rate on base, rate on acting group) for semidirect
    products with undistorted base (finite-order action)."""
    endo = _parse(instance).endo
    if not isinstance(endo, SemidirectEndo):
        raise Inapplicable("needs a semidirect block endo")
    if not endo.group.action_is_finite_order:
        raise Inapplicable("base is exponentially distorted; additive length unavailable")
    base_rate = spectral_radius(endo.base_matrix)
    quotient_rate = spectral_radius(endo.quotient_matrix)
    formula = max(base_rate, quotient_rate)
    estimate, gap = _estimate_gap(endo, options, formula)
    values = {
        "rate_base": base_rate,
        "rate_quotient": quotient_rate,
        "formula": formula,
        "ratio_estimate": estimate,
    }
    return values, {"gap": gap <= tol}


def _law_polycyclic(instance, options, seed, tol):
    """Endomorphisms preserving a polycyclic series have integer rate."""
    endo = _parse(instance).endo
    if not isinstance(endo, SemidirectEndo):
        raise Inapplicable("needs a series-preserving block endo")
    group = endo.group
    if group.base_rank != 1 or group.quotient_rank != 1:
        raise Inapplicable("catalog covers the cyclic-by-cyclic case")
    rate = exact_growth_rate(endo)
    nearest = round(rate)
    estimate, gap = _estimate_gap(endo, options, rate)
    values = {
        "tower_length": group.base_rank + group.quotient_rank,
        "rate": rate,
        "nearest_integer": nearest,
        "integer_gap": abs(rate - nearest),
        "ratio_estimate": estimate,
    }
    return values, {"integer_gap": abs(rate - nearest) <= tol, "gap": gap <= 0.1}


def _law_distortion(instance, options, seed, tol):
    """Base-lattice distortion: exact profile against the action-word rate."""
    group = _parse(instance).group
    if not isinstance(group, Semidirect):
        raise Inapplicable("needs a semidirect product")
    rate = distortion_rate(group, options.max_power)
    budget = _resolve_budget(None)
    profile = distortion_profile(group, "base", options.radius, budget)
    rho = profile.values
    if not profile.complete:  # a resource limit, not a counterexample
        reached = f"completed radius {len(rho) - 1} of {options.radius}"
        raise Inapplicable(f"the budget of {budget} walk states {reached}")
    ceiling = rate.sqrt_spectral + 0.05
    in_band = all(1.0 <= rho[n] ** (1.0 / n) <= ceiling for n in range(6, len(rho)) if rho[n])
    # rho(2r + 1) >= the r-th table entry, for r up to 5 that rho and the table reach
    certified = range(1, min(5, (len(rho) - 2) // 2, len(rate.table)) + 1)
    values = {
        "spectral_rate": rate.spectral_value,
        "sqrt_rate": rate.sqrt_spectral,
        "table_ratio_estimate": rate.estimate.ratio_estimate,
        "profile": list(rho),
        "lower_bounds_certified": len(certified),
    }
    return values, {
        "roots_in_band": in_band,
        "lower_bounds_certified": all(rho[2 * r + 1] >= rate.table[r - 1] for r in certified),
        "ratio_gap": abs(rate.estimate.ratio_estimate - rate.spectral_value) <= tol,
    }


# law id -> (runner, default tolerance); None lets the runner pick by route
LAWS = {
    "thm2.2.1-fekete": (_law_fekete, 0.0),
    "thm2.2.2-generator-bound": (_law_generator_bound, 0.0),
    "thm2.2.3-power": (_law_power, None),
    "thm3.1-finite-index": (_law_finite_index, 1e-9),
    "lemma3.2-quotient": (_law_quotient, 0.05),
    "thm3.3-extension": (_law_extension, 0.05),
    "cor3.4-complement": (_law_complement, 1e-6),
    "thm4.1-abelian": (_law_abelian, 0.05),
    "lemma4.3-lcs": (_law_lcs, 1e-9),
    "thm4.4-nilpotent": (_law_nilpotent, 0.1),
    "thm4.4-counterexample": (_law_counterexample, 1e-9),
    "lemma5.1-direct": (_law_direct, 0.05),
    "lemma5.2-free": (_law_free, 0.05),
    "thm5.4-semidirect": (_law_semidirect, 0.15),
    "lemma5.6-polycyclic": (_law_polycyclic, 1e-6),
    "lemma5.8-distortion": (_law_distortion, 0.05),
}


def _law(law_id: str):
    """The (runner, default tolerance) registered under a law id."""
    if law_id not in LAWS:
        raise UnknownLawError(f"unknown law id {law_id!r}")
    return LAWS[law_id]


def run_law(law_id: str, instance: dict, config: LawConfig | None = None) -> LawCheck:
    """Run one named check on one instance: "pass" when every clause the
    runner checks holds, else "fail", with the failing clauses in `failed`.

    The tolerance is the instance's ``options.tolerance`` when given, else
    the law's default; an instance outside the law's hypotheses gets the
    verdict "inapplicable" with the reason in its values.
    """
    runner, tol = _law(law_id)
    description = json.dumps(instance, sort_keys=True, separators=(",", ":"))
    options = specio.parse_options(instance.get("options"), "instance.options")
    if options.tolerance is not None:
        tol = options.tolerance
    seed = _int(instance, "seed", (config or LawConfig()).seed)
    try:
        values, checks, *route_tol = runner(instance, options, seed, tol)
    except Inapplicable as exc:
        values, verdict, failed = {"reason": str(exc)}, "inapplicable", ()
    else:
        failed = tuple(name for name, held in checks.items() if not held)
        verdict = "fail" if failed else "pass"
        if tol is None:
            tol = route_tol[0]
    return LawCheck(law_id, description, values, tol, verdict, failed)


# -- the built-in instance catalog --------------------------------------------

_Z2 = {"kind": "free_abelian", "rank": 2}
_Z1 = {"kind": "free_abelian", "rank": 1}
_F2 = {"kind": "free", "rank": 2}
_HEI = {"kind": "heisenberg", "generators": 3}
_SWAP_DOUBLE = {"kind": "matrix", "rows": [[0, 2], [1, 0]]}
_FIB_WORDS = {"kind": "words", "images": [[1, 2], [1]]}


def default_catalog(seed: int) -> list[tuple[str, dict]]:
    """The built-in instances, fully materialized (reports are reproducible
    from the seed alone)."""
    hyperbolic = [[2, 1], [1, 1]]
    rotation = [[0, -1], [1, 0]]
    centre = {"kind": "lower_central", "j": 2}

    def heisenberg(lam, gam, **fields):
        endo = {"kind": "heisenberg", "lambda": lam, "gamma": gam}
        return {"group": _HEI, "endo": endo, **fields}

    return [
        ("thm2.2.1-fekete", {"group": _Z2, "endo": _SWAP_DOUBLE, "options": {"max_m": 12}}),
        ("thm2.2.1-fekete", {"group": _F2, "endo": _FIB_WORDS, "options": {"max_m": 12}}),
        (
            "thm2.2.2-generator-bound",
            {
                "group": _F2,
                "random_endos": {"count": 50, "max_image_length": 4, "powers": 7},
                "seed": seed,
            },
        ),
        ("thm2.2.3-power", {"group": _Z2, "endo": _SWAP_DOUBLE, "n": 2}),
        (
            "thm2.2.3-power",
            {"group": _Z2, "endo": {"kind": "matrix", "rows": [[1, 0], [0, 1]]}, "n": 3},
        ),
        ("thm2.2.3-power", {"group": _F2, "endo": _FIB_WORDS, "n": 2, "options": {"max_m": 12}}),
        (
            "thm3.1-finite-index",
            {
                "group": _Z2,
                "endo": {"kind": "matrix", "rows": [[2, 0], [0, 3]]},
                "subgroup": {"kind": "sublattice", "basis": [[2, 0], [0, 1]]},
            },
        ),
        (
            "thm3.1-finite-index",
            {
                "group": _Z2,
                "endo": {"kind": "matrix", "rows": [[2, 1], [1, 1]]},
                "subgroup": {"kind": "sublattice", "basis": [[3, 0], [0, 3]]},
            },
        ),
        ("lemma3.2-quotient", {"random_instances": 20, "seed": seed}),
        (
            "lemma3.2-quotient",
            heisenberg(2, 2, subgroup=centre, options={"max_m": 14, "tolerance": 0.1}),
        ),
        ("thm3.3-extension", {"random_instances": 20, "seed": seed}),
        (
            "thm3.3-extension",
            heisenberg(2, 2, subgroup=centre, options={"max_m": 14, "tolerance": 0.1}),
        ),
        ("cor3.4-complement", {"random_instances": 20, "seed": seed}),
        ("thm4.1-abelian", {"group": _Z2, "endo": _SWAP_DOUBLE, "options": {"max_m": 20}}),
        (
            "thm4.1-abelian",
            {"group": _Z1, "endo": {"kind": "matrix", "rows": [[3]]}, "options": {"max_m": 20}},
        ),
        (
            "thm4.1-abelian",
            {
                "group": _Z2,
                "endo": {"kind": "matrix", "rows": [[2, 1], [1, 1]]},
                "options": {"max_m": 30},
            },
        ),
        (
            "thm4.1-abelian",
            {"random_instances": 20, "seed": seed, "options": {"max_m": 30, "tolerance": 0.1}},
        ),
        ("lemma4.3-lcs", heisenberg(2, 2)),
        ("lemma4.3-lcs", heisenberg(1, 3)),
        ("thm4.4-nilpotent", heisenberg(2, 2, options={"max_m": 14})),
        ("thm4.4-nilpotent", heisenberg(3, 5, options={"max_m": 14})),
        ("thm4.4-counterexample", heisenberg(2, 2, options={"max_m": 14})),
        (
            "lemma5.1-direct",
            {
                "group": {"kind": "direct_product", "factors": [_Z1, _Z1]},
                "endo": {
                    "kind": "product",
                    "factors": [
                        {"kind": "matrix", "rows": [[2]]},
                        {"kind": "matrix", "rows": [[3]]},
                    ],
                },
                "options": {"max_m": 16},
            },
        ),
        (
            "lemma5.2-free",
            {
                "group": {"kind": "free_product", "factors": [_Z1, _Z1]},
                "endo": {
                    "kind": "product",
                    "factors": [
                        {"kind": "matrix", "rows": [[2]]},
                        {"kind": "matrix", "rows": [[3]]},
                    ],
                },
                "options": {"max_m": 16},
            },
        ),
        (
            "thm5.4-semidirect",
            {
                "group": {
                    "kind": "semidirect",
                    "base_rank": 2,
                    "quotient_rank": 1,
                    "action": [rotation],
                },
                "endo": {"kind": "semidirect", "base": [[2, 0], [0, 2]], "quotient": [[1]]},
                "options": {"max_m": 16},
            },
        ),
        (
            "thm5.4-semidirect",
            {
                "group": {
                    "kind": "semidirect",
                    "base_rank": 2,
                    "quotient_rank": 1,
                    "action": [[[1, 0], [0, 1]]],
                },
                "endo": {"kind": "semidirect", "base": hyperbolic, "quotient": [[1]]},
                "options": {"max_m": 20},
            },
        ),
        (
            "lemma5.6-polycyclic",
            {
                "group": {
                    "kind": "semidirect",
                    "base_rank": 1,
                    "quotient_rank": 1,
                    "action": [[[-1]]],
                },
                "endo": {"kind": "semidirect", "base": [[2]], "quotient": [[3]]},
                "options": {"max_m": 16},
            },
        ),
        (
            "lemma5.8-distortion",
            {
                "group": {
                    "kind": "semidirect",
                    "base_rank": 2,
                    "quotient_rank": 1,
                    "action": [hyperbolic],
                },
                "options": {"max_m": 10, "radius": 12},
            },
        ),
    ]


@record
class SuiteReport:
    seed: int
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "fail")

    @property
    def inapplicable(self) -> int:
        return sum(1 for c in self.checks if c.verdict == "inapplicable")

    @property
    def all_pass(self) -> bool:
        return self.failed == 0


def run_suite(
    config: LawConfig | None = None, catalog: list[tuple[str, dict]] | None = None
) -> SuiteReport:
    """Run every catalog check; deterministic for a fixed seed.  An unknown
    law id anywhere in the catalog is reported before the first check runs."""
    config = config or LawConfig()
    if catalog is None:
        catalog = default_catalog(config.seed)
    for law_id, _ in catalog:
        _law(law_id)
    checks = tuple(run_law(law_id, instance, config) for law_id, instance in catalog)
    return SuiteReport(config.seed, checks)
