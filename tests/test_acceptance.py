"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

from __future__ import annotations

import json
import math
import random
import time
from itertools import islice

from endogrow.ball import distortion_profile, enumerate_ball
from endogrow.cli import main
from endogrow.endos import HeisenbergEndo, MatrixEndo, ProductEndo, WordEndo
from endogrow.groups import Free, FreeAbelian, Heisenberg
from endogrow.intmat import IntMatrix, mat_pow, spectral_radius
from endogrow.laws import _random_invariant_instances
from endogrow.products import direct_product, free_product, semidirect, sublattice
from endogrow.growth import (
    distortion_rate,
    exact_growth_rate,
    extension_bounds,
    growth_table,
    nilpotent_growth_rate,
)

SQRT2 = math.sqrt(2.0)


def M(rows):
    return IntMatrix.from_rows(rows)


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_rank_two_example_spectral_and_table(tmp_path, capsys):
    started = time.perf_counter()
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[0, 2], [1, 0]]},
             "options": {"max_m": 20}}
        )
    )
    assert main(["spectral", str(spec), "--format", "json"]) == 0
    reported = json.loads(capsys.readouterr().out)["growth_rate"]
    est = growth_table(MatrixEndo(FreeAbelian(2), M([[0, 2], [1, 0]])), 20)
    elapsed = time.perf_counter() - started
    spectral_ok = abs(reported - SQRT2) <= 1e-9
    inf_ok = abs(est.inf_bound - SQRT2) <= 1e-9
    even_attained = all(abs(est.roots[m - 1] - SQRT2) <= 1e-12 for m in range(2, 21, 2))
    ok = spectral_ok and inf_ok and even_attained and elapsed < 1.0
    report(
        1,
        ok,
        f"spectral={reported!r} inf_bound={est.inf_bound!r} "
        f"even_roots_attained={even_attained} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_rank_one_multiplier():
    endo = MatrixEndo(FreeAbelian(1), M([[3]]))
    rate = exact_growth_rate(endo)
    table = growth_table(endo, 12).table
    ok = rate == 3.0 and table == tuple(3**m for m in range(1, 13))
    report(2, ok, f"rate={rate} table_exact_powers={table == tuple(3**m for m in range(1, 13))}")


def test_criterion_03_generator_bound_for_random_free_endos():
    rng = random.Random(20250811)
    group = Free(2)
    violations = 0
    roots_checked = 0
    for _ in range(50):
        images = []
        for _ in range(2):
            length = rng.randint(1, 4)
            word = []
            for _ in range(length):
                letter = rng.choice([-2, -1, 1, 2])
                if word and word[-1] == -letter:
                    letter = -letter
                word.append(letter)
            images.append(tuple(word))
        table = growth_table(WordEndo(group, tuple(images)), 8).table
        k1 = table[0]
        for m, km in enumerate(table, start=1):
            roots_checked += 1
            if km > k1**m:
                violations += 1
    ok = violations == 0
    report(3, ok, f"50 endos, {roots_checked} roots checked, {violations} violations")


def test_criterion_04_power_law_for_random_matrices():
    rng = random.Random(18)
    worst_rel = 0.0
    worst_estimate_gap = 0.0
    for _ in range(20):
        n = rng.choice([2, 3])
        a = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        rho = spectral_radius(a)
        for p in (2, 3):
            powered = spectral_radius(mat_pow(a, p))
            worst_rel = max(worst_rel, abs(powered - rho**p) / max(1.0, rho**p))
        endo = MatrixEndo(FreeAbelian(n), a)
        base_est = growth_table(endo, 20).ratio_estimate
        squared_est = growth_table(endo.power(2), 20).ratio_estimate
        worst_estimate_gap = max(worst_estimate_gap, abs(squared_est - base_est**2))
    ok = worst_rel <= 1e-6 and worst_estimate_gap <= 0.1
    report(4, ok, f"worst_power_rel={worst_rel:.2e} worst_estimate_gap={worst_estimate_gap:.4f}")


def test_criterion_05_nilpotent_layers_and_counterexample():
    started = time.perf_counter()
    endo = HeisenbergEndo(Heisenberg(3), 2, 2)
    rate = nilpotent_growth_rate(endo)
    est = growth_table(endo, 14)
    elapsed = time.perf_counter() - started
    layers_ok = rate.layer_rates == (2.0, 4.0) and rate.combined == 2.0
    estimate_ok = abs(est.ratio_estimate - 2.0) <= 0.1
    with_exponent = max(rate.layer_rates[0], math.sqrt(rate.layer_rates[1]))
    exponent_matters = rate.no_exponent_max != rate.combined and with_exponent == rate.combined
    ok = layers_ok and estimate_ok and exponent_matters and elapsed < 10.0
    report(
        5,
        ok,
        f"layers={rate.layer_rates} combined={rate.combined} "
        f"ratio={est.ratio_estimate:.4f} no_exponent={rate.no_exponent_max} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_06_finite_index_sublattice():
    endo = MatrixEndo(FreeAbelian(2), M([[2, 0], [0, 3]]))
    lat = sublattice(FreeAbelian(2), [[2, 0], [0, 1]])
    from endogrow.endos import restrict

    full = exact_growth_rate(endo)
    restricted = exact_growth_rate(restrict(endo, lat))
    ok = abs(full - 3.0) <= 1e-9 and abs(restricted - 3.0) <= 1e-9 and lat.index == 2
    report(6, ok, f"index={lat.index} full={full} restricted={restricted}")


def test_criterion_07_subgroup_quotient_sandwich():
    rng = random.Random(20250811)
    worst_sandwich = -math.inf
    worst_equality = 0.0
    complemented_seen = 0
    for endo, sub, complemented in islice(_random_invariant_instances(rng), 20):
        bounds = extension_bounds(endo, sub)
        worst_sandwich = max(
            worst_sandwich,
            bounds.quotient - bounds.full,
            bounds.full - max(bounds.restricted, bounds.quotient),
        )
        if complemented:
            complemented_seen += 1
            worst_equality = max(
                worst_equality, abs(bounds.full - max(bounds.restricted, bounds.quotient))
            )
    ok = worst_sandwich <= 1e-6 and worst_equality <= 1e-6 and complemented_seen > 0
    report(
        7,
        ok,
        f"worst_sandwich_violation={worst_sandwich:.2e} "
        f"complemented={complemented_seen} worst_equality_gap={worst_equality:.2e}",
    )


def test_criterion_08_direct_and_free_products():
    two = MatrixEndo(FreeAbelian(1), M([[2]]))
    three = MatrixEndo(FreeAbelian(1), M([[3]]))
    direct = ProductEndo(direct_product(FreeAbelian(1), FreeAbelian(1)), (two, three))
    direct_rate = exact_growth_rate(direct)
    free_endo = ProductEndo(free_product(FreeAbelian(1), FreeAbelian(1)), (two, three))
    free_est = growth_table(free_endo, 16).ratio_estimate
    ok = abs(direct_rate - 3.0) <= 1e-9 and abs(free_est - 3.0) <= 0.05
    report(8, ok, f"direct_rate={direct_rate} free_ratio_estimate={free_est}")


def test_criterion_09_cyclic_by_cyclic_integer_rate():
    group = semidirect(FreeAbelian(1), FreeAbelian(1), [[[-1]]])
    from endogrow.endos import SemidirectEndo

    endo = SemidirectEndo(group, M([[2]]), M([[3]]))
    rate = exact_growth_rate(endo)
    ok = abs(rate - round(rate)) <= 1e-6 and round(rate) == 3
    report(9, ok, f"rate={rate} nearest_integer={round(rate)}")


def test_criterion_10_distortion_profile_and_rate():
    started = time.perf_counter()
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [[[2, 1], [1, 1]]])
    rate = distortion_rate(group, 10)
    profile = distortion_profile(group, "base", 12)
    elapsed = time.perf_counter() - started
    expected = (3 + math.sqrt(5)) / 2
    rate_ok = abs(rate.spectral_value - expected) <= 1e-6
    rho = profile.values
    nondecreasing = all(a <= b for a, b in zip(rho, rho[1:]))
    band_ok = all(
        1.0 <= rho[n] ** (1.0 / n) <= rate.sqrt_spectral + 0.05
        for n in range(6, 13)
    )
    certified = all(rho[2 * r + 1] >= rate.table[r - 1] for r in range(1, 6))
    ok = rate_ok and nondecreasing and band_ok and certified and profile.complete and elapsed < 60.0
    report(
        10,
        ok,
        f"rate={rate.spectral_value:.9f} profile={list(rho)} "
        f"certified_r<=5={certified} elapsed={elapsed:.1f}s",
    )


def test_criterion_11_oracle_ground_truth():
    lattice_census = enumerate_ball(FreeAbelian(2), 10)
    counts_ok = lattice_census.counts == tuple(2 * n * n + 2 * n + 1 for n in range(11))
    lattice_ok = all(
        length == abs(v[0]) + abs(v[1]) for v, length in lattice_census.lengths.items()
    )
    free_census = enumerate_ball(Free(2), 8)
    free_ok = all(length == len(w) for w, length in free_census.lengths.items())
    ok = counts_ok and lattice_ok and free_ok
    report(
        11,
        ok,
        f"lattice_counts={counts_ok} lattice_lengths={lattice_ok} free_lengths={free_ok}",
    )


def test_criterion_12_full_law_suite(capsys):
    started = time.perf_counter()
    code = main(["verify", "--seed", "20250811", "--format", "json"])
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)
    summary = payload["summary"]
    ok = (
        code == 0
        and summary["fail"] == 0
        and summary["inapplicable"] == 0
        and summary["pass"] == summary["total"]
        and elapsed < 300.0
    )
    report(
        12,
        ok,
        f"{summary['pass']}/{summary['total']} pass, "
        f"{summary['inapplicable']} inapplicable, elapsed={elapsed:.1f}s",
    )
