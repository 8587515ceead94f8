"""The law-check harness: individual runners, the default catalog and verdict
gating."""

from __future__ import annotations

import json

import pytest

from endogrow import laws
from endogrow.cli import main
from endogrow.laws import (
    LAWS,
    LawConfig,
    UnknownLawError,
    default_catalog,
    run_law,
    run_suite,
)
from endogrow.record import replace
from endogrow.specio import parse_options

SEED = 20250811
CATALOG = default_catalog(SEED)


class TestRunLaw:
    def test_abelian_example_passes(self):
        check = run_law(
            "thm4.1-abelian",
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[0, 2], [1, 0]]},
             "options": {"max_m": 20}},
        )
        assert check.verdict == "pass"
        assert check.values["rate_exact"] == pytest.approx(2**0.5, abs=1e-9)

    def test_random_abelian_instances_pass_on_every_seed(self):
        # the table's first 30 roots can sit far above the rate on a matrix
        # with a large transient; the Fekete bound at power 1024 cannot
        failing = [
            seed
            for seed in range(60)
            if run_law(
                "thm4.1-abelian",
                {"random_instances": 20, "seed": seed, "options": {"tolerance": 0.1}},
            ).verdict != "pass"
        ]
        assert failing == []

    def test_identity_power_law(self):
        check = run_law(
            "thm2.2.3-power",
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[1, 0], [0, 1]]},
             "n": 3},
        )
        assert check.verdict == "pass"
        assert check.values["rate_of_power"] == pytest.approx(1.0)

    def test_cyclic_by_cyclic_integer_rate(self):
        check = run_law(
            "lemma5.6-polycyclic",
            {"group": {"kind": "semidirect", "base_rank": 1, "quotient_rank": 1,
                       "action": [[[-1]]]},
             "endo": {"kind": "semidirect", "base": [[2]], "quotient": [[3]]}},
        )
        assert check.verdict == "pass"
        assert check.values["rate"] == pytest.approx(3.0, abs=1e-6)
        assert check.values["integer_gap"] <= 1e-6

    def test_unknown_id(self):
        with pytest.raises(UnknownLawError):
            run_law("thm9.9-nonsense", {})

    def test_counterexample_values(self):
        check = run_law(
            "thm4.4-counterexample",
            {"group": {"kind": "heisenberg", "generators": 3},
             "endo": {"kind": "heisenberg", "lambda": 2, "gamma": 2}},
        )
        assert check.verdict == "pass"
        assert check.values["combined"] == pytest.approx(2.0)
        assert check.values["no_exponent_max"] == pytest.approx(4.0)

    def test_hypothesis_violation_is_inapplicable_not_fail(self):
        # the sublattice is not invariant under the coordinate swap
        check = run_law(
            "thm3.1-finite-index",
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[0, 1], [1, 0]]},
             "subgroup": {"kind": "sublattice", "basis": [[3, 0], [0, 1]]}},
        )
        assert check.verdict == "inapplicable"

    def test_infinite_index_is_inapplicable_for_finite_index_law(self):
        check = run_law(
            "thm3.1-finite-index",
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[2, 0], [0, 2]]},
             "subgroup": {"kind": "sublattice", "basis": [[1], [0]]}},
        )
        assert check.verdict == "inapplicable"

    def test_distorted_semidirect_is_inapplicable_for_block_formula(self):
        check = run_law(
            "thm5.4-semidirect",
            {"group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
                       "action": [[[2, 1], [1, 1]]]},
             "endo": {"kind": "semidirect", "base": [[1, 0], [0, 1]], "quotient": [[1]]}},
        )
        assert check.verdict == "inapplicable"


_Z2 = {"kind": "free_abelian", "rank": 2}
_HEI = {"kind": "heisenberg", "generators": 3}
_Z2_DOUBLE = {"group": _Z2, "endo": {"kind": "matrix", "rows": [[2, 0], [0, 2]]}}
_NON_INVARIANT = {
    "group": _Z2,
    "endo": {"kind": "matrix", "rows": [[0, 1], [1, 0]]},
    "subgroup": {"kind": "sublattice", "basis": [[3, 0], [0, 1]]},
}
_NOT_INVARIANT_REASON = "sublattice generator h2 = (0, 1) maps outside the sublattice"


@pytest.mark.parametrize(
    "law_id, instance, reason, tolerance",
    [
        ("thm2.2.1-fekete",
         {"group": _HEI, "endo": {"kind": "heisenberg", "lambda": 2, "gamma": 2}},
         "needs exact word lengths", 0.0),
        ("thm2.2.2-generator-bound", {"group": _Z2}, "needs a free group", 0.0),
        ("lemma3.2-quotient", _NON_INVARIANT, _NOT_INVARIANT_REASON, 0.05),
        ("thm3.3-extension", _NON_INVARIANT, _NOT_INVARIANT_REASON, 0.05),
        ("lemma4.3-lcs", _Z2_DOUBLE, "needs a Heisenberg endo", 1e-9),
        ("lemma5.1-direct", _Z2_DOUBLE, "needs a product endo", 0.05),
        ("lemma5.2-free", _Z2_DOUBLE, "needs a factor-preserving product endo", 0.05),
        ("thm5.4-semidirect", _Z2_DOUBLE, "needs a semidirect block endo", 0.15),
        ("lemma5.6-polycyclic", _Z2_DOUBLE, "needs a series-preserving block endo", 1e-6),
        ("lemma5.6-polycyclic",
         {"group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
                    "action": [[[0, -1], [1, 0]]]},
          "endo": {"kind": "semidirect", "base": [[2, 0], [0, 2]], "quotient": [[1]]}},
         "catalog covers the cyclic-by-cyclic case", 1e-6),
        ("lemma5.8-distortion", {"group": _Z2}, "needs a semidirect product", 0.05),
    ],
)
def test_inapplicable_branch_reports_reason_and_default_tolerance(
    law_id, instance, reason, tolerance
):
    check = run_law(law_id, instance)
    assert check.verdict == "inapplicable"
    assert check.values == {"reason": reason}
    assert check.tolerance == tolerance


def test_distortion_honours_instance_budget(monkeypatch):
    monkeypatch.setenv("ENDOGROW_BUDGET", "10")
    check = run_law(
        "lemma5.8-distortion",
        {"group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
                   "action": [[[2, 1], [1, 1]]]},
         "options": {"max_m": 10, "radius": 8}},
    )
    # a walk cut by its budget is a resource limit, not a law failure
    assert check.verdict == "inapplicable"
    assert check.values == {
        "reason": "the budget of 10 walk states completed radius 2 of 8"
    }


def test_budget_cut_distortion_census_leaves_verify_passing(monkeypatch, capsys):
    # radius 5 keeps 36 walk states and radius 6 keeps 50
    monkeypatch.setenv("ENDOGROW_BUDGET", "40")
    assert main(["verify", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (check,) = [c for c in report["checks"] if c["id"] == "lemma5.8-distortion"]
    assert check["verdict"] == "inapplicable"
    assert check["values"]["reason"] == (
        "the budget of 40 walk states completed radius 5 of 12"
    )
    assert report["summary"]["fail"] == 0


def test_instance_tolerance_overrides_the_law_default():
    # the quasi-length estimate cannot match the layer formula to 1e-18
    check = run_law(
        "thm4.4-nilpotent",
        {"group": _HEI, "endo": {"kind": "heisenberg", "lambda": 2, "gamma": 2},
         "options": {"tolerance": 1e-18}},
    )
    assert check.tolerance == 1e-18
    assert check.verdict == "fail"


# Section 3 on fixed matrix endos with invariant sublattices; the golden
# catalog holds only random and Heisenberg instances of these laws
_HYPERBOLIC_SCALAR = {
    "group": _Z2,
    "endo": {"kind": "matrix", "rows": [[2, 1], [1, 1]]},
    "subgroup": {"kind": "sublattice", "basis": [[3, 0], [0, 3]]},
}
_BLOCK_TRIANGULAR = {
    "group": {"kind": "free_abelian", "rank": 3},
    "endo": {"kind": "matrix", "rows": [[2, 1, 0], [1, 1, 0], [1, 0, 3]]},
    "subgroup": {"kind": "sublattice", "basis": [[1, 0], [0, 1], [0, 0]]},
}
_GOLDEN = 2.618033988749895  # the spectral radius of [[2, 1], [1, 1]]
# the complement law draws its own instances from the seed, whatever it is given
_COMPLEMENT = {"instances": 20, "worst_equality_gap": 1.3322676295501878e-15}


@pytest.mark.parametrize(
    "law_id, instance, verdict, values",
    [
        ("thm3.1-finite-index", _HYPERBOLIC_SCALAR, "pass",
         {"index": 9, "rate_full": _GOLDEN, "rate_restricted": _GOLDEN}),
        ("lemma3.2-quotient", _HYPERBOLIC_SCALAR, "pass",
         {"rate_full": _GOLDEN, "rate_quotient": 1.0}),
        ("thm3.3-extension", _HYPERBOLIC_SCALAR, "pass",
         {"rate_full": _GOLDEN, "rate_restricted": _GOLDEN, "rate_quotient": 1.0}),
        ("cor3.4-complement", _HYPERBOLIC_SCALAR, "pass", _COMPLEMENT),
        ("thm3.1-finite-index", _BLOCK_TRIANGULAR, "inapplicable",
         {"reason": "subgroup is not finite index"}),
        ("lemma3.2-quotient", _BLOCK_TRIANGULAR, "pass",
         {"rate_full": 3.0, "rate_quotient": 3.0}),
        ("thm3.3-extension", _BLOCK_TRIANGULAR, "pass",
         {"rate_full": 3.0, "rate_restricted": _GOLDEN, "rate_quotient": 3.0}),
        ("cor3.4-complement", _BLOCK_TRIANGULAR, "pass", _COMPLEMENT),
    ],
)
def test_section3_laws_on_fixed_sublattice_instances(law_id, instance, verdict, values):
    check = run_law(law_id, instance)
    assert check.verdict == verdict
    assert check.values == values
    assert list(check.values) == list(values)


@pytest.mark.parametrize(
    "law_id, instance", CATALOG, ids=[f"{i}-{law_id}" for i, (law_id, _) in enumerate(CATALOG)]
)
def test_every_estimated_table_has_the_instances_power_count(law_id, instance, monkeypatch):
    # options.max_m sizes every table a law builds; the generator-bound
    # law's random endos are sized by random_endos.powers
    if law_id == "thm2.2.2-generator-bound":
        expected = instance["random_endos"]["powers"]
    else:
        expected = parse_options(instance.get("options")).max_power
    powers = []
    table = laws.growth_table
    monkeypatch.setattr(
        laws, "growth_table", lambda endo, max_power: powers.append(max_power) or table(endo, max_power)
    )
    run_law(law_id, instance)
    assert set(powers) <= {expected}


def _second_above_first_squared(est):
    """A table whose second entry breaks K_2 <= K_1 ** 2."""
    t = est.table
    return replace(est, table=(t[0], t[0] ** 2 + 1, *t[2:])) if len(t) >= 2 else est


def _roots_above_band(profile):
    """A nondecreasing profile whose 6th and later roots leave the band."""
    v = profile.values
    return replace(profile, values=(*v[:6], *[10**9] * (len(v) - 6)))


def _below_certificates(profile):
    """The zero profile: nondecreasing with no root to check, below every
    lower bound the rate table certifies."""
    return replace(profile, values=(0,) * len(profile.values))


def _catalog_entry(law_id):
    return next(instance for i, instance in CATALOG if i == law_id)


# each doctor breaks only the inequality its values key names
@pytest.mark.parametrize(
    "law_id, target, doctor, broken",
    [
        ("thm2.2.1-fekete", "growth_table", _second_above_first_squared,
         lambda v: v["pair_violations"] > 0 and v["prefix_inf_nonincreasing"]),
        ("thm2.2.2-generator-bound", "growth_table", _second_above_first_squared,
         lambda v: v["violations"] > 0),
        ("lemma5.8-distortion", "distortion_profile", _roots_above_band,
         lambda v: not v["roots_in_band"] and v["profile_nondecreasing"]),
        ("lemma5.8-distortion", "distortion_profile", _below_certificates,
         lambda v: v["roots_in_band"] and v["profile_nondecreasing"]
         and v["lower_bounds_certified"] > 0),
    ],
)
def test_a_broken_inequality_fails_the_law_and_the_suite(
    law_id, target, doctor, broken, monkeypatch, tmp_path
):
    instance = _catalog_entry(law_id)
    assert run_law(law_id, instance).verdict == "pass"
    real = getattr(laws, target)
    monkeypatch.setattr(laws, target, lambda *args: doctor(real(*args)))
    check = run_law(law_id, instance)
    assert check.verdict == "fail"
    assert broken(check.values)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": [{"id": law_id, "instance": instance}]}))
    assert main(["verify", "--suite", str(suite)]) == 1


class TestSuite:
    def test_default_catalog_all_pass_none_inapplicable(self):
        report = run_suite(LawConfig(seed=SEED))
        failed = [c.id for c in report.checks if c.verdict == "fail"]
        inapplicable = [c.id for c in report.checks if c.verdict == "inapplicable"]
        assert failed == []
        assert inapplicable == []
        assert report.all_pass

    def test_every_law_id_appears_in_the_catalog(self):
        ids = {law_id for law_id, _ in default_catalog(SEED)}
        assert ids == set(LAWS)

    def test_empty_catalog_succeeds(self):
        report = run_suite(LawConfig(seed=SEED), catalog=[])
        assert report.all_pass
        assert len(report.checks) == 0

    def test_deterministic_for_fixed_seed(self):
        a = run_suite(LawConfig(seed=SEED))
        b = run_suite(LawConfig(seed=SEED))
        assert a == b

    def test_quasi_route_extension_values(self):
        report = run_suite(LawConfig(seed=SEED))
        heisenberg_checks = [
            c
            for c in report.checks
            if c.id == "thm3.3-extension" and "rate_full_estimate" in c.values
        ]
        assert heisenberg_checks
        check = heisenberg_checks[0]
        assert check.values["rate_restricted"] == pytest.approx(4.0)
        assert check.values["rate_quotient"] == pytest.approx(2.0)
        assert abs(check.values["rate_full_estimate"] - 2.0) <= 0.1

