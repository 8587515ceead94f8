"""CLI surface: subcommands, formats, exit codes, and determinism."""

from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import pytest

from endogrow import laws
from endogrow.cli import build_parser, main


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DATA = Path(__file__).parent / "data"

SWAP_SPEC = {
    "group": {"kind": "free_abelian", "rank": 2},
    "endo": {"kind": "matrix", "rows": [[0, 2], [1, 0]]},
    "options": {"max_m": 20},
}


# its growth rate 10^400 has no float
HUGE_RATE_SPEC = {
    "group": {"kind": "free_abelian", "rank": 1},
    "endo": {"kind": "matrix", "rows": [[10**400]]},
}


class TestEstimate:
    def test_root_outside_the_float_range_is_computation_failure(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HUGE_RATE_SPEC)
        assert main(["estimate", spec]) == 3
        assert capsys.readouterr().err.startswith("computation failed:")

    def test_reports_inf_bound_on_final_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SWAP_SPEC)
        assert main(["estimate", spec]) == 0
        final = capsys.readouterr().out.strip().splitlines()[-1]
        assert final.startswith("#")
        assert "inf_bound=1.41421356" in final

    def test_identity_estimate_is_one(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[1, 0], [0, 1]]}},
        )
        assert main(["estimate", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio_estimate"] == pytest.approx(1.0)

    def test_fibonacci_ratio(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free", "rank": 2},
             "endo": {"kind": "words", "images": [[1, 2], [1]]},
             "options": {"max_m": 12}},
        )
        assert main(["estimate", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["ratio_estimate"] - (1 + math.sqrt(5)) / 2) <= 0.02

    def test_tsv_table_shape(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SWAP_SPEC)
        assert main(["estimate", spec, "--max-m", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m\tK_m\troot\tinf_bound\tratio_estimate"
        assert len(lines) == 1 + 4 + 1  # header, rows, summary

    def test_length_mode_override_to_bfs(self, capsys):
        # the spec's group is measured in bfs mode at its own radius, 6
        spec = str(DATA / "estimate_bfs_matrix.spec.json")
        assert main(["estimate", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # truncated where images leave the enumerated ball, lengths still exact
        assert payload["status"] == "truncated"
        assert payload["table"] == [2, 2, 4, 4]

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_first_image_outside_the_bfs_ball_is_truncated(self, capsys, fmt):
        # phi(a) = ab already leaves the radius-1 ball, so no power is recorded
        spec = str(DATA / "estimate_bfs_empty.spec.json")
        assert main(["estimate", spec, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["table"], payload["status"]) == ([], "truncated")
        else:
            assert out == (
                "m\tK_m\troot\tinf_bound\tratio_estimate\n"
                "# inf_bound=0\tratio_estimate=0\tstatus=truncated"
                "\tmethod=lengths:bfs\texactness=exact\n"
            )

    def test_length_mode_bfs_keeps_a_bfs_group_radius(self, tmp_path, capsys):
        tables = []
        for radius in (2, 3):
            spec = write_spec(
                tmp_path,
                {"group": {"kind": "free", "rank": 2, "length_mode": {"kind": "bfs", "radius": radius}},
                 "endo": {"kind": "words", "images": [[1, 2], [1]]},
                 "options": {"radius": 6}},
            )
            assert main(["estimate", spec, "--max-m", "4", "--format", "json"]) == 0
            tables.append(json.loads(capsys.readouterr().out)["table"])
        # phi^2(a) = aba leaves the radius-2 ball and phi^3(a) the radius-3 one;
        # options.radius is not read
        assert tables == [[2], [2, 3]]

    @pytest.mark.parametrize(
        "group, endo",
        [
            ({"kind": "heisenberg", "generators": 3},
             {"kind": "heisenberg", "lambda": 2, "gamma": 2}),
            ({"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
              "action": [[[2, 1], [1, 1]]]},
             {"kind": "semidirect", "base": [[1, 0], [0, 1]], "quotient": [[1]]}),
        ],
        ids=["heisenberg", "semidirect"],
    )
    def test_exact_length_mode_without_a_closed_form_exits_2(self, tmp_path, capsys, group,
                                                             endo):
        # rejected where the spec names it, before any length is measured
        spec = write_spec(tmp_path, {"group": {**group, "length_mode": {"kind": "exact"}},
                                     "endo": endo})
        assert main(["estimate", spec]) == 2
        assert capsys.readouterr().err == (
            f"spec error: at group.length_mode.kind: {group['kind']} groups measure with "
            "'bfs' or their own 'quasi' metric, not 'exact'\n"
        )

    @pytest.mark.parametrize("flag", [["--length-mode", "bfs"], ["--radius", "1"]])
    def test_length_mode_and_radius_flags_are_usage_errors(self, capsys, flag):
        # a group's length mode and bfs radius are set only on the spec's group
        spec = str(DATA / "estimate_fibonacci.spec.json")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", spec, *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_table_value_over_4300_digits(self, tmp_path, capsys, fmt):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free_abelian", "rank": 1},
             "endo": {"kind": "matrix", "rows": [[1000]]}},
        )
        assert main(["estimate", spec, "--max-m", "1500", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            last = json.loads(out)["table"][-1]
            assert last == 10**4500
        else:
            last = out.splitlines()[-2].split("\t")[1]
            assert last == "1" + "0" * 4500


class TestSpectral:
    def test_swap_doubling(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SWAP_SPEC)
        assert main(["spectral", spec, "--format", "json"]) == 0
        value = json.loads(capsys.readouterr().out)["growth_rate"]
        assert value == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_rank_one(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free_abelian", "rank": 1},
             "endo": {"kind": "matrix", "rows": [[3]]}},
        )
        assert main(["spectral", spec, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["growth_rate"] == pytest.approx(3.0)

    def test_coefficient_over_512_bits(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free_abelian", "rank": 2},
             "endo": {"kind": "matrix", "rows": [[0, 2**520], [1, 0]]}},
        )
        assert main(["spectral", spec, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["growth_rate"] == 2.0**260

    def test_root_outside_the_float_range_is_computation_failure(self, tmp_path, capsys):
        for rank, rows in ((2, [[0, 2**1100], [1, 0]]), (1, [[10**400]])):
            spec = write_spec(
                tmp_path,
                {"group": {"kind": "free_abelian", "rank": rank},
                 "endo": {"kind": "matrix", "rows": rows}},
            )
            for fmt in ("tsv", "json"):
                assert main(["spectral", spec, "--format", fmt]) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("computation failed:")

    @pytest.mark.parametrize(
        "fmt, expected",
        [("tsv", "growth_rate\t3\n"), ("json", '{"growth_rate": 3.0}\n')],
        ids=["tsv", "json"],
    )
    def test_spec_entry_over_4300_digits(self, tmp_path, capsys, fmt, expected):
        # written as text: the test process may still have the default
        # limit on integer string conversion
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"group": {"kind": "free_abelian", "rank": 2}, "endo": {"kind": "matrix", '
            '"rows": [[2, 1' + "0" * 5000 + '], [0, 3]]}}'
        )
        assert main(["spectral", str(spec), "--format", fmt]) == 0
        assert capsys.readouterr().out == expected

    def test_word_endo_has_no_spectral_route(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free", "rank": 2},
             "endo": {"kind": "words", "images": [[1, 2], [1]]}},
        )
        assert main(["spectral", spec]) == 2


Z0_SPEC = {"group": {"kind": "free_abelian", "rank": 0},
           "endo": {"kind": "matrix", "rows": []}}
Z0_BASE_SPEC = {"group": {"kind": "semidirect", "base_rank": 0, "quotient_rank": 1,
                          "action": [[]]},
                "endo": {"kind": "semidirect", "base": [], "quotient": [[2]]},
                "options": {"max_m": 3, "radius": 4}}


@pytest.mark.parametrize(
    "spec, command, expected",
    [
        (Z0_SPEC, "estimate", {"table": [0], "status": "trivial", "exactness": "exact"}),
        (Z0_SPEC, "spectral", {"growth_rate": 0.0}),
        (Z0_BASE_SPEC, "spectral", {"growth_rate": 2.0}),
        (Z0_BASE_SPEC, "distortion", {"profile": [0, 0, 0, 0, 0], "complete": True}),
    ],
    ids=["z0-estimate", "z0-spectral", "z0-base-spectral", "z0-base-distortion"],
)
def test_an_empty_list_is_the_0x0_matrix(tmp_path, capsys, spec, command, expected):
    # [] was "expected a matrix as a list of rows", and [[]] is 1 x 0, so no
    # spec could write a rank-0 endo or action the library builds
    assert main([command, write_spec(tmp_path, spec), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload[key] for key in expected} == expected


class TestBall:
    def test_counts_and_queries(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"group": {"kind": "free_abelian", "rank": 2}})
        code = main(["ball", spec, "--radius", "4", "--query", "[1,1]", "--query", "[3,-1]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0\t1" in out and "4\t41" in out
        assert "# length\t[1,1]\t2" in out
        assert "# length\t[3,-1]\t4" in out

    def test_out_of_range_query_is_computation_failure(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"group": {"kind": "free_abelian", "rank": 2}})
        assert main(["ball", spec, "--radius", "2", "--query", "[3,-2]"]) == 3

    def test_json_format(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"group": {"kind": "free", "rank": 2}})
        assert main(["ball", spec, "--radius", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [1, 5, 17, 53]
        assert payload["complete"] is True


class TestDistortion:
    def test_semidirect_profile_and_rate(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
                       "action": [[[2, 1], [1, 1]]]},
             "options": {"max_m": 8, "radius": 7}},
        )
        assert main(["distortion", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-9)
        assert payload["sqrt_rate"] == pytest.approx(math.sqrt((3 + math.sqrt(5)) / 2), abs=1e-9)
        assert payload["profile"][3] >= 3

    def test_semidirect_tsv_carries_both_tables(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
                       "action": [[[2, 1], [1, 1]]]},
             "options": {"max_m": 6, "radius": 5}},
        )
        assert main(["distortion", spec]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n\trho\trho_root")
        assert "m\tK_m\troot\tinf_bound\tratio_estimate" in out
        assert "# K=2.61803399\tK_sqrt=1.61803399" in out

    def test_tsv_root_of_a_profile_past_the_float_range(self, capsys):
        # rho(1500) has 314 digits; its root is taken through logs, as
        # growth._root takes a table's, not as a float power of the int
        spec = DATA / "distortion_semidirect.spec.json"
        assert main(["distortion", str(spec), "--radius", "1500"]) == 0
        n, rho, root = capsys.readouterr().out.splitlines()[1501].split("\t")
        assert (n, float(root)) == ("1500", pytest.approx(1.618, abs=1e-3))
        assert int(rho) > 2**1024

    def test_lattice_profile_needs_subgroup(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"group": {"kind": "free_abelian", "rank": 2}})
        assert main(["distortion", spec]) == 2

    def test_lattice_profile_with_subgroup(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "free_abelian", "rank": 2},
             "subgroup": {"kind": "sublattice", "basis": [[1], [0]]},
             "options": {"radius": 5}},
        )
        assert main(["distortion", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == [0, 1, 2, 3, 4, 5]

    def test_unsupported_subgroup_exits_2(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "heisenberg", "generators": 2},
             "subgroup": {"kind": "lower_central", "j": 2}, "options": {"radius": 1}},
        )
        assert main(["distortion", spec]) == 2
        assert capsys.readouterr().err == (
            "unsupported for this input: unsupported group/subgroup pair for distortion\n"
        )

    def test_no_action_generators_gives_a_trivial_table(self, tmp_path, capsys):
        # no word of positive length exists in zero generators
        spec = write_spec(
            tmp_path,
            {"group": {"kind": "semidirect", "base_rank": 1, "quotient_rank": 0, "action": []},
             "options": {"max_m": 4, "radius": 1}},
        )
        assert main(["distortion", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["table"], payload["rate"]) == ([0, 0, 0, 0], 1.0)


class TestVerify:
    def test_check_outside_the_float_range_is_computation_failure(self, tmp_path, capsys):
        suite = {"checks": [{"id": "thm2.2.1-fekete", "instance": HUGE_RATE_SPEC}]}
        path = write_spec(tmp_path, suite, "suite.json")
        assert main(["verify", "--suite", path]) == 3
        assert capsys.readouterr().err.startswith("computation failed:")

    def test_custom_suite_passes(self, tmp_path, capsys):
        suite = {
            "seed": 20250811,
            "checks": [
                {"id": "thm4.1-abelian",
                 "instance": {"group": {"kind": "free_abelian", "rank": 2},
                              "endo": {"kind": "matrix", "rows": [[0, 2], [1, 0]]},
                              "options": {"max_m": 20}}},
                {"id": "lemma4.3-lcs",
                 "instance": {"group": {"kind": "heisenberg", "generators": 3},
                              "endo": {"kind": "heisenberg", "lambda": 2, "gamma": 2}}},
            ],
        }
        path = write_spec(tmp_path, suite, "suite.json")
        assert main(["verify", "--suite", path]) == 0
        out = capsys.readouterr().out
        assert "2 checks, 2 pass" in out

    @pytest.mark.parametrize("seed", [20250811, 10])
    def test_default_catalog_round_trips_through_a_suite_file(self, tmp_path, capsys, seed):
        # the benchmark's verify workload runs the catalog from a suite file
        checks = [{"id": law_id, "instance": instance} for law_id, instance in laws.default_catalog(seed)]
        path = write_spec(tmp_path, {"seed": seed, "checks": checks}, "suite.json")
        code = main(["verify", "--suite", path, "--format", "json"])
        out = capsys.readouterr().out
        assert main(["verify", "--seed", str(seed), "--format", "json"]) == code == 0
        assert capsys.readouterr().out == out

    def test_seed_flag_beats_the_suite_file_seed(self, tmp_path, capsys):
        # --seed, then the suite file's seed, then LawConfig's default
        seeds = []
        for suite, extra in [({"seed": 7}, ["--seed", "10"]), ({"seed": 7}, []), ({}, [])]:
            path = write_spec(tmp_path, {**suite, "checks": []}, "suite.json")
            assert main(["verify", "--suite", path, *extra, "--format", "json"]) == 0
            seeds.append(json.loads(capsys.readouterr().out)["seed"])
        assert seeds == [10, 7, 20250811]
        # the file's seed is checked under --seed too
        path = write_spec(tmp_path, {"seed": "abc", "checks": []}, "suite.json")
        assert main(["verify", "--suite", path, "--seed", "10"]) == 2
        assert "at seed:" in capsys.readouterr().err

    def test_empty_suite_succeeds(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"checks": []}, "suite.json")
        assert main(["verify", "--suite", path]) == 0

    def test_unknown_law_id_is_spec_error(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, {"checks": [{"id": "thm0.0-none", "instance": {}}]}, "suite.json"
        )
        assert main(["verify", "--suite", path]) == 2

    def test_unknown_law_id_fails_before_any_check_runs(self, tmp_path, capsys, monkeypatch):
        distortion = dict(laws.default_catalog(20250811))["lemma5.8-distortion"]
        calls = []
        real = laws.run_law

        def spy(law_id, *args):
            calls.append(law_id)
            return real(law_id, *args)

        monkeypatch.setattr(laws, "run_law", spy)
        suite = {"checks": [{"id": "lemma5.8-distortion", "instance": distortion},
                            {"id": "thm9.9-typo", "instance": {}}]}
        path = write_spec(tmp_path, suite, "suite.json")
        assert main(["verify", "--suite", path]) == 2
        assert calls == []
        assert "unknown law id 'thm9.9-typo'" in capsys.readouterr().err

    def test_unattainable_tolerance_fails_with_exit_one(self, tmp_path, capsys):
        # quasi-length estimate cannot match the layer formula to 1e-18
        suite = {
            "checks": [
                {"id": "thm4.4-nilpotent",
                 "instance": {"group": {"kind": "heisenberg", "generators": 3},
                              "endo": {"kind": "heisenberg", "lambda": 2, "gamma": 2},
                              "options": {"tolerance": 1e-18}}},
            ]
        }
        path = write_spec(tmp_path, suite, "suite.json")
        assert main(["verify", "--suite", path]) == 1
        assert "1 fail" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "suite, path",
        [
            ({"seed": "abc", "checks": []}, "at seed:"),
            ({"checks": 5}, "at checks:"),
            ({"checks": [{"id": "lemma4.3-lcs", "instance": 5}]}, "at checks[0].instance:"),
            ({"checks": [{"id": "lemma3.2-quotient", "instance": {"random_instances": "x"}}]},
             "at instance.random_instances:"),
            ({"checks": [{"id": "cor3.4-complement", "instance": {"seed": "x"}}]},
             "at instance.seed:"),
            ({"checks": [{"id": "thm2.2.2-generator-bound",
                          "instance": {"group": {"kind": "free", "rank": 2},
                                       "random_endos": {"count": "x"}}}]},
             "at instance.random_endos.count:"),
            ({"checks": [{"id": "thm2.2.3-power", "instance": {**SWAP_SPEC, "n": "x"}}]},
             "at instance.n:"),
            ({"checks": [{"id": "thm2.2.1-fekete", "instance": {"group": SWAP_SPEC["group"]}}]},
             "at instance.endo:"),
        ],
    )
    def test_malformed_suite_exits_2_naming_the_path(self, tmp_path, capsys, suite, path):
        suite_path = write_spec(tmp_path, suite, "suite.json")
        assert main(["verify", "--suite", suite_path]) == 2
        assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, argv, budget_env",
    [
        ({}, ["spectral", "--tol", "1e-9"], None),  # the root tolerance is fixed, no flag
        ({"length_mode": "bfs"}, ["estimate"], None),  # not an option: set on the group
        ({"tolerance": "abc"}, ["estimate"], None),
        ({"seed": 20250811}, ["estimate"], None),  # not an option: laws read instance["seed"]
        ({}, ["ball", "--radius", "2"], "abc"),
    ],
)
def test_input_fault_exits_2(tmp_path, capsys, monkeypatch, options, argv, budget_env):
    spec = write_spec(tmp_path, {**SWAP_SPEC, "options": {**SWAP_SPEC["options"], **options}})
    if budget_env is not None:
        monkeypatch.setenv("ENDOGROW_BUDGET", budget_env)
    try:
        code = main([argv[0], spec, *argv[1:]])
    except SystemExit as exc:  # argparse rejects the argument
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


Z1 = {"kind": "free_abelian", "rank": 1}
Z2 = {"kind": "free_abelian", "rank": 2}
F2 = {"kind": "free", "rank": 2}
HEIS = {"kind": "heisenberg", "generators": 3}
HYPERBOLIC = {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
              "action": [[[2, 1], [1, 1]]]}
ESTIMATE = ["estimate"]
BALL = ["ball"]
SUITE = ["verify", "--suite"]
DIRECTORY = object()  # the input path is a directory


@pytest.mark.parametrize(
    "group, query",
    [(Z2, "[[1],[2]]"), (HEIS, "[[1],0,0]"), (HYPERBOLIC, "[[[1],0],[0]]")],
    ids=["free_abelian", "heisenberg", "semidirect-base"],
)
def test_query_with_a_non_integer_component_exits_2(tmp_path, capsys, group, query):
    spec = write_spec(tmp_path, {"group": group})
    assert main(["ball", spec, "--radius", "2", "--query", query]) == 2
    assert "is not a" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content, message",
    [
        pytest.param(ESTIMATE, {"group": {**Z1, "rank": -1}},
                     "at group: rank must be nonnegative", id="free_abelian-rank"),
        pytest.param(ESTIMATE, {"group": {**F2, "rank": 0}},
                     "at group: free groups here have rank >= 1", id="free-rank"),
        pytest.param(ESTIMATE, {"group": {**HEIS, "generators": 5}},
                     "at group: generator_count must be 2 or 3", id="heisenberg-generators"),
        pytest.param(ESTIMATE, {"group": {"kind": "free_product", "factors": [F2, HEIS]}},
                     "at group: free product factors must be free or Z, got 'heisenberg'",
                     id="free_product-heisenberg"),
        pytest.param(ESTIMATE, {"group": {"kind": "free_product", "factors": [Z2, F2]}},
                     "at group: abelian free-product factors must have rank 1",
                     id="free_product-z2"),
        pytest.param(ESTIMATE, {"group": {**HYPERBOLIC, "action": [[[2, 0], [0, 1]]]}},
                     "at group: action matrix is not unimodular", id="semidirect-unimodular"),
        pytest.param(ESTIMATE, {"group": {**HYPERBOLIC, "action": []}},
                     "at group: need one action matrix per quotient generator",
                     id="semidirect-action-count"),
        pytest.param(ESTIMATE, {"group": Z2, "subgroup": {"kind": "sublattice",
                                                          "basis": [[1, 2], [2, 4]]}},
                     "at subgroup: basis columns are dependent", id="sublattice-dependent"),
        pytest.param(ESTIMATE, {"group": HEIS, "subgroup": {"kind": "lower_central", "j": 4}},
                     "at subgroup: Heisenberg layers stop at 3, got 4", id="lower_central-j"),
        pytest.param(ESTIMATE, {"group": Z2, "endo": {"kind": "matrix",
                                                      "rows": [[1, 0, 0], [0, 1, 0]]}},
                     "at endo: matrix shape does not match the group rank", id="matrix-shape"),
        pytest.param(ESTIMATE, {"group": F2, "endo": {"kind": "words", "images": [[1, 2]]}},
                     "at endo: need one image per generator", id="words-count"),
        pytest.param(ESTIMATE, {"group": F2, "endo": {"kind": "words",
                                                      "images": [[1, -1, 2], [1]]}},
                     "at endo: word is not freely reduced", id="words-unreduced"),
        # the factor's own message, not prefixed a second time by the product
        pytest.param(ESTIMATE, {"group": {"kind": "direct_product", "factors": [Z2, Z1]},
                                "endo": {"kind": "product",
                                         "factors": [{"kind": "matrix", "rows": [[2]]},
                                                     {"kind": "matrix", "rows": [[2]]}]}},
                     "at endo.factors[0]: matrix shape does not match the group rank",
                     id="product-factor-rank"),
        pytest.param(ESTIMATE, {"group": HYPERBOLIC, "endo": {"kind": "semidirect",
                                                              "base": [[1, 1], [0, 1]],
                                                              "quotient": [[1]]}},
                     "at endo: base/quotient blocks do not intertwine with the action "
                     "at quotient generator 1", id="semidirect-intertwining"),
        pytest.param(ESTIMATE, {"group": {**Z2, "length_mode": {"kind": "bfs", "radius": 0}}},
                     "at group.length_mode: bfs length mode needs a positive radius",
                     id="length_mode-radius"),
        pytest.param(ESTIMATE, {"group": {**Z2, "length_mode": {"kind": "fuzzy"}}},
                     "at group.length_mode.kind: unknown length mode 'fuzzy'",
                     id="length_mode-kind"),
        # a quasi mode on a free kind was accepted and changed nothing
        pytest.param(ESTIMATE, {"group": {**Z2, "length_mode": {"kind": "quasi"}}},
                     "at group.length_mode.kind: free_abelian groups measure with 'bfs' or "
                     "their own 'exact' metric, not 'quasi'", id="length_mode-quasi-free_abelian"),
        pytest.param(ESTIMATE, {"group": {**F2, "length_mode": {"kind": "quasi"}}},
                     "at group.length_mode.kind: free groups measure with 'bfs' or "
                     "their own 'exact' metric, not 'quasi'", id="length_mode-quasi-free"),
        pytest.param(ESTIMATE, {"group": {"kind": "direct_product", "factors": [Z1, Z1],
                                          "length_mode": {"kind": "bfs", "radius": 3}}},
                     "at group.length_mode: direct_product groups take the length modes of "
                     "their factors", id="length_mode-product"),
        pytest.param(ESTIMATE, {"group": Z2, "options": {"length_mode": "bfs"}},
                     "at options.length_mode: unknown option", id="options-length_mode"),
        pytest.param(ESTIMATE, None, "spec file not found: {file}", id="spec-missing"),
        pytest.param(ESTIMATE, '{"group": ', "{file}:1:11: invalid JSON (Expecting value)",
                     id="spec-invalid-json"),
        pytest.param(SUITE, None, "suite file not found: {file}", id="suite-missing"),
        pytest.param(SUITE, '{"checks": [', "{file}:1:13: invalid JSON (Expecting value)",
                     id="suite-invalid-json"),
        pytest.param(ESTIMATE, DIRECTORY, "spec file cannot be read: {file} (Is a directory)",
                     id="spec-directory"),
        pytest.param(SUITE, b"\xff\xfe{}", "{file}: not UTF-8 text (byte 0: invalid start byte)",
                     id="suite-not-utf8"),
    ],
)
def test_boundary_fault_message(tmp_path, capsys, command, content, message):
    """Each fault at the input boundary exits 2 with one exact stderr line."""
    path = tmp_path / "input.json"
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err == f"spec error: {message.format(file=path)}\n"


# Built as strings: json.dumps itself stops at the recursion limit.
NESTED_PRODUCTS = (
    '{"group": ' + '{"kind": "direct_product", "factors": [{"kind": "free", "rank": 1}, ' * 5000
    + '{"kind": "free", "rank": 1}' + "]}" * 5000 + "}"
)
NESTED_CHECKS = '{"checks": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize(
    "command, content",
    [(BALL, NESTED_PRODUCTS), (SUITE, NESTED_CHECKS)],
    ids=["spec-products", "suite-lists"],
)
def test_nesting_too_deep_exits_2(tmp_path, capsys, command, content):
    """Whether the JSON reader or the spec parser hits the recursion limit
    first depends on the Python version; either way the input is at fault."""
    path = tmp_path / "input.json"
    path.write_text(content)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and err.endswith(": nested too deeply\n")


class TestErrorsAndDeterminism:
    def test_bad_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"group": {"kind": "nope"}}')
        assert main(["spectral", str(path)]) == 2
        assert "group.kind" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"group": ')
        assert main(["spectral", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":1:" in err  # line:column annotation

    def test_missing_file_exits_two(self, capsys):
        assert main(["estimate", "/nonexistent/spec.json"]) == 2

    def test_byte_identical_output_for_same_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SWAP_SPEC)
        assert main(["estimate", spec]) == 0
        first = capsys.readouterr().out
        assert main(["estimate", spec]) == 0
        second = capsys.readouterr().out
        assert first == second


def test_readme_synopsis_lists_each_subcommands_flags():
    # README's CLI block, one line per subcommand, against the parser itself
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                  for line in block.splitlines()}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
              for name, p in sub.choices.items()}
    assert documented == parsed
