"""CLI output is pinned byte for byte.  `endogrow verify`: the default seed
in both formats, and seed 10 (test_exit_codes pins that a failing check
exits 1).
`endogrow estimate`, in both formats, on word endos: two positive ones, which
are measured as their letter matrix's matrix endo, and a cancelling one,
which builds its words;
on a direct product of a positive word endo with a matrix endo;
and on groups whose spec sets the bfs length mode: a matrix endo whose table
is cut where the images leave the radius-6 ball, and a word endo whose first
image already leaves the radius-1 ball (an empty table).
`endogrow spectral`, in both formats, on a 24x24 matrix endo with entries in
[-5, 5], a 3x3 hyperbolic one, a semidirect block endo and a direct product of
matrix endos: the JSON golden pins the full float of each exact rate.
`endogrow ball` and `endogrow distortion`, in both formats, on one small spec
per group kind, with `--query` lengths, a census and a profile cut by
`ENDOGROW_BUDGET`, the base of Z^2 x| Z^2 (a rank-2 quotient, radius from
the spec's options), the base of Z^4 x| Z (8 sign vectors up to -s, the
companion of x^4 - x - 1), and a rank-deficient sublattice (rank 1 in Z^2); the census of an abelian quotient, which no spec builds, through the library."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from endogrow.ball import enumerate_ball
from endogrow.cli import main
from endogrow.intmat import IntMatrix
from endogrow.products import AbelianQuotient

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "seed, fmt, golden, code",
    [
        (20250811, "json", "verify_seed20250811.json", 0),
        (20250811, "text", "verify_seed20250811.txt", 0),
        (10, "json", "verify_seed10.json", 0),
    ],
)
def test_verify_output_matches_golden(capsys, seed, fmt, golden, code):
    assert main(["verify", "--seed", str(seed), "--format", fmt]) == code
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt, suffix", [("tsv", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", [
    "fibonacci", "positive_f3", "cancelling", "product", "bfs_matrix", "bfs_empty", "matrix_signed"])
def test_estimate_output_matches_golden(capsys, name, fmt, suffix):
    spec = DATA / f"estimate_{name}.spec.json"
    assert main(["estimate", str(spec), "--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"estimate_{name}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt, suffix", [("tsv", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", ["matrix24", "hyperbolic", "semidirect", "product"])
def test_spectral_output_matches_golden(capsys, name, fmt, suffix):
    spec = DATA / f"spectral_{name}.spec.json"
    assert main(["spectral", str(spec), "--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"spectral_{name}.{suffix}").read_text(encoding="utf-8")


# golden name -> (subcommand, spec name, arguments)
CENSUS_CASES = {
    "ball_free": ("ball", "ball_free", ["--radius", "5", "--query", "[1,2,-1]", "--query", "[2,2,2,2,1]", "--query", "[]"]),
    "ball_free_product": ("ball", "ball_free_product", [
        "--radius", "5", "--query", "[[0,[1,2]],[1,[3]]]", "--query", "[[1,[-2]],[0,[-1]]]"]),
    "ball_z3": ("ball", "ball_z3", ["--radius", "6", "--query", "[1,-2,0]", "--query", "[0,0,6]"]),
    "ball_heisenberg": ("ball", "ball_heisenberg", ["--radius", "6", "--query", "[1,2,-1]", "--query", "[0,4,0]"]),
    "ball_direct_product": ("ball", "ball_direct_product", [
        "--radius", "5", "--query", "[[1,2],[-1]]", "--query", "[[],[3]]"]),
    "ball_semidirect": ("ball", "ball_semidirect", [
        "--radius", "6", "--query", "[[1,1],[1]]", "--query", "[[8,5],[2]]", "--query", "[[5,3],[0]]"]),
    "ball_budget_cut": ("ball", "ball_free", ["--radius", "6", "--query", "[1,2]"]),
    "distortion_semidirect": ("distortion", "distortion_semidirect", ["--radius", "8", "--max-m", "6"]),
    "distortion_budget_cut": ("distortion", "distortion_semidirect", ["--radius", "8", "--max-m", "6"]),
    "distortion_semidirect_rank2": ("distortion", "distortion_semidirect_rank2", []),
    "distortion_semidirect_rank4": ("distortion", "distortion_semidirect_rank4", ["--radius", "20", "--max-m", "8"]),
    "distortion_sublattice": ("distortion", "distortion_sublattice", ["--radius", "15"]),
    "distortion_sublattice_rank1": ("distortion", "distortion_sublattice_rank1", ["--radius", "15"]),
}
# golden name -> the ENDOGROW_BUDGET that cuts its census, or its base
# profile's walk: radius 4 keeps 26 walk states and radius 5 keeps 36
CENSUS_BUDGETS = {"ball_budget_cut": "200", "distortion_budget_cut": "30"}


@pytest.mark.parametrize("fmt, suffix", [("tsv", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(CENSUS_CASES))
def test_census_output_matches_golden(capsys, monkeypatch, name, fmt, suffix):
    command, spec, args = CENSUS_CASES[name]
    if name in CENSUS_BUDGETS:
        monkeypatch.setenv("ENDOGROW_BUDGET", CENSUS_BUDGETS[name])
    assert main([command, str(DATA / f"{spec}.spec.json"), *args, "--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.{suffix}").read_text(encoding="utf-8")


def quotient_census_json():
    census = enumerate_ball(AbelianQuotient(2, IntMatrix.from_rows([[6, 0], [0, 0]])), 5)
    payload = {"counts": census.counts, "lengths": [[g, n] for g, n in census.lengths.items()]}
    return json.dumps(payload) + "\n"


def test_quotient_census_matches_golden():
    assert quotient_census_json() == (DATA / "ball_quotient.json").read_text(encoding="utf-8")
