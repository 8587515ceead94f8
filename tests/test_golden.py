"""CLI output is pinned byte for byte.  `endogrow verify`: the default seed
in both formats, and seed 10 (test_exit_codes pins that a failing check
exits 1).
`endogrow estimate`, in both formats, on word endos: two positive ones, which
take the letter-count route, and a cancelling one, which builds its words;
and on a direct product of a positive word endo with a matrix endo."""

from __future__ import annotations

from pathlib import Path

import pytest

from endogrow.cli import main

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
@pytest.mark.parametrize("name", ["fibonacci", "positive_f3", "cancelling", "product"])
def test_estimate_output_matches_golden(capsys, name, fmt, suffix):
    spec = DATA / f"estimate_{name}.spec.json"
    assert main(["estimate", str(spec), "--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"estimate_{name}.{suffix}").read_text(encoding="utf-8")
