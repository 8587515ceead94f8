"""endogrow runs on the standard library alone: the CLI imports and answers
in an interpreter that has no site-packages and ignores PYTHON* variables."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SPEC = {
    "group": {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
              "action": [[[2, 1], [1, 1]]]},
}

PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
from endogrow.cli import main
sys.exit(main(["ball", sys.argv[2], "--radius", "3"]))
"""


def test_cli_runs_without_site_packages(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    run = subprocess.run(
        [sys.executable, "-S", "-E", "-c", PROGRAM, str(SRC), str(spec)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout
