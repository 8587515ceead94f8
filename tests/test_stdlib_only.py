"""endogrow runs on the standard library alone: the CLI imports and answers
in an interpreter that has no site-packages and ignores PYTHON* variables.
Every CLI call starts a fresh interpreter, so the import stays lean too."""

from __future__ import annotations

import ast
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


LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
import endogrow.cli
print(" ".join(sorted(sys.modules)))
"""


def test_cli_import_loads_no_code_generation_modules():
    """dataclasses, and the inspect, ast and dis it pulls in, cost every CLI
    call tens of milliseconds before any group theory runs."""
    run = subprocess.run(
        [sys.executable, "-S", "-E", "-c", LOADED, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "endogrow.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "endogrow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name
