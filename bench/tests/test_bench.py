"""Self-tests of the benchmark: seeded inputs, the output checks, tracing.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _specs(workload, seed):
    return json.dumps(workloads.generate(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_specs_and_another_seed_different_ones(workload):
    assert _specs(workload, 7) == _specs(workload, 7)
    assert _specs(workload, 7) != _specs(workload, 8)


def _op(workload, op_id, seed=3):
    return next(op for op in workloads.generate(workload, seed) if op["id"] == op_id)


def _run_ops(ops, tmp_path, trace=False):
    runner = run.Runner(copy.deepcopy(ops), tmp_path, time.perf_counter())
    return runner.run_pass(trace)


def _cli_result(payload):
    return {"status": "ok", "exit": 0, "stdout": json.dumps(payload)}


def test_ball_checker_rejects_a_count_off_by_one():
    op = _op("ball", "ball.z3.r30")
    refs = checks.References()
    group, radius = op["check"]["group"], op["check"]["radius"]
    payload = {
        "counts": refs.counts(group, radius),
        "completed_radius": radius,
        "complete": True,
        "queries": {q: checks.query_length(group, json.loads(q)) for q in op["check"]["queries"]},
    }
    assert checks.check(op, _cli_result(payload), refs) == []
    payload["counts"][7] += 1
    assert checks.check(op, _cli_result(payload), refs)


def test_ball_reference_counts_match_known_sizes():
    refs = checks.References()
    assert refs.counts({"kind": "free", "rank": 2}, 10)[-1] == 118_097
    semidirect = _op("ball", "ball.semidirect.r10")["check"]["group"]
    assert refs.counts(semidirect, 10)[-1] == 32_817  # every seed: conjugate actions


def test_growth_checker_rejects_a_truncated_or_altered_table():
    op = _op("direct", "growth.words.F2.0")
    refs = checks.References()
    table = checks.word_table(op["spec"]["endo"]["images"], op["max_m"])
    assert checks.check(op, {"status": "ok", "output": {"table": table}}, refs) == []
    truncated = {"status": "ok", "output": {"table": table[:-1]}}
    assert checks.check(op, truncated, refs)
    altered = {"status": "ok", "output": {"table": table[:-1] + [table[-1] - 1]}}
    assert checks.check(op, altered, refs)


def test_program_outputs_pass_and_corrupted_smith_diagonal_fails(tmp_path):
    ops = [op for op in workloads.generate("spectral", 3) if op["id"] in ("intmat.n4.b3", "intmat.n8.b5")]
    ops.append(_op("direct", "growth.matrix.n3"))
    _, results, _ = _run_ops(ops, tmp_path)
    refs = checks.References()
    by_id = {op["id"]: op for op in ops}
    for result in results:
        assert checks.check(by_id[result["id"]], result, refs) == [], result["id"]
    result = next(r for r in results if r["id"] == "intmat.n8.b5")
    result["output"]["smith"][-1] += 1
    assert checks.check(by_id["intmat.n8.b5"], result, refs)


def test_cli_stdout_is_identical_with_tracing_on_and_off(tmp_path):
    ops = [
        workloads._ball_op("ball.heisenberg.r6", random.Random(1),
                           {"kind": "heisenberg", "generators": 3}, 6),
        _op("ball", "distortion.semidirect.r9"),
    ]
    ops[1]["argv"][ops[1]["argv"].index("9")] = "5"  # keep the test quick
    _, plain, _ = _run_ops(ops, tmp_path / "plain")
    _, traced, traces = _run_ops(ops, tmp_path / "traced", trace=True)
    assert [r["exit"] for r in plain] == [0, 0]
    assert [r["stdout"] for r in plain] == [r["stdout"] for r in traced]
    assert traces and all(t["calls"]["cli.main"] == 1 for t in traces)


def test_verify_checker_wants_every_catalog_entry_to_pass():
    op = workloads.generate("verify", 1)[0]
    summary = {"total": 28, "pass": 28, "fail": 0, "inapplicable": 0}
    assert checks.check(op, _cli_result({"summary": summary}), checks.References()) == []
    summary.update({"pass": 27, "fail": 1})
    bad = {"status": "ok", "exit": 1, "stdout": json.dumps({"summary": summary})}
    assert checks.check(op, bad, checks.References())


def test_verify_suite_is_the_default_catalog_with_a_smaller_distortion_radius(tmp_path):
    op = workloads.generate("verify", 1)[0]
    runner = run.Runner([op], tmp_path, time.perf_counter())
    suite = json.loads(Path(op["argv"][op["argv"].index("--suite") + 1]).read_text())
    assert len(suite["checks"]) == workloads.VERIFY_CATALOG_SIZE
    distortion = [c for c in suite["checks"] if c["id"] == "lemma5.8-distortion"]
    assert [c["instance"]["options"]["radius"] for c in distortion] == [workloads.VERIFY_DISTORTION_RADIUS]
    assert runner.ops == [op]


def test_traced_call_counts_repeat_exactly(tmp_path):
    ops = [_op("direct", "growth.words.F2.0"), _op("spectral", "intmat.n8.b3"), _op("spectral", "rate.quotient")]
    _, _, first = _run_ops(ops, tmp_path / "a", trace=True)
    _, _, second = _run_ops(ops, tmp_path / "b", trace=True)
    assert first[0]["calls"] == second[0]["calls"]
    assert first[0]["counts"] == second[0]["counts"]
