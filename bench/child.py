"""Runs benchmark operations in a fresh interpreter.

    python3 bench/child.py REQUEST.json REPORT.json

REQUEST is {"mode": "cli", "argv": [...], "op": id, "trace": bool} for one
CLI call, whose stdout is the program's own stdout and whose exit code is
the CLI's; or {"mode": "lib", "ops": [...], "trace": bool} for one pass of
library calls.  The child writes REPORT (op timings, outputs, peak RSS and,
when traced, the trace) and nothing else: stdout stays the program's.

REQUEST {"mode": "suite", "seed": n, "options": {law_id: {...}}, "order":
[...]} instead writes to REPORT the default law catalog for the seed as a
``verify --suite`` file, with each named law's instance options updated and
the entries in the given order.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _run_lib_op(op, modules):
    specio, growth, endos, intmat = modules
    call = op["call"]
    if call == "matrix_spectral":
        a = intmat.IntMatrix.from_rows(op["rows"])
        out = {"char_poly": list(intmat.char_poly(a).coefficients)}
        out["smith"] = list(intmat.smith_normal_form(a).diagonal)
        try:
            out["rho"] = intmat.spectral_radius(a)
        except intmat.RootConvergenceError:
            return "unsolved", out
        return "ok", out
    instance = specio.parse_instance(op["spec"])
    endo = instance.endo
    if instance.subgroup is not None:
        endo = endos.induce_on_quotient(endo, instance.subgroup)
    if call == "growth_table":
        est = growth.growth_table(endo, op["max_m"])
        return "ok", {"table": list(est.table), "status": est.status}
    if call == "exact_growth_rate":
        try:
            return "ok", {"rate": growth.exact_growth_rate(endo)}
        except intmat.RootConvergenceError:
            return "unsolved", {}
    raise ValueError(f"unknown library call {call!r}")


def _write_suite(request, suite_path):
    from endogrow import laws

    entries = []
    for law_id, instance in laws.default_catalog(request["seed"]):
        if law_id in request["options"]:
            instance = {**instance, "options": {**instance.get("options", {}), **request["options"][law_id]}}
        entries.append({"id": law_id, "instance": instance})
    entries = [entries[i] for i in request["order"]]
    with open(suite_path, "w", encoding="utf-8") as fh:
        json.dump({"checks": entries}, fh)
    return 0


def main(request_path, report_path):
    sys.set_int_max_str_digits(0)
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    if request["mode"] == "suite":
        return _write_suite(request, report_path)
    if request["mode"] == "cli":
        import endogrow.cli  # noqa: F401
    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.install()
    report = {}
    if request["mode"] == "cli":
        # looked up at call time, so a traced run calls the wrapper
        if tracer:
            with tracer.op_span(request["op"]):
                code = sys.modules["endogrow.cli"].main(request["argv"])
        else:
            code = sys.modules["endogrow.cli"].main(request["argv"])
        report["exit"] = code
    else:
        from endogrow import endos, growth, intmat, specio

        modules = (specio, growth, endos, intmat)
        results = []
        for op in request["ops"]:
            start = time.perf_counter()
            try:
                if tracer:
                    with tracer.op_span(op["id"]):
                        status, output = _run_lib_op(op, modules)
                else:
                    status, output = _run_lib_op(op, modules)
                error = None
            except Exception as exc:  # the benchmark records it as a failed operation
                status, output, error = "error", {}, f"{type(exc).__name__}: {exc}"
            results.append({
                "id": op["id"],
                "s": time.perf_counter() - start,
                "status": status,
                "output": output,
                "error": error,
            })
        report["ops"] = results
        report["exit"] = 0
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["trace"] = tracer.report()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
