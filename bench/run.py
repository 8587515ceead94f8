"""The endogrow benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {verify,ball,direct,spectral} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the program under test is the
checkout's own ``src/endogrow``, run in fresh interpreters (see child.py),
one client in a closed loop: each operation starts after the previous one
ends.  A *pass* runs every operation of the workload once; the run makes
``--seconds / PASS_S[workload]`` passes (at least two), which take about
``--seconds`` at the baseline's speed, and checks every output against the
references in checks.py.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` one
untraced and one traced pass and the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
# Seconds one pass takes on the baseline's machine (a typical pass, not the
# fastest).  A run makes a fixed number of passes, --seconds / PASS_S, so
# that every run takes its fastest times over the same number of samples,
# whatever the speed of the machine or of the code under test.
PASS_S = {"verify": 2.7, "ball": 8.0, "direct": 3.4, "spectral": 8.0}
# import samples behind setup_s, spread evenly over the run's passes
SETUP_IMPORTS = 12
RUN_DEADLINE_S = 170

LAW_IDS = (
    "thm2.2.1-fekete", "thm2.2.2-generator-bound", "thm2.2.3-power",
    "thm3.1-finite-index", "lemma3.2-quotient", "thm3.3-extension",
    "cor3.4-complement", "thm4.1-abelian", "lemma4.3-lcs", "thm4.4-nilpotent",
    "thm4.4-counterexample", "lemma5.1-direct", "lemma5.2-free",
    "thm5.4-semidirect", "lemma5.6-polycyclic", "lemma5.8-distortion",
)
GROUP_KINDS = ("semidirect", "free", "free_product", "direct_product", "free_abelian", "heisenberg")
ENDO_KINDS = ("words", "matrix", "heisenberg", "semidirect", "product", "quotient")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, a crashed child)."""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ENDOGROW_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs operations in fresh child interpreters and times them."""

    def __init__(self, ops, work_dir, started):
        self.ops = ops
        self.work = work_dir
        self.started = started
        self.env = child_env()
        self.requests = {}
        self.work.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            if "spec" in op and op["mode"] == "cli":
                path = self.work / f"spec-{i}.json"
                path.write_text(json.dumps(op["spec"]))
                op["argv"] = [str(path) if a == "{spec}" else a for a in op["argv"]]
            if "suite" in op:
                path = self.work / f"suite-{i}.json"
                request = self._request(("suite", i), {"mode": "suite", **op["suite"]})
                _, proc, _ = self._spawn(request, path)
                if proc.returncode != 0:
                    raise BenchError(f"cannot write the law suite: {proc.stderr.decode('utf-8', 'replace')[-2000:]}")
                op["argv"] = [str(path) if a == "{suite}" else a for a in op["argv"]]

    def _timeout(self):
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 1:
            raise BenchError("run deadline reached")
        return left

    def _request(self, key, body):
        path = self.requests.get(key)
        if path is None:
            path = self.work / f"request-{len(self.requests)}.json"
            path.write_text(json.dumps(body))
            self.requests[key] = path
        return path

    def _spawn(self, request_path, report_path=None):
        report_path = report_path or self.work / "report.json"
        report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(request_path), str(report_path)],
            env=self.env, cwd=ROOT, capture_output=True, timeout=self._timeout(),
        )
        wall = time.perf_counter() - start
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return wall, proc, report

    def run_pass(self, trace):
        """One pass over every operation; returns (wall_s, results, traces)."""
        results, traces = [], []
        wall = 0.0
        cli_ops = [op for op in self.ops if op["mode"] == "cli"]
        lib_ops = [op for op in self.ops if op["mode"] == "lib"]
        for op in cli_ops:
            request = self._request(
                (op["id"], trace), {"mode": "cli", "argv": op["argv"], "op": op["id"], "trace": trace})
            op_wall, proc, report = self._spawn(request)
            wall += op_wall
            code = proc.returncode
            result = {
                "id": op["id"], "s": op_wall, "exit": code,
                "stdout": proc.stdout.decode("utf-8", "replace"),
                "status": "ok" if code == 0 and report else "unsolved" if code == 3 else "error",
                "error": None if report else proc.stderr.decode("utf-8", "replace")[-2000:],
                "maxrss_kb": report["maxrss_kb"] if report else 0,
            }
            if op["check"]["type"] == "verify" and code == 1 and report:
                result["status"] = "ok"  # a law failure is an answer; the check rejects it
            results.append(result)
            if report and trace:
                traces.append(report["trace"])
        if lib_ops:
            request = self._request(("lib", trace), {"mode": "lib", "ops": lib_ops, "trace": trace})
            pass_wall, proc, report = self._spawn(request)
            wall += pass_wall
            if report is None:
                raise BenchError(f"library pass crashed: {proc.stderr.decode('utf-8', 'replace')[-2000:]}")
            for r in report["ops"]:
                r["maxrss_kb"] = report["maxrss_kb"]
                results.append(r)
            if trace:
                traces.append(report["trace"])
        return wall, results, traces


def check_program():
    """Fail unless a fresh interpreter imports endogrow from the checkout."""
    probe = subprocess.run(
        [sys.executable, "-c", "import endogrow.cli; print(endogrow.cli.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=60,
    )
    where = probe.stdout.decode().strip()
    if probe.returncode != 0 or not where or Path(where).resolve().parent != (SRC / "endogrow").resolve():
        raise BenchError(f"cannot import endogrow from {SRC}: {probe.stderr.decode()[-500:]}")


def time_imports(count):
    """Wall times of ``count`` fresh interpreters importing endogrow.cli."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import endogrow.cli"], env=child_env(), cwd=ROOT,
                       check=True, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def check_results(ops, results, refs):
    """Attach check errors to each result; returns the number that failed."""
    by_id = {op["id"]: op for op in ops}
    failed = 0
    for r in results:
        r["errors"] = checks.check(by_id[r["id"]], r, refs)
        if r["errors"] or r["status"] == "error":
            failed += 1
    return failed


def end_to_end(passes, setup_samples):
    """The end-to-end metrics of the run's passes.

    wall_s sums each operation's fastest time over the run's passes: on a
    shared machine, contention only ever slows a sample, and the fastest of
    a few samples taken seconds apart repeats far better than their median.
    For a library pass the interpreter start (the pass's wall time minus its
    operations) is one more timed unit.  setup_s is the median of import
    times taken before each pass, so they spread over the run.  peak_rss_mb
    is the median over passes of each pass's largest child, since a maximum
    over all passes would grow with the number of passes.
    """
    results = [r for p in passes for r in p[1]]
    fastest = {}
    for p in passes:
        units = [(r["id"], r["s"]) for r in p[1]]
        if p[1] and "exit" not in p[1][0]:  # library pass
            units.append(("interpreter", p[0] - sum(r["s"] for r in p[1])))
        for unit, seconds in units:
            fastest[unit] = min(seconds, fastest.get(unit, seconds))
    unsolved = sum(1 for r in results if r["status"] == "unsolved")
    metrics = {
        "wall_s": (sum(fastest.values()), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(max(r["maxrss_kb"] for r in p[1]) for p in passes) / 1024, "MB"),
        "answered_ratio": (1 - unsolved / len(results), "ratio"),
    }
    notes = (f"{len(passes)} passes of {len(results) // len(passes)} operations; wall_s from each "
             f"operation's fastest of {len(passes)}; setup_s: median of {len(setup_samples)} imports; "
             f"unsolved: {unsolved} of {len(results)}")
    return metrics, notes


def pass_count(workload, seconds):
    return max(2, round(seconds / PASS_S[workload]))


def merge_traces(traces):
    merged = {"calls": {}, "total": {}, "self": {}, "counts": {}}
    for t in traces:
        for key in merged:
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def per_layer(traces, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass, by name -> (value, unit)."""
    t = merge_traces(traces)
    calls, total, self_time, counts = t["calls"], t["total"], t["self"], t["counts"]
    m = {}
    for kind in GROUP_KINDS:
        m[f"products.multiply.calls.{kind}"] = (calls.get(f"multiply.{kind}", 0), "count")
    m["products.action_of.calls"] = (calls.get("products.action_of", 0), "count")
    m["intmat.mat_mul.calls"] = (calls.get("intmat.mat_mul", 0), "count")
    m["intmat.mat_mul.s"] = (total.get("intmat.mat_mul", 0.0), "s")
    m["groups.check.calls"] = (calls.get("groups.check", 0), "count")
    m["groups.word_length.calls"] = (calls.get("groups.word_length", 0), "count")
    m["groups.word_length.s"] = (total.get("groups.word_length", 0.0), "s")
    m["ball.enumerate.calls"] = (calls.get("ball.enumerate", 0), "count")
    m["ball.enumerate.cache_hits"] = (counts.get("ball.enumerate.cache_hits", 0), "count")
    m["ball.enumerate.s"] = (total.get("ball.enumerate", 0.0), "s")
    m["ball.elements"] = (sum(counts.get(f"ball.elements.{k}", 0) for k in GROUP_KINDS), "count")
    for kind in GROUP_KINDS:
        work = total.get(f"ball.enumerate.work_s.{kind}", 0.0)
        rate = counts.get(f"ball.elements.{kind}", 0) / work if work else 0.0
        m[f"ball.elements_per_s.{kind}"] = (rate, "1/s")
    m["ball.distortion_profile.s"] = (total.get("ball.distortion_profile", 0.0), "s")
    m["ball.exact_length.calls"] = (calls.get("ball.exact_length", 0), "count")
    m["endos.apply.calls"] = (calls.get("endos.apply", 0), "count")
    m["endos.apply.s"] = (total.get("endos.apply", 0.0), "s")
    for kind in ENDO_KINDS:
        m[f"growth.growth_table.s.{kind}"] = (total.get(f"growth.growth_table.{kind}", 0.0), "s")
    letters = counts.get("growth.letters", 0)
    words_s = total.get("growth.growth_table.words", 0.0)
    m["growth.letters"] = (letters, "count")
    m["growth.letters_per_s"] = (letters / words_s if words_s else 0.0, "1/s")
    m["growth.exact_growth_rate.s"] = (total.get("growth.exact_growth_rate", 0.0), "s")
    m["growth.distortion_rate.s"] = (total.get("growth.distortion_rate", 0.0), "s")
    for name in ("char_poly", "smith", "spectral_radius"):
        for n in workloads.SPECTRAL_SIZES:
            m[f"intmat.{name}.s.n{n}"] = (total.get(f"intmat.{name}.n{n}", 0.0), "s")
    m["intmat.spectral_radius.failures"] = (
        counts.get("intmat.spectral_radius.raised.RootConvergenceError", 0), "count")
    for law in LAW_IDS:
        m[f"laws.run_law.ms.{law}"] = (1000 * total.get(f"laws.run_law.{law}", 0.0), "ms")
    m["laws.self.s"] = (self_time.get("laws.run_law", 0.0), "s")
    m["specio.parse.s"] = (total.get("specio.parse", 0.0), "s")
    m["cli.self.s"] = (self_time.get("cli.main", 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (sum(len(tr["spans"]) for tr in traces), "count")
    return m


def commit_id():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_spans(workload, seed, traces):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    body = [{"process": i, "fields": ["name", "start_s", "end_s", "parent", "op"], "spans": t["spans"]}
            for i, t in enumerate(traces)]
    path.write_text(json.dumps(body))
    return path


def run(args):
    if not (SRC / "endogrow" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'endogrow'} is missing")
    started = time.perf_counter()
    ops = workloads.generate(args.workload, args.seed)
    work = WORK_DIR / str(os.getpid())
    try:
        runner = Runner(ops, work, started)
        refs = checks.References()
        if args.trace:
            untraced = runner.run_pass(False)
            traced = runner.run_pass(True)
            passes = [untraced, traced]
        else:
            check_program()
            passes, setup_samples = [], []
            count = pass_count(args.workload, args.seconds)
            for i in range(count):
                setup_samples += time_imports(SETUP_IMPORTS * (i + 1) // count - SETUP_IMPORTS * i // count)
                passes.append(runner.run_pass(False))
        results = [r for p in passes for r in p[1]]
        failed = check_results(ops, results, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics = per_layer(traced[2], traced[0], untraced[0])
        notes = f"one untraced and one traced pass; spans in {write_spans(args.workload, args.seed, traced[2])}"
    else:
        metrics, notes = end_to_end(passes, setup_samples)
    return metrics, notes, results, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)
    # a plain exit on SIGTERM lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, notes, results, failed = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(f"# endogrow benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"platform={platform.platform()} commit={commit_id()}")
    print(f"# {notes}")
    for r in results:
        for error in r["errors"] or ([r["error"]] if r["status"] == "error" else []):
            print(f"# FAILED {r['id']}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
