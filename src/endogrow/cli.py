"""Command-line front end: JSON instance specs in, tables and reports out.

Subcommands: estimate, spectral, ball, distortion, verify.  Exit codes:
0 success, 1 law failure, 2 input/spec error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from endogrow import specio
from endogrow.ball import distortion_profile, enumerate_ball, exact_length
from endogrow.groups import KindMismatchError, OutOfBallError, UnsupportedOperationError
from endogrow.intmat import RootConvergenceError
from endogrow.laws import LawConfig, run_suite
from endogrow.products import Semidirect
from endogrow.record import asdict
from endogrow.growth import distortion_rate, exact_growth_rate, growth_table
from endogrow.specio import SpecError

EXIT_OK = 0
EXIT_LAW_FAILURE = 1
EXIT_SPEC_ERROR = 2
EXIT_COMPUTATION_ERROR = 3


def _fmt(x) -> str:
    """Reals with 9 significant digits; integers exact."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _emit(text: str):
    sys.stdout.write(text)
    sys.stdout.flush()


def _estimate_tsv_lines(est) -> list[str]:
    lines = ["m\tK_m\troot\tinf_bound\tratio_estimate"]
    running_inf = None
    for m, (k, root) in enumerate(zip(est.table, est.roots), start=1):
        running_inf = root if running_inf is None else min(running_inf, root)
        ratio = _fmt(est.table[m - 1] / est.table[m - 2]) if m >= 2 and est.table[m - 2] else "-"
        lines.append(f"{m}\t{k}\t{_fmt(root)}\t{_fmt(running_inf)}\t{ratio}")
    lines.append(
        f"# inf_bound={_fmt(est.inf_bound)}\tratio_estimate={_fmt(est.ratio_estimate)}"
        f"\tstatus={est.status}\tmethod={est.method}\texactness={est.exactness}"
    )
    return lines


def cmd_estimate(args) -> int:
    instance = specio.load_instance_file(args.spec)
    if instance.endo is None:
        raise SpecError("at endo: estimate needs an endomorphism in the spec")
    max_power = args.max_m if args.max_m is not None else instance.options.max_power
    est = growth_table(instance.endo, max_power)
    if args.format == "json":
        _emit(json.dumps(asdict(est), sort_keys=True) + "\n")
        return EXIT_OK
    _emit("\n".join(_estimate_tsv_lines(est)) + "\n")
    return EXIT_OK


def cmd_spectral(args) -> int:
    instance = specio.load_instance_file(args.spec)
    if instance.endo is None:
        raise SpecError("at endo: spectral needs an endomorphism in the spec")
    value = exact_growth_rate(instance.endo)
    if args.format == "json":
        _emit(json.dumps({"growth_rate": value}, sort_keys=True) + "\n")
    else:
        _emit(f"growth_rate\t{_fmt(value)}\n")
    return EXIT_OK


def _parse_query_element(raw: str, group):
    """An element literal: nested JSON lists of integers, checked against
    the group."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError(f"at query: invalid JSON element literal ({exc.msg})")

    def to_element(value):
        if isinstance(value, list):
            return tuple(to_element(v) for v in value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"at query: {raw} holds {value!r}, not nested lists of integers")
        return value

    element = to_element(data)
    try:
        group.check(element)
    except (KindMismatchError, TypeError) as exc:
        raise SpecError(f"at query: {raw} is not a {group.kind} element ({exc})")
    return element


def cmd_ball(args) -> int:
    instance = specio.load_instance_file(args.spec)
    radius = args.radius if args.radius is not None else instance.options.radius
    census = enumerate_ball(instance.group, radius)
    queries = []
    for raw in args.query or []:
        element = _parse_query_element(raw, instance.group)
        queries.append((raw, exact_length(census, element)))
    if args.format == "json":
        payload = {
            "counts": list(census.counts),
            "completed_radius": census.completed_radius,
            "complete": census.complete,
            "queries": {raw: value for raw, value in queries},
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_OK
    lines = ["radius\tcount"]
    for n, count in enumerate(census.counts):
        lines.append(f"{n}\t{count}")
    if not census.complete:
        lines.append(f"# incomplete\tcompleted_radius={census.completed_radius}")
    for raw, value in queries:
        lines.append(f"# length\t{raw}\t{value}")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_distortion(args) -> int:
    instance = specio.load_instance_file(args.spec)
    group = instance.group
    radius = args.radius if args.radius is not None else instance.options.radius
    max_power = args.max_m if args.max_m is not None else instance.options.max_power
    # a semidirect product's subgroup defaults to its base, the one with a rate
    semidirect = isinstance(group, Semidirect)
    if instance.subgroup is None and not semidirect:
        raise SpecError("at subgroup: distortion on this group needs a subgroup spec")
    profile = distortion_profile(group, instance.subgroup, radius)
    rate = distortion_rate(group, max_power) if semidirect else None
    if args.format == "json":
        payload = {"profile": list(profile.values), "complete": profile.complete}
        if rate is not None:
            payload.update(
                table=list(rate.table),
                rate=rate.spectral_value,
                sqrt_rate=rate.sqrt_spectral,
                table_ratio_estimate=rate.estimate.ratio_estimate,
            )
        _emit(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_OK
    lines = ["n\trho\trho_root"]
    for n, value in enumerate(profile.values):
        root = _fmt(value ** (1.0 / n)) if n and value else "-"
        lines.append(f"{n}\t{value}\t{root}")
    if not profile.complete:
        lines.append("# incomplete profile (budget)")
    if rate is not None:
        lines.append("")
        lines.extend(_estimate_tsv_lines(rate.estimate))
        lines.append(
            f"# K={_fmt(rate.spectral_value)}\tK_sqrt={_fmt(rate.sqrt_spectral)}"
        )
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed  # an explicit --seed beats the suite file's seed
    if args.suite == "default":
        catalog = None
    else:
        data = specio.load_json(args.suite, "suite")
        if not isinstance(data, dict) or "checks" not in data:
            raise SpecError("at suite: expected an object with a 'checks' list")
        if "seed" in data:
            file_seed = specio.expect_int(data["seed"], "seed")
            seed = file_seed if seed is None else seed
        if not isinstance(data["checks"], list):
            raise SpecError("at checks: expected a list of checks")
        catalog = []
        for i, entry in enumerate(data["checks"]):
            if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
                raise SpecError(f"at checks[{i}]: expected an object with an 'id'")
            instance = specio.expect_dict(entry.get("instance", {}), f"checks[{i}].instance")
            catalog.append((entry["id"], instance))
    report = run_suite(LawConfig() if seed is None else LawConfig(seed=seed), catalog)
    if args.format == "json":
        payload = {
            "seed": report.seed,
            "checks": [asdict(c) for c in report.checks],
            "summary": {
                "total": len(report.checks),
                "pass": report.passed,
                "fail": report.failed,
                "inapplicable": report.inapplicable,
            },
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = []
        for check in report.checks:
            shown = {k: (_fmt(v) if isinstance(v, float) else v) for k, v in check.values.items()}
            lines.append(
                f"[{check.verdict}] {check.id}  tol={_fmt(check.tolerance)}  {shown}"
            )
        lines.append(
            f"summary: {len(report.checks)} checks, {report.passed} pass, "
            f"{report.failed} fail, {report.inapplicable} inapplicable, seed={report.seed}"
        )
        _emit("\n".join(lines) + "\n")
    return EXIT_OK if report.all_pass else EXIT_LAW_FAILURE


def _int_at_least(low: int):
    """An argparse type: an integer >= low, so a bad value exits 2 at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endogrow",
        description="Growth rates of group endomorphisms: estimates, exact "
        "spectral values, Cayley-ball censuses, distortion profiles, and the "
        "law-check suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="iterated-image growth table and estimate")
    p_est.add_argument("spec", help="instance spec file (JSON)")
    p_est.add_argument("--max-m", type=_int_at_least(1), default=None)
    p_est.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_est.set_defaults(func=cmd_estimate)

    p_spec = sub.add_parser("spectral", help="exact growth rate (spectral route)")
    p_spec.add_argument("spec")
    p_spec.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_spec.set_defaults(func=cmd_spectral)

    p_ball = sub.add_parser("ball", help="BFS ball census (radius, count) table")
    p_ball.add_argument("spec")
    p_ball.add_argument("--radius", type=_int_at_least(0), default=None)
    p_ball.add_argument(
        "--query",
        action="append",
        help="element literal (JSON) whose exact length to report; repeatable",
    )
    p_ball.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_ball.set_defaults(func=cmd_ball)

    p_dist = sub.add_parser("distortion", help="subgroup distortion profile and rate")
    p_dist.add_argument("spec")
    p_dist.add_argument("--radius", type=_int_at_least(0), default=None)
    p_dist.add_argument("--max-m", type=_int_at_least(1), default=None)
    p_dist.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_dist.set_defaults(func=cmd_distortion)

    p_ver = sub.add_parser("verify", help="run the law-check suite")
    p_ver.add_argument("--suite", default="default", help="'default' or a suite JSON file")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # spec entries and table values are exact integers of any size; Pythons
    # before 3.10.7 have no limit on int/str conversion to lift
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_SPEC_ERROR
    except UnsupportedOperationError as exc:
        sys.stderr.write(f"unsupported for this input: {exc}\n")
        return EXIT_SPEC_ERROR
    except (RootConvergenceError, OutOfBallError, OverflowError) as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return EXIT_COMPUTATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
