"""The exit-code contract under generated input: 0 success, 1 a law failure
(from verify only), 2 an input fault, 3 a computation failure, and never an
exception out of `main`.  Specs are small and radii, powers and law work
fields are bounded, so every example runs in milliseconds."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from endogrow.cli import main
from endogrow.laws import LAWS

small = st.integers(-2, 2)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def mostly(good, bad):
    """good about nine times in ten, else bad: faults stay rare enough that
    most examples get past the spec boundary.  Hypothesis favours small
    draws, so the fault sits at the top of the range."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def square(n):
    """n x n matrices of small entries; a rank outside 0..3 gets 1 x 1."""
    n = n if isinstance(n, int) and 0 <= n <= 3 else 1
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)


def values(good, bad):
    return mostly(st.sampled_from(good), st.sampled_from(bad))


UNIMODULAR = {1: [[[1]], [[-1]]], 2: [[[2, 1], [1, 1]], [[0, -1], [1, 0]], [[1, 1], [0, 1]]]}
FREE_FACTORS = st.sampled_from([{"kind": "free", "rank": 1}, {"kind": "free", "rank": 2},
                                {"kind": "free_abelian", "rank": 1}])
OWN_METRIC = {"free_abelian": "exact", "free": "exact", "heisenberg": "quasi", "semidirect": "quasi"}


def length_modes(kind):
    """The kind's own metric or bfs; the other metric's name, or no metric,
    as a fault."""
    own = OWN_METRIC[kind]
    other = "quasi" if own == "exact" else "exact"
    return st.builds(
        lambda name, radius: {"kind": name, "radius": radius},
        values([own, "bfs"], [other, "fuzzy"]),
        mostly(st.integers(1, 3), st.just(0)),
    )


@st.composite
def groups(draw, depth=1):
    kinds = ["free_abelian", "free", "heisenberg", "semidirect"]
    kind = draw(st.sampled_from(kinds + (["direct_product", "free_product"] if depth else [])))
    if kind == "direct_product":
        return {"kind": kind, "factors": [draw(groups(depth - 1)), draw(groups(depth - 1))]}
    if kind == "free_product":
        factor = mostly(FREE_FACTORS, groups(depth - 1))
        return {"kind": kind, "factors": [draw(factor), draw(factor)]}
    if kind == "semidirect":
        base_rank = draw(st.integers(1, 2))
        # a quotient of rank 0 leaves a semidirect endo no quotient block to write
        quotient_rank = draw(mostly(st.integers(1, 2), st.just(0)))
        # one matrix repeated: the action of an abelian quotient must commute
        action = draw(mostly(st.sampled_from(UNIMODULAR[base_rank]), square(base_rank)))
        count = draw(mostly(st.just(quotient_rank), st.integers(0, 2)))
        group = {"kind": kind, "base_rank": base_rank, "quotient_rank": quotient_rank,
                 "action": [action] * count}
    elif kind == "heisenberg":
        group = {"kind": kind, "generators": draw(values([2, 3], [1, 4]))}
    else:
        group = {"kind": kind, "rank": draw(mostly(st.integers(1, 3), st.integers(-1, 0)))}
    if draw(st.integers(0, 3)) == 3:
        group["length_mode"] = draw(length_modes(kind))
    return group


@st.composite
def endos_for(draw, group):
    kind = group["kind"]
    if kind == "free_abelian":
        return {"kind": "matrix", "rows": draw(square(group["rank"]))}
    if kind == "free":
        rank = max(group["rank"], 1)
        letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
        images = st.lists(st.lists(letters, max_size=3), min_size=rank, max_size=rank)
        return {"kind": "words", "images": draw(images)}
    if kind == "heisenberg":
        return {"kind": "heisenberg", "lambda": draw(small), "gamma": draw(small)}
    if kind == "semidirect":
        n, k = group["base_rank"], group["quotient_rank"]
        # a scalar base block with the identity on the quotient intertwines
        # with any action
        scalar = small.map(lambda c: [[c if i == j else 0 for j in range(n)] for i in range(n)])
        identity = [[int(i == j) for j in range(k)] for i in range(k)]
        blocks = mostly(st.tuples(scalar, st.just(identity)), st.tuples(square(n), square(k)))
        base, quotient = draw(blocks)
        return {"kind": "semidirect", "base": base, "quotient": quotient}
    left, right = group["factors"]
    return {"kind": "product", "factors": [draw(endos_for(left)), draw(endos_for(right))]}


def subgroups_for(group):
    kind = group["kind"]
    if kind == "free_abelian":
        n = group["rank"] if 0 <= group["rank"] <= 3 else 1
        columns = st.integers(0, n)
        good = columns.flatmap(lambda k: st.lists(
            st.lists(small, min_size=k, max_size=k), min_size=n, max_size=n))
        good = good.map(lambda basis: {"kind": "sublattice", "basis": basis})
    elif kind == "heisenberg":
        good = st.builds(lambda j: {"kind": "lower_central", "j": j}, st.integers(1, 3))
    elif kind == "semidirect":
        good = st.just({"kind": "base"})
    else:
        good = st.just({"kind": "base"}) | JUNK
    return mostly(good, JUNK)


# a group's length mode is set on the group (groups() draws it), never in options
OPTION_FAULTS = st.sampled_from([{"tolerance": -1}, {"tolerance": "x"}, {"length_mode": "quasi"},
                                 {"length_mode": "bfs"}, {"budget": 0}, {"seed": 1}, {"max_m": 0}])
options = st.builds(
    lambda base, extra: {**base, **extra},
    st.fixed_dictionaries({"max_m": st.integers(1, 4), "radius": st.integers(1, 3)}),
    mostly(st.sampled_from([{}, {"tolerance": 0.1}, {"tolerance": 1e-9}]), OPTION_FAULTS),
)


@st.composite
def specs(draw):
    """A spec whose endo and subgroup usually fit its group, with a small
    radius and max_m: the CLI's radius default of 10 would take seconds."""
    group = draw(groups())
    spec = {"group": group, "options": draw(options)}
    if draw(st.integers(0, 3)) < 3:
        # an endo for another group is an input fault too
        spec["endo"] = draw(mostly(endos_for(group), groups().flatmap(endos_for)))
    if draw(st.integers(0, 3)) == 3:
        spec["subgroup"] = draw(subgroups_for(group))
    return spec


@st.composite
def suites(draw):
    work = st.fixed_dictionaries(
        {"n": st.integers(0, 2),
         "random_endos": st.fixed_dictionaries(
             {"count": st.integers(0, 2), "max_image_length": st.integers(1, 3),
              "powers": st.integers(1, 3)})},
        optional={"random_instances": st.integers(0, 2)},
    )
    law_ids = values(sorted(LAWS), ["no-such-law"])
    check = st.builds(lambda i, spec, w: {"id": i, "instance": {**spec, **w}}, law_ids, specs(), work)
    # the complement law's default of 20 random instances would cost more than
    # all the other examples together
    check = check.map(lambda c: c if c["id"] != "cor3.4-complement" else
                      {**c, "instance": {"random_instances": 1, **c["instance"]}})
    suite = {"checks": draw(st.lists(check, max_size=2))}
    if draw(st.booleans()):
        suite["seed"] = draw(mostly(st.integers(0, 5), JUNK))
    return suite


def flags(pairs):
    """Zero to three of the given (flag, value strategy) pairs, as argv words."""
    pair = st.sampled_from(pairs).flatmap(lambda fv: st.tuples(st.just(fv[0]), fv[1]))
    return st.lists(pair, max_size=3).map(lambda ps: [w for p in ps for w in p])


def flag(name, good, bad):
    return (name, values(good, bad))


RADIUS = flag("--radius", ["0", "2", "3"], ["-1", "x"])
MAX_M = flag("--max-m", ["1", "4"], ["0", "x"])
FORMAT = flag("--format", ["tsv", "json"], ["xml"])
COMMAND_FLAGS = {
    "estimate": [MAX_M, FORMAT],
    "spectral": [FORMAT],
    "ball": [RADIUS, FORMAT,
             flag("--query", ["[1,0]", "[0,0,1]", "[[1],[2]]", "[1,-1]", "[0]"], ["[true]", "x"])],
    "distortion": [RADIUS, MAX_M, FORMAT],
}


def run(before, content, after):
    """main's exit code and stderr on before + [input file] + after, with
    content in the file; argparse's usage error (exit 2) is the only
    SystemExit allowed."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(content))
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([*before, str(path), *after])
            except SystemExit as exc:
                assert exc.code == 2
                code = 2
    return code, err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(list(COMMAND_FLAGS)).flatmap(
        lambda c: st.tuples(st.just(c), flags(COMMAND_FLAGS[c]))),
    mostly(specs(), JUNK),
)
def test_spec_commands_exit_0_2_or_3(command_flags, spec):
    command, extra = command_flags
    code, err = run([command], spec, extra)
    assert code in (0, 2, 3), err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    flags([flag("--seed", ["1"], ["x"]), flag("--format", ["text", "json"], ["xml"])]),
    mostly(suites(), JUNK),
)
def test_verify_exits_0_1_2_or_3(extra, suite):
    code, err = run(["verify", "--suite"], suite, extra)
    assert code in (0, 1, 2, 3), err
