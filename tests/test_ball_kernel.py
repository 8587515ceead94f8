"""The BFS steps through each group's unchecked product kernel: its census
must equal a plain BFS over the public, checked `multiply`; the public
operations of every group and endo kind still reject foreign elements; and
the CLI rejects bad radii, budgets and query literals with exit code 2."""

from __future__ import annotations

import json

import pytest

from endogrow.ball import enumerate_ball
from endogrow.cli import main
from endogrow.endos import HeisenbergEndo, MatrixEndo, WordEndo, identity_endo
from endogrow.groups import Free, FreeAbelian, Heisenberg, KindMismatchError
from endogrow.intmat import IntMatrix, mat_mul
from endogrow.products import (
    AbelianQuotient,
    DirectProduct,
    FreeProduct,
    semidirect,
)

HYPERBOLIC = [[2, 1], [1, 1]]
HYPERBOLIC_INVERSE = [[1, -1], [-1, 2]]
ROTATION = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]
HYPERBOLIC_SQUARED = [[5, 3], [3, 2]]
CUBIC_COMPANION = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # x^3 - x - 1


def reference_bfs(group, radius):
    """Frontier-by-frontier BFS over the public multiply: lengths in
    discovery order and cumulative counts."""
    identity = group.identity()
    gens = group.symmetric_generators()
    lengths = {identity: 0}
    counts = [1]
    frontier = [identity]
    for n in range(1, radius + 1):
        next_frontier = []
        for g in frontier:
            for s in gens:
                x = group.multiply(g, s)
                if x not in lengths:
                    lengths[x] = n
                    next_frontier.append(x)
        counts.append(counts[-1] + len(next_frontier))
        frontier = next_frontier
    return lengths, tuple(counts)


GROUPS = {
    "z3": (FreeAbelian(3), 6),
    "free2": (Free(2), 6),
    "free3": (Free(3), 4),
    "heisenberg3": (Heisenberg(3), 6),
    "heisenberg2": (Heisenberg(2), 6),
    "direct_free_z": (DirectProduct(Free(2), FreeAbelian(1)), 5),
    "direct_heisenberg_z": (DirectProduct(Heisenberg(2), FreeAbelian(1)), 4),
    "free_product_z_z": (FreeProduct(FreeAbelian(1), FreeAbelian(1)), 6),
    "free_product_free_z": (FreeProduct(Free(2), FreeAbelian(1)), 5),
    "semidirect_hyperbolic": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC]), 6),
    "semidirect_inverse": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC_INVERSE]), 6),
    "semidirect_rotation": (semidirect(FreeAbelian(2), FreeAbelian(1), [ROTATION]), 6),
    "semidirect_shear": (semidirect(FreeAbelian(2), FreeAbelian(1), [SHEAR]), 6),
    "semidirect_rank2_quotient": (
        semidirect(FreeAbelian(2), FreeAbelian(2), [ROTATION, [[-1, 0], [0, -1]]]),
        5,
    ),
    "semidirect_rank3_hyperbolic": (
        semidirect(FreeAbelian(3), FreeAbelian(1), [CUBIC_COMPANION]),
        5,
    ),
    "semidirect_rank2_quotient_hyperbolic": (
        semidirect(FreeAbelian(2), FreeAbelian(2), [HYPERBOLIC, HYPERBOLIC_SQUARED]),
        5,
    ),
    "quotient_z6_z": (AbelianQuotient(2, IntMatrix.from_rows([[6], [0]])), 6),
    "quotient_z2_z3": (AbelianQuotient(2, IntMatrix.from_rows([[2, 0], [0, 3]])), 6),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_census_equals_reference_bfs(name):
    group, radius = GROUPS[name]
    lengths, counts = reference_bfs(group, radius)
    census = enumerate_ball(group, radius, budget=10**7)
    assert census.complete
    assert census.counts == counts
    assert list(census.lengths.items()) == list(lengths.items())


def test_budget_cut_semidirect_census_is_a_prefix():
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC])
    full = enumerate_ball(group, 8, budget=10**7)
    cut = enumerate_ball(group, 8, budget=full.counts[5] + 10)
    assert not cut.complete
    assert cut.completed_radius == 5
    assert cut.counts == full.counts[:6]
    assert list(cut.lengths.items()) == list(full.lengths.items())[: full.counts[5]]


FOREIGN = {
    "z3": (FreeAbelian(3), (1, 2)),
    "free2": (Free(2), (1, 3)),
    "heisenberg3": (Heisenberg(3), (1, 2)),
    "direct_free_z": (DirectProduct(Free(2), FreeAbelian(1)), ((1, -1), (0,))),
    "free_product_z_z": (FreeProduct(FreeAbelian(1), FreeAbelian(1)), ((0, (1, 1)),)),
    "semidirect": (semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC]), ((1, 0), (0, 0))),
    "quotient": (AbelianQuotient(2, IntMatrix.from_rows([[6], [0]])), (1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_public_operations_reject_foreign_elements(name):
    group, foreign = FOREIGN[name]
    gen = group.generators[0][1]
    with pytest.raises(KindMismatchError):
        group.multiply(gen, foreign)
    with pytest.raises(KindMismatchError):
        group.multiply(foreign, gen)
    with pytest.raises(KindMismatchError):
        group.invert(foreign)
    with pytest.raises(KindMismatchError):
        group.word_length(foreign)


ENDOS = {
    "matrix": lambda: MatrixEndo(FreeAbelian(2), IntMatrix.from_rows([[2, 1], [1, 1]])),
    "words": lambda: WordEndo(Free(2), ((1, 2), (-2, 1))),
    "heisenberg": lambda: HeisenbergEndo(Heisenberg(3), 2, 3),
    "direct_product": lambda: identity_endo(DirectProduct(Free(2), FreeAbelian(1))),
    "free_product": lambda: identity_endo(FreeProduct(FreeAbelian(1), FreeAbelian(1))),
    "semidirect": lambda: identity_endo(semidirect(FreeAbelian(2), FreeAbelian(1), [ROTATION])),
    "quotient": lambda: identity_endo(AbelianQuotient(2, IntMatrix.from_rows([[6], [0]]))),
}
ENDO_FOREIGN = {
    "matrix": (1, 2, 3),
    "words": (1, 3),
    "heisenberg": (1, 2),
    "direct_product": ((1, -1), (0,)),
    "free_product": ((0, (1, 1)),),
    "semidirect": ((1, 0), (0, 0)),
    "quotient": (1, 2, 3),
}


@pytest.mark.parametrize("name", sorted(ENDOS))
def test_endo_public_entries_reject_foreign_elements(name):
    endo, foreign = ENDOS[name](), ENDO_FOREIGN[name]
    with pytest.raises(KindMismatchError):
        endo.apply(foreign)


def test_semidirect_action_moves_column_vectors():
    # (h, q)(h', q') = (h + A(q) h', q + q'); a non-symmetric A tells A from A^T
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [SHEAR])
    assert group.multiply(((0, 0), (1,)), ((0, 1), (0,))) == ((1, 1), (1,))
    assert group.multiply(((0, 0), (-2,)), ((0, 1), (0,))) == ((-2, 1), (-2,))


def test_generator_power_matches_repeated_products():
    group = semidirect(FreeAbelian(2), FreeAbelian(1), [HYPERBOLIC])
    for n in range(-7, 8):
        a = IntMatrix.from_rows(HYPERBOLIC if n >= 0 else HYPERBOLIC_INVERSE)
        expected = IntMatrix.identity(2)
        for _ in range(abs(n)):
            expected = mat_mul(expected, a)
        assert group.generator_power(0, n) == expected


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


SUBLATTICE_SPEC = {
    "group": {"kind": "free_abelian", "rank": 2},
    "subgroup": {"kind": "sublattice", "basis": [[2, 0], [0, 1]]},
}


class TestBudget:
    def test_distortion_honours_spec_budget(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {**SUBLATTICE_SPEC, "options": {"budget": 10}})
        assert main(["distortion", spec, "--radius", "50", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is False
        assert payload["profile"] == [0, 1]

    def test_cli_budget_overrides_spec_budget(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {**SUBLATTICE_SPEC, "options": {"budget": 10}})
        code = main(["ball", spec, "--radius", "5", "--budget", "1000", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True

    @pytest.mark.parametrize("command", ["ball", "distortion"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exits_2(self, tmp_path, capsys, command, budget):
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, spec, "--budget", budget])
        assert exc.value.code == 2

    def test_spec_budget_below_one_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {**SUBLATTICE_SPEC, "options": {"budget": 0}})
        assert main(["ball", spec]) == 2
        assert "options.budget" in capsys.readouterr().err


class TestBoundary:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("ball", "--radius", "-2"),
            ("distortion", "--radius", "-2"),
            ("estimate", "--radius", "-2"),
            ("estimate", "--max-m", "0"),
            ("distortion", "--max-m", "0"),
            ("ball", "--radius", "two"),
        ],
    )
    def test_out_of_range_argument_exits_2(self, tmp_path, capsys, command, flag, value):
        spec = write_spec(tmp_path, SUBLATTICE_SPEC)
        with pytest.raises(SystemExit) as exc:
            main([command, spec, flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "group, query",
        [
            ({"kind": "free_abelian", "rank": 2}, '{"a":1}'),
            ({"kind": "free_abelian", "rank": 2}, "[1.5,0]"),
            ({"kind": "free_abelian", "rank": 2}, "[1,2,3]"),
            ({"kind": "heisenberg"}, "[1,2]"),
            ({"kind": "free", "rank": 2}, "[1,-1]"),
            ({"kind": "semidirect", "base_rank": 2, "quotient_rank": 1,
              "action": [HYPERBOLIC]}, "[[1,0],[0,0]]"),
        ],
    )
    def test_foreign_query_exits_2(self, tmp_path, capsys, group, query):
        spec = write_spec(tmp_path, {"group": group})
        assert main(["ball", spec, "--radius", "2", "--query", query]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error: at query:")
        assert "Traceback" not in err
