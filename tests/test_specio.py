"""Instance spec parsing: path-annotated errors and option handling."""

from __future__ import annotations

import math

import pytest

from endogrow import specio
from endogrow.groups import Heisenberg
from endogrow.record import asdict
from endogrow.specio import SpecError


class TestErrors:
    def test_unknown_group_kind_names_the_path(self):
        with pytest.raises(SpecError, match="group.kind"):
            specio.parse_instance({"group": {"kind": "mystery"}})

    def test_nested_factor_path(self):
        with pytest.raises(SpecError, match=r"group.factors\[1\]"):
            specio.parse_instance(
                {"group": {"kind": "direct_product",
                           "factors": [{"kind": "free", "rank": 1},
                                        {"kind": "bogus"}]}}
            )

    def test_products_nested_past_the_recursion_limit(self):
        group = {"kind": "free", "rank": 1}
        for _ in range(5000):
            group = {"kind": "direct_product", "factors": [{"kind": "free", "rank": 1}, group]}
        with pytest.raises(SpecError, match="at instance: nested too deeply"):
            specio.parse_instance({"group": group})

    def test_matrix_cell_path(self):
        with pytest.raises(SpecError, match=r"endo.rows\[0\]\[1\]"):
            specio.parse_instance(
                {"group": {"kind": "free_abelian", "rank": 2},
                 "endo": {"kind": "matrix", "rows": [[1, "x"], [0, 1]]}}
            )

    def test_endo_group_kind_mismatch(self):
        with pytest.raises(SpecError, match="endo"):
            specio.parse_instance(
                {"group": {"kind": "free", "rank": 2},
                 "endo": {"kind": "matrix", "rows": [[1, 0], [0, 1]]}}
            )

    def test_unknown_option_rejected(self):
        with pytest.raises(SpecError, match="options.radius_typo"):
            specio.parse_instance(
                {"group": {"kind": "free_abelian", "rank": 1},
                 "options": {"radius_typo": 3}}
            )

    def test_unreduced_word_image_rejected(self):
        with pytest.raises(SpecError, match="endo"):
            specio.parse_instance(
                {"group": {"kind": "free", "rank": 2},
                 "endo": {"kind": "words", "images": [[1, -1], [2]]}}
            )


class TestOptions:
    def test_length_mode_override_applies_to_group(self):
        # a length mode is set on the group; options hold no second way to set it
        parsed = specio.parse_instance(
            {"group": {"kind": "heisenberg", "generators": 2,
                       "length_mode": {"kind": "bfs", "radius": 5}},
             "options": {"radius": 3}}
        )
        assert isinstance(parsed.group, Heisenberg)
        assert parsed.group.length_mode.kind == "bfs"
        assert parsed.group.length_mode.radius == 5
        with pytest.raises(SpecError, match=r"^at options\.length_mode: unknown option$"):
            specio.parse_instance(
                {"group": {"kind": "heisenberg", "generators": 2},
                 "options": {"length_mode": "bfs", "radius": 5}}
            )

    def test_length_mode_override_rejected_for_products(self):
        # a product measures through its factors' modes; its own is not ignored
        for kind in ("direct_product", "free_product"):
            with pytest.raises(SpecError, match=rf"^at group\.length_mode: {kind} groups take "):
                specio.parse_instance(
                    {"group": {"kind": kind,
                               "factors": [{"kind": "free_abelian", "rank": 1},
                                            {"kind": "free_abelian", "rank": 1}],
                               "length_mode": {"kind": "bfs", "radius": 3}}}
                )

    def test_defaults(self):
        parsed = specio.parse_instance({"group": {"kind": "free_abelian", "rank": 1}})
        assert asdict(parsed.options) == {
            "max_power": 20, "radius": 10, "tolerance": None
        }
        assert parsed.endo is None and parsed.subgroup is None

    @pytest.mark.parametrize("tolerance", ["abc", -1, True, math.nan, math.inf])
    def test_tolerance_must_be_a_non_negative_real(self, tolerance):
        with pytest.raises(SpecError, match="options.tolerance"):
            specio.parse_options({"tolerance": tolerance})
