"""Declarative JSON instance specs, parsed with path-annotated errors.  The
one reader of spec and suite files (load_json), and the one place spec
values are checked before they reach a constructor."""

from __future__ import annotations

import json
import math

from endogrow.groups import (
    Free,
    FreeAbelian,
    Group,
    Heisenberg,
    LengthMode,
    lower_central_layer,
)
from endogrow.intmat import IntMatrix
from endogrow.products import (
    DirectProduct,
    FreeProduct,
    Semidirect,
    Sublattice,
)
from endogrow.endos import (
    Endomorphism,
    HeisenbergEndo,
    MatrixEndo,
    ProductEndo,
    SemidirectEndo,
    WordEndo,
)
from endogrow.record import record


class SpecError(ValueError):
    """Instance spec did not parse; the message carries the JSON path."""


def _fail(path: str, message: str):
    raise SpecError(f"at {path}: {message}")


def expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def expect_int(value, path: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        _fail(path, f"must be >= {low}")
    return value


def _expect_matrix(value, path: str) -> IntMatrix:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        _fail(path, "expected a matrix as a list of rows")
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            _fail(f"{path}[{i}]", "ragged matrix rows")
        for j, x in enumerate(row):
            expect_int(x, f"{path}[{i}][{j}]")
    return IntMatrix.from_rows(value)


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a constructor's ValueError reported at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _mode_keyword(d: dict, path: str) -> dict:
    """{"length_mode": ...} when the spec gives one; else the class default applies."""
    if "length_mode" not in d:
        return {}
    path = f"{path}.length_mode"
    mode = expect_dict(d["length_mode"], path)
    kind = mode.get("kind")
    if kind not in ("exact", "quasi", "bfs"):
        _fail(f"{path}.kind", f"unknown length mode {kind!r}")
    radius = expect_int(mode.get("radius", 0), f"{path}.radius") if kind == "bfs" else 0
    return {"length_mode": _build(path, LengthMode, kind, radius)}


def parse_group(d, path: str = "group") -> Group:
    d = expect_dict(d, path)
    kind = d.get("kind")
    if kind in ("free_abelian", "free"):
        rank = expect_int(d.get("rank"), f"{path}.rank")
        cls = FreeAbelian if kind == "free_abelian" else Free
        return _build(path, cls, rank, **_mode_keyword(d, path))
    if kind == "heisenberg":
        count = expect_int(d.get("generators", 3), f"{path}.generators")
        return _build(path, Heisenberg, count, **_mode_keyword(d, path))
    if kind in ("direct_product", "free_product"):
        if "length_mode" in d:
            _fail(f"{path}.length_mode", f"{kind} groups take the length modes of their factors")
        factors = d.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            _fail(f"{path}.factors", "expected exactly two factor groups")
        left = parse_group(factors[0], f"{path}.factors[0]")
        right = parse_group(factors[1], f"{path}.factors[1]")
        cls = DirectProduct if kind == "direct_product" else FreeProduct
        return _build(path, cls, left, right)
    if kind == "semidirect":
        base_rank = expect_int(d.get("base_rank"), f"{path}.base_rank")
        quotient_rank = expect_int(d.get("quotient_rank"), f"{path}.quotient_rank")
        action = d.get("action")
        if not isinstance(action, list):
            _fail(f"{path}.action", "expected a list of action matrices")
        matrices = tuple(
            _expect_matrix(a, f"{path}.action[{i}]") for i, a in enumerate(action)
        )
        mode = _mode_keyword(d, path)
        return _build(path, Semidirect, base_rank, quotient_rank, matrices, **mode)
    _fail(f"{path}.kind", f"unknown group kind {kind!r}")


def parse_subgroup(d, group: Group, path: str = "subgroup"):
    d = expect_dict(d, path)
    kind = d.get("kind")
    if kind == "sublattice":
        if not isinstance(group, FreeAbelian):
            _fail(path, "sublattice subgroups need a free abelian ambient group")
        basis = _expect_matrix(d.get("basis"), f"{path}.basis")
        return _build(path, Sublattice, group.rank, basis)
    if kind == "lower_central":
        j = expect_int(d.get("j"), f"{path}.j")
        return _build(path, lower_central_layer, group, j)
    if kind == "base":
        if not isinstance(group, Semidirect):
            _fail(path, "base subgroups only exist for semidirect products")
        return "base"
    _fail(f"{path}.kind", f"unknown subgroup kind {kind!r}")


def parse_endo(d, group: Group, path: str = "endo") -> Endomorphism:
    d = expect_dict(d, path)
    kind = d.get("kind")
    if kind == "matrix":
        if not isinstance(group, FreeAbelian):
            _fail(path, f"matrix endos need a free abelian group, got {group.kind}")
        rows = _expect_matrix(d.get("rows"), f"{path}.rows")
        return _build(path, MatrixEndo, group, rows)
    if kind == "words":
        if not isinstance(group, Free):
            _fail(path, f"word endos need a free group, got {group.kind}")
        images = d.get("images")
        if not isinstance(images, list):
            _fail(f"{path}.images", "expected a list of words")
        words = []
        for i, w in enumerate(images):
            if not isinstance(w, list):
                _fail(f"{path}.images[{i}]", "expected a word as a list of signed letters")
            for j, x in enumerate(w):
                expect_int(x, f"{path}.images[{i}][{j}]")
            words.append(tuple(w))
        return _build(path, WordEndo, group, tuple(words))
    if kind == "heisenberg":
        if not isinstance(group, Heisenberg):
            _fail(path, f"parameter endos need the Heisenberg group, got {group.kind}")
        lam = expect_int(d.get("lambda"), f"{path}.lambda")
        gam = expect_int(d.get("gamma"), f"{path}.gamma")
        return HeisenbergEndo(group, lam, gam)
    if kind == "product":
        if not isinstance(group, (DirectProduct, FreeProduct)):
            _fail(path, f"product endos need a product group, got {group.kind}")
        factors = d.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            _fail(f"{path}.factors", "expected exactly two factor endos")
        left = parse_endo(factors[0], group.left, f"{path}.factors[0]")
        right = parse_endo(factors[1], group.right, f"{path}.factors[1]")
        return _build(path, ProductEndo, group, (left, right))
    if kind == "semidirect":
        if not isinstance(group, Semidirect):
            _fail(path, f"block endos need a semidirect group, got {group.kind}")
        base = _expect_matrix(d.get("base"), f"{path}.base")
        quotient = _expect_matrix(d.get("quotient"), f"{path}.quotient")
        return _build(path, SemidirectEndo, group, base, quotient)
    _fail(f"{path}.kind", f"unknown endo kind {kind!r}")


@record
class Options:
    max_power: int = 20
    radius: int = 10
    tolerance: float | None = None  # overrides a law's default tolerance when set


def parse_options(d, path: str = "options") -> Options:
    if d is None:
        return Options()
    d = expect_dict(d, path)
    known = {"max_m", "radius", "tolerance"}
    for key in d:
        if key not in known:
            _fail(f"{path}.{key}", "unknown option")
    tolerance = d.get("tolerance")
    if tolerance is not None and (
        isinstance(tolerance, bool)
        or not isinstance(tolerance, (int, float))
        or not 0 <= tolerance < math.inf
    ):
        _fail(f"{path}.tolerance", f"expected a non-negative real number, got {tolerance!r}")
    return Options(
        max_power=expect_int(d.get("max_m", 20), f"{path}.max_m", 1),
        radius=expect_int(d.get("radius", 10), f"{path}.radius", 0),
        tolerance=None if tolerance is None else float(tolerance),
    )


@record
class Instance:
    """A parsed spec: a group, optionally an endomorphism and a subgroup,
    plus run options."""

    group: Group
    endo: Endomorphism | None = None
    subgroup: object = None
    options: Options = Options()  # shared: an Options never changes


def parse_instance(d, path: str = "") -> Instance:
    prefix = f"{path}." if path else ""
    d = expect_dict(d, path or "instance")
    if "group" not in d:
        _fail(f"{prefix}group", "missing group")
    try:
        group = parse_group(d["group"], f"{prefix}group")
        options = parse_options(d.get("options"), f"{prefix}options")
        endo = parse_endo(d["endo"], group, f"{prefix}endo") if "endo" in d else None
        sub = parse_subgroup(d["subgroup"], group, f"{prefix}subgroup") if "subgroup" in d else None
    except RecursionError:  # products nested past the interpreter's limit
        _fail(path or "instance", "nested too deeply")
    return Instance(group, endo, sub, options)


def load_json(filename: str, what: str):
    """A JSON file's contents; a file that cannot be read, is not UTF-8 or is
    not valid JSON is a SpecError."""
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"{what} file not found: {filename}")
    except OSError as exc:
        raise SpecError(f"{what} file cannot be read: {filename} ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{filename}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{filename}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    except RecursionError:
        raise SpecError(f"{filename}: nested too deeply")


def load_instance_file(filename: str) -> Instance:
    """Read and parse a JSON instance spec from disk."""
    return parse_instance(load_json(filename, "spec"))
