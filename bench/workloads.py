"""Seeded inputs for the four workloads.

``generate(workload, seed)`` returns the list of operations one pass runs.
The same seed always gives the same operations.  The program only sees the
generated specs, argv and objects, never the seed.

The seed varies the inputs without changing how much work they take, so
that runs with different seeds measure the same thing:

* ball: the semidirect action is a signed-permutation conjugate of
  [[2,1],[1,1]] or of its inverse, which gives an isomorphic Cayley graph
  (same ball sizes, same work); query elements are seeded random walks.
* direct: word endos relabel the generators of fixed positive word endos
  and shuffle the letters of each image, which keeps every word length;
  matrices are signed-permutation conjugates of fixed random matrices.
* verify: the law catalog that plain ``endogrow verify`` runs (the
  default catalog for the CLI's default seed), with lemma5.8-distortion at
  a smaller radius, its entries in a seeded order, passed to
  ``verify --suite``.  Each entry carries its own seed, so the order
  changes no verdict and no instance.
* spectral: signed-permutation conjugates of fixed random matrices (one
  for each size and entry bound), which keep the characteristic
  polynomial, the Smith form and so the root solver's work.

The fixed matrices are drawn once from their own fixed generator, not
picked by hand.
"""

from __future__ import annotations

import json
import random

import checks

WORKLOADS = ("verify", "ball", "direct", "spectral")

VERIFY_CATALOG_SIZE = 28
# the seed plain `endogrow verify` uses (cli.py's --seed default)
VERIFY_CATALOG_SEED = 20250811
# the default catalog runs lemma5.8-distortion at r=12, ~9 s of a ~9.3 s
# verify; at r=10 a verify takes ~2.5 s, so a run times it several times
VERIFY_DISTORTION_RADIUS = 10

HYPERBOLIC = [[2, 1], [1, 1]]

SPECTRAL_SIZES = (4, 8, 12, 16, 20, 24)
SPECTRAL_BOUNDS = (1, 3, 5)

# Positive word endos as (images, m), m chosen so the longest image at the
# last power holds 0.3-0.4 M letters (the Fibonacci-type path)
WORD_ENDOS = (
    ([[1, 2], [1]], 26),  # Fibonacci, rate 1.618
    ([[1, 1, 2], [1, 2]], 13),  # rate 2.618
    ([[1, 2], [1, 3], [1]], 21),  # tribonacci, rate 1.839
    ([[1, 2, 3], [1, 2], [2, 3]], 15),  # rate 2.247
)
PRODUCT_WORD_ENDO = ([[1, 2, 2], [1]], 18)  # rate 2
MATRIX_SIZES = range(2, 9)
MATRIX_POWERS = 1000
MATRIX_BITS_PER_POWER = 1.5


def generate(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[f"_{workload}"](rng, seed)


# -- verify ---------------------------------------------------------------------


def _verify(rng, seed):
    """The default catalog, with the distortion law at a smaller radius and
    the entries in a seeded order: the runner writes it as a suite file
    (see run.py).  The catalog's own seed stays the CLI's default, because
    ``verify`` gives a false verdict on some seeds (see README.md)."""
    return [
        {
            "id": "verify",
            "mode": "cli",
            "argv": ["verify", "--format", "json", "--suite", "{suite}"],
            "suite": {
                "seed": VERIFY_CATALOG_SEED,
                "options": {"lemma5.8-distortion": {"radius": VERIFY_DISTORTION_RADIUS}},
                "order": rng.sample(range(VERIFY_CATALOG_SIZE), VERIFY_CATALOG_SIZE),
            },
            "check": {"type": "verify", "total": VERIFY_CATALOG_SIZE},
        }
    ]


# -- ball -----------------------------------------------------------------------


def _conjugate(rng, rows):
    """P A P^-1 for a random signed permutation P.  Entry sizes, the
    characteristic polynomial, the Smith form and the row L1 norms of every
    power (up to order) are those of A, so the work is the same."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _random_walk(rng, letters, steps):
    return [rng.choice(letters) for _ in range(steps)]


def _free_element(rng, rank, steps):
    letters = [i for k in range(1, rank + 1) for i in (k, -k)]
    return checks.free_reduce(_random_walk(rng, letters, steps))


def _free_product_element(rng, steps):
    syllables = []
    for x in _free_element(rng, 2, steps):
        factor, exponent = abs(x) - 1, (1 if x > 0 else -1)
        if syllables and syllables[-1][0] == factor:
            syllables[-1][1][0] += exponent
        else:
            syllables.append([factor, [exponent]])
    return syllables  # a reduced word never leaves a zero exponent


def _lattice_element(rng, rank, steps):
    v = [0] * rank
    for _ in range(steps):
        v[rng.randrange(rank)] += rng.choice((1, -1))
    return v


def _walk_element(rng, mul, generators, identity, steps):
    g = identity
    for s in _random_walk(rng, generators, steps):
        g = mul(g, s)
    return g


def _query_literals(rng, group, radius, count=6):
    kind = group["kind"]
    out = []
    for _ in range(count):
        steps = rng.randint(radius // 2, radius)
        if kind == "free_abelian":
            element = _lattice_element(rng, group["rank"], steps)
        elif kind == "free":
            element = _free_element(rng, group["rank"], steps)
        elif kind == "free_product":
            element = _free_product_element(rng, steps)
        elif kind == "direct_product":
            k = rng.randint(0, steps)
            element = [_free_element(rng, 2, steps - k), _lattice_element(rng, 1, k)]
        elif kind == "heisenberg":
            element = list(_walk_element(
                rng, checks.heisenberg_mul, checks.HEISENBERG_GENERATORS, (0, 0, 0), steps))
        else:  # semidirect
            g = checks.SemidirectZ2Z(group["action"][0], steps)
            h1, h2, q = _walk_element(rng, g.mul, g.generators, (0, 0, 0), steps)
            element = [[h1, h2], [q]]
        out.append(json.dumps(element, separators=(",", ":")))
    return out


def _ball_op(op_id, rng, group, radius):
    queries = _query_literals(rng, group, radius)
    argv = ["ball", "{spec}", "--radius", str(radius), "--format", "json"]
    for q in queries:
        argv += ["--query", q]
    return {
        "id": op_id,
        "mode": "cli",
        "spec": {"group": group},
        "argv": argv,
        "check": {"type": "ball", "group": group, "radius": radius, "queries": queries},
    }


def _ball(rng, seed):
    base = HYPERBOLIC if rng.random() < 0.5 else checks.inverse_2x2_unimodular(HYPERBOLIC)
    action = _conjugate(rng, base)
    semidirect = {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1, "action": [action]}
    z1 = {"kind": "free_abelian", "rank": 1}
    ops = [
        _ball_op("ball.semidirect.r10", rng, semidirect, 10),
        _ball_op("ball.free2.r10", rng, {"kind": "free", "rank": 2}, 10),
        _ball_op("ball.free_product.r10", rng, {"kind": "free_product", "factors": [z1, z1]}, 10),
        _ball_op("ball.direct_product.r8", rng, {
            "kind": "direct_product", "factors": [{"kind": "free", "rank": 2}, z1]}, 8),
        _ball_op("ball.z3.r30", rng, {"kind": "free_abelian", "rank": 3}, 30),
        _ball_op("ball.heisenberg.r18", rng, {"kind": "heisenberg", "generators": 3}, 18),
        {
            "id": "distortion.semidirect.r9",
            "mode": "cli",
            "spec": {"group": semidirect, "subgroup": {"kind": "base"}},
            "argv": ["distortion", "{spec}", "--radius", "9", "--max-m", "10", "--format", "json"],
            "check": {"type": "semidirect_distortion", "group": semidirect, "radius": 9, "max_m": 10},
        },
    ]
    a, d = rng.choice([(1, 6), (2, 3), (3, 2), (6, 1)])
    basis = [[a, rng.randrange(-d, d + 1)], [0, d]]
    ops.append({
        "id": "distortion.sublattice.r200",
        "mode": "cli",
        "spec": {
            "group": {"kind": "free_abelian", "rank": 2},
            "subgroup": {"kind": "sublattice", "basis": basis},
        },
        "argv": ["distortion", "{spec}", "--radius", "200", "--format", "json"],
        "check": {"type": "sublattice_distortion", "basis": basis, "radius": 200},
    })
    return ops


# -- direct ---------------------------------------------------------------------


def _word_endo(rng, images):
    """A random relabeling of the generators and random letter orders of a
    positive word endo: every word length, hence the work and memory of its
    growth table, stays that of `images`."""
    rank = len(images)
    labels = rng.sample(range(1, rank + 1), rank)
    out = [None] * rank
    for i, word in enumerate(images):
        relabeled = [labels[x - 1] for x in word]
        rng.shuffle(relabeled)
        out[labels[i] - 1] = relabeled
    return {"kind": "words", "images": out}


def _bits_per_power(rows):
    top = max(abs(x) for r in checks.mat_pow(rows, 256) for x in r)
    return top.bit_length() / 256


def _base_matrix(rng, n):
    """A random matrix whose powers grow by MATRIX_BITS_PER_POWER bits (3%)."""
    density = min(1.0, 3.2 / n)  # keeps the spectral radius near 2**1.5 at every n
    while True:
        rows = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        if abs(_bits_per_power(rows) - MATRIX_BITS_PER_POWER) <= 0.03 * MATRIX_BITS_PER_POWER:
            return rows


def _growth_op(op_id, group, endo, max_m):
    return {
        "id": op_id,
        "mode": "lib",
        "call": "growth_table",
        "spec": {"group": group, "endo": endo},
        "max_m": max_m,
        "check": {"type": "growth", "group": group, "endo": endo, "max_m": max_m},
    }


def _signed_pair(rng):
    """2 and 3 in random order, each with a random sign."""
    lam, gam = rng.sample([2, 3], 2)
    return lam * rng.choice((1, -1)), gam * rng.choice((1, -1))


def _semidirect_case(rng):
    """Z^2 x| Z with a rotation action (finite order) and a block endo that
    commutes with it: base [[a,-b],[b,a]], quotient 5 (1 mod 4)."""
    rotation = rng.choice([[[0, -1], [1, 0]], [[0, 1], [-1, 0]]])
    a, b = rng.choice([(2, 1), (1, 2)])
    a, b = a * rng.choice((1, -1)), b * rng.choice((1, -1))
    group = {"kind": "semidirect", "base_rank": 2, "quotient_rank": 1, "action": [rotation]}
    endo = {"kind": "semidirect", "base": [[a, -b], [b, a]], "quotient": [[5]]}
    return group, endo


def _direct(rng, seed):
    ops = []
    for i, (images, m) in enumerate(WORD_ENDOS):
        rank = len(images)
        ops.append(_growth_op(
            f"growth.words.F{rank}.{i}", {"kind": "free", "rank": rank}, _word_endo(rng, images), m))
    base_rng = random.Random("direct matrices")
    for n in MATRIX_SIZES:
        rows = _conjugate(rng, _base_matrix(base_rng, n))
        ops.append(_growth_op(
            f"growth.matrix.n{n}", {"kind": "free_abelian", "rank": n},
            {"kind": "matrix", "rows": rows}, MATRIX_POWERS))
    lam, gam = _signed_pair(rng)
    ops.append(_growth_op(
        "growth.heisenberg", {"kind": "heisenberg", "generators": 3},
        {"kind": "heisenberg", "lambda": lam, "gamma": gam}, 2000))
    group, endo = _semidirect_case(rng)
    ops.append(_growth_op("growth.semidirect", group, endo, 400))
    images, words_m = PRODUCT_WORD_ENDO
    words = _word_endo(rng, images)
    product = {"kind": "direct_product", "factors": [
        {"kind": "free", "rank": 2}, {"kind": "free_abelian", "rank": 1}]}
    ops.append(_growth_op(
        "growth.product.direct", product,
        {"kind": "product", "factors": [words, {"kind": "matrix", "rows": [[rng.choice((2, -2))]]}]},
        words_m))
    z1 = {"kind": "free_abelian", "rank": 1}
    a, b = _signed_pair(rng)
    ops.append(_growth_op(
        "growth.product.free", {"kind": "free_product", "factors": [z1, z1]},
        {"kind": "product", "factors": [{"kind": "matrix", "rows": [[a]]}, {"kind": "matrix", "rows": [[b]]}]},
        200))
    ops.append({
        "id": "growth.quotient",
        "mode": "lib",
        "call": "growth_table",
        "spec": checks.QUOTIENT_CASE,
        "max_m": checks.QUOTIENT_MAX_M,
        "check": {"type": "growth", "stored": "quotient_table", "max_m": checks.QUOTIENT_MAX_M},
    })
    return ops


# -- spectral -------------------------------------------------------------------


def _spectral(rng, seed):
    ops = []
    base_rng = random.Random("spectral matrices")
    for n in SPECTRAL_SIZES:
        for bound in SPECTRAL_BOUNDS:
            base = [[base_rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            rows = _conjugate(rng, base)
            ops.append({
                "id": f"intmat.n{n}.b{bound}",
                "mode": "lib",
                "call": "matrix_spectral",
                "rows": rows,
                "check": {"type": "matrix_spectral"},
            })
    lam, gam = _signed_pair(rng)
    group, endo = _semidirect_case(rng)
    left = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
    right = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    rate_cases = [
        ("rate.quotient", checks.QUOTIENT_CASE, {"stored": "quotient_rate"}),
        ("rate.heisenberg",
         {"group": {"kind": "heisenberg", "generators": 3},
          "endo": {"kind": "heisenberg", "lambda": lam, "gamma": gam}},
         {"candidates": [abs(lam), abs(gam)]}),
        ("rate.semidirect", {"group": group, "endo": endo},
         {"candidates": [endo["base"], endo["quotient"]]}),
        ("rate.product",
         {"group": {"kind": "direct_product", "factors": [
             {"kind": "free_abelian", "rank": 2}, {"kind": "free_abelian", "rank": 3}]},
          "endo": {"kind": "product", "factors": [
              {"kind": "matrix", "rows": left}, {"kind": "matrix", "rows": right}]}},
         {"candidates": [left, right]}),
    ]
    for op_id, spec, chk in rate_cases:
        ops.append({
            "id": op_id,
            "mode": "lib",
            "call": "exact_growth_rate",
            "spec": spec,
            "check": {"type": "rate", **chk},
        })
    return ops
