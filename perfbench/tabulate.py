"""tabulate: read-heavy use of blendstrings built during set-up.

Why: this is where array-native evaluation and point dispatch (ROADMAP
item 4) show.  The strings have grades 5-30 and 20-100 segments over real
and complex polygonal paths, of exp, sin, reciprocal gamma and
polynomials.  Ops are ``deval`` at nder 0-3, batches of scalar ``eval`` at
points spread over all segments, and ``definite_integral``.  No solver and
no oracle run in the timed region.
"""

from __future__ import annotations

import numpy as np

import refs as R
from common import CHECK_BOUND, CheckFailed, Op, knots_along, polygon, relerr, strata

# (function, grade, segments, path): fixed so every seed builds strings of
# the same sizes; the seed moves paths, knots and polynomial coefficients
PLAN = (
    ("exp", 5, 100, "real"),
    ("sin", 10, 60, "complex"),
    ("rgamma", 15, 40, "real"),
    ("poly", 20, 30, "complex"),
    ("exp", 30, 20, "complex"),
    ("sin", 25, 50, "real"),
    ("rgamma", 8, 80, "complex"),
    ("poly", 12, 100, "real"),
)
# table rows per deval op and points per eval batch: fixed geometric grids,
# so every seed times the same spread of op sizes
DEVAL_ROWS = (200, 1000)
EVAL_POINTS = (120, 600)
BASELINE_EVAL = (0, 1000)  # ROADMAP baseline: 1000 scalar evals at grade 5
BASELINE_DEVAL = (4, 2)  # ROADMAP baseline: deval at grade 30, nder=2


def _string_inputs(rng, fn, segments, path):
    if path == "real":
        x0 = rng.uniform(-1.0, 0.5) if fn == "rgamma" else rng.uniform(-3.0, -1.0)
        way = [complex(x0), complex(x0 + rng.uniform(3.0, 4.0))]
    else:
        start = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        way = polygon(rng, start, 3, 1.0, 2.0, ((-3.0, 3.0), (-2.0, 2.0)))
    knots = knots_along(rng, way, segments)
    coeffs = None
    if fn == "poly":
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) / (k + 1) for k in range(7)]
    return knots, coeffs


def make_ops(rng, stored):
    strings = [_string_inputs(rng, fn, segs, path) for fn, _, segs, path in PLAN]
    n = 2 * len(PLAN)
    rows, sizes = _grid(*DEVAL_ROWS, n), _grid(*EVAL_POINTS, n)
    ops = []
    for j in range(n):
        i = j % len(PLAN)
        fn, grade, segs, _ = PLAN[i]
        nder = (i + 2 * (j // len(PLAN))) % (2 if fn == "rgamma" else 4)
        nrefine = max(1, round(rows[(5 * j) % n] / segs) - 1)
        ops.append(Op("deval", dict(string=i, nder=nder, nrefine=nrefine), bound=_deval_bound(nder)))
        ops.append(Op("eval", dict(string=i, points=_points(rng, strings[i][0], round(sizes[(3 * j) % n])))))
    i, n = BASELINE_EVAL
    ops.append(Op("eval_g5_1000", dict(string=i, points=_points(rng, strings[i][0], n))))
    i, nder = BASELINE_DEVAL
    ops += [Op("deval_g30_nder2", dict(string=i, nder=nder, nrefine=None), bound=_deval_bound(nder))
            for _ in range(2)]
    ops += [Op("integrals", dict(strings=list(range(len(PLAN))))) for _ in range(4)]
    rng.shuffle(ops)
    return ops, strings


def _deval_bound(nder):
    """Failure bound for a table up to derivative nder.

    Roundoff in the s-space jet is divided by span**k for the k-th
    z-derivative, so second and third derivatives of high-grade strings on
    short segments keep only about 6 digits (grade 25, span 0.07: ~1e-6).
    That loss is real and shows in accurate_digits; the bound only has to
    catch a wrong table, which is off by O(1).
    """
    return CHECK_BOUND if nder < 2 else 1e-4


def _grid(lo, hi, n):
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _points(rng, knots, n):
    """n points spread over every segment: segment stratified, position uniform."""
    segs = len(knots) - 1
    out = []
    for k in strata(rng, n, 0, segs):
        k = min(int(k), segs - 1)
        out.append(knots[k] + (knots[k + 1] - knots[k]) * rng.uniform(0.0, 1.0))
    return out


def prepare(B, inputs, ctx):
    """Build the strings: this is set-up time, as a user would pay it once."""
    oracles = {"exp": B.exp_oracle, "sin": B.sin_oracle, "rgamma": B.recip_gamma_oracle}
    built = []
    for (fn, grade, _, _), (knots, coeffs) in zip(PLAN, inputs):
        oracle = B.poly_oracle(coeffs) if fn == "poly" else oracles[fn]
        built.append(B.Blendstring.from_oracle(knots, grade, oracle))
    return inputs, built


def run(B, ctx, op, state):
    p = op.params
    built = state[1]
    if op.kind in ("deval", "deval_g30_nder2"):
        return built[p["string"]].deval(nrefine=p["nrefine"], nder=p["nder"])
    if op.kind in ("eval", "eval_g5_1000"):
        bs = built[p["string"]]
        return [bs.eval(z) for z in p["points"]]
    return [built[i].definite_integral() for i in p["strings"]]


def _table_points(knots, nrefine):
    pts = []
    for k in range(len(knots) - 1):
        last = k == len(knots) - 2
        s = np.arange(0, nrefine + (2 if last else 1)) / (nrefine + 1)
        pts.append(knots[k] + s * (knots[k + 1] - knots[k]))
    pts = np.concatenate(pts)
    pts[-1] = knots[-1]
    return pts


def check(op, out, state):
    p = op.params
    inputs = state[0]
    if op.kind in ("deval", "deval_g30_nder2"):
        fn, grade, _, _ = PLAN[p["string"]]
        knots, coeffs = inputs[p["string"]]
        nrefine = 2 * (grade + 1) if p["nrefine"] is None else p["nrefine"]
        want_z = _table_points(np.asarray(knots), nrefine)
        z = np.array([row[0] for row in out.rows])
        if z.shape != want_z.shape or np.max(np.abs(z - want_z)) > 1e-12 * np.max(np.abs(want_z)):
            raise CheckFailed("table points are not knots plus nrefine points per segment")
        d = np.array([row[1] for row in out.rows])
        return max(relerr(d[:, k], R.deriv(fn, want_z, k, coeffs)) for k in range(p["nder"] + 1))
    if op.kind in ("eval", "eval_g5_1000"):
        fn = PLAN[p["string"]][0]
        coeffs = inputs[p["string"]][1]
        return relerr(out, R.deriv(fn, p["points"], 0, coeffs))
    if op.ref is None:
        op.ref = [R.path_integral(PLAN[i][0], *inputs[i]) for i in p["strings"]]
    return max(relerr([v], [w]) for v, w in zip(out, op.ref))
