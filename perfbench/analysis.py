"""analysis: the paper's two analyses built on the solver.

Why: it uses the same ``odesolve``/``blend`` layers as ``march`` in a
different way: many one-step, low-grade, fixed-h collocations with no
adaptivity (``sho_amplification`` grids, the unit ``stability_threshold``
repeats about 1000 times), so a per-grade table cache pays off most here
and a per-call set-up cost hurts most.  It is also the only workload that
reaches ``mathieu`` and the Fourier oracle: ``double_point``,
``mathieu_pair`` at and near (a*, q*), ``generalized_eigenfunction`` plus
``deval(nder=2)``, and ``modified_endpoint``.
"""

from __future__ import annotations

import math

import numpy as np

import refs as R
from common import CheckFailed, Op, cplx, cycle, knot_data, log_grid, relerr, strata

PAIR_GRADES = (10, 12, 15)
# nu per amplification grid; the sizes overlap across m, so these ops' costs
# form a continuum instead of one cluster per m (a percentile that falls
# between two clusters jumps with noise)
GRID_SIZES = (6, 9, 12, 15, 18, 21, 8, 11, 14, 17, 20, 23)


def make_ops(rng, stored):
    dp = stored["double_point"]
    astar, qstar = dp["a_double"], 1j * dp["qhat_double"]
    ops = []
    for j, count in enumerate(GRID_SIZES):
        nus = strata(rng, count, 0.05, 4 * math.pi)
        ops.append(Op("amplification", dict(m=1 + j % 6, nus=nus)))
    for lo, hi, size in zip(strata(rng, 8, 1.0, 1.4), strata(rng, 8, 1.5, 2.0, step=3), cycle(range(30, 42, 3), 8)):
        ops.append(Op("double_point", dict(qhat_lo=lo, qhat_hi=hi, size=size), ref=dp))
    for _ in range(2):  # ROADMAP baseline: double_point() with its defaults
        ops.append(Op("double_point_default", {}, ref=dp))
    shifts = zip(strata(rng, 8, -0.02, 0.02), strata(rng, 8, -0.02, 0.02, step=3))
    for (da, dq), grade, tol in zip(shifts, cycle(PAIR_GRADES, 8), log_grid(8, -10, -8, step=3)):
        ops.append(Op("pair", dict(a=astar * (1 + da), q=qstar * (1 + dq), grade=grade, tol=tol)))
    for _ in range(2):  # ROADMAP baseline: mathieu_pair at the double point, grade 15
        ops.append(Op("pair_double_point", dict(a=astar, q=qstar, grade=15, tol=1e-10)))
    for i, nrefine in enumerate(cycle((4, 8, 16, 30), 8)):
        ops.append(Op("eigenfunction", dict(pair=i % 4, nrefine=nrefine)))
    entries = cycle(range(len(stored["modified"])), 8)
    for e, grade in zip(entries, cycle((12, 15), 8)):
        ref = stored["modified"][e]
        ops.append(Op("modified_endpoint", dict(a=astar, q=qstar, xi0=ref["xi0"], grade=grade, tol=1e-10),
                      ref=cplx(ref["value"])))
    rng.shuffle(ops)
    return ops, None


def prepare(B, inputs, ctx):
    """The pairs the eigenfunction ops start from: two at (a*, q*), two beside it."""
    dp = ctx.refs["double_point"]
    astar, qstar = dp["a_double"], 1j * dp["qhat_double"]
    pairs = []
    for a, q, grade in ((astar, qstar, 12), (astar, qstar, 15),
                        (astar * 1.01, qstar * 0.99, 12), (astar * 0.99, qstar * 1.01, 15)):
        w1, w2 = B.mathieu_pair(B.ordinary_params(a, q), grade, 1e-10)
        pairs.append((complex(a), complex(q), w1, w2))
    return pairs


def run(B, ctx, op, pairs):
    p = op.params
    if op.kind == "amplification":
        return [B.sho_amplification(p["m"], nu) for nu in p["nus"]]
    if op.kind == "double_point":
        return B.double_point(p["qhat_lo"], p["qhat_hi"], p["size"])
    if op.kind == "double_point_default":
        return B.double_point()
    if op.kind in ("pair", "pair_double_point"):
        return B.mathieu_pair(B.ordinary_params(p["a"], p["q"]), p["grade"], p["tol"])
    if op.kind == "eigenfunction":
        _, _, w1, w2 = pairs[p["pair"]]
        u = B.generalized_eigenfunction(w1, w2, w1)
        return u, u.deval(nrefine=p["nrefine"], nder=2)
    return B.modified_endpoint(p["a"], p["q"], p["xi0"], p["grade"], p["tol"])


def check(op, out, pairs):
    p = op.params
    if op.kind == "amplification":
        C = np.array([c for c, _ in out])
        S = np.array([s for _, s in out])
        if p["m"] in R.C_RATIONALS:
            return relerr(C, [R.C_RATIONALS[p["m"]](nu) for nu in p["nus"]])
        inside = np.abs(C) <= 1  # C^2 + S^2 = 1 holds only where |C| <= 1
        return float(np.max(np.abs(C[inside] ** 2 + S[inside] ** 2 - 1), initial=0.0))
    if op.kind in ("double_point", "double_point_default"):
        a, q = out
        pa, pq = R.DOUBLE_POINT_PUBLISHED
        if abs(a - pa) > 1e-6 or abs(q - pq) > 1e-6:
            raise CheckFailed(f"double point {a}, {q} is not the published ({pa}, {pq})")
        ev = R.even_values(q)  # both lowest values must sit at a*
        if np.max(np.abs(ev - a)) > 1e-4:
            raise CheckFailed(f"a_0, a_2 = {ev} do not coalesce at {a}")
        return relerr([a, q], [float(op.ref["a"]), 1j * float(op.ref["qhat"])])
    if op.kind in ("pair", "pair_double_point"):
        w1, w2 = out
        k1, y1, d1 = knot_data(w1)
        k2, y2, d2 = knot_data(w2)
        if not np.array_equal(k1, k2):
            raise CheckFailed("the pair does not share one knot sequence")
        return relerr(y1 * d2 - d1 * y2, np.ones_like(y1))  # Wronskian is 1
    if op.kind == "eigenfunction":
        a, q, w1, _ = pairs[p["pair"]]
        u, table = out
        knots, f, _ = knot_data(w1)
        n = p["nrefine"] + 1
        rows = table.rows
        if len(rows) != n * (len(knots) - 1) + 1:
            raise CheckFailed(f"table has {len(rows)} rows")
        at_knots = [rows[k * n] for k in range(len(knots))]
        z = np.array([z for z, _ in at_knots])
        if np.max(np.abs(z - knots)) > 1e-12 * np.max(np.abs(knots)):
            raise CheckFailed("table rows are not at the knots")
        uu = np.array([d[0] for _, d in at_knots])
        u2 = np.array([d[2] for _, d in at_knots])
        # u'' + (a - 2q cos 2z) u + w1 = 0 when the Wronskian is 1
        resid = u2 + (a - 2 * q * np.cos(2 * knots)) * uu + f
        return float(np.max(np.abs(resid)) / np.max(np.abs(f)))
    return relerr([out], [op.ref])
