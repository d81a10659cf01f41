"""march: one adaptive ``solve_ivp`` per op.

Why: the high-grade collocation marcher runs here, where the bounded jet
kernel, ``ode_taylor`` and step control do nearly all the work, and
``Blendstring.eval``/``deval`` are never called.  The mix covers the
harmonic oscillator at three grades, Airy on real and complex paths, cos
continued along complex polygons, a constant-coefficient equation with a
nonzero right side (the particular series), and ordinary Mathieu.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import refs as R
from common import CheckFailed, Op, cplx, cycle, knot_data, log_grid, polygon, relerr, strata, unit

# (grade, period range): grade 8 needs many short steps, so its range stops
# at 8 periods to keep single ops under about 100 ms
SHO_PLAN = ((8, (1, 8)), (15, (1, 20)), (25, (1, 20)))
GRADES = (10, 15, 20)
# failure bound on the relative error: a solve's global error accumulates
# along the path, and tol 1e-8 over 20 periods legitimately reaches ~5e-7;
# a broken step is off by far more
SOLVE_BOUND = 1e-5


def _zero(point, grade):
    return [0j] * (grade + 1)


def _one(point, grade):
    return [1.0 + 0j] + [0j] * grade


def _airy_b(point, grade):
    out = [-complex(point)] + [0j] * grade
    if grade >= 1:
        out[1] = -1.0 + 0j
    return out


def make_ops(rng, stored):
    ops = []
    for grade, (lo, hi) in SHO_PLAN:
        for periods, tol in zip(strata(rng, 8, lo, hi), log_grid(8, -12, -8, step=3)):
            u = unit(rng)
            ops.append(Op("sho", dict(grade=grade, path=(0.0, 2 * math.pi * periods),
                                      y0=u.real, y1=u.imag, tol=tol)))
    for _ in range(4):  # ROADMAP baseline: one period, grade 15, tol 1e-12
        u = unit(rng)
        ops.append(Op("sho_1period_g15", dict(grade=15, path=(0.0, 2 * math.pi),
                                              y0=u.real, y1=u.imag, tol=1e-12)))
    grades = cycle(GRADES, 16)
    tols = log_grid(16, -12, -8, step=5)
    lengths = strata(rng, 8, 3.0, 8.0)
    for i in range(16):
        alpha, beta = unit(rng), 0.5 * unit(rng)
        if i < 8:  # a real segment through the turning point, either way
            x1 = rng.uniform(0.5, 3.0)
            path = (x1 - lengths[i], x1) if i % 2 else (x1, x1 - lengths[i])
        else:
            path = tuple(polygon(rng, 3 * unit(rng) * rng.random(), 2, 1.5, 3.0, ((-4, 4), (-3, 3))))
        ops.append(Op("airy", dict(grade=grades[i], path=path, tol=tols[i], alpha=alpha, beta=beta)))
    grades = cycle(GRADES, 16)
    tols = log_grid(16, -12, -8, step=5)
    for i in range(16):
        legs = 2 + i % 3
        start = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        path = tuple(polygon(rng, start, legs, 1.0, 3.0, ((-6, 6), (-2.5, 2.5))))
        ops.append(Op("cos", dict(grade=grades[i], path=path, tol=tols[i])))
    grades = cycle(GRADES, 16)
    tols = log_grid(16, -12, -8, step=5)
    for i in range(16):
        while True:  # distinct characteristic roots with modest growth
            r1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2))
            r2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2, 2))
            if abs(r1 - r2) > 0.5 and abs(r1 * r2) > 0.1:
                break
        length = rng.uniform(2.0, 6.0)
        if i % 2:
            path = (0.0, length)
        else:
            path = tuple(polygon(rng, 0j, 2, length / 2, length / 2, ((-5, 5), (-3, 3))))
        ops.append(Op("constcoef", dict(
            grade=grades[i], path=path, tol=tols[i], a=-(r1 + r2), b=r1 * r2,
            g=rng.uniform(0.5, 2.0) * unit(rng), y0=unit(rng), y1=unit(rng))))
    grades = cycle(GRADES, 16)
    tols = log_grid(16, -12, -8, step=5)
    entries = cycle(range(len(stored["ordinary"])), 16)
    for i in range(16):
        e = stored["ordinary"][entries[i]]
        ops.append(Op("mathieu", dict(grade=grades[i], tol=tols[i], a=cplx(e["a"]), q=cplx(e["q"]),
                                      y0=unit(rng), y1=unit(rng)), ref=e))
    for op in ops:
        op.bound = SOLVE_BOUND
    rng.shuffle(ops)
    return ops, None


def prepare(B, inputs, ctx):
    return None


def run(B, ctx, op, state):
    p = op.params
    if op.kind in ("sho", "sho_1period_g15", "cos"):
        if op.kind == "cos":
            z0 = p["path"][0]
            y0, y1 = cmath.cos(z0), -cmath.sin(z0)
        else:
            y0, y1 = p["y0"], p["y1"]
        prob = B.OdeProblem(ctx.oracle(_zero), ctx.oracle(_one), ctx.oracle(_zero),
                            p["path"], y0, y1, p["grade"], p["tol"])
    elif op.kind == "airy":
        y0, y1 = R.airy(p["path"][0], p["alpha"], p["beta"])
        prob = B.OdeProblem(ctx.oracle(_zero), ctx.oracle(_airy_b), ctx.oracle(_zero),
                            p["path"], complex(y0), complex(y1), p["grade"], p["tol"])
    elif op.kind == "constcoef":
        prob = B.OdeProblem(B.constant_oracle(p["a"]), B.constant_oracle(p["b"]),
                            B.constant_oracle(p["g"]), p["path"], p["y0"], p["y1"],
                            p["grade"], p["tol"])
    else:  # mathieu
        params = B.ordinary_params(p["a"], p["q"])
        prob = B.mathieu_problem(params, p["grade"], p["tol"], y0=p["y0"], y1=p["y1"])
    return B.solve_ivp(prob)


def check(op, result, state):
    """Relative error of (y, y') at every knot, or at 2 pi for Mathieu."""
    p = op.params
    knots, y, dy = knot_data(result.solution)
    if op.kind == "mathieu":
        e = op.ref  # mpmath values at 2 pi of the solutions with data (1,0), (0,1)
        end = complex(2 * math.pi)
        if abs(knots[-1] - end) > 1e-12 or knots[0] != 0:
            raise CheckFailed("solution does not span [0, 2 pi]")
        want = [p["y0"] * cplx(e["c"]) + p["y1"] * cplx(e["s"]),
                p["y0"] * cplx(e["dc"]) + p["y1"] * cplx(e["ds"])]
        return relerr([y[-1], dy[-1]], want)
    path = np.asarray(p["path"], dtype=complex)
    if knots[0] != path[0] or abs(knots[-1] - path[-1]) > 1e-12 * max(1.0, abs(path[-1])):
        raise CheckFailed("solution does not span the path")
    if op.kind in ("sho", "sho_1period_g15"):
        z0 = path[0]
        want_y = p["y0"] * np.cos(knots - z0) + p["y1"] * np.sin(knots - z0)
        want_dy = -p["y0"] * np.sin(knots - z0) + p["y1"] * np.cos(knots - z0)
    elif op.kind == "cos":
        want_y, want_dy = np.cos(knots), -np.sin(knots)
    elif op.kind == "airy":
        want_y, want_dy = R.airy(knots, p["alpha"], p["beta"])
    else:
        want_y, want_dy = R.constant_coefficient(knots, path[0], p["a"], p["b"], p["g"], p["y0"], p["y1"])
    return relerr(np.concatenate([y, dy]), np.concatenate([want_y, want_dy]))
