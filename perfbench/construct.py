"""construct: write-heavy use; each op builds a new blendstring and reads it back once.

Why: it uses ``blendstring`` the other way round from ``tabulate``, so a
change that precomputes evaluation arrays at construction shows its cost
here.  It is also the only workload where ``series`` algebra, ``special``,
``functions`` and ``cli`` do most of the work: ``from_oracle`` through the
oracle registry, ``zip_with`` (mul, div, combine), ``map`` (compose),
``indefinite_integral`` plus ``truncate``, a document round trip, the CLI
in-process (build, integrate, deval, solve), and ``recip_gamma_series``.
"""

from __future__ import annotations

import json
import math

import numpy as np

import refs as R
from common import CheckFailed, Op, cycle, knot_data, relerr, strata, unit

# from_oracle: registry name, knots per op, grades; sized so an op takes
# roughly 5-30 ms whatever the function costs per knot
FROM_ORACLE = (
    ("exp", 2000, (5, 15)), ("sin", 1400, (5, 15)), ("cos", 1400, (5, 15)),
    ("poly", 1000, (5, 15)), ("recip", 700, (5, 15)), ("recip-gamma", 35, (5, 15)),
)
REF_NAME = {"recip-gamma": "rgamma"}
OPERAND_KNOTS = (200, 330, 460, 600)  # zip_with, indefinite_integral and document operands
CLI_KNOTS = 60  # documents the CLI reads
CLI_BUILD_KNOTS = 150
MAP_KNOTS = 32
RGAMMA_BATCH = 15  # ROADMAP baseline: recip_gamma_series at grade 20


def _walk(rng, n, step=(0.03, 0.08), box=((-2.5, 2.5), (-1.5, 1.5))):
    """n distinct knots along a seeded random walk that turns gently inside box."""
    (x0, x1), (y0, y1) = box
    z = complex(rng.uniform(x0, x1) / 2, rng.uniform(y0, y1) / 2)
    heading = unit(rng)
    knots = [z]
    while len(knots) < n:
        turn = rng.uniform(-0.4, 0.4)
        heading *= complex(math.cos(turn), math.sin(turn))
        w = z + rng.uniform(*step) * heading
        if not (x0 <= w.real <= x1 and y0 <= w.imag <= y1):
            heading = -heading
            continue
        knots.append(w)
        z = w
    return knots


def _far_roots_poly(rng):
    """Ascending coefficients of (z - r1)(z - r2) with both roots far from the walk box."""
    r1, r2 = 5.0 * unit(rng), 5.0 * unit(rng)
    return [r1 * r2, -(r1 + r2), 1.0 + 0j]


def _poly(rng):
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) / (k + 1) for k in range(5)]


def _readback_point(rng, knots):
    k = rng.randrange(len(knots) - 1)
    return knots[k] + (knots[k + 1] - knots[k]) * rng.uniform(0.1, 0.9)


def make_ops(rng, stored):
    ops = []
    for fn, n, (g_lo, g_hi) in FROM_ORACLE:
        for grade in (g_lo, g_hi):
            knots = _walk(rng, n)
            coeffs = _far_roots_poly(rng) if fn == "recip" else _poly(rng) if fn == "poly" else None
            ops.append(Op("from_oracle", dict(fn=fn, grade=grade, knots=knots, coeffs=coeffs,
                                              at=_readback_point(rng, knots))))
    # operands of zip_with, integral and document ops, built in set-up
    operands = []
    for grade, n in zip((5, 8, 12, 15), OPERAND_KNOTS):
        knots = _walk(rng, n)
        operands.append(dict(grade=grade, knots=knots, poly=_far_roots_poly(rng), at=_readback_point(rng, knots)))
    docs = [dict(grade=grade, knots=_walk(rng, CLI_KNOTS)) for grade in cycle((5, 12), 4)]
    for i, how in enumerate(cycle(("mul", "div", "combine"), 6)):
        alpha, beta = unit(rng), unit(rng)
        ops.append(Op("zip_with", dict(operand=i % 4, how=how, alpha=alpha, beta=beta)))
    for outer, grade in zip(cycle(("exp", "sin", "cos"), 4), cycle((8, 12), 4)):
        knots = _walk(rng, MAP_KNOTS)
        ops.append(Op("map", dict(outer=outer, grade=grade, knots=knots, at=_readback_point(rng, knots))))
    ops += [Op("integral", dict(operand=i)) for i in range(4)]
    ops += [Op("document", dict(operand=i), bound=0.0) for i in range(4)]
    for i, fn in enumerate(("exp", "sin")):
        knots = _walk(rng, CLI_BUILD_KNOTS)
        ops.append(Op("cli_build", dict(fn=fn, grade=8, knots=knots, name=f"build{i}")))
    for i in range(2):
        ops.append(Op("cli_integrate", dict(doc=i, name=f"integrate{i}")))
        ops.append(Op("cli_deval", dict(doc=i + 2, nrefine=2 + 2 * i, name=f"deval{i}")))
    for i in range(2):
        r1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 1.5))
        r2 = complex(rng.uniform(-0.3, 0.3), -rng.uniform(0.5, 1.5))
        ops.append(Op("cli_solve", dict(a=-(r1 + r2), b=r1 * r2, g=unit(rng), y0=unit(rng), y1=unit(rng),
                                        length=rng.uniform(2.0, 4.0), grade=12, tol=1e-10, name=f"solve{i}")))
    for _ in range(2):
        ops.append(Op("recip_gamma_series", dict(points=[complex(x, y) for x, y in zip(
            strata(rng, RGAMMA_BATCH, -3.0, 4.0), strata(rng, RGAMMA_BATCH, -2.0, 2.0, step=3))])))
    rng.shuffle(ops)
    return ops, (operands, docs)


def fmt_cli(z: complex) -> str:
    """A scalar in the CLI's `re+imi` syntax, exact to the last bit."""
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def doc_cplx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def write_document(path, grade, knots, coeff_rows) -> None:
    """Write a blendstring document in the published format, without the program."""
    doc = {
        "format_version": 1,
        "grade": grade,
        "knots": [doc_cplx(z) for z in knots],
        "coefficients": [[doc_cplx(c) for c in row] for row in coeff_rows],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def read_document(path):
    """(grade, knots, coefficient rows) of a document, parsed independently."""
    with open(path) as f:
        doc = json.load(f)
    knots = np.array([complex(k["re"], k["im"]) for k in doc["knots"]])
    rows = np.array([[complex(c["re"], c["im"]) for c in row] for row in doc["coefficients"]])
    return doc["grade"], knots, rows


def _exp_taylor(z, grade):
    return [complex(np.exp(z)) / math.factorial(k) for k in range(grade + 1)]


def prepare(B, inputs, ctx):
    """Operand strings (exp, and a quadratic on the same knots) and the CLI input files."""
    operands, docs = inputs
    built = []
    for o in operands:
        x = B.Blendstring.from_oracle(o["knots"], o["grade"], B.exp_oracle)
        y = B.Blendstring.from_oracle(o["knots"], o["grade"], B.poly_oracle(o["poly"]))
        built.append((x, y))
    for i, d in enumerate(docs):
        d["path"] = str(ctx.tmpdir / f"input{i}.json")
        write_document(d["path"], d["grade"], d["knots"], [_exp_taylor(z, d["grade"]) for z in d["knots"]])
    return operands, docs, built


def run(B, ctx, op, state):
    operands, docs, built = state
    p = op.params
    k = op.kind
    if k == "from_oracle":
        bs = B.Blendstring.from_oracle(p["knots"], p["grade"], B.get_oracle(p["fn"], p["coeffs"]))
        return bs, bs.eval(p["at"])
    if k == "zip_with":
        x, y = built[p["operand"]]
        if p["how"] == "mul":
            bs = B.zip_with(x, y, B.mul)
        elif p["how"] == "div":
            bs = B.zip_with(x, y, B.div)
        else:
            bs = B.zip_with(x, y, lambda u, v: B.combine(u, v, p["alpha"], p["beta"]))
        return bs, bs.eval(operands[p["operand"]]["at"])
    if k == "map":
        inner = B.Blendstring.from_oracle(p["knots"], p["grade"], B.sin_oracle)
        bs = inner.map(B.get_oracle(p["outer"]))
        return bs, bs.eval(p["at"])
    if k == "integral":
        x, _ = built[p["operand"]]
        bs = x.indefinite_integral().truncate(x.grade)
        return bs, bs.eval(operands[p["operand"]]["at"])
    if k == "document":
        x, _ = built[p["operand"]]
        return x, B.Blendstring.from_document(x.to_document())
    if k == "recip_gamma_series":
        return [B.recip_gamma_series(z, 20) for z in p["points"]]
    out = str(ctx.tmpdir / f"{p['name']}.out")
    if k == "cli_build":
        argv = ["build", p["fn"], "--knots", ",".join(fmt_cli(z) for z in p["knots"]),
                "--grade", str(p["grade"]), "--out", out]
    elif k == "cli_integrate":
        argv = ["integrate", docs[p["doc"]]["path"], "--definite", "--format", "csv", "--out", out]
    elif k == "cli_deval":
        argv = ["deval", docs[p["doc"]]["path"], "--nder", "1", "--nrefine", str(p["nrefine"]), "--out", out]
    else:
        problem = str(ctx.tmpdir / f"{p['name']}.problem.json")
        with open(problem, "w") as f:
            json.dump({
                "equation": {"name": "constant-coefficient", "a": doc_cplx(p["a"]), "b": doc_cplx(p["b"]), "g": doc_cplx(p["g"])},
                "path": [0.0, p["length"]], "grade": p["grade"], "tol": p["tol"],
                "y0": doc_cplx(p["y0"]), "y1": doc_cplx(p["y1"]),
            }, f)
        argv = ["solve", problem, "--out", out]
    status = B.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"blends {argv[0]} exited with {status}")
    return out


def _check_string(bs, f, df, at, value):
    """Relative error of knot values, knot slopes and the read-back value."""
    knots, c0, c1 = knot_data(bs)
    return max(relerr(c0, f(knots)), relerr(c1, df(knots)), relerr([value], [f(np.asarray(at))]))


def check(op, out, state):
    operands, docs, _ = state
    p = op.params
    k = op.kind
    if k == "from_oracle":
        bs, value = out
        if bs.grade != p["grade"] or len(bs) != len(p["knots"]):
            raise CheckFailed("wrong grade or knot count")
        fn, c = REF_NAME.get(p["fn"], p["fn"]), p["coeffs"]
        return _check_string(bs, lambda z: R.deriv(fn, z, 0, c), lambda z: R.deriv(fn, z, 1, c), p["at"], value)
    if k == "zip_with":
        bs, value = out
        o = operands[p["operand"]]
        c = o["poly"]
        f, df = (lambda z: R.deriv("exp", z, 0)), (lambda z: R.deriv("exp", z, 1))
        g, dg = (lambda z: R.deriv("poly", z, 0, c)), (lambda z: R.deriv("poly", z, 1, c))
        if p["how"] == "mul":
            h, dh = (lambda z: f(z) * g(z)), (lambda z: df(z) * g(z) + f(z) * dg(z))
        elif p["how"] == "div":
            h, dh = (lambda z: f(z) / g(z)), (lambda z: (df(z) * g(z) - f(z) * dg(z)) / g(z) ** 2)
        else:
            a, b = p["alpha"], p["beta"]
            h, dh = (lambda z: a * f(z) + b * g(z)), (lambda z: a * df(z) + b * dg(z))
        return _check_string(bs, h, dh, o["at"], value)
    if k == "map":
        bs, value = out
        outer = p["outer"]
        h = lambda z: R.deriv(outer, np.sin(z), 0)
        dh = lambda z: R.deriv(outer, np.sin(z), 1) * np.cos(z)
        return _check_string(bs, h, dh, p["at"], value)
    if k == "integral":
        bs, value = out
        o = operands[p["operand"]]
        if bs.grade != o["grade"]:
            raise CheckFailed("truncate did not restore the grade")
        z0 = o["knots"][0]
        return _check_string(bs, lambda z: np.exp(z) - np.exp(z0), np.exp, o["at"], value)
    if k == "document":
        x, y = out
        return 0.0 if x == y else math.inf  # bit-exact round trip
    if k == "recip_gamma_series":
        c0 = np.array([c[0] for c in out])
        c1 = np.array([c[1] for c in out])
        z = np.array(p["points"])
        return max(relerr(c0, R.deriv("rgamma", z, 0)), relerr(c1, R.deriv("rgamma", z, 1)))
    if k == "cli_build":
        grade, knots, rows = read_document(out)
        if grade != p["grade"] or not np.array_equal(knots, np.array(p["knots"])):
            raise CheckFailed("document grade or knots differ from the request")
        fn = p["fn"]
        return max(relerr(rows[:, 0], R.deriv(fn, knots, 0)), relerr(rows[:, 1], R.deriv(fn, knots, 1)))
    if k == "cli_integrate":
        with open(out) as f:
            header, line = f.read().split()
        re, im = (float(v) for v in line.split(","))
        return relerr([complex(re, im)], [R.path_integral("exp", docs[p["doc"]]["knots"])])
    if k == "cli_deval":
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        z = data[:, 0] + 1j * data[:, 1]
        knots = np.asarray(docs[p["doc"]]["knots"])
        if len(z) != p["nrefine"] * (len(knots) - 1) + len(knots):
            raise CheckFailed(f"CSV has {len(z)} rows")
        d0, d1 = data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]
        return max(relerr(d0, np.exp(z)), relerr(d1, np.exp(z)))
    grade, knots, rows = read_document(out)  # cli_solve
    if knots[0] != 0 or abs(knots[-1] - p["length"]) > 1e-12:
        raise CheckFailed("solution does not span the path")
    y, dy = R.constant_coefficient(knots, 0.0, p["a"], p["b"], p["g"], p["y0"], p["y1"])
    return relerr(np.concatenate([rows[:, 0], rows[:, 1]]), np.concatenate([y, dy]))
