"""Regenerate ``refs.json``, the stored high-precision references.

The Mathieu references come from ``mpmath.odefun`` (an arbitrary-precision
Taylor integrator) and the double point from Newton's method on the
truncated three-term recurrence, both at 30 digits.  They cost about a
minute, so they are computed once, stored beside the benchmark and never
counted in any run's set-up time.  The benchmark only reads the file:

    python3 perfbench/make_refs.py

The parameter catalogue below is what the seeded workloads draw from; the
seed picks entries and initial data, never new parameters, so every input
the benchmark hands the program has a stored reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

DPS = 30
OUT = Path(__file__).resolve().parent / "refs.json"

# (a, q) of the ordinary Mathieu equation y'' + (a - 2 q cos 2x) y = 0 on [0, 2 pi]
ORDINARY = [
    (1.0, 0.5),
    (3.0, 2.0),
    (complex(0.5, 0.2), 1j),
    (5.0, 4.0),
    (-1.0, 1.5),
    (8.0, 3.0),
    (0.25, complex(0.3, 0.3)),
    (2.0, complex(0, 1.2)),
]
# depths xi0 of the modified endpoint at the double point
MODIFIED_XI0 = [0.4, 0.6, 0.8, 1.0, 1.2, 1.3, 1.485, 1.6]


def _pair(z) -> list:
    z = mp.mpc(z)
    return [float(z.real), float(z.imag)]


def double_point():
    """(a*, qhat*) where a_0 and a_2 coalesce for q = i qhat.

    For q = i qhat the even Fourier matrix is tridiagonal with real diagonal
    4k^2 and real off-diagonal products -2 qhat^2 (first) and -qhat^2, so
    det(M - a I) is the real continuant P(a).  A double eigenvalue solves
    P = dP/da = 0; both follow from one recurrence, scaled by 4k^2 to stay
    of order one.  Size 24 is converged far beyond 30 digits.
    """

    def continuant(a, qhat):
        p_prev, d_prev = mp.mpf(1), mp.mpf(0)
        p, d = -a, mp.mpf(-1)
        for k in range(1, 24):
            e2 = -(2 if k == 1 else 1) * qhat**2
            s = 4 * k * k
            p_new = ((s - a) * p - e2 * p_prev) / s
            d_new = (-p + (s - a) * d - e2 * d_prev) / s
            p_prev, d_prev, p, d = p / s, d / s, p_new, d_new
        return p, d

    return mp.findroot(lambda a, qh: continuant(a, qh), (mp.mpf("2.0886989"), mp.mpf("1.4687686")))


def fundamental(a, q, x, modified=False):
    """(c, c', s, s') at x: the solutions with data (1, 0) and (0, 1) at 0."""
    a, q = mp.mpmathify(a), mp.mpmathify(q)
    if modified:  # w(t) = y(i t) solves w'' = (a - 2 q cosh 2t) w
        rhs = lambda t, y: [y[1], (a - 2 * q * mp.cosh(2 * t)) * y[0]]
    else:
        rhs = lambda t, y: [y[1], -(a - 2 * q * mp.cos(2 * t)) * y[0]]
    c = mp.odefun(rhs, 0, [mp.mpf(1), mp.mpf(0)])(x)
    s = mp.odefun(rhs, 0, [mp.mpf(0), mp.mpf(1)])(x)
    return c[0], c[1], s[0], s[1]


def main() -> None:
    mp.mp.dps = DPS
    astar, qhat = double_point()
    a_in, q_in = float(astar), complex(0, float(qhat))
    ordinary = []
    for a, q in ORDINARY:
        c, dc, s, ds = fundamental(a, q, 2 * mp.pi)
        ordinary.append(
            {"a": _pair(a), "q": _pair(q), "c": _pair(c), "dc": _pair(dc), "s": _pair(s), "ds": _pair(ds)}
        )
        print("ordinary", a, q, mp.nstr(c, 15))
    modified = []
    for xi0 in MODIFIED_XI0:
        w, _, _, _ = fundamental(a_in, q_in, mp.mpf(xi0), modified=True)
        modified.append({"xi0": xi0, "value": _pair(w)})
        print("modified", xi0, mp.nstr(w, 15))
    doc = {
        "generator": "perfbench/make_refs.py, mpmath %s at %d digits" % (mp.__version__, DPS),
        "double_point": {
            "a": mp.nstr(astar, DPS - 2),
            "qhat": mp.nstr(qhat, DPS - 2),
            "a_double": a_in,
            "qhat_double": q_in.imag,
        },
        "ordinary": ordinary,
        "modified": modified,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
