"""Mathieu-equation application layer.

Provides coefficient oracles for y'' + (a - 2 q cos 2z) y = g, computation of
the two independent solutions on a shared mesh, the Green's-function
construction of a particular solution (the generalized eigenfunction at a
double characteristic value), a shooting eigenvalue search (scipy's brentq
on the slope at pi/2), and an independent Fourier-matrix oracle for even
pi-periodic characteristic values including the location of the first double
point on the imaginary-q axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blendstring import Blendstring, zip_with
from .errors import SolveError
from .functions import cos_oracle, zero_oracle
from .odesolve import OdeProblem, _march, initial_series, solve_ivp
from .series import combine, mul

__all__ = [
    "MathieuParams",
    "ordinary_params",
    "modified_params",
    "mathieu_operator",
    "mathieu_problem",
    "mathieu_pair",
    "generalized_eigenfunction",
    "even_eigenvalue_search",
    "even_characteristic_values",
    "double_point",
    "modified_endpoint",
]


@dataclass(frozen=True)
class MathieuParams:
    """Characteristic value a, parameter q, and the path to integrate along."""

    a: complex
    q: complex
    path: tuple

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(complex(w) for w in self.path))


def ordinary_params(a, q) -> MathieuParams:
    """Parameters for the ordinary functions on the real interval [0, 2*pi]."""
    return MathieuParams(complex(a), complex(q), (0j, 2 * math.pi + 0j))


def modified_params(a, q, xi0: float) -> MathieuParams:
    """Parameters for the modified functions on the vertical segment [0, i*xi0]."""
    return MathieuParams(complex(a), complex(q), (0j, 1j * xi0))


def mathieu_operator(a, q):
    """Series oracles (a(x), b(x), g(x)) for the homogeneous Mathieu operator.

    The first-derivative coefficient is identically zero and b(z) = a - 2 q cos 2z,
    whose coefficient j is -2q 2^j times entry j of cos_oracle(2z).
    """
    a = complex(a)
    q = complex(q)

    def bcoef(point, grade):
        out = [-2.0 * q * 2.0**j * c for j, c in enumerate(cos_oracle(2.0 * complex(point), grade))]
        out[0] += a
        return out

    return zero_oracle, bcoef, zero_oracle


def mathieu_problem(params: MathieuParams, grade: int, tol: float, y0=1.0, y1=0.0) -> OdeProblem:
    """The homogeneous Mathieu problem along params.path with data y(0) = y0, y'(0) = y1."""
    return OdeProblem(*mathieu_operator(params.a, params.q), params.path, y0, y1, grade, tol)


def mathieu_pair(params: MathieuParams, grade: int, tol: float):
    """Both independent homogeneous solutions on one shared knot sequence.

    The (1,0) and (0,1) solutions are marched together in one adaptive pass
    at a quarter of the requested tolerance: every step collocates both and
    is accepted only if both pass, so the two blendstrings share their knots.
    """
    p1, p2 = (mathieu_problem(params, grade, 0.25 * tol, y0=y0, y1=y1)
              for y0, y1 in ((1.0, 0.0), (0.0, 1.0)))
    (w1, w2), _ = _march(p1, [initial_series(p1), initial_series(p2)])
    return w1, w2


def generalized_eigenfunction(
    w1: Blendstring, w2: Blendstring, f: Blendstring
) -> Blendstring:
    """Particular solution -w2 * int(w1 f) + w1 * int(w2 f) from the first knot.

    Built entirely from knot-wise products and exact indefinite integrals;
    the grade-raising integrals are truncated back to the common grade before
    the outer products, dropping terms one order beyond the method accuracy.
    With unit Wronskian w1 w2' - w1' w2 = 1 the result solves
    u'' + a(x) u' + b(x) u + f = 0 for the operator the pair solves.
    """
    m = w1.grade
    i1 = zip_with(w1, f, mul).indefinite_integral().truncate(m)
    i2 = zip_with(w2, f, mul).indefinite_integral().truncate(m)
    t1 = zip_with(w2, i1, mul)
    t2 = zip_with(w1, i2, mul)
    return zip_with(t1, t2, lambda x, y: combine(x, y, -1.0, 1.0))


def even_eigenvalue_search(q, a_bracket):
    """Characteristic value of an even pi-periodic solution by shooting.

    Root of a -> y'(pi/2; a) for y(0)=1, y'(0)=0 inside the given real
    bracket, found by scipy's brentq (Brent's method, default tolerances).
    Each shot is a grade-12 march at tol 1e-10.  ValueError if the shooting
    residual has no sign change on the bracket, SolveError if brentq does
    not converge.  Intended for real q, where the shooting function is real.
    """
    # imported here: importing scipy.optimize with the module raised the peak
    # RSS of perfbench's march workload from 59.6 to 83.1 MB
    from scipy.optimize import brentq

    def shoot(a: float) -> float:
        params = MathieuParams(a, complex(q), (0j, math.pi / 2 + 0j))
        sol = solve_ivp(mathieu_problem(params, 12, 1e-10)).solution
        return sol.records[-1].coeffs[1].real

    lo, hi = float(a_bracket[0]), float(a_bracket[1])
    root, info = brentq(shoot, lo, hi, full_output=True, disp=False)
    if not info.converged:
        raise SolveError(f"shooting search on [{lo}, {hi}] did not converge: {info.flag}")
    return root


# -- independent Fourier-matrix oracle ---------------------------------------


def _even_matrix(q: complex, size: int) -> np.ndarray:
    """Symmetrized truncation of the cos(2kz) recurrence for even solutions."""
    M = np.zeros((size, size), dtype=complex)
    r2 = math.sqrt(2.0)
    M[0, 1] = M[1, 0] = r2 * q
    for k in range(1, size):
        M[k, k] = 4.0 * k * k
        if k + 1 < size:
            M[k, k + 1] = M[k + 1, k] = q
    return M


def even_characteristic_values(q, n: int, size: int | None = None) -> np.ndarray:
    """First n characteristic values a_0, a_2, ... for even pi-periodic solutions."""
    q = complex(q)
    if size is None:
        size = max(2 * n + 20, 30)
    ev = np.linalg.eigvals(_even_matrix(q, size))
    return np.array(sorted(ev, key=lambda z: z.real)[:n])


def _continuant(a: float, t: float, size: int):
    """[P, P_a, P_aa, P_t, P_at] for P = det(_even_matrix(i sqrt(t), size) - a I) / prod 4k^2.

    The minors obey D_(j+1) = (4j^2 - a) D_j + c_j t D_(j-1) (c_1 = 2, then 1), each carried
    over prod_(k<j) 4k^2; the derivatives obey that recurrence differentiated termwise.
    """
    x, r = [-a, -1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]
    for k in range(1, size):
        s, c = 4.0 * k * k, 2.0 if k == 1 else 1.0
        d, ct, extra = s - a, c * t, (0.0, -x[0], -2.0 * x[1], c * r[0], c * r[1] - x[3])
        x, r = [(d * u + ct * v + e) / s for u, v, e in zip(x, r, extra)], [u / s for u in x]
    return x


def double_point(qhat_lo: float = 1.0, qhat_hi: float = 2.0, size: int = 36):
    """The first coalescence of a_0 and a_2 on the imaginary-q axis, as (a*, q*).

    Re (a_2 - a_0)^2 must be positive at qhat_lo and negative (a conjugate pair)
    at qhat_hi: one eigvals call each.  Newton's method then solves P = P_a = 0 for
    the continuant P(a, qhat^2) (see _continuant) from the lower end, qhat_lo and
    the mean of a_0 and a_2 there, halving a step that would leave the bracket;
    SolveError if that fails or 20 steps do not settle it.
    """
    lo, hi = qhat_lo, qhat_hi
    ev_lo, ev_hi = (even_characteristic_values(1j * x, 2, size) for x in (lo, hi))
    gap_lo, gap_hi = (((e[1] - e[0]) ** 2).real for e in (ev_lo, ev_hi))
    if not gap_lo > 0 > gap_hi:
        raise ValueError(f"bracket [{qhat_lo}, {qhat_hi}] does not enclose the double point")
    a, t = float(ev_lo.mean().real), lo * lo
    for _ in range(20):
        p, pa, paa, pt, pat = _continuant(a, t, size)
        det = pa * pat - pt * paa
        da, dt = (pt * pa - p * pat) / det, (p * paa - pa * pa) / det
        for _ in range(60):  # halve a step that leaves the bracket
            if lo * lo <= t + dt <= hi * hi:
                break
            da, dt = 0.5 * da, 0.5 * dt
        else:
            raise SolveError(f"Newton cannot stay in the bracket [{lo}, {hi}] from qhat^2 = {t}")
        a, t = a + da, t + dt
        if abs(da) <= 4e-16 * abs(a) and abs(dt) <= 4e-16 * t:
            return complex(a), 1j * math.sqrt(t)
    raise SolveError("double-point Newton iteration did not converge in 20 steps")


def modified_endpoint(a, q, xi0: float, grade: int = 15, tol: float = 1e-10):
    """Value of the modified solution (unit value, zero slope at 0) at i*xi0."""
    params = modified_params(a, q, xi0)
    sol = solve_ivp(mathieu_problem(params, grade, tol)).solution
    return sol.records[-1].coeffs[0]
