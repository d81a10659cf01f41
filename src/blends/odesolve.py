"""Collocation marching for linear second-order ODEs along polygonal paths.

The equation is y'' + a(x) y' + b(x) y = g(x) with the three coefficient
functions supplied as series oracles.  One marching step from a knot z0 to a
tentative knot z1 = z0 + h*direction works entirely in blend space:

 1. generate grade-m solution series at z1 for the two homogeneous initial
    data sets (1,0) and (0,1), and the particular series with zero data
    (identically zero whenever g is, which recovers the plain blend of the
    known data with the zero series), reused while a, b and g return the same
    coefficient objects, so a constant-coefficient solve runs one recurrence;
 2. blend the zero series at z0 against each homogeneous series (C and S),
    and each known series at z0 against the particular series (one L each:
    several solutions can march together on shared knots);
 3. collocate: one matrix-vector product per blend gives its values at s =
    1/4, 3/4 and 1/2, and the operator follows in Python scalars; force the
    residual of y = L + A*C + B*S to vanish at 1/4 and 3/4, a 2x2 system
    pivoted once on C and S, with one right-hand side per L;
 4. sample each combined residual at s = 1/2, asymptotically the location of
    its maximum, and accept the step iff every sample is within tolerance.

The step is implicit, of order 2m in the residual, and the accepted solution
series at z1 is p + A*c + B*s (particular and homogeneous series), which by
linearity of the Taylor recurrence is again a solution series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import is_

import numpy as np
from numpy.polynomial import polynomial as P

from .blend import NODE_QUARTERS, basis_numerators, basis_rows
from .blendstring import _EXACT, Blendstring, _fmt
from .errors import SolveError
from .series import LocalTaylor, SeriesOracle, _taylor_columns, ode_taylor

__all__ = [
    "OdeProblem",
    "StepRecord",
    "SolveResult",
    "initial_series",
    "step",
    "solve_ivp",
    "sho_amplification",
    "sho_step_matrix",
    "stability_threshold",
]

_COND_LIMIT = 1e12
_MAX_RETRIES = 60
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class OdeProblem:
    """A linear second-order IVP y'' + a y' + b y = g along a polygonal path."""

    a: SeriesOracle
    b: SeriesOracle
    g: SeriesOracle
    path: tuple
    y0: complex
    y1: complex
    grade: int
    tol: float
    h_init: float | None = None
    h_min: float = 1e-10
    h_max: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(complex(w) for w in self.path))
        if len(self.path) < 2:
            raise ValueError("path needs at least two waypoints")
        for u, v in zip(self.path, self.path[1:]):
            if u == v:
                raise ValueError("consecutive waypoints must be distinct")
        if isinstance(self.grade, bool) or not isinstance(self.grade, (int, np.integer)):
            raise ValueError("grade must be an integer")
        if self.grade < 1:
            raise ValueError("grade must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not 0 < self.h_min <= self.h_max:
            raise ValueError("need 0 < h_min <= h_max")
        if self.h_init is not None and not self.h_init > 0:
            raise ValueError("h_init must be positive when given")


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics for one step attempt.

    ``noise_floor`` is the estimated smallest residual sample distinguishable
    from zero at working precision for this step's grade and length; a step
    is accepted when the sample is within tolerance or within that floor.
    A step that marches several solutions logs the residual and floor of its
    worst one, the largest sample relative to max(tol, floor).
    """

    z_from: complex
    z_to: complex
    h: float
    residual: float
    accepted: bool
    retries: int
    noise_floor: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    solution: Blendstring
    steps: tuple = field(default_factory=tuple)

    @property
    def accepted_steps(self) -> int:
        return sum(1 for s in self.steps if s.accepted)

    def step_log_csv(self) -> str:
        lines = ["index,re_from,im_from,re_to,im_to,h,residual,accepted,retries,noise_floor"]
        for i, s in enumerate(self.steps):
            lines.append(
                f"{i},{_fmt(s.z_from.real)},{_fmt(s.z_from.imag)},"
                f"{_fmt(s.z_to.real)},{_fmt(s.z_to.imag)},"
                f"{_fmt(s.h)},{_fmt(s.residual)},{int(s.accepted)},{s.retries},"
                f"{_fmt(s.noise_floor)}"
            )
        return "\n".join(lines) + "\n"


def initial_series(problem: OdeProblem) -> LocalTaylor:
    """Grade-m solution series from the initial data via the Taylor recurrence."""
    z0 = problem.path[0]
    m = problem.grade
    col = (problem.g(z0, m), problem.y0, problem.y1)
    return LocalTaylor(z0, _taylor_columns(problem.a(z0, m), problem.b(z0, m), [col], m)[0])


_columns_memo = None  # ((m, len(g), len(a), len(b)), (*g, *a, *b), coeffs) last kept


def _step_series(problem: OdeProblem, z0: complex, z1: complex, knowns: list):
    """Taylor coefficients at z1 and the blend coefficients of one collocation step.

    Returns (coeffs, X): the coefficient lists of the homogeneous and particular
    solution series c, s and p at z1, and the s-space coefficients of every blend
    of the step as the rows of X, (2 + K, 2m+2, 1) for K known series: C (zero data
    at z0 against c), S (against s), then one L per known series (known against p).
    The columns are reused while the oracles return the very same g, a and b objects
    (matched by identity, so reuse changes no bit or type): a constant-coefficient
    solve runs one recurrence.  Only int, float, complex and Fraction series are
    kept; mpmath ones are recomputed in each call's precision.
    """
    global _columns_memo
    m = problem.grade
    g, a, b = problem.g(z1, m), problem.a(z1, m), problem.b(z1, m)
    key, flat = (m, len(g), len(a), len(b)), (*g, *a, *b)
    memo = _columns_memo  # one read: a concurrent replacement can only make this a miss
    if memo and memo[0] == key and all(map(is_, flat, memo[1])):
        coeffs = memo[2]
    else:
        zero = (0j,) * (m + 1)
        coeffs = _taylor_columns(a, b, [(zero, 1.0, 0.0), (zero, 0.0, 1.0), (g, 0.0, 0.0)], m)
        if all(issubclass(t, _EXACT) for t in set(map(type, flat))):
            _columns_memo = key, flat, coeffs
    dj = np.array([1 + 0j] + [z1 - z0] * m).cumprod()
    X = np.zeros((2 + len(knowns), 2, m + 1), complex)
    X[:, 1] = coeffs[:2] + coeffs[2:] * len(knowns)  # c, s, then p in every L
    X[2:, 0] = [known.coeffs for known in knowns]
    X *= dj
    return coeffs, X.reshape(len(X), 2 * m + 2, 1)


@lru_cache(maxsize=None)
def _node_rows(m: int) -> tuple:
    """basis_rows(m) as complex (9, 2m+2) rows, indexed node * 3 + order, and their abs."""
    W = basis_rows(m).reshape(9, 2 * m + 2)
    return W.astype(complex), np.abs(W)


def _attempt(problem: OdeProblem, z0: complex, z1: complex, h: float, knowns: list,
             retries: int = 0):
    """One collocation step over [z0, z1] from each known series, logged with length h.

    Returns (record, series at z1 per known series).  The known series share
    C, S and the pivoted 2x2 elimination; each adds an L and a right-hand side,
    and its series and sample are bit for bit those of a one-series attempt.
    A singular or ill-conditioned 2x2 system, or a non-finite sample of any
    series, gives series None, an infinite residual and a zero floor.  The
    noise floor bounds the residual that mere roundoff produces in evaluating
    the blends from their double coefficients; the step is accepted iff every
    sample is within max(tol, its floor); the record logs the worst.
    """
    d = z1 - z0
    ad = abs(d)
    dd, ad2 = d * d, ad * ad
    coeffs, X = _step_series(problem, z0, z1, knowns)
    # one matrix-vector product with the exact basis rows per blend (row of X), so a blend
    # rounds alike however many share the attempt; V[blend][node * 3 + order] is its value,
    # E the dot-product bound gamma_(K+1) |rows| |x| (Higham, section 3.1); ops[blend][node]
    # is (value, roundoff bound) of y'' + a y' + b y - g in Python scalars, g in L only
    W, absW = _node_rows(problem.grade)
    V, E = (W @ X)[..., 0].tolist(), (absW @ np.abs(X))[..., 0].tolist()
    ku = (2 * problem.grade + 3) * _EPS / 2  # (K+1) u
    gamma, ops = ku / (1 - ku), [[] for _ in V]
    for k, z in enumerate(z0 + q / 4 * d for q in NODE_QUARTERS):
        a, b, g = (c(z, 0)[0] for c in (problem.a, problem.b, problem.g))
        abs_a, abs_b = abs(a), abs(b)
        for op, v, e, inhom in zip(ops, V, E, (0, 0) + (g,) * len(knowns)):
            (v0, v1, v2), (e0, e1, e2) = v[3 * k : 3 * k + 3], e[3 * k : 3 * k + 3]
            op.append((v2 / dd + a * (v1 / d) + b * v0 - inhom,
                       gamma * (e2 / ad2 + abs_a * e1 / ad + abs_b * e0) + _EPS * abs(inhom)))
    ((c1, ec1), (c2, ec2), (cm, ecm)), ((s1, es1), (s2, es2), (sm, esm)) = ops[:2]

    result, res, floor = None, math.inf, 0.0
    det = c1 * s2 - s1 * c2
    ninf = max(abs(c1) + abs(s1), abs(c2) + abs(s2))
    ninf_inv = max(abs(s2) + abs(s1), abs(c2) + abs(c1)) / abs(det) if det else math.inf
    if ninf * ninf_inv <= _COND_LIMIT:
        # 2x2 elimination with partial pivoting; the rows are C, S, -L
        swap = abs(c2) > abs(c1)
        (p1, q1), (p2, q2) = ((c2, s2), (c1, s1)) if swap else ((c1, s1), (c2, s2))
        f = p2 / p1
        denom = q2 - f * q1
        ecs = max(ec1 + es1, ec2 + es2)
        series, worst = [], (-1.0, math.inf, 0.0)  # (sample / max(tol, floor), sample, floor)
        for (l1, el1), (l2, el2), (lm, elm) in ops[2:]:
            r1, r2 = (-l2, -l1) if swap else (-l1, -l2)
            B = (r2 - f * r1) / denom
            A = (r1 - q1 * B) / p1
            sample = abs(lm + A * cm + B * sm)
            if not math.isfinite(sample):
                break
            # p + A c + B s in combine's arithmetic
            series.append(LocalTaylor(z1, [1.0 * p + 1.0 * (A * c + B * s)
                                           for c, s, p in zip(*coeffs)]))
            # noise floor of the sample: evaluation error of the combination plus
            # the wobble of (A, B) induced by the evaluation errors in the 2x2 system
            ab = max(abs(A), abs(B))
            d_ab = ninf_inv * (max(el1, el2) + ab * ecs)
            fl = (elm + abs(A) * ecm + abs(B) * esm + d_ab * (abs(cm) + abs(sm))
                  + _EPS * (abs(lm) + abs(A * cm) + abs(B * sm)))
            ratio = sample / max(problem.tol, fl)
            if ratio > worst[0]:
                worst = (ratio, sample, fl)
        else:
            result, (_, res, floor) = series, worst
    accepted = result is not None and res <= max(problem.tol, floor)
    return StepRecord(z0, z1, h, res, accepted, retries, floor), result


def step(problem: OdeProblem, from_knot: complex, known: LocalTaylor, h: float):
    """One tentative marching step of length h along the positive real direction.

    Returns (accepted, series_at_target, residual_sample); a singular or
    ill-conditioned collocation system comes back as a rejection with
    series None and an infinite residual.  ``known`` must have the
    problem's grade.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if known.grade != problem.grade:
        raise ValueError(f"known series has grade {known.grade}, problem has {problem.grade}")
    rec, result = _attempt(problem, from_knot, from_knot + complex(h), h, [known])
    return rec.accepted, None if result is None else result[0], rec.residual


def _grow(h: float, res: float, tol: float, order: int) -> float:
    # only for accepted steps above the noise floor, so 0 < res <= tol
    return h * min(2.0, 0.9 * (tol / res) ** (1.0 / order))


def _shrink(h: float, res: float, tol: float, order: int) -> float:
    if not math.isfinite(res):
        return 0.5 * h
    return h * max(0.1, 0.9 * (tol / res) ** (1.0 / order))


def solve_ivp(problem: OdeProblem) -> SolveResult:
    """March the problem along its path with adaptive stepsize control.

    Steps never straddle waypoints: the last step of each segment is clamped
    to land exactly on the waypoint.  The accepted per-step series assemble
    into the solution blendstring; every attempt is logged in the step list.
    On accept the stepsize grows by at most 2x, on reject it shrinks by at
    least 10x less than the order-matched estimate, and a shrink below h_min
    aborts with diagnostics.
    """
    (solution,), steps = _march(problem, [initial_series(problem)])
    return SolveResult(solution, steps)


def _march(problem: OdeProblem, starts: list) -> tuple:
    """solve_ivp's march of several start series on shared knots: (blendstrings, steps).

    Each attempt carries every solution, so the most demanding one sets the steps.
    """
    m = problem.grade
    order = 2 * m
    rows = [starts]
    steps: list[StepRecord] = []

    for w0, w1 in zip(problem.path, problem.path[1:]):
        seglen = abs(w1 - w0)
        direction = (w1 - w0) / seglen
        h = problem.h_init if problem.h_init is not None else min(problem.h_max, seglen / 8.0)
        h = min(max(h, problem.h_min), problem.h_max)
        pos = 0.0
        retries = 0
        while pos < seglen:
            z0 = rows[-1][0].knot
            rem = seglen - pos
            hs = min(h, rem)
            landing = hs >= rem * (1.0 - 1e-14)
            if landing:
                hs = rem
                z1 = w1
            else:
                z1 = z0 + hs * direction
            rec, result = _attempt(problem, z0, z1, hs, rows[-1], retries)
            steps.append(rec)
            res, teff = rec.residual, max(problem.tol, rec.noise_floor)
            if rec.accepted:
                rows.append(result)
                pos = seglen if landing else pos + hs
                retries = 0
                # a sample at the noise floor carries no size information;
                # grow decisively instead of trusting the ratio
                grown = 2.0 * hs if res <= rec.noise_floor else _grow(hs, res, teff, order)
                h = min(max(grown, problem.h_min), problem.h_max)
            else:
                retries += 1
                h = _shrink(hs, res, teff, order)
                if h < problem.h_min or retries > _MAX_RETRIES:
                    raise SolveError(
                        f"step from {z0!r} rejected down to h={h:.3e} "
                        f"(h_min={problem.h_min:.3e}, residual={res:.3e}, "
                        f"tol={problem.tol:.3e}, retries={retries})"
                    )
    return [Blendstring(list(col)) for col in zip(*rows)], tuple(steps)


# -- harmonic-oscillator step analysis ---------------------------------------


@lru_cache(maxsize=None)
def _sho_rationals(m: int) -> tuple:
    """(N, D, P, Q), Fraction coefficients in x = nu^2, of the grade-m step for y'' + y = 0.

    A step of length nu is exact rational arithmetic: the blend coefficients
    are the Taylor coefficients of cos and sin times nu^j, nu^2 times the
    residual at a node is H'' + nu^2 H, and Cramer's rule solves the 2x2
    system.  The step matrix is [[N, nu P], [nu Q, N]] / D with determinant
    1, and D has positive coefficients, so no step with nu > 0 is singular.
    """
    den = np.array([Fraction(1, 4 ** (2 * m + 1 - d)) for d in range(3)])
    rows = basis_numerators(m)[:2] * den[:, None]
    f0, f1 = Fraction(0), Fraction(1)
    zero, one = LocalTaylor(0, (f0,) * (m + 1)), LocalTaylor(0, (f1,) + (f0,) * m)
    cos, sin = (np.array(ode_taylor(zero, one, zero, *y, m).coeffs) for y in ((f1, f0), (f0, f1)))

    def residuals(cols, t):
        """nu^2 times the residual at s = 1/4, 3/4 of the blend with t_j nu^j in cols."""
        h, h2 = (rows[:, d, cols] * t for d in (0, 2))
        return [P.polyadd(h2[i], np.r_[0, 0, h[i]]) for i in range(2)]

    def cross(u, v):
        return P.polysub(P.polymul(u[0], v[1]), P.polymul(v[0], u[1]))

    left, right = slice(0, m + 1), slice(m + 1, None)
    c, s, lc, ls = (residuals(cols, t) for cols in (right, left) for t in (cos, sin))
    # cross(c, s) and cross(s, lc) are odd in nu, the other two nu^2 times even
    return cross(s, lc)[1::2], cross(c, s)[1::2], cross(s, ls)[2::2], cross(lc, c)[2::2]


@lru_cache(maxsize=None)
def _sho_floats(m: int) -> tuple:
    return tuple(np.array(c, dtype=float) for c in _sho_rationals(m))


def sho_step_matrix(m: int, nu: float) -> np.ndarray:
    """The 2x2 matrix mapping (y, y') across one collocation step for y'' + y = 0.

    The grade's exact step rationals evaluated in double; M[1, 1] is M[0, 0].
    For nu > 1 each polynomial c is evaluated reversed in r^2, r = 1/nu, which
    is c(x) / x^(len(c) - 1); N has the degree of D, P and Q that or one less, so
    nu P / D is nu or r times a ratio of those values, and nothing overflows.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, not {nu!r}")
    polys = _sho_floats(m)
    if nu > 1:
        r = 1 / nu
        n, d, p, q = (P.polyval(r * r, c[::-1]) for c in polys)
        p, q = ((nu if len(c) == len(polys[1]) else r) * (v / d) for c, v in zip(polys[2:], (p, q)))
    else:
        n, d, p, q = (P.polyval(nu * nu, c) for c in polys)
        p, q = nu * p / d, nu * q / d
    return np.array([[n / d, p], [q, n / d]], dtype=complex)


def sho_amplification(m: int, nu: float) -> tuple:
    """Cosine/sine analogues (C_m, S_m) of one collocation step for y'' + y = 0.

    C_m is the common diagonal entry of the step matrix.  The two
    off-diagonal entries agree with +-S_m only to higher order, but their
    product is what the eigenvalues see, so S_m is returned as the signed
    geometric mean sqrt(M12 * -M21); with that convention C_m^2 + S_m^2 = 1
    holds to roundoff wherever |C_m| <= 1, and the step matrix has
    characteristic polynomial lambda^2 - 2 C_m lambda + 1.  Inside the narrow
    instability windows (|C_m| > 1) the off-diagonal product goes negative
    and |S_m| is returned as sqrt of its absolute value.
    """
    M = sho_step_matrix(m, nu)
    prod = (-M[0, 1] * M[1, 0]).real
    return M[0, 0].real, math.copysign(math.sqrt(abs(prod)), M[0, 1].real)


def stability_threshold(m: int) -> float:
    """Smallest positive nu with C_m(nu)^2 = 1, the onset of instability.

    C_m^2 - 1 = (N - D)(N + D) / D^2 in x = nu^2.  The first root of
    (N - D)(N + D) / x in (0, (4 pi)^2] is bracketed to 2^-60 by bisection on
    dyadic rationals, each half tested by an exact Sturm count (Basu, Pollack
    & Roy, Algorithms in Real Algebraic Geometry, section 2.2), so no
    instability window is too narrow to find.  Supported for 1 <= m <= 6.
    """
    if not 1 <= m <= 6:
        raise ValueError("stability_threshold supports 1 <= m <= 6")
    n, d = _sho_rationals(m)[:2]
    seq = [np.trim_zeros(P.polymul(P.polysub(n, d), P.polyadd(n, d)), "f")]
    seq.append(P.polyder(seq[0]))
    while len(seq[-1]) > 1 and any(rem := P.polydiv(seq[-2], seq[-1])[1]):
        seq.append(-rem)
    # at x = k / 2^e each c(x) has the sign of the integer 2^(e deg) lcm c(x)
    e, ints = 60, []
    for c in seq:
        c = c * math.lcm(*(a.denominator for a in c))
        ints.append(np.array([int(a) << e * (len(c) - 1 - i) for i, a in enumerate(c)], object))

    def variations(k: int) -> int:
        vals = [v for v in (P.polyval(k, c) for c in ints) if v]
        return sum((u > 0) != (v > 0) for u, v in zip(vals, vals[1:]))

    lo, hi = 0, int((4 * math.pi) ** 2 * 2**e)
    v0 = variations(0)  # also the count at lo: no root lies in (0, lo]
    if variations(hi) == v0:
        raise SolveError(f"no instability onset found in (0, 4*pi) for m={m}")
    while hi - lo > 1:  # the first root lies in (lo, hi]
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if variations(mid) < v0 else (mid, hi)
    return math.sqrt(hi / 2**e)
