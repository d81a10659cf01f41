"""A single two-point Hermite blend and its kernel operations.

A blend of grades (m, n) is the unique polynomial of grade m+n+1 in the
scaled variable s whose Taylor coefficients at s=0 match p_0..p_m and at s=1
match q_0..q_n:

    H(s) = sum_{j<=m} [ sum_{k<=m-j} C(n+k,k) s^(k+j) ] (1-s)^(n+1) p_j
         + sum_{j<=n} [ sum_{k<=n-j} C(m+k,k) (1-s)^(k+j) ] s^(m+1) (-1)^j q_j

The p half's bracket, summed over j, is p(s)/(1-s)^(n+1) truncated at
grade m, and dividing by 1-s is a running sum, so Blend.power_coeffs is n+1
(and m+1) running sums of the coefficients, taken once in their own
arithmetic.  It is the one polynomial form the kernels read: a value is one
Horner loop per half, a derivative jet the same formula re-expanded about s
by series.taylor_shift.  Any non-finite intermediate or result aborts
evaluation with EvalOverflowError rather than letting inf/nan escape.

The kernel accepts a scalar s or a numpy array of s values; all arithmetic
is duck-typed, so exotic scalar types work for scalar s.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import EvalOverflowError
from .series import LocalTaylor, horner, taylor_shift

__all__ = [
    "Blend",
    "blend_eval",
    "blend_eval_derivs",
    "basis_rows",
    "blend_integrate",
    "blend_condition_integral",
    "lebesgue_function",
    "truncation_factor",
]


def _all_finite(x) -> bool:
    if type(x) is float or type(x) is complex:
        return cmath.isfinite(x)
    try:
        return bool(np.all(np.isfinite(x)))
    except TypeError:
        try:
            return all(math.isfinite(float(abs(v))) for v in np.ravel(x))
        except (OverflowError, ValueError):
            return False


@dataclass(frozen=True)
class Blend:
    """Two local Taylor records interpreted in the scaled variable.

    ``left.coeffs`` are the p_j and ``right.coeffs`` the q_j of the blend
    formula; the knots only record the segment endpoints (z = a + s(b-a)).
    Use :meth:`from_taylor` to build a blend from z-space Taylor data, which
    rescales coefficient j by (b-a)**j.
    """

    left: LocalTaylor
    right: LocalTaylor

    def __post_init__(self):
        if np.any(self.left.knot == self.right.knot):  # knots may be arrays of segments
            raise ValueError("blend endpoints must be distinct knots")

    @property
    def m(self) -> int:
        return self.left.grade

    @property
    def n(self) -> int:
        return self.right.grade

    @cached_property
    def power_coeffs(self) -> tuple:
        """(e, f): p/(1-s)^(n+1) and (-1)^j q_j/(1-t)^(m+1) truncated at grades m and n."""
        e = self.left.coeffs
        f = tuple(c if j % 2 == 0 else -c for j, c in enumerate(self.right.coeffs))
        with np.errstate(over="ignore", invalid="ignore"):  # array data: the check below raises
            for _ in range(self.n + 1):
                e = tuple(accumulate(e))
            for _ in range(self.m + 1):
                f = tuple(accumulate(f))
        last = np.asarray([e[-1], f[-1]])  # inf/nan carry to the last sums; only floats overflow
        if last.dtype.kind in "fc" and not np.isfinite(last).all():
            raise OverflowError("power coefficients overflowed")
        return e, f

    @classmethod
    def from_taylor(cls, left: LocalTaylor, right: LocalTaylor) -> "Blend":
        """Build the blend of two z-space Taylor records over [left.knot, right.knot]."""
        d = right.knot - left.knot  # one d^j table; from the int 1 it keeps the records' arithmetic
        dj = list(accumulate([d] * max(left.grade, right.grade), operator.mul, initial=1))
        return cls(*(LocalTaylor(rec.knot, [c * p for c, p in zip(rec.coeffs, dj)])
                     for rec in (left, right)))


def blend_eval(b: Blend, s):
    """Value of the blend at scaled parameter s (scalar or array).

    Accuracy is only guaranteed for s in [0,1] (or very near it in the
    complex plane); off the segment the truncation error grows rapidly.
    """
    try:
        e, f = b.power_coeffs  # m + 1 and n + 1 entries
        out = (1 - s) ** len(f) * horner(e, s) + s ** len(e) * horner(f, 1 - s)
    except OverflowError as exc:
        raise EvalOverflowError(f"blend of grades ({b.m},{b.n}) overflowed") from exc
    if not _all_finite(out):
        raise EvalOverflowError(f"blend of grades ({b.m},{b.n}) produced non-finite values")
    return out


def blend_eval_derivs(b: Blend, s, nder: int):
    """[H(s), H'(s), ..., H^(nder)(s)], derivatives with respect to s.

    blend_eval's formula re-expanded about s: each half is the binomial
    expansion of its linear-factor power times the taylor_shift of its power
    coefficients, so entry 0 is blend_eval(b, s) bit for bit for scalar s.
    Derivatives with respect to z follow by dividing entry k by span**k;
    the blendstring layer applies that conversion.
    """
    if nder < 0:
        raise ValueError("nder must be nonnegative")
    m, n = b.m, b.n
    t = 1 - s

    def half(coeffs, x, y, power, sign):
        """Jet of y^power * horner(coeffs, x), x moving by sign*ds and y = 1 - x by -sign*ds."""
        lin = [y**power] + [  # y**power alone, as blend_eval takes it
            math.comb(power, i) * (-sign) ** i * y ** (power - i)
            for i in range(1, min(power, nder) + 1)
        ]
        shift = taylor_shift(coeffs, x, nder + 1)
        if sign < 0:
            shift = [c if k % 2 == 0 else -c for k, c in enumerate(shift)]
        return [
            reduce(operator.add, map(operator.mul, lin[: k + 1], shift[k::-1]))
            for k in range(nder + 1)
        ]

    try:
        e, f = b.power_coeffs
        jet = [u + v for u, v in zip(half(e, s, t, n + 1, 1), half(f, t, s, m + 1, -1))]
    except OverflowError as exc:
        raise EvalOverflowError(f"blend of grades ({m},{n}) overflowed") from exc
    out = [v * math.factorial(k) if k > 1 else v for k, v in enumerate(jet)]
    for v in out:
        if not _all_finite(v):
            raise EvalOverflowError(
                f"blend of grades ({m},{n}) produced non-finite derivatives"
            )
    return out


NODE_QUARTERS = (1, 3, 2)  # basis_rows' nodes s = k/4: collocation at 1/4, 3/4, sample at 1/2


@lru_cache(maxsize=None)
def basis_rows(m: int) -> np.ndarray:
    """H, H', H'' of every basis polynomial of a grade-(m, m) blend at s = 1/4, 3/4, 1/2.

    Returns a read-only (3 nodes, 3 orders, 2m+2) array whose columns are
    p_0..p_m, then q_0..q_m with their (-1)^j sign, so that for coefficient
    tuples p and q, ``rows[i, k] @ (p + q)`` is blend_eval_derivs(b, s_i, 2)[k].
    Every basis polynomial has integer power coefficients, so each entry is
    an integer over a power of 4 (see basis_numerators), rounded to double
    once by int / int.
    """
    den = np.array([4 ** (2 * m + 1 - d) for d in range(3)], dtype=object)
    rows = np.array(basis_numerators(m) / den[:, None], dtype=float)
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def basis_numerators(m: int) -> np.ndarray:
    """basis_rows(m) exactly: [node, d, col] times 4^(2m+1-d), a read-only array of ints."""
    if m < 0:
        raise ValueError("grade must be nonnegative")
    top = 2 * m + 1
    # U_r = (1-s)^(m+1) sum_{k<=r} C(m+k,k) s^k in powers of s, for r = 0..m
    one_minus = [(-1) ** i * math.comb(m + 1, i) for i in range(m + 2)]
    u, polys = [0] * (top + 1), []
    for r in range(m + 1):
        c = math.comb(m + r, r)
        for i, a in enumerate(one_minus):
            u[r + i] += c * a
        polys.append(list(u))
    # the basis polynomial of p_j is s^j U_(m-j)
    basis = np.array([[0] * j + polys[m - j][: top + 1 - j] for j in range(m + 1)], dtype=object)
    # its d-th derivative at k/4 is sum_i c_i i!/(i-d)! k^(i-d) 4^(top-i) over 4^(top-d)
    weights = np.array(
        [
            [math.perm(i, d) * k ** max(i - d, 0) * 4 ** (top - i) for k in (1, 2, 3)
             for d in range(3)]
            for i in range(top + 1)
        ],
        dtype=object,
    )
    num = (basis @ weights).reshape(m + 1, 3, 3)
    out = np.empty((3, 3, 2 * m + 2), dtype=object)
    for node, k in enumerate(NODE_QUARTERS):
        for d in range(3):  # the q basis with its sign is (-1)^j times the p basis at 1 - s
            out[node, d, : m + 1] = num[:, k - 1, d]
            out[node, d, m + 1 :] = [(-1) ** (j + d) * v for j, v in enumerate(num[:, 3 - k, d])]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _integral_weights(m: int, n: int) -> tuple:
    """Weights of p_0..p_m, q_0..q_n ((-1)^j folded in) in the integral: Fractions, floats.

    w_0 = (g+1)/(m+n+2), w_j = w_(j-1) j (g-j+1) / ((j+1) (m+n-j+2)) with g the side's grade.
    """
    exact = []
    for side, g in enumerate((m, n)):
        w = Fraction(g + 1, m + n + 2)
        for j in range(g + 1):
            exact.append(-w if side and j % 2 else w)
            w *= Fraction((j + 1) * (g - j), (j + 2) * (m + n - j + 1))
    return tuple(exact), tuple(map(float, exact))


def blend_integrate(b: Blend):
    """Exact integral of the blend over s in [0,1]; the z-space integral is span times this.

    Float and complex coefficients take correctly rounded weights, any other
    type (mpmath, Fraction, int) the exact ones, so wider arithmetic keeps its digits.
    """
    coeffs = b.left.coeffs + b.right.coeffs
    exact, rounded = _integral_weights(b.m, b.n)
    weights = rounded if np.asarray(coeffs[0]).dtype.kind in "fc" else exact
    return reduce(operator.add, map(operator.mul, weights, coeffs), 0)


def blend_condition_integral(m: int, n: int) -> float:
    """Integral of the blend of the all-ones / alternating-sign coefficient data.

    Bounds the integration error under coefficientwise perturbations.  Equal
    to 2*Psi(n+m+3) - Psi(m+3) - Psi(n+3) + (n+m+4)/((n+2)(m+2)); only
    differences of digamma values at integers appear, so it is computed from
    harmonic-number differences and the Euler constant cancels.  For m = n it
    tends to 2*ln 2 from below like 2*ln2 - 1/(2m).
    """
    if m < 0 or n < 0:
        raise ValueError("grades must be nonnegative")
    terms = [1.0 / k for lo in (m + 3, n + 3) for k in range(lo, m + n + 3)]
    return math.fsum(terms + [(n + m + 4) / ((n + 2) * (m + 2))])  # same bits on every Python


def lebesgue_function(m: int, n: int, s):
    """Sum of absolute values of the two-point Hermite basis at s.

    One blend_eval_derivs call whose coefficients are the columns of the
    identity, so row j of its result is basis polynomial j at every s.  For
    balanced grades it stays at or below 2 on [0,1].
    """
    if m < 0 or n < 0:
        raise ValueError("grades must be nonnegative")
    eye = np.eye(m + n + 2)[:, :, None]
    unit = Blend(LocalTaylor(0.0, eye[: m + 1]), LocalTaylor(1.0, eye[m + 1 :]))
    s = np.asarray(s)
    (basis,) = blend_eval_derivs(unit, s.reshape(1, -1), 0)
    return np.abs(basis).sum(axis=0).reshape(s.shape)[()]  # [()]: scalar for scalar s


def truncation_factor(m: int, n: int) -> float:
    """max over [0,1] of s^(m+1) (1-s)^(n+1), the grade-dependent error factor.

    The maximum sits at s = (m+1)/(m+n+2) (by differentiation) and equals
    (m+1)^(m+1) (n+1)^(n+1) / (m+n+2)^(m+n+2), which for m = n reduces to
    2^(-2(m+1)).  Evaluated in log space to dodge overflow at large grades.
    """
    if m < 0 or n < 0:
        raise ValueError("grades must be nonnegative")
    a, c, t = m + 1, n + 1, m + n + 2
    return math.exp(a * math.log(a) + c * math.log(c) - t * math.log(t))
