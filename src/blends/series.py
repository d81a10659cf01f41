"""Truncated Taylor polynomials at a knot, and arithmetic on them.

A *series oracle* is any callable ``oracle(point, grade)`` returning exactly
``grade + 1`` Taylor coefficients of some function about ``point``.  Oracles
are the package-wide way of supplying functions whose local series can be
generated on demand.

Coefficients may be any complex-like scalars (python ``complex`` by default;
arbitrary-precision types work as long as they support field arithmetic and
``abs``).  The word *grade* means "degree at most": leading coefficients may
be zero.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

from .errors import CompatibilityError, SeriesDivisionError

SeriesOracle = Callable[[complex, int], Sequence[complex]]


@dataclass(frozen=True)
class LocalTaylor:
    """A knot together with grade+1 Taylor coefficients about it.

    Represents c0 + c1*(z-knot) + ... + c_g*(z-knot)**g.  Immutable; all
    arithmetic returns new instances.
    """

    knot: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("a LocalTaylor needs at least one coefficient")

    @property
    def grade(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "LocalTaylor":
        """Formal derivative, one grade lower (grade 0 maps to the zero constant)."""
        if self.grade == 0:
            return LocalTaylor(self.knot, (0.0 * self.coeffs[0],))
        return LocalTaylor(
            self.knot, tuple((j + 1) * c for j, c in enumerate(self.coeffs[1:]))
        )


def horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + ... + coeffs[-1] x^(len-1), one multiply-add per term."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def taylor_shift(coeffs, x, count: int) -> list:
    """Taylor coefficients 0..count-1 about x of the polynomial coeffs (ascending powers).

    Coefficient k, sum_i C(i, k) coeffs[i] x^(i-k), is the k-th remainder of
    synthetic division by (z - x): horner's loop, whose partial sums are the
    quotient, so entry 0 is horner(coeffs, x) bit for bit.  Past the degree
    come +0s in the arithmetic of coeffs and x.
    """
    out, work = [], coeffs[::-1]  # highest power first, as horner runs
    while work and len(out) < count:
        acc, quotient = work[0], []
        for c in work[1:]:
            quotient.append(acc)
            acc = acc * x + c
        out.append(acc)
        work = quotient
    if len(out) < count:
        out += [(x - x) + (coeffs[-1] - coeffs[-1])] * (count - len(out))
    return out


def zero_series(knot: complex, grade: int) -> LocalTaylor:
    return LocalTaylor(knot, (0j,) * (grade + 1))


def one_series(knot: complex, grade: int) -> LocalTaylor:
    return LocalTaylor(knot, (1.0 + 0j,) + (0j,) * grade)


def _check_compatible(x: LocalTaylor, y: LocalTaylor) -> None:
    if x.knot != y.knot:
        raise CompatibilityError(f"knot mismatch: {x.knot} vs {y.knot}")
    if x.grade != y.grade:
        raise CompatibilityError(f"grade mismatch: {x.grade} vs {y.grade}")


def combine(x: LocalTaylor, y: LocalTaylor, alpha=1.0, beta=1.0) -> LocalTaylor:
    """alpha*x + beta*y, coefficientwise. Knots and grades must match."""
    _check_compatible(x, y)
    return LocalTaylor(
        x.knot, tuple(alpha * a + beta * b for a, b in zip(x.coeffs, y.coeffs))
    )


def mul(x: LocalTaylor, y: LocalTaylor) -> LocalTaylor:
    """Cauchy product truncated at the shared grade.

    The truncation is deliberate: the result represents the product function
    to the working grade, not the full-degree polynomial product.
    """
    _check_compatible(x, y)
    a, b = x.coeffs, y.coeffs
    out = [reduce(operator.add, map(operator.mul, a[: j + 1], b[j::-1]), 0) for j in range(len(a))]
    return LocalTaylor(x.knot, tuple(out))


def div(x: LocalTaylor, y: LocalTaylor) -> LocalTaylor:
    """Series long division truncated at the shared grade.

    Requires a nonzero constant term in the divisor; otherwise the quotient
    would need Laurent data, which this package refuses to fabricate.
    """
    _check_compatible(x, y)
    if abs(y.coeffs[0]) == 0:
        raise SeriesDivisionError("divisor has zero constant term")
    return LocalTaylor(x.knot, _quotient(x.coeffs, y.coeffs))


def _quotient(a, b) -> list:
    """Coefficients of the series quotient a / b to len(a) terms; b[0] must be nonzero."""
    q = []
    for j in range(len(a)):
        acc = a[j]
        for i in range(1, j + 1):
            acc = acc - b[i] * q[j - i]
        q.append(acc / b[0])
    return q


def compose(outer_oracle: SeriesOracle, inner: LocalTaylor) -> LocalTaylor:
    """Series of f(inner(z)) about inner.knot, f supplied as a series oracle.

    The outer function is expanded about c0 = inner.coeffs[0] and the tail of
    ``inner`` (which has zero constant term) is substituted by truncated
    Horner evaluation in series arithmetic.
    """
    g = inner.grade
    c0 = inner.coeffs[0]
    d = tuple(outer_oracle(c0, g))
    if len(d) != g + 1:
        raise ValueError(f"oracle returned {len(d)} coefficients, wanted {g + 1}")
    w = LocalTaylor(inner.knot, (0.0 * c0,) + inner.coeffs[1:])
    acc = LocalTaylor(inner.knot, (d[g],) + (0j,) * g)
    for k in range(g - 1, -1, -1):
        acc = mul(acc, w)
        acc = LocalTaylor(inner.knot, (acc.coeffs[0] + d[k],) + acc.coeffs[1:])
    return acc


def ode_taylor(
    a_series: LocalTaylor,
    b_series: LocalTaylor,
    g_series: LocalTaylor,
    y0,
    y1,
    grade: int,
) -> LocalTaylor:
    """Taylor series of the solution of y'' + a(x) y' + b(x) y = g(x).

    ``a_series``, ``b_series`` and ``g_series`` are local series of the
    coefficient functions at a shared knot; ``y0``/``y1`` are the value and
    first derivative of the solution there.  Coefficients follow from

        (j+2)(j+1) c_{j+2} = g_j - sum_{l<=j} [ a_l (j-l+1) c_{j-l+1} + b_l c_{j-l} ]

    which costs O(grade^2) scalar operations, O(grade k) if a and b have degree k.
    """
    if grade < 0:
        raise ValueError("grade must be nonnegative")
    if a_series.knot != b_series.knot or a_series.knot != g_series.knot:
        raise CompatibilityError("coefficient series must share a knot")
    (c,) = _taylor_columns(a_series.coeffs, b_series.coeffs, [(g_series.coeffs, y0, y1)], grade)
    return LocalTaylor(a_series.knot, tuple(c))


def _taylor_columns(a, b, columns, grade: int) -> list:
    """ode_taylor's coefficients for each column (g, y0, y1) that shares a and b.

    The inner sum stops at the last nonzero coefficient of a and of b, and a
    column with zero g and data runs none of it.  The terms left out are exact
    zeros and each l still subtracts its a-term first, so the result equals
    the full sum's (bar the sign of a zero where g holds a -0.0).
    """
    need = max(0, grade - 2)
    for s, name in ((a, "a"), (b, "b"), *((g, "g") for g, _, _ in columns)):
        if len(s) <= need:
            raise ValueError(f"{name}-series grade {len(s) - 1} is too small; need at least {need}")
    na, nb = (max((l + 1 for l, x in enumerate(s[: grade - 1]) if x), default=0) for s in (a, b))
    out = []
    for g, y0, y1 in columns:
        c = [y + 0j if isinstance(y, (int, float)) else y for y in (y0, y1)][: grade + 1]
        c += [0j] * (grade - 1)
        top = max(na, nb) if y0 or y1 or any(g) else 0
        for j in range(grade - 1):
            acc = g[j]
            for l in range(min(j + 1, top)):
                if l < na:
                    acc = acc - a[l] * (j - l + 1) * c[j - l + 1]
                if l < nb:
                    acc = acc - b[l] * c[j - l]
            c[j + 2] = acc / ((j + 2) * (j + 1))
        out.append(c)
    return out
