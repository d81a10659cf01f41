"""Independent references: closed forms, scipy special functions, stored mpmath values.

Nothing here imports ``blends``.  Every op's output is compared with one of
these, so a wrong result cannot pass by agreeing with itself.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sp
from numpy.polynomial import polynomial as P

# exact C_m(nu) of one collocation step for y'' + y = 0, m = 1..3
C_RATIONALS = {
    1: lambda v: (57 * v**4 - 1408 * v**2 + 3072) / (9 * v**4 + 128 * v**2 + 3072),
    2: lambda v: -2 * (33 * v**6 - 4059 * v**4 + 84480 * v**2 - 184320)
    / (3 * (3 * v**6 + 146 * v**4 + 5120 * v**2 + 122880)),
    3: lambda v: (25 * v**8 - 9016 * v**6 + 676560 * v**4 - 12072960 * v**2 + 25804800)
    / (3 * v**8 + 304 * v**6 + 16080 * v**4 + 829440 * v**2 + 25804800),
}
# the published digits of the first double point on the imaginary-q axis
DOUBLE_POINT_PUBLISHED = (2.0886989, 1.4687686j)


def deriv(name: str, z, k: int, coeffs=None):
    """k-th derivative of a named function at z (array or scalar).

    ``poly`` and ``recip`` take ascending polynomial coefficients; reciprocal
    gamma has closed forms only for k <= 1 (through the digamma function).
    """
    z = np.asarray(z, dtype=complex)
    if name == "exp":
        return np.exp(z)
    if name == "sin":
        return np.sin(z + k * math.pi / 2)
    if name == "cos":
        return np.cos(z + k * math.pi / 2)
    if name == "poly":
        return P.polyval(z, P.polyder(coeffs, k)) if k else P.polyval(z, coeffs)
    if name == "recip":
        p = P.polyval(z, coeffs)
        if k == 0:
            return 1 / p
        if k == 1:
            return -P.polyval(z, P.polyder(coeffs)) / p**2
    if name == "rgamma":
        if k == 0:
            return sp.rgamma(z)
        if k == 1:
            return -sp.psi(z) * sp.rgamma(z)
    raise ValueError(f"no closed form for derivative {k} of {name}")


def antiderivative(name: str, z, coeffs=None):
    z = np.asarray(z, dtype=complex)
    if name == "exp":
        return np.exp(z)
    if name == "sin":
        return -np.cos(z)
    if name == "cos":
        return np.sin(z)
    if name == "poly":
        return P.polyval(z, P.polyint(coeffs))
    raise ValueError(f"no closed-form antiderivative for {name}")


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def path_integral(name: str, knots, coeffs=None) -> complex:
    """Integral along the polygon through the knots.

    Closed form where one exists; otherwise 24-point Gauss-Legendre on each
    segment, exact to roundoff for an entire function over short segments.
    """
    knots = np.asarray(knots, dtype=complex)
    if name != "rgamma":
        F = antiderivative(name, knots[[0, -1]], coeffs)
        return complex(F[1] - F[0])
    a, b = knots[:-1, None], knots[1:, None]
    z = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X[None, :]
    vals = sp.rgamma(z) @ _GL_W
    return complex(np.sum(0.5 * (knots[1:] - knots[:-1]) * vals))


def airy(z, alpha, beta):
    """(y, y') of y = alpha Ai + beta Bi, the solutions of y'' = z y."""
    ai, aip, bi, bip = sp.airy(np.asarray(z, dtype=complex))
    return alpha * ai + beta * bi, alpha * aip + beta * bip


def constant_coefficient(z, z0, a, b, g, y0, y1):
    """(y, y') of y'' + a y' + b y = g with y(z0) = y0, y'(z0) = y1 (distinct roots)."""
    disc = np.sqrt(complex(a * a - 4 * b))
    r1, r2 = (-a + disc) / 2, (-a - disc) / 2
    yp = g / b
    # A + B = y0 - yp, r1 A + r2 B = y1
    B = (y1 - r1 * (y0 - yp)) / (r2 - r1)
    A = y0 - yp - B
    t = np.asarray(z, dtype=complex) - z0
    e1, e2 = np.exp(r1 * t), np.exp(r2 * t)
    return yp + A * e1 + B * e2, r1 * A * e1 + r2 * B * e2


def even_values(q: complex, size: int = 40) -> np.ndarray:
    """Lowest two even pi-periodic Mathieu characteristic values, from numpy alone."""
    M = np.diag([4.0 * k * k for k in range(size)]).astype(complex)
    off = np.full(size - 1, q, dtype=complex)
    off[0] = math.sqrt(2.0) * q
    M += np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvals(M)
    return np.array(sorted(ev, key=lambda z: z.real)[:2])
