"""Series oracle for the reciprocal gamma function, at any complex point.

The series at a point a is obtained from the functional equation: shift a up
by an integer N until the argument is safely inside the right half plane,

    rgamma(a + t) = (a + t)(a + 1 + t) ... (a + N - 1 + t) * rgamma(a + N + t),

expand rgamma about the shifted point b = a + N through the logarithmic
derivative (a polygamma series: the digamma value from scipy.special.psi,
the rest from Euler-Maclaurin Hurwitz zeta sums), exponentiate the series,
and multiply the exact linear factors back down.  Knots at the zeros of
rgamma (nonpositive integers) come out with an exactly zero constant term
because the vanishing linear factor is explicit.
"""

from __future__ import annotations

import math

import scipy.special as _sp

__all__ = ["recip_gamma_series", "recip_gamma_oracle", "hurwitz_zeta"]

# Bernoulli numbers B_2 .. B_14; enough correction terms for ~1e-16 with _NTERMS = 32
_BERN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_NTERMS = 32


def hurwitz_zeta(s: int, b: complex) -> complex:
    """Hurwitz zeta sum_{k>=0} (b+k)^-s for integer s >= 2, Re(b) > 0.

    Direct summation of _NTERMS terms plus Euler-Maclaurin tail corrections.
    """
    if s < 2:
        raise ValueError("need integer s >= 2")
    b = complex(b)
    tot = 0j
    for k in range(_NTERMS):
        tot += (b + k) ** (-s)
    big = b + _NTERMS
    tot += big ** (1.0 - s) / (s - 1.0)
    tot += 0.5 * big ** (-s)
    poch = float(s)
    for j, b2j in enumerate(_BERN, start=1):
        tot += b2j / math.factorial(2 * j) * poch * big ** (-s - 2 * j + 1.0)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return tot


def recip_gamma_series(a: complex, grade: int) -> list:
    """Taylor coefficients of 1/Gamma about a, length grade+1."""
    if grade < 0:
        raise ValueError("grade must be nonnegative")
    a = complex(a)
    nshift = max(0, math.ceil(2.5 - a.real))
    b = a + nshift

    # log-derivative series of rgamma at b: L_k = -psi^(k-1)(b)/k!
    logd = [0j, -complex(_sp.psi(b))]
    for k in range(2, grade + 2):
        # psi^(k-1)(b) = (-1)^k (k-1)! zeta(k, b); divided by k! that is (-1)^k zeta(k,b)/k
        logd.append(-((-1.0) ** k) * hurwitz_zeta(k, b) / k)
    # exponentiate: E' = L' E with E_0 = 1
    ser = [1.0 + 0j]
    for j in range(1, grade + 2):
        acc = 0j
        for i in range(1, j + 1):
            acc += i * logd[i] * ser[j - i]
        ser.append(acc / j)
    f_b = 1.0 / complex(_sp.gamma(b))
    ser = [f_b * c for c in ser[: grade + 1]]
    # multiply the linear factors (a + j + t) back down, truncating at grade
    for j in range(nshift - 1, -1, -1):
        root = a + j
        shifted = [0j] + ser[:grade]
        ser = [root * c + d for c, d in zip(ser, shifted)]
    return ser


def recip_gamma_oracle(point: complex, grade: int) -> list:
    """Series-oracle entry point for 1/Gamma."""
    return recip_gamma_series(point, grade)
