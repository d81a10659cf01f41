"""Frozen reference values shared by the unit and acceptance tests."""

from functools import lru_cache

import mpmath

from blends.blend import Blend, blend_eval_derivs
from blends.series import LocalTaylor


def sho_cosine_rational_m1(nu: float) -> float:
    return (57 * nu**4 - 1408 * nu**2 + 3072) / (9 * nu**4 + 128 * nu**2 + 3072)


def sho_cosine_rational_m2(nu: float) -> float:
    return (
        -2
        * (33 * nu**6 - 4059 * nu**4 + 84480 * nu**2 - 184320)
        / (3 * (3 * nu**6 + 146 * nu**4 + 5120 * nu**2 + 122880))
    )


def sho_cosine_rational_m3(nu: float) -> float:
    return (
        25 * nu**8 - 9016 * nu**6 + 676560 * nu**4 - 12072960 * nu**2 + 25804800
    ) / (3 * nu**8 + 304 * nu**6 + 16080 * nu**4 + 829440 * nu**2 + 25804800)


SHO_COSINE_RATIONALS = {
    1: sho_cosine_rational_m1,
    2: sho_cosine_rational_m2,
    3: sho_cosine_rational_m3,
}

# first positive zero of C_m^2 - 1 as a fraction of pi
STABILITY_THRESHOLDS = {1: 0.94035, 2: 0.99817, 3: 0.99997}

# integral of the reciprocal gamma function over [-3, 0]:
# value of the grade-7 blend quadrature, and an independent reference
RECIP_GAMMA_BLEND_INTEGRAL = -0.606607588783124
RECIP_GAMMA_REFERENCE_INTEGRAL = -0.606607588776539

# modified Mathieu solution w'' = (a* - 2 q* cosh 2 xi) w, w(0) = 1, w'(0) = 0,
# at xi = 1.485, where (a*, q*) is the first double point on the imaginary-q
# axis.  Computed with mpmath 1.3.0: the double point is the Newton solution
# of P(a) = dP/da = 0 for the continuant P of the even Fourier recurrence,
# rounded to doubles (a* = 2.0886989027496954, q* = 1.468768613785142i); the
# endpoint is mpmath.odefun (Taylor method) at 30 digits, rounded to complex
# double.  Regenerates in about 2 s:
#
#     import mpmath as mp
#     mp.mp.dps = 30
#     a, q = mp.mpf(2.0886989027496954), mp.mpc(0, 1.468768613785142)
#     rhs = lambda t, y: [y[1], (a - 2 * q * mp.cosh(2 * t)) * y[0]]
#     w = mp.odefun(rhs, 0, [mp.mpf(1), mp.mpf(0)])(mp.mpf(1.485))[0]
#     print(complex(w))  # |w| = 11.0918415294913120...
MODIFIED_ENDPOINT_DOUBLE_POINT_1485 = complex(-8.877018595897027, -6.6503751295281495)


# s = 1/4, 3/4, 1/2: the collocation nodes, then the mid-step sample
COLLOCATION_NODES = (mpmath.mpf(1) / 4, mpmath.mpf(3) / 4, mpmath.mpf(1) / 2)


@lru_cache(maxsize=None)
def exact_basis_rows(m: int) -> tuple:
    """rows[node][order][col]: H, H', H'' of each basis polynomial, 200 bits.

    Each column is the jet of a grade-(m, m) blend whose coefficient vector
    (p_0..p_m, q_0..q_m) is the unit vector of that column, evaluated by
    blend_eval_derivs in 200-bit mpmath at the nodes above.
    """
    with mpmath.workprec(200):
        cols = []
        for col in range(2 * m + 2):
            unit = [mpmath.mpf(int(i == col)) for i in range(2 * m + 2)]
            b = Blend(LocalTaylor(0.0, unit[: m + 1]), LocalTaylor(1.0, unit[m + 1 :]))
            cols.append([blend_eval_derivs(b, s, 2) for s in COLLOCATION_NODES])
    return tuple(
        tuple(tuple(c[node][order] for c in cols) for order in range(3)) for node in range(3)
    )
