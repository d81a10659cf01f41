"""Frozen reference values shared by the unit and acceptance tests."""

import math
from functools import lru_cache

import mpmath
import numpy as np

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

# the same onsets for m = 1..6 to 12 digits, from sho_onset_over_pi below
# (mpmath 1.3.0, under 1 s for all six); the window of instability that
# each opens is 1.4e-6 * pi wide for m = 5 and 2.6e-8 * pi for m = 6
STABILITY_ONSETS = {
    1: 0.940349723612,
    2: 0.998172510910,
    3: 0.999971874841,
    4: 0.999999900021,
    5: 1.000000005032,
    6: 1.000000000125,
}

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

# the same double point (a*, qhat*) to 28 digits, as stored in perfbench/refs.json:
# mpmath.findroot on P = dP/da = 0 for the size-24 continuant, at 30 digits.
# Regenerates in under a second:
#
#     cd perfbench && python -c "import mpmath as mp, make_refs; mp.mp.dps = 30;
#         print(*(mp.nstr(x, 28) for x in make_refs.double_point()))"
DOUBLE_POINT_A = "2.08869890274969540742210705"
DOUBLE_POINT_QHAT = "1.46876861378514199230729309"


# s = 1/4, 3/4, 1/2: the collocation nodes, then the mid-step sample
COLLOCATION_NODES = (mpmath.mpf(1) / 4, mpmath.mpf(3) / 4, mpmath.mpf(1) / 2)


@lru_cache(maxsize=None)
def exact_basis_rows(m: int) -> tuple:
    """rows[node][order][col]: H, H', H'' of each basis polynomial, 200 bits.

    Column j is the jet of the grade-(m, m) blend whose coefficient vector
    (p_0..p_m, q_0..q_m) is unit vector j, evaluated at the nodes above.  One
    blend_eval_derivs call in 200-bit mpmath covers all of them: coefficient
    i is column i of the identity as an object array, and s is a row of the
    three nodes, so entry [col, node] of each order is that jet.
    """
    k = 2 * m + 2
    with mpmath.workprec(200):
        eye = np.array([[[mpmath.mpf(int(i == j))] for j in range(k)] for i in range(k)], object)
        unit = Blend(LocalTaylor(0.0, eye[: m + 1]), LocalTaylor(1.0, eye[m + 1 :]))
        jet = blend_eval_derivs(unit, np.array([COLLOCATION_NODES], object), 2)
    return tuple(tuple(tuple(jet[order][:, node]) for order in range(3)) for node in range(3))


def sho_onset_over_pi(m: int):
    """First positive zero of C_m^2 - 1 over pi, from exact_basis_rows and mpmath.polyroots.

    One grade-m collocation step of y'' + y = 0 over [0, nu], built in 200-bit
    mpmath as the solver builds it: the blend of (1, 0) Taylor data at 0
    against zero data is L, the blends of zero data against cos and sin
    series at nu are C and S, and A C + B S + L has zero residual at s = 1/4
    and 3/4.  Times nu^2, each residual is a polynomial in nu (H'' + nu^2 H,
    with coefficient j of each series scaled by nu^j).  By Cramer's rule the
    step's diagonal entry is N / D with N = s1 l2 - l1 s2 and D = c1 s2 - s1 c2.
    N^2 - D^2 is x^2 g(x) in x = nu^2 (N and D are odd in nu, and C_m(0) = 1),
    and nu*^2 is the smallest positive root of g.
    """
    rows = exact_basis_rows(m)
    with mpmath.workprec(200):
        cos = [(-1) ** (j // 2) / mpmath.factorial(j) * (j % 2 == 0) for j in range(m + 1)]
        sin = [(-1) ** (j // 2) / mpmath.factorial(j) * (j % 2) for j in range(m + 1)]

        def residuals(off, t):
            out = []
            for node in (0, 1):
                r = [mpmath.mpf(0)] * (m + 3)
                for j in range(m + 1):
                    r[j] += rows[node][2][off + j] * t[j]
                    r[j + 2] += rows[node][0][off + j] * t[j]
                out.append(r)
            return out

        def mul(a, b):
            out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    out[i + j] += u * v
            return out

        def cross(u, v):
            return [a - b for a, b in zip(mul(u[0], v[1]), mul(v[0], u[1]))]

        c, s, lc = residuals(m + 1, cos), residuals(m + 1, sin), residuals(0, cos)
        n, d = cross(s, lc), cross(c, s)
        f = [a - b for a, b in zip(mul(n, n), mul(d, d))]
        while not f[-1]:
            f.pop()
        roots = mpmath.polyroots(f[:3:-2], maxsteps=500, extraprec=400)
        x = min(r.real for r in roots if r.real > 0 and abs(r.imag) <= 1e-40 * r.real)
        return mpmath.sqrt(x) / mpmath.pi


def full_sum_taylor(a, b, g, y0, y1, grade: int) -> list:
    """Taylor coefficients of y'' + a y' + b y = g with every term of the inner sum.

    A frozen copy of the scalar loop ode_taylor ran before its sums stopped
    at the last nonzero coefficient of a and b: the reference that
    ode_taylor and the multi-column recurrence must match bit for bit.
    """
    c = [0j] * (grade + 1)
    c[0] = y0 + 0j if isinstance(y0, (int, float)) else y0
    if grade >= 1:
        c[1] = y1 + 0j if isinstance(y1, (int, float)) else y1
    for j in range(grade - 1):
        acc = g[j]
        for l in range(j + 1):
            acc = acc - a[l] * (j - l + 1) * c[j - l + 1] - b[l] * c[j - l]
        c[j + 2] = acc / ((j + 2) * (j + 1))
    return c


def synthetic_division_taylor(coeffs, point, grade: int) -> list:
    """Taylor coefficients of a polynomial about point by repeated synthetic division.

    A frozen copy of the loop poly_oracle ran before series.taylor_shift: one
    Horner pass for the value of what is left, then one division by
    (z - point), and 0j past the degree.  The reference that poly_oracle must
    match bit for bit, signs of zeros included.
    """
    work = [complex(c) for c in coeffs]
    out = []
    for _ in range(grade + 1):
        if not work:
            out.append(0j)
            continue
        acc = work[-1]
        for c in work[-2::-1]:
            acc = acc * point + c
        out.append(acc)
        for i in range(len(work) - 2, -1, -1):
            work[i] = work[i] + point * work[i + 1]
        work = work[1:]
    return out


def hermite_form(p, q, s, t=None):
    """The blend formula of the blend module's header, term by term, in the arithmetic of p, q, s.

    Exact binomials and explicit powers, no Horner loop and no running sums:
    the independent reference for blend_eval (exact for Fraction inputs).
    ``t`` stands for 1 - s; pass the value a kernel computed for it to leave
    that one rounding out of the comparison.
    """
    m, n = len(p) - 1, len(q) - 1
    t = 1 - s if t is None else t
    sp = [s**i for i in range(max(m, n) + 2)]
    tp = [t**i for i in range(max(m, n) + 2)]
    left = sum(
        p[j] * math.comb(n + k, k) * sp[k + j] for j in range(m + 1) for k in range(m - j + 1)
    )
    right = sum(
        (-1) ** j * q[j] * math.comb(m + k, k) * tp[k + j]
        for j in range(n + 1)
        for k in range(n - j + 1)
    )
    return left * tp[n + 1] + right * sp[m + 1]
