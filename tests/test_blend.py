import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from refvals import exact_basis_rows, hermite_form
from scipy.integrate import simpson

from blends import Blendstring, EvalOverflowError, exp_oracle, recip_gamma_oracle, sin_oracle
from blends.blend import (
    Blend,
    blend_condition_integral,
    blend_eval,
    blend_eval_derivs,
    basis_rows,
    blend_integrate,
    lebesgue_function,
    truncation_factor,
)
from blends.series import LocalTaylor


def make(p, q):
    return Blend(LocalTaylor(0.0, p), LocalTaylor(1.0, q))


SMOOTHSTEP = make((0.0, 0.0), (1.0, 0.0))


def test_constant_blend():
    b = make((1.0,), (1.0,))
    for s in (0.0, 0.3, 1.0, 2.5, -1.0):
        assert blend_eval(b, s) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(blend_eval_derivs(b, 0.7, 2), [1.0, 0.0, 0.0])


def test_linear_blend():
    b = make((0.0,), (1.0,))
    assert blend_eval(b, 0.25) == pytest.approx(0.25)
    assert np.allclose(blend_eval_derivs(b, 0.3, 1), [0.3, 1.0])
    assert blend_integrate(b) == pytest.approx(0.5)


def test_smoothstep():
    assert blend_eval(SMOOTHSTEP, 0.5) == pytest.approx(0.5)
    # closed form s^2 (3 - 2 s)
    for s in np.linspace(0, 1, 11):
        assert blend_eval(SMOOTHSTEP, s) == pytest.approx(s * s * (3 - 2 * s), abs=1e-14)
    assert np.allclose(blend_eval_derivs(SMOOTHSTEP, 0.5, 1), [0.5, 1.5])
    assert blend_integrate(SMOOTHSTEP) == pytest.approx(0.5)


def test_distinct_knots_required():
    with pytest.raises(ValueError):
        Blend(LocalTaylor(1.0, (1.0,)), LocalTaylor(1.0, (2.0,)))


def test_eval_is_exact_in_fractions():
    # Fraction data and s keep the running sums and Horner loops exact, so
    # blend_eval is the header formula itself, on the segment and off it
    rng = random.Random(3)
    for m, n in ((0, 0), (0, 3), (2, 5), (4, 1), (7, 7)):
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m + 1))
        q = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1))
        b = make(p, q)
        for s in map(Fraction, (0, 1, "1/3", "5/7", "-1/4", "3/2")):
            v = blend_eval(b, s)
            assert type(v) is Fraction and v == hermite_form(p, q, s)


class _Jet:
    """A power series in ds truncated at a fixed length, to expand hermite_form about s."""

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def _lift(self, x):
        return x if isinstance(x, _Jet) else _Jet([x] + [0] * (len(self.c) - 1))

    def __add__(self, other):
        return _Jet(a + b for a, b in zip(self.c, self._lift(other).c))

    def __mul__(self, other):
        o = self._lift(other).c
        return _Jet(sum(self.c[i] * o[k - i] for i in range(k + 1)) for k in range(len(self.c)))

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return self._lift(other) + self * -1

    def __pow__(self, k):
        out = self._lift(1)
        for _ in range(k):
            out = out * self
        return out


def test_jets_are_exact_in_fractions():
    # Fraction data and s keep the jet kernel exact: derivative k is k! times
    # coefficient k of the header formula expanded in ds, up to one past its degree
    rng = random.Random(5)
    for m, n in ((0, 0), (0, 3), (2, 5), (4, 1), (6, 6)):
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m + 1))
        q = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1))
        b, nder = make(p, q), m + n + 2
        for s in map(Fraction, (0, 1, "1/3", "5/7", "-1/4", "3/2")):
            series = hermite_form(p, q, _Jet([s, 1] + [0] * (nder - 1)))
            jet = blend_eval_derivs(b, s, nder)
            assert all(type(v) is Fraction for v in jet)
            assert jet == [math.factorial(k) * c for k, c in enumerate(series.c)]
            assert jet[-1] == 0


def test_jet_value_is_blend_eval_bit_for_bit():
    # entry 0 of a jet is blend_eval's own formula: equal bits (signs of zeros
    # included) for string segments with float and complex data at random s,
    # and for Fraction and mpmath data and s
    rng = random.Random(23)
    cases = []
    for grade in (3, 12, 25, 40):
        for oracle, knots in (
            (exp_oracle, [-1.0, 0.0, 1.5]),
            (sin_oracle, [0, 1 + 0.5j, 2 - 1j]),
            (recip_gamma_oracle, [-3.0, -1.5, 0.0]),
        ):
            bs = Blendstring.from_oracle(knots, grade, oracle)
            for k in range(bs.segments):
                b = bs.segment_blend(k)
                cases += [(b, rng.random()) for _ in range(5)]
                cases += [(b, complex(rng.random(), rng.gauss(0, 0.1))) for _ in range(3)]
    for m, n in ((0, 2), (4, 4), (7, 3)):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m + 1)]
        q = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        cases += [(make(p, q), Fraction(rng.randint(0, 12), 11)) for _ in range(4)]
        with mpmath.workdps(30):
            pm = [mpmath.mpf(v.numerator) / v.denominator for v in p]
            qm = [mpmath.mpc(v.numerator, v.denominator) for v in q]
            cases += [(make(pm, qm), mpmath.mpf(rng.random())) for _ in range(4)]
    with mpmath.workdps(30):
        for b, s in cases:
            assert repr(blend_eval_derivs(b, s, 2)[0]) == repr(blend_eval(b, s))


def test_power_coeffs_are_running_sums_cached_per_blend():
    # m = 2, n = 1: e = p / (1-s)^2 = p (1 + 2s + 3s^2), f = qalt / (1-t)^3 = qalt (1 + 3t)
    b = make((1.0, 2.0, 3.0), (4.0, 5.0))
    assert b.power_coeffs == ((1.0, 4.0, 10.0), (4.0, 7.0))
    assert b.power_coeffs is b.power_coeffs


def test_integral_adds_left_to_right():
    # weights 1/2, 1/12, 1/2, -1/12 make the terms 1e16, 1.0, -1e16, -0.0: 0.0
    # left to right, where the compensated sum() of Python 3.12 and later gives 1.0
    assert blend_integrate(make((2e16, 12.0), (-2e16, 0.0))) == 0.0


def test_vectorized_eval_matches_scalar():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(5)
    q = rng.standard_normal(4)
    b = make(tuple(p), tuple(q))
    s = np.linspace(-0.1, 1.1, 37)
    vec = blend_eval(b, s)
    for si, vi in zip(s, vec):
        assert blend_eval(b, float(si)) == pytest.approx(vi, rel=1e-14)
    jets = blend_eval_derivs(b, s, 2)
    for i, si in enumerate(s):
        single = blend_eval_derivs(b, float(si), 2)
        for k in range(3):
            assert single[k] == pytest.approx(jets[k][i], rel=1e-12, abs=1e-13)


def test_eval_object_array_matches_scalar_calls():
    # an object array of mpmath scalars evaluates elementwise, as scalars do
    b = make((mpmath.mpf(1), mpmath.mpf("0.5")), (mpmath.mpf(2), mpmath.mpf(-1)))
    s = (mpmath.mpf("0.3"), mpmath.mpf("0.5"))
    vec = blend_eval(b, np.array(s, dtype=object))
    assert list(vec) == [blend_eval(b, si) for si in s]


def test_interpolation_conditions():
    # j-th s-derivative at the ends reproduces the given coefficients
    rng = np.random.default_rng(11)
    for m in range(9):
        p = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        q = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        b = make(tuple(p), tuple(q))
        left = blend_eval_derivs(b, 0.0, m)
        right = blend_eval_derivs(b, 1.0, m)
        fact = 1.0
        for j in range(m + 1):
            if j > 1:
                fact *= j
            assert abs(left[j] / fact - p[j]) <= 1e-10 * max(1.0, abs(p[j]))
            assert abs(right[j] / fact - q[j]) <= 1e-10 * max(1.0, abs(q[j]))


def test_polynomial_reproduction():
    # any polynomial of degree <= m+n+1 is reproduced from its Taylor data
    rng = np.random.default_rng(5)
    for _ in range(8):
        m = int(rng.integers(0, 7))
        n = int(rng.integers(0, 7))
        deg = m + n + 1
        coef = rng.standard_normal(deg + 1)
        poly = np.polynomial.Polynomial(coef)
        p = [poly.deriv(j)(0.0) / math.factorial(j) for j in range(m + 1)]
        q = [poly.deriv(j)(1.0) / math.factorial(j) for j in range(n + 1)]
        b = make(tuple(p), tuple(q))
        for s in rng.uniform(0, 1, 100):
            want = poly(s)
            assert abs(blend_eval(b, float(s)) - want) <= 1e-12 * max(1.0, abs(want))


def test_linearity_in_coefficients():
    rng = np.random.default_rng(9)
    m = 4
    p1, q1 = rng.standard_normal(m + 1), rng.standard_normal(m + 1)
    p2, q2 = rng.standard_normal(m + 1), rng.standard_normal(m + 1)
    al, be = 0.7, -1.3
    b12 = make(tuple(al * p1 + be * p2), tuple(al * q1 + be * q2))
    for s in np.linspace(0, 1, 9):
        lhs = blend_eval(b12, float(s))
        rhs = al * blend_eval(make(tuple(p1), tuple(q1)), float(s)) + be * blend_eval(
            make(tuple(p2), tuple(q2)), float(s)
        )
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_integral_against_simpson():
    rng = np.random.default_rng(21)
    s = np.linspace(0.0, 1.0, 10001)
    for m in range(11):
        p = rng.uniform(-1, 1, m + 1)
        q = rng.uniform(-1, 1, m + 1)
        b = make(tuple(p), tuple(q))
        quad = simpson(blend_eval(b, s).real, x=s)
        assert abs(blend_integrate(b).real - quad) <= 1e-10


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(14)
    b = make(tuple(rng.standard_normal(6)), tuple(rng.standard_normal(6)))
    h = 1e-5
    for s in (0.2, 0.5, 0.8):
        v, d1, d2 = blend_eval_derivs(b, s, 2)
        fd1 = (blend_eval(b, s + h) - blend_eval(b, s - h)) / (2 * h)
        fd2 = (blend_eval(b, s + h) - 2 * v + blend_eval(b, s - h)) / (h * h)
        assert d1 == pytest.approx(fd1, rel=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-4)


def test_basis_rows_are_exact():
    # every entry is the exact basis derivative rounded once to nearest
    # double; float(mpf) would truncate, so round with to_float(rnd="n")
    for m in range(1, 31):
        rows = basis_rows(m)
        assert rows.shape == (3, 3, 2 * m + 2)
        exact = [
            [[mpmath.libmp.to_float(v._mpf_, rnd="n") for v in order] for order in node]
            for node in exact_basis_rows(m)
        ]
        assert rows.tolist() == exact, m


def test_basis_rows_cached_and_read_only():
    assert basis_rows(7) is basis_rows(7)
    with pytest.raises(ValueError):
        basis_rows(7)[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        basis_rows(-1)


def test_condition_integral_values():
    assert blend_condition_integral(0, 0) == pytest.approx(1.0)
    assert abs(blend_condition_integral(50, 50) - 2 * math.log(2)) < 0.02


def test_condition_integral_rounds_its_sum_once():
    # 1/3 + 1/4 + 1/5 + 7/10 = 89/60; math.fsum rounds the sum of the terms
    # once, so the result is the same on every Python version
    assert blend_condition_integral(0, 3) == 89 / 60


def test_condition_integral_matches_quadrature():
    # integral of the blend with all-ones left and alternating right data
    s = np.linspace(0.0, 1.0, 10001)
    for m in range(11):
        ones = (1.0,) * (m + 1)
        alt = tuple((-1.0) ** j for j in range(m + 1))
        vals = blend_eval(make(ones, alt), s)
        quad = simpson(vals.real, x=s)
        assert abs(blend_condition_integral(m, m) - quad) <= 1e-8


def test_lebesgue_values():
    assert lebesgue_function(0, 0, 0.5) == pytest.approx(1.0)
    assert lebesgue_function(1, 1, 0.0) == pytest.approx(1.0)


def test_lebesgue_matches_unit_vector_sum():
    # reference: one blend_eval per unit coefficient vector, any grades and
    # any shape of s, complex included
    s = np.array([[0.0, 0.3, 0.5], [0.9, 1.0, 0.4 + 0.1j]])
    for m, n in ((0, 3), (4, 2), (6, 6)):
        ref = 0.0
        for col in range(m + n + 2):
            unit = [float(i == col) for i in range(m + n + 2)]
            ref = ref + abs(blend_eval(make(unit[: m + 1], unit[m + 1 :]), s))
        got = lebesgue_function(m, n, s)
        assert got.shape == s.shape
        assert np.allclose(got, ref, rtol=1e-13, atol=0)
        assert lebesgue_function(m, n, 0.3) == pytest.approx(ref[0, 1], rel=1e-13)


def test_lebesgue_balanced_bound():
    s = np.linspace(0.0, 1.0, 1000)
    for m in range(21):
        assert float(np.max(lebesgue_function(m, m, s))) <= 2.0 + 1e-12


def test_truncation_factor():
    assert truncation_factor(0, 0) == pytest.approx(0.25)
    for m in (1, 3, 10, 40):
        assert truncation_factor(m, m) == pytest.approx(2.0 ** (-2 * (m + 1)), rel=1e-12)
    # maximize s^2 (1-s)^3 on a fine grid; maximum sits at s = 2/5
    s = np.linspace(0, 1, 2_000_001)
    vals = s**2 * (1 - s) ** 3
    k = int(np.argmax(vals))
    assert abs(s[k] - 0.4) < 1e-5
    assert truncation_factor(1, 2) == pytest.approx(float(vals[k]), rel=1e-10)


def test_overflow_policy():
    big = Blend(LocalTaylor(0.0, (1.0,) * 601), LocalTaylor(1.0, (1.0,) * 601))
    with pytest.raises(EvalOverflowError):
        blend_eval(big, 0.5)
    with pytest.raises(EvalOverflowError):
        blend_eval_derivs(big, 0.5, 1)


def test_exact_data_never_overflows():
    # the constant 1 at grade 520: its power coefficients C(520+k, k) pass the
    # largest double, but int data and a Fraction s keep every sum exact
    b = make((1,) + (0,) * 520, (1,) + (0,) * 520)
    assert blend_eval(b, Fraction(1, 3)) == 1


def test_overflow_policy_for_arrays_of_s():
    # the power coefficients overflow before numpy sees them, so an array of
    # s raises EvalOverflowError, not a numpy warning about inf or nan
    big = Blend(LocalTaylor(0.0, (1.0,) * 601), LocalTaylor(1.0, (1.0,) * 601))
    with pytest.raises(EvalOverflowError):
        blend_eval(big, np.array([0.25, 0.5]))
