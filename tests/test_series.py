import math
import random
from fractions import Fraction

import numpy as np
import pytest
from refvals import synthetic_division_taylor

from blends import CompatibilityError, SeriesDivisionError, exp_oracle, poly_oracle
from blends.series import (
    LocalTaylor,
    combine,
    compose,
    div,
    mul,
    ode_taylor,
    one_series,
    taylor_shift,
    zero_series,
)


def lt(*coeffs, knot=0.0):
    return LocalTaylor(knot, coeffs)


def test_combine_basic():
    assert combine(lt(1, 2), lt(3, 4)).coeffs == (4, 6)
    assert combine(lt(1, 0), lt(0, 1), 2, -1).coeffs == (2, -1)


def test_combine_additive_identity():
    x = lt(1.5, -2.0, 3.25)
    assert combine(x, zero_series(0.0, 2)).coeffs == x.coeffs


def test_mul_truncated_cauchy():
    assert mul(lt(1, 1, 0), lt(1, -1, 0)).coeffs == (1, 0, -1)
    assert mul(lt(0, 1, 0, 0), lt(0, 1, 0, 0)).coeffs == (0, 0, 1, 0)


def test_mul_identity():
    x = lt(2.0, -1.0, 0.5, 7.0)
    assert mul(x, one_series(0.0, 3)).coeffs == x.coeffs


def test_mul_adds_cauchy_terms_left_to_right():
    # the grade-2 Cauchy terms are 1e16, 1.0, -1e16: 0.0 left to right, where
    # the compensated sum() of Python 3.12 and later gives 1.0
    assert mul(lt(1e16, 1.0, -1e16), lt(1.0, 1.0, 1.0)).coeffs == (1e16, 1e16 + 1.0, 0.0)


def test_div_geometric():
    q = div(lt(1.0, 0.0, 0.0), lt(1.0, 1.0, 0.0))
    assert q.coeffs == (1.0, -1.0, 1.0)


def test_div_one_long_division_step():
    # (1 + s/2) / (1 - s/2) = 1 + s + ..., truncated at grade 1
    q = div(lt(1.0, 0.5), lt(1.0, -0.5))
    assert q.coeffs == (1.0, 1.0)


def test_div_identity():
    x = lt(3.0, 1.0, -4.0)
    assert div(x, one_series(0.0, 2)).coeffs == x.coeffs


def test_div_zero_constant_term_refused():
    with pytest.raises(SeriesDivisionError):
        div(lt(1.0, 0.0), lt(0.0, 1.0))


def test_knot_and_grade_mismatch():
    with pytest.raises(CompatibilityError):
        combine(lt(1, 2), lt(1, 2, knot=1.0))
    with pytest.raises(CompatibilityError):
        mul(lt(1, 2), lt(1, 2, 3))


def test_mul_commutative_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.integers(0, 9)
        a = rng.standard_normal(g + 1) + 1j * rng.standard_normal(g + 1)
        b = rng.standard_normal(g + 1) + 1j * rng.standard_normal(g + 1)
        x, y = LocalTaylor(0.5, a), LocalTaylor(0.5, b)
        # identical terms, possibly summed in a different order
        assert np.allclose(mul(x, y).coeffs, mul(y, x).coeffs, rtol=1e-13)


def test_div_mul_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = int(rng.integers(0, 11))
        a = rng.uniform(-1, 1, g + 1) + 1j * rng.uniform(-1, 1, g + 1)
        b = rng.uniform(-1, 1, g + 1) + 1j * rng.uniform(-1, 1, g + 1)
        if abs(b[0]) < 0.5:
            b[0] = 0.5 + 0.5j  # keep the division well away from its pole
        x, y = LocalTaylor(0.0, a), LocalTaylor(0.0, b)
        back = div(mul(x, y), y)
        err = max(abs(u - v) for u, v in zip(back.coeffs, x.coeffs))
        assert err <= 1e-12 * max(1.0, max(abs(c) for c in x.coeffs))


def test_compose_exp_linear():
    out = compose(exp_oracle, lt(0.0, 1.0))
    assert np.allclose(out.coeffs, [1.0, 1.0])


def test_compose_identity():
    def ident(point, grade):
        out = [complex(point)] + [0j] * grade
        if grade >= 1:
            out[1] = 1.0
        return out

    x = lt(0.3, -1.0, 2.0, 0.25, knot=1.5)
    assert np.allclose(compose(ident, x).coeffs, x.coeffs)


def test_compose_square():
    def square(point, grade):
        out = [complex(point) ** 2] + [0j] * grade
        if grade >= 1:
            out[1] = 2.0 * point
        if grade >= 2:
            out[2] = 1.0
        return out

    out = compose(square, lt(1.0, 1.0, 0.0))
    assert np.allclose(out.coeffs, [1.0, 2.0, 1.0])


def test_compose_exp_scaled_argument():
    # coefficients of exp(t*z) about 0 are t^j / j!
    for t in (0.3, -1.0, 0.5j, 0.8 - 0.6j):
        inner = LocalTaylor(0.0, (0.0, t) + (0.0,) * 8)
        out = compose(exp_oracle, inner)
        fact = 1.0
        for j, c in enumerate(out.coeffs):
            if j > 1:
                fact *= j
            want = t**j / fact
            assert abs(c - want) <= 1e-13 * max(1.0, abs(want))


def test_ode_taylor_trivial():
    z = zero_series(0.0, 4)
    out = ode_taylor(z, z, z, 1.0, 2.0, 4)
    assert np.allclose(out.coeffs, [1, 2, 0, 0, 0])


def test_ode_taylor_cosine():
    z = zero_series(0.0, 4)
    out = ode_taylor(z, one_series(0.0, 4), z, 1.0, 0.0, 4)
    assert np.allclose(out.coeffs, [1, 0, -0.5, 0, 1 / 24])


def test_ode_taylor_constant_forcing():
    z = zero_series(0.0, 3)
    out = ode_taylor(z, z, one_series(0.0, 3), 0.0, 0.0, 3)
    assert np.allclose(out.coeffs, [0, 0, 0.5, 0])


def test_ode_taylor_insufficient_coefficient_grade():
    with pytest.raises(ValueError):
        ode_taylor(zero_series(0.0, 1), zero_series(0.0, 1), zero_series(0.0, 1), 1, 0, 8)


def test_ode_taylor_residual_vanishes():
    # substitute the output series back into the operator formally
    rng = np.random.default_rng(3)
    g = 12
    for _ in range(10):
        a = LocalTaylor(0.0, rng.standard_normal(g + 1) + 1j * rng.standard_normal(g + 1))
        b = LocalTaylor(0.0, rng.standard_normal(g + 1) + 1j * rng.standard_normal(g + 1))
        f = LocalTaylor(0.0, rng.standard_normal(g + 1) + 1j * rng.standard_normal(g + 1))
        y = ode_taylor(a, b, f, 0.7, -0.2j, g)
        ypp = [(j + 2) * (j + 1) * y.coeffs[j + 2] for j in range(g - 1)]
        for j in range(g - 1):
            acc = ypp[j] - f.coeffs[j]
            for l in range(j + 1):
                acc += a.coeffs[l] * (j - l + 1) * y.coeffs[j - l + 1]
                acc += b.coeffs[l] * y.coeffs[j - l]
            assert abs(acc) < 1e-12 * (1 + abs(f.coeffs[j]))


def test_value_and_derivative_helpers():
    x = lt(1.0, 2.0, 3.0)
    assert x.derivative().coeffs == (2.0, 6.0)
    assert lt(5.0).derivative().coeffs == (0.0,)


def test_taylor_shift_is_the_binomial_sum_in_fractions():
    # coefficient k about x is sum_i C(i, k) c_i x^(i-k), exactly, for count
    # below, at and above the number of coefficients; the padding is Fraction 0
    rng = random.Random(3)
    for deg in (0, 1, 4, 9):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        want = [
            sum(math.comb(i, k) * c[i] * x ** (i - k) for i in range(k, deg + 1))
            for k in range(deg + 4)
        ]
        for count in (deg, deg + 1, deg + 3):
            got = taylor_shift(c, x, count)
            assert got == want[:count]
            assert all(type(v) is Fraction for v in got)


def test_poly_oracle_is_the_frozen_synthetic_division():
    # random complex polynomials, some parts signed zeros, at complex, float
    # and int points, to grades below and above the degree; repr compares the
    # signs of zeros too, the padding's among them
    rng = random.Random(11)
    parts = (0.0, -0.0, 1.0, -2.5)

    def part():
        return rng.choice(parts) if rng.random() < 0.3 else rng.gauss(0, 1)

    for _ in range(300):
        deg = rng.randint(0, 12)
        c = [complex(part(), part()) for _ in range(deg + 1)]
        point = rng.choice([complex(part(), part()), part(), rng.randint(-3, 3)])
        for grade in (deg // 2, deg, deg + 3):
            got = poly_oracle(c)(point, grade)
            want = synthetic_division_taylor(c, point, grade)
            assert list(map(repr, got)) == list(map(repr, want))
