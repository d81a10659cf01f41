import math

import numpy as np
import pytest
import scipy.special as sp

from blends.special import hurwitz_zeta, recip_gamma_series

EULER_GAMMA = 0.5772156649015329


def test_hurwitz_against_scipy_real():
    for s in (2, 3, 5, 9, 14):
        for b in (0.25, 1.0, 2.5, 7.75, 30.0):
            assert hurwitz_zeta(s, b) == pytest.approx(sp.zeta(s, b), rel=1e-14)


def test_series_at_zero_known_constants():
    c = recip_gamma_series(0.0, 3)
    assert abs(c[0]) == 0.0
    assert c[1] == pytest.approx(1.0, rel=1e-14)
    assert c[2] == pytest.approx(EULER_GAMMA, rel=1e-13)
    a3 = EULER_GAMMA**2 / 2 - math.pi**2 / 12
    assert c[3] == pytest.approx(a3, rel=1e-12)


def test_zero_constant_terms_at_nonpositive_integers():
    for a in (0.0, -1.0, -2.0, -3.0, -7.0):
        c = recip_gamma_series(a, 5)
        assert c[0] == 0.0  # explicit vanishing linear factor


def _cauchy_coeffs(a, grade, radius=0.4, npts=256):
    # contour-integral Taylor coefficients of 1/Gamma, an independent route
    k = np.arange(npts)
    w = np.exp(2j * np.pi * k / npts)
    vals = 1.0 / sp.gamma(a + radius * w)
    return [
        np.sum(vals * np.exp(-2j * np.pi * j * k / npts)) / (npts * radius**j)
        for j in range(grade + 1)
    ]


@pytest.mark.parametrize("a", [0.5, -1.2, 2.0 + 1.0j, -3.0, 4.75])
def test_series_against_contour_integral(a):
    grade = 7
    mine = recip_gamma_series(a, grade)
    ref = _cauchy_coeffs(a, grade)
    for c, r in zip(mine, ref):
        assert abs(c - r) <= 1e-11 * max(1.0, abs(r))


def test_oracle_length_contract():
    for g in (0, 1, 6):
        assert len(recip_gamma_series(1.3, g)) == g + 1
