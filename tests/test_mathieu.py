import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.optimize
from refvals import DOUBLE_POINT_A, DOUBLE_POINT_QHAT
from scipy.integrate import simpson
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq

import blends
from blends import (
    Blendstring,
    MathieuParams,
    SolveError,
    cos_oracle,
    double_point,
    even_characteristic_values,
    even_eigenvalue_search,
    generalized_eigenfunction,
    mathieu_operator,
    mathieu_pair,
    modified_endpoint,
    modified_params,
    ordinary_params,
    zero_series,
    zip_with,
)
from blends.mathieu import _continuant
from blends.series import mul


def test_coefficient_oracle_values():
    _, b, _ = mathieu_operator(1.0, 0.0)
    assert np.allclose(b(0.0, 2), [1.0, 0.0, 0.0])
    _, b, _ = mathieu_operator(0.0, 1.0)
    assert np.allclose(b(0.0, 2), [-2.0, 0.0, 4.0])


@pytest.mark.parametrize(
    "a, q, z",
    [
        (0.7, 1.3, 0.4),
        (2.0, -0.5, 2.9),
        (1 + 0.5j, 0.3 - 0.2j, 0.25 + 0.8j),
        (0.1, 2j, 1.7j),
        (float(DOUBLE_POINT_A), 1j * float(DOUBLE_POINT_QHAT), 1.485j),
        (2.0, 1.0, 5.5 - 0.3j),
    ],
)
def test_coefficient_oracle_matches_mpmath_taylor(a, q, z):
    # every Taylor coefficient of b(z) = a - 2q cos 2z to grade 25, against
    # 40-digit mpmath at points where none of them vanishes
    a, q = complex(a), complex(q)
    got = mathieu_operator(a, q)[1](z, 25)
    with mpmath.workdps(40):
        want = mpmath.taylor(lambda t: a - 2 * q * mpmath.cos(2 * t), mpmath.mpc(z), 25)
        for j, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 2e-15 * abs(w), (j, g, w)


def test_coefficient_oracle_imaginary_axis():
    # cos(2 i xi) = cosh(2 xi) in the constant term
    a, q, xi = 0.7, 0.3 + 0.1j, 0.9
    _, b, _ = mathieu_operator(a, q)
    got = b(1j * xi, 0)[0]
    assert got == pytest.approx(a - 2 * q * math.cosh(2 * xi), rel=1e-13)


def test_pair_reduces_to_sho():
    w1, w2 = mathieu_pair(ordinary_params(1.0, 0.0), 12, 1e-10)
    assert w1.compatible(w2)
    assert abs(w1.records[-1].coeffs[0] - 1.0) <= 1e-9
    assert abs(w1.records[-1].coeffs[1]) <= 1e-9
    assert abs(w2.records[-1].coeffs[0]) <= 1e-9
    assert abs(w2.records[-1].coeffs[1] - 1.0) <= 1e-9
    for x in np.linspace(0, 2 * math.pi, 25):
        assert w1.eval(float(x)) == pytest.approx(math.cos(x), abs=1e-9)
        assert w2.eval(float(x)) == pytest.approx(math.sin(x), abs=1e-9)


@pytest.mark.parametrize(
    "params, grade, tol",
    [
        (ordinary_params(0.5, 0.1), 6, 1e-9),
        (ordinary_params(2.0, 1.0), 15, 1e-12),
        (modified_params(0.5, 10.0, 1.5), 6, 1e-6),
    ],
    ids=["ordinary_g6", "ordinary_g15", "modified_g6"],
)
def test_pair_knot_wronskian(params, grade, tol):
    # each of these once failed with a frozen-mesh step over tol
    w1, w2 = mathieu_pair(params, grade, tol)
    assert w1.compatible(w2)
    for r1, r2 in zip(w1.records, w2.records):
        wr = r1.coeffs[0] * r2.coeffs[1] - r1.coeffs[1] * r2.coeffs[0]
        assert abs(wr - 1.0) <= 10 * tol, (r1.knot, wr)


def test_pair_cos_2z():
    w1, _ = mathieu_pair(ordinary_params(4.0, 0.0), 12, 1e-10)
    for x in np.linspace(0, 2 * math.pi, 25):
        assert w1.eval(float(x)) == pytest.approx(math.cos(2 * x), abs=1e-8)


def test_wronskian_constant():
    astar, qstar = double_point()
    w1, w2 = mathieu_pair(MathieuParams(astar, qstar, (0.0, 2 * math.pi)), 15, 1e-10)
    t1 = w1.deval(nrefine=6, nder=1)
    t2 = w2.deval(nrefine=6, nder=1)
    wr = t1.derivatives(0) * t2.derivatives(1) - t1.derivatives(1) * t2.derivatives(0)
    assert np.max(np.abs(wr - 1.0)) <= 1e-8


def test_generalized_eigenfunction_zero_forcing():
    w1, w2 = mathieu_pair(ordinary_params(1.0, 0.0), 8, 1e-9)
    zero = Blendstring([zero_series(k, 8) for k in w1.knots])
    u = generalized_eigenfunction(w1, w2, zero)
    assert all(abs(c) == 0 for r in u.records for c in r.coeffs)


def test_generalized_eigenfunction_sho_closed_form():
    # for y'' + y with forcing cos z the construction gives -(z/2) sin z
    w1, w2 = mathieu_pair(ordinary_params(1.0, 0.0), 12, 1e-10)
    f = Blendstring.from_oracle(w1.knots, 12, cos_oracle)
    u = generalized_eigenfunction(w1, w2, f)
    for x in np.linspace(0, 2 * math.pi, 40):
        want = -(x / 2) * math.sin(x)
        assert abs(u.eval(float(x)) - want) <= 1e-8
    assert abs(u.eval(math.pi)) <= 1e-8
    # residual u'' + u + cos z
    t = u.deval(nder=2)
    pts = t.points.real
    resid = np.abs(t.derivatives(2) + t.derivatives(0) + np.cos(pts))
    assert float(resid.max()) <= 1e-8


def test_double_point_location():
    astar, qstar = double_point()
    # agrees with an independent run of the shooting search chained across
    # a fine bisection; values frozen from the Fourier-matrix oracle
    assert astar.real == pytest.approx(2.0886989027, abs=1e-8)
    assert abs(astar.imag) <= 1e-10
    assert qstar.real == 0.0
    assert qstar.imag == pytest.approx(1.4687686138, abs=1e-8)
    # eigenvalues actually coalesce there
    ev = even_characteristic_values(qstar, 2)
    assert abs(ev[1] - ev[0]) <= 1e-5


def test_double_point_bad_bracket():
    with pytest.raises(ValueError):
        double_point(0.1, 0.2)


def test_generalized_eigenfunction_at_double_point():
    tol = 1e-10
    astar, qstar = double_point()
    w1, w2 = mathieu_pair(MathieuParams(astar, qstar, (0.0, 2 * math.pi)), 15, tol)
    u = generalized_eigenfunction(w1, w2, w1)
    t = u.deval(nder=2)
    scale = float(np.max(np.abs(t.derivatives(0))))
    assert abs(u.eval(0.0)) <= 1e-6 * scale
    assert abs(u.eval(math.pi)) <= 1e-6 * scale
    assert abs(u.eval(2 * math.pi)) <= 1e-6 * scale
    pts = t.points
    bvals = astar - 2 * qstar * np.cos(2 * pts)
    fvals = np.array([w1.eval(z) for z in pts])
    resid = np.abs(t.derivatives(2) + bvals * t.derivatives(0) + fvals)
    assert float(resid.max()) <= 100 * tol


def test_eigenfunction_self_orthogonal_at_double_point():
    # the coalesced eigenfunction has int w1^2 = 0 over a period, so the
    # normalization int ce^2 = pi does not exist at the double point
    astar, qstar = double_point()
    w1, _ = mathieu_pair(MathieuParams(astar, qstar, (0.0, 2 * math.pi)), 15, 1e-10)
    square = zip_with(w1, w1, mul).definite_integral()
    t = w1.deval()
    norm = simpson(np.abs(t.derivatives(0)) ** 2, x=t.points.real)
    assert norm > 1.0
    assert abs(square) <= 1e-8 * norm


def test_even_eigenvalue_search_q0():
    assert even_eigenvalue_search(0.0, (-0.5, 0.5)) == pytest.approx(0.0, abs=1e-8)
    assert even_eigenvalue_search(0.0, (3.5, 4.5)) == pytest.approx(4.0, abs=1e-8)


def test_even_eigenvalue_search_q1_matches_matrix_oracle():
    a0 = even_eigenvalue_search(1.0, (-1.0, 0.0))
    ref = even_characteristic_values(1.0, 1)[0].real
    assert a0 == pytest.approx(ref, abs=1e-13)


def test_even_eigenvalue_search_no_root():
    with pytest.raises(ValueError):
        even_eigenvalue_search(0.0, (1.0, 2.0))


def test_even_eigenvalue_search_reports_no_convergence(monkeypatch):
    # one Brent iteration cannot meet the default tolerances
    monkeypatch.setattr(scipy.optimize, "brentq", lambda *a, **kw: brentq(*a, maxiter=1, **kw))
    with pytest.raises(SolveError, match="did not converge"):
        even_eigenvalue_search(1.0, (-1.0, 0.0))


def test_import_leaves_scipy_optimize_unloaded():
    # even_eigenvalue_search imports it on its first call, not the package
    src = str(Path(blends.__file__).resolve().parents[1])
    code = "import sys, blends; sys.exit('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_modified_endpoint_against_runge_kutta():
    astar, qstar = double_point()
    xi0 = 1.485

    def rhs(xi, y):
        w = y[0] + 1j * y[1]
        rhsv = (astar - 2 * qstar * np.cosh(2 * xi)) * w
        return [y[2], y[3], rhsv.real, rhsv.imag]

    ref = scipy_solve_ivp(
        rhs, [0, xi0], [1, 0, 0, 0], rtol=1e-12, atol=1e-13, method="DOP853"
    )
    want = ref.y[0, -1] + 1j * ref.y[1, -1]
    got = modified_endpoint(astar, qstar, xi0, 15, 1e-10)
    assert abs(got - want) <= 1e-6 * abs(want)
    # doubly exponential growth regime has set in, but remains modest at
    # this depth under unit initial data
    assert 1.0 < abs(got) < 1e3


@pytest.mark.parametrize("qhat", [0.5, 1.0, 1.4])
def test_continuant_zeros_are_the_characteristic_values(qhat):
    size, t = 30, qhat * qhat
    ev = even_characteristic_values(1j * qhat, 4, size)
    assert np.max(np.abs(ev.imag)) <= 1e-12  # below the double point all four are real
    a = np.sort(ev.real)
    half_gap = 0.5 * np.min(np.diff(a))

    def p(x):
        return _continuant(x, t, size)[0]

    for ak in a:
        root = brentq(p, ak - half_gap, ak + half_gap, xtol=1e-14)
        assert abs(root - ak) <= 1e-10


def test_continuant_derivatives_match_central_differences():
    a, t, size, h = 2.0, 2.1, 36, 1e-5
    p, pa, paa, pt, pat = _continuant(a, t, size)

    def diff(order, da, dt):
        up, down = _continuant(a + da, t + dt, size), _continuant(a - da, t - dt, size)
        return (up[order] - down[order]) / (2 * h)

    pairs = ((pa, diff(0, h, 0)), (paa, diff(1, h, 0)), (pt, diff(0, 0, h)), (pat, diff(1, 0, h)))
    for got, want in pairs:
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "bracket",
    [(1.0, 2.0, 36), (1.0, 1.5, 30), (1.4, 2.0, 41), (1.2, 1.9, 33), (1.0, 10.0, 36),
     (1.0, 20.0), (1.0, 30.0)],
)
def test_double_point_matches_28_digit_reference(bracket):
    astar, qstar = double_point(*bracket)
    with mpmath.workdps(30):
        a_ref, q_ref = mpmath.mpf(DOUBLE_POINT_A), mpmath.mpf(DOUBLE_POINT_QHAT)
        assert abs((astar.real - a_ref) / a_ref) <= 4e-16
        assert abs((qstar.imag - q_ref) / q_ref) <= 4e-16
    assert astar.imag == 0.0 and qstar.real == 0.0


def test_double_point_makes_two_eigvals_calls(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def spy(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    for bracket in ((), (1.0, 1.5, 30), (1.4, 2.0, 41)):
        calls.clear()
        double_point(*bracket)
        assert len(calls) == 2  # the bracket ends; Newton starts from the lower one
