import cmath
import math
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from refvals import (
    COLLOCATION_NODES,
    SHO_COSINE_RATIONALS,
    STABILITY_ONSETS,
    STABILITY_THRESHOLDS,
    exact_basis_rows,
    sho_onset_over_pi,
)
from scipy.integrate import solve_ivp as scipy_solve_ivp

from blends import (
    Blend,
    OdeProblem,
    SolveError,
    constant_oracle,
    initial_series,
    mathieu_operator,
    mathieu_problem,
    ordinary_params,
    sho_amplification,
    sho_step_matrix,
    solve_ivp,
    stability_threshold,
    step,
)
from blends import odesolve
from blends.blend import blend_eval_derivs
from blends.series import LocalTaylor

ZERO = constant_oracle(0.0)
ONE = constant_oracle(1.0)


def sho_problem(grade, tol, span=2 * math.pi, **kw):
    return OdeProblem(ZERO, ONE, ZERO, (0.0, span), 1.0, 0.0, grade, tol, **kw)


def airy_b(point, grade):
    out = [-complex(point)] + [0j] * grade
    if grade >= 1:
        out[1] = -1.0 + 0j
    return out


def test_problem_validation():
    with pytest.raises(ValueError):
        OdeProblem(ZERO, ONE, ZERO, (0.0,), 1, 0, 3, 1e-8)
    with pytest.raises(ValueError):
        OdeProblem(ZERO, ONE, ZERO, (0.0, 0.0), 1, 0, 3, 1e-8)
    with pytest.raises(ValueError):
        OdeProblem(ZERO, ONE, ZERO, (0.0, 1.0), 1, 0, 0, 1e-8)
    with pytest.raises(ValueError):
        OdeProblem(ZERO, ONE, ZERO, (0.0, 1.0), 1, 0, 3, -1.0)
    with pytest.raises(ValueError):
        OdeProblem(ZERO, ONE, ZERO, (0.0, 1.0), 1, 0, 3, 1e-8, h_min=2.0, h_max=1.0)
    for grade in (8.7, True):
        with pytest.raises(ValueError, match="grade"):
            OdeProblem(ZERO, ONE, ZERO, (0.0, 1.0), 1, 0, grade, 1e-8)


@pytest.mark.parametrize(
    "a, q, grade, tol, h",
    [
        (2.0, 1.0, 15, 1e-12, 1.1),  # both accepted
        (0.5, 10.0, 10, 1e-12, 0.9),  # both rejected
        (2.0, 1.0, 10, 1e-10, 1.1),  # the second is worse and alone rejected
        (2.0, 1.0, 15, 1e-12, 1.6),  # the first is worse and alone rejected
        (2.0, 1.0, 8, 1e-10, 0.75),  # the second is worse and alone rejected
        (2.0, 1.0, 20, 1e-13, 1.6),  # both accepted
        (2.0, 1.0, 25, 1e-13, 3.0),  # both rejected
    ],
)
def test_attempt_columns_are_independent(a, q, grade, tol, h, data=((1.0, 0.0), (0.0, 1.0))):
    # an attempt with several known series is their one-series attempts: the
    # same series, the record of the worst one by sample / max(tol, floor)
    # (the first on a tie), accepted only if all are
    problems = [mathieu_problem(ordinary_params(a, q), grade, tol, y0=y0, y1=y1)
                for y0, y1 in data]
    problem, knowns = problems[0], [initial_series(p) for p in problems]
    z0, w1 = problem.path[:2]
    z1 = z0 + h * (w1 - z0) / abs(w1 - z0)
    rec, series = odesolve._attempt(problem, z0, z1, h, knowns)
    singles = [odesolve._attempt(problem, z0, z1, h, [known]) for known in knowns]
    assert series == [s for _, (s,) in singles]
    worst = max((r for r, _ in singles), key=lambda r: r.residual / max(tol, r.noise_floor))
    assert (rec.residual, rec.noise_floor) == (worst.residual, worst.noise_floor)
    assert rec.accepted == all(r.accepted for r, _ in singles)


def test_attempt_with_three_known_series():
    # the third data set is the sum of the first two, so its series is too
    test_attempt_columns_are_independent(2.0, 1.0, 15, 1e-12, 1.1, ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))


def test_step_trivial_quadratic():
    # y'' = 0 with linear data is reproduced exactly at any h
    p = OdeProblem(ZERO, ZERO, ZERO, (0.0, 10.0), 1.0, 0.0, 4, 1e-12)
    known = initial_series(p)
    ok, result, res = step(p, 0.0, known, 3.7)
    assert ok and res <= 1e-13
    assert np.allclose(result.coeffs, [1.0, 0, 0, 0, 0])


def test_step_rejects_known_series_of_other_grade():
    p = sho_problem(4, 1e-10)
    with pytest.raises(ValueError, match="grade 2"):
        step(p, 0.0, LocalTaylor(0.0, (1.0, 0.0, -0.5)), 0.5)


def test_step_matches_printed_rational_m1():
    # one grade-1 collocation step of size 2 for y'' + y = 0 from (1, 0)
    p = sho_problem(1, 1e-3)
    known = initial_series(p)
    ok, result, res = step(p, 0.0, known, 2.0)
    assert result.coeffs[0] == pytest.approx(-1648 / 3728, rel=1e-12)


def test_step_exponential_decay():
    # y'' + y' = 0 with y(0)=1, y'(0)=-1 is exp(-z)
    p = OdeProblem(ONE, ZERO, ZERO, (0.0, 5.0), 1.0, -1.0, 6, 1e-9)
    known = initial_series(p)
    for h in (0.25, 0.5):
        ok, result, res = step(p, 0.0, known, h)
        assert ok
        assert abs(result.coeffs[0] - math.exp(-h)) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sho_amplification_matches_rationals(m):
    rational = SHO_COSINE_RATIONALS[m]
    for nu in (0.5, 1.0, 2.0, 3.0):
        c, _ = sho_amplification(m, nu)
        assert c == pytest.approx(rational(nu), rel=1e-10)


def test_sho_amplification_small_step_identity():
    nu = 1e-3
    c, s = sho_amplification(3, nu)
    assert c == pytest.approx(math.cos(nu), abs=1e-12)
    assert s == pytest.approx(math.sin(nu), abs=1e-12)
    assert abs(c - 1.0) <= 1e-6 and abs(s) <= 2e-3


@pytest.mark.parametrize("m", range(1, 7))
def test_sho_amplification_huge_steps_finite(m):
    # no power of nu^2 overflows: the step tends to a finite limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [sho_amplification(m, nu) for nu in (1e20, 1e40, 1e80, 1e154, 1e200, 1e300)]
    for c, s in values:
        assert math.isfinite(c) and math.isfinite(s)
        assert c == pytest.approx(values[0][0], rel=1e-14)
        assert s == pytest.approx(values[0][1], rel=1e-14)


def test_sho_step_refuses_non_finite_nu():
    # no step matrix exists for an infinite, NaN or nonpositive step
    for nu in (math.inf, math.nan, -math.inf, 0.0):
        for fn in (sho_amplification, sho_step_matrix):
            with pytest.raises(ValueError, match="positive and finite"):
                fn(1, nu)


def test_sho_step_matrix_structure():
    # equal diagonal entries and unit determinant; the off-diagonal pair
    # agrees only through the geometric mean
    for m in (1, 2, 3):
        for nu in (0.7, 1.9, 2.8):
            M = sho_step_matrix(m, nu)
            assert M[0, 0].real == pytest.approx(M[1, 1].real, abs=1e-12)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            assert det.real == pytest.approx(1.0, abs=1e-11)


def test_energy_identity():
    for m in (1, 2, 3):
        for nu in np.linspace(0, 3, 52)[1:-1]:
            c, s = sho_amplification(m, float(nu))
            assert abs(c * c + s * s - 1.0) <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stability_thresholds(m):
    assert stability_threshold(m) / math.pi == pytest.approx(
        STABILITY_THRESHOLDS[m], abs=1e-4
    )


def test_stability_threshold_bad_grade():
    with pytest.raises(ValueError):
        stability_threshold(0)
    with pytest.raises(ValueError):
        stability_threshold(7)


@pytest.mark.parametrize("m", range(1, 7))
def test_stability_threshold_matches_exact_onset(m):
    # m = 5 and 6 open windows narrower than a pi/1000 scan step
    assert stability_threshold(m) / math.pi == pytest.approx(STABILITY_ONSETS[m], rel=1e-10)


@pytest.mark.parametrize("m", range(1, 7))
def test_stability_onsets_regenerate(m):
    assert float(sho_onset_over_pi(m)) == pytest.approx(STABILITY_ONSETS[m], abs=5e-13)


def test_sho_step_rationals_are_exact():
    for m in range(1, 7):
        n, d, p, q = odesolve._sho_rationals(m)
        # det M = (N^2 - x P Q) / D^2 = 1, and D > 0 for x >= 0
        det_num = P.polysub(P.polymul(n, n), P.polymulx(P.polymul(p, q)))
        assert not any(P.polysub(det_num, P.polymul(d, d)))
        assert all(c > 0 for c in d)
    for m, rational in SHO_COSINE_RATIONALS.items():
        n, d = odesolve._sho_rationals(m)[:2]
        # both sides are ratios of degree m+1 in x, so 2m+5 points decide
        for k in range(1, 2 * m + 6):
            nu = Fraction(k, 3)
            assert P.polyval(nu * nu, n) / P.polyval(nu * nu, d) == rational(nu)


@pytest.mark.parametrize("m", range(1, 7))
def test_sho_step_matrix_matches_marcher_step(m):
    for nu in (0.3, 1.7, 3.0):
        M = sho_step_matrix(m, nu)
        assert M[1, 1] == M[0, 0]
        for col, (y0, y1) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            p = OdeProblem(ZERO, ONE, ZERO, (0.0, 4 * math.pi), y0, y1, m, 1.0)
            _, result, _ = step(p, 0.0, initial_series(p), nu)
            assert abs(result.coeffs[0] - M[0, col]) <= 1e-12
            assert abs(result.coeffs[1] - M[1, col]) <= 1e-12


def test_instability_window_m3():
    # inside the narrow window past the threshold the amplification excess
    # stays tiny, so the worst eigenvalue growth per step is ~sqrt of it
    nus = np.linspace(0.9995 * math.pi, 1.0025 * math.pi, 200)
    worst_excess = 0.0
    worst_lambda = 0.0
    for nu in nus:
        c, _ = sho_amplification(3, float(nu))
        worst_excess = max(worst_excess, c * c - 1.0)
        ev = np.linalg.eigvals(sho_step_matrix(3, float(nu)))
        worst_lambda = max(worst_lambda, float(np.max(np.abs(ev))))
    assert worst_excess <= 3.2e-6
    assert worst_lambda <= 1.0 + 2e-3


def test_one_step_error_and_residual_orders():
    # endpoint error superconverges at 2m+2; the residual sample is the
    # order-2m quantity
    for m in (2, 3):
        p = sho_problem(m, 1e-300, span=10.0)
        known = initial_series(p)
        errs, ress = [], []
        for h in (0.4, 0.2, 0.1):
            _, result, res = step(p, 0.0, known, h)
            errs.append(abs(result.coeffs[0] - math.cos(h)))
            ress.append(res)
        eslope = np.polyfit(np.log2([0.4, 0.2, 0.1]), np.log2(errs), 1)[0]
        rslope = np.polyfit(np.log2([0.4, 0.2, 0.1]), np.log2(ress), 1)[0]
        assert abs(eslope - (2 * m + 2)) <= 0.5
        assert abs(rslope - 2 * m) <= 0.5


def test_residual_shape():
    # residual of an accepted step vanishes at the collocation points and
    # peaks near the middle
    m, h = 3, 0.3
    p = sho_problem(m, 1e-4)
    known = initial_series(p)
    ok, result, _ = step(p, 0.0, known, h)
    assert ok
    blend = Blend.from_taylor(known, result)
    s = np.linspace(0.0, 1.0, 801)
    jets = blend_eval_derivs(blend, s, 2)
    resid = np.abs(np.asarray(jets[2]) / h**2 + np.asarray(jets[0]))
    peak = float(resid.max())
    at_c1 = resid[np.argmin(np.abs(s - 0.25))]
    at_c2 = resid[np.argmin(np.abs(s - 0.75))]
    # the collocation zeros are exact up to evaluation roundoff
    assert at_c1 <= 1e-6 * peak + 1e-12
    assert at_c2 <= 1e-6 * peak + 1e-12
    s_peak = float(s[int(np.argmax(resid))])
    assert 0.4 <= s_peak <= 0.6


def test_solve_sho_full_period():
    r = solve_ivp(sho_problem(15, 1e-12))
    end = r.solution.records[-1]
    assert abs(end.coeffs[0] - 1.0) <= 1e-10
    assert abs(end.coeffs[1]) <= 1e-10
    assert r.solution.knots[0] == 0.0
    assert r.solution.knots[-1] == 2 * math.pi
    for s in r.steps:
        if s.accepted:
            assert s.residual <= max(1e-12, s.noise_floor)


def test_solve_linear_solution_exact():
    p = OdeProblem(ZERO, ZERO, ZERO, (0.0, 10.0), 0.0, 1.0, 6, 1e-12)
    r = solve_ivp(p)
    assert r.accepted_steps <= 6
    for r_ in r.solution.records:
        assert abs(r_.coeffs[0] - r_.knot) <= 1e-13 * max(1.0, abs(r_.knot))
        assert abs(r_.coeffs[1] - 1.0) <= 1e-13
    for x in np.linspace(0, 10, 23):
        assert r.solution.eval(float(x)) == pytest.approx(x, abs=1e-12)


def test_solve_airy_against_runge_kutta():
    def rhs(t, y):
        w = y[0] + 1j * y[1]
        return [y[2], y[3], (t * w).real, (t * w).imag]

    ref = scipy_solve_ivp(
        rhs, [0, 2], [1, 0, 0, 0], rtol=1e-13, atol=1e-14, method="DOP853"
    )
    want = ref.y[0, -1] + 1j * ref.y[1, -1]
    p = OdeProblem(ZERO, airy_b, ZERO, (0.0, 2.0), 1.0, 0.0, 10, 1e-10)
    r = solve_ivp(p)
    assert abs(r.solution.records[-1].coeffs[0] - want) <= 1e-8


def test_solve_complex_polygonal_path():
    # analytic continuation of cos along 0 -> i -> 1+i
    p = OdeProblem(ZERO, ONE, ZERO, (0.0, 1j, 1 + 1j), 1.0, 0.0, 12, 1e-12)
    r = solve_ivp(p)
    assert abs(r.solution.records[-1].coeffs[0] - cmath.cos(1 + 1j)) <= 1e-9
    assert 1j in r.solution.knots  # waypoint landed exactly


def test_solve_inhomogeneous():
    # y'' + y = 1 with zero data: y = 1 - cos z
    p = OdeProblem(ZERO, ONE, ONE, (0.0, 3.0), 0.0, 0.0, 8, 1e-11)
    r = solve_ivp(p)
    assert abs(r.solution.records[-1].coeffs[0] - (1 - math.cos(3.0))) <= 1e-9
    # y'' = 1 with zero data: exact quadratic
    p2 = OdeProblem(ZERO, ZERO, ONE, (0.0, 4.0), 0.0, 0.0, 5, 1e-11)
    r2 = solve_ivp(p2)
    for x in np.linspace(0, 4, 17):
        assert r2.solution.eval(float(x)) == pytest.approx(x * x / 2, abs=1e-11)


def test_solution_blendstring_satisfies_ode():
    tol = 1e-10
    p = sho_problem(8, tol)
    r = solve_ivp(p)
    t = r.solution.deval(nder=2)
    resid = np.abs(t.derivatives(2) + t.derivatives(0))
    assert float(resid.max()) <= 10 * tol


def test_solve_failure_reports_diagnostics():
    # an unreachable tolerance with a large h_min must fail loudly
    p = sho_problem(3, 1e-13, h_min=0.5, h_max=1.0)
    with pytest.raises(SolveError, match="rejected"):
        solve_ivp(p)


def test_step_log_records():
    r = solve_ivp(sho_problem(9, 1e-10))
    assert any(s.accepted for s in r.steps)
    text = r.step_log_csv()
    assert text.splitlines()[0].startswith("index,")
    assert len(text.strip().splitlines()) == len(r.steps) + 1


def test_step_log_noise_floor_column():
    r = solve_ivp(sho_problem(9, 1e-10, h_init=6.0))
    header, *rows = r.step_log_csv().splitlines()
    col = header.split(",").index("noise_floor")
    assert [float(row.split(",")[col]) for row in rows] == [s.noise_floor for s in r.steps]
    assert all(s.noise_floor > 0 for s in r.steps)


def test_floor_lets_a_high_grade_solve_finish():
    # at grade 25 the (A, B) wobble term of the noise floor is what lets the
    # steps near the end of this path be accepted; without it the step size
    # collapses to h_min and the solve fails
    y0, y1, span = 0.9989026868755729, -0.04683398501901194, 9.547959580492561
    r = solve_ivp(OdeProblem(ZERO, ONE, ZERO, (0.0, span), y0, y1, 25, 1e-12))
    end = r.solution.records[-1].coeffs
    want = (y0 * math.cos(span) + y1 * math.sin(span), y1 * math.cos(span) - y0 * math.sin(span))
    assert abs(end[0] - want[0]) <= 1e-10 and abs(end[1] - want[1]) <= 1e-10


def _exact_sample(problem, z0, z1, X) -> float:
    """The residual sample of one attempt from the solver's double blend
    coefficients X and oracle values, with exact basis rows, an exact 2x2
    solve and 200-bit arithmetic throughout."""
    rows = exact_basis_rows(problem.grade)
    d = z1 - z0
    with mpmath.workprec(200):
        dd = mpmath.mpc(d)
        Xmp = [[mpmath.mpc(x) for x in col] for col in X.T]
        out = []
        for node in range(3):
            z = z0 + float(COLLOCATION_NODES[node]) * d  # as the solver forms it
            a, b, g = (mpmath.mpc(f(z, 0)[0]) for f in (problem.a, problem.b, problem.g))
            res = []
            for col, inhom in zip(Xmp, (0, 0, g)):
                v0, v1, v2 = (mpmath.fdot(rows[node][k], col) for k in range(3))
                res.append(v2 / dd**2 + a * v1 / dd + b * v0 - inhom)
            out.append(res)
        (c1, s1, l1), (c2, s2, l2), (cm, sm, lm) = out
        det = c1 * s2 - s1 * c2
        A = (s1 * l2 - l1 * s2) / det
        B = (c2 * l1 - c1 * l2) / det
        return float(abs(lm + A * cm + B * sm))


@pytest.mark.parametrize(
    "problem",
    [
        # h_init is long enough that some attempts are rejected
        sho_problem(15, 1e-13, span=6 * math.pi, h_init=12.0),
        sho_problem(25, 1e-13, span=12 * math.pi, h_init=36.0),
        OdeProblem(ZERO, airy_b, ZERO, (0.0, 4 + 4j, 8 - 2j, 10.0), 1.0, 0.0, 15, 1e-12, 6.0),
        # a != 0 and g != 0, so the floor's |a| and |g| terms count
        OdeProblem(constant_oracle(0.5), constant_oracle(4.0), constant_oracle(3.0),
                   (0.0, 12.0), 1.0, 0.0, 15, 1e-13, 12.0),
        # a b that varies along the step
        OdeProblem(*mathieu_operator(2.0, 5.0), (0.0, 2 * math.pi), 1.0, 0.0, 20, 1e-13, 3.0),
    ],
    ids=["sho15", "sho25", "airy_complex", "damped_forced", "mathieu"],
)
def test_noise_floor_bounds_roundoff(monkeypatch, problem):
    # every attempt's reported sample lies within its noise floor of the
    # sample computed exactly from the same double coefficients
    attempts = []

    def spy(problem, z0, z1, known):
        out = step_series(problem, z0, z1, known)
        X = out[-1][:, :, 0].T  # (2m+2, 3), columns C, S, L: solve_ivp marches one known series
        attempts.append((z0, z1, X))
        return out

    step_series = odesolve._step_series
    monkeypatch.setattr(odesolve, "_step_series", spy)
    r = solve_ivp(problem)
    assert len(attempts) == len(r.steps) and any(not s.accepted for s in r.steps)
    for (z0, z1, X), st in zip(attempts, r.steps):
        assert (st.z_from, st.z_to) == (z0, z1)
        exact = _exact_sample(problem, z0, z1, X)
        assert abs(st.residual - exact) <= st.noise_floor, (st, exact)


# -- reuse of the step's Taylor columns ---------------------------------------


def fresh_constant(value):
    """constant_oracle with new number objects on every call: its columns are never reused."""
    value = complex(value)

    def oracle(point, grade):
        return [complex(value.real, value.imag)] + [complex(0.0, 0.0) for _ in range(grade)]

    return oracle


def refilling(oracle):
    """The oracle's coefficients written into, and returned as, one list per grade."""
    buffers = {}

    def refill(point, grade):
        buf = buffers.setdefault(grade, [])
        buf[:] = oracle(point, grade)
        return buf

    return refill


def outputs(result):
    return result.solution.to_document(), result.step_log_csv()


def count_recurrences(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return taylor_columns(*args)

    taylor_columns = odesolve._taylor_columns
    monkeypatch.setattr(odesolve, "_taylor_columns", spy)
    return calls


@pytest.mark.parametrize("abg, path, y0, y1", [
    ((0, 1, 0), (0.0, 2 * math.pi), 1.0, 0.0),
    ((0.5 - 0.25j, 4.0, 3.0 + 1j), (0.0, 3 + 2j, 6.0), 0.5j, -1.0),
], ids=["sho", "damped_forced"])
def test_reused_columns_match_fresh_ones(abg, path, y0, y1):
    # the same solve bit for bit whether its columns are reused or recomputed
    shared = [constant_oracle(v) for v in abg]
    fresh = [fresh_constant(v) for v in abg]
    reused, recomputed = (solve_ivp(OdeProblem(*f, path, y0, y1, 15, 1e-12)) for f in (shared, fresh))
    assert len(reused.steps) > 2
    assert outputs(reused) == outputs(recomputed)


def test_refilled_oracle_list_is_not_reused():
    # a b oracle that refills one list with values that change along the path
    # (Airy, b = -z) must miss every time, as a fresh list does; h_min stops a
    # march on stale columns early
    path = (0.0, 2 + 2j, 4.0)
    fresh, refilled = (solve_ivp(OdeProblem(ZERO, b, ZERO, path, 1.0, 0.0, 15, 1e-12, h_min=1e-3))
                       for b in (airy_b, refilling(airy_b)))
    assert outputs(refilled) == outputs(fresh)


def test_back_to_back_grades_match_solves_alone(monkeypatch):
    # the kept columns belong to one grade; a solve at another grade recomputes
    together = [outputs(solve_ivp(sho_problem(m, 1e-12))) for m in (10, 15, 10, 15)]
    alone = []
    for m in (10, 15):
        monkeypatch.setattr(odesolve, "_columns_memo", None)
        alone.append(outputs(solve_ivp(sho_problem(m, 1e-12))))
    assert together == alone * 2


def test_constant_coefficients_run_one_recurrence(monkeypatch):
    calls = count_recurrences(monkeypatch)
    p = OdeProblem(*(constant_oracle(v) for v in (0.5, 4.0, 3.0)), (0.0, 12.0), 1.0, 0.0, 15, 1e-12)
    r = solve_ivp(p)
    assert len(r.steps) > 3
    assert len(calls) <= 2  # initial_series, then at most one step recurrence


def test_varying_coefficients_run_one_recurrence_per_attempt(monkeypatch):
    calls = count_recurrences(monkeypatch)
    r = solve_ivp(mathieu_problem(ordinary_params(2.0, 1.0), 15, 1e-12))
    assert len(calls) == len(r.steps) + 1


def test_mpmath_coefficients_are_recomputed(monkeypatch):
    # the same mpmath objects on every call still miss: their columns follow
    # the precision of each call, so none are kept; and the kept columns of
    # equal complex series (mpc(1) == 1 + 0j) are not theirs
    zero, one = [mpmath.mpc(0)] * 16, [mpmath.mpc(1)] + [mpmath.mpc(0)] * 15
    p = OdeProblem(lambda z, m: zero[: m + 1], lambda z, m: one[: m + 1], lambda z, m: zero[: m + 1],
                   (0.0, 2 * math.pi), 1.0, 0.0, 15, 1e-12)
    solve_ivp(sho_problem(15, 1e-12))
    calls = count_recurrences(monkeypatch)
    r = solve_ivp(p)
    assert len(calls) == len(r.steps) + 1
    assert all(isinstance(c, mpmath.mpc) for rec in r.solution.records[1:] for c in rec.coeffs)
    assert abs(complex(r.solution.records[-1].coeffs[0]) - 1) <= 1e-10


def test_short_series_is_refused_after_reuse():
    # a b series too short for the grade raises even where the kept columns
    # came from a longer series with the same leading objects
    solve_ivp(sho_problem(15, 1e-12))
    short = OdeProblem(ZERO, lambda z, m: ONE(z, m)[: 3 if z else m + 1], ZERO,
                       (0.0, 2 * math.pi), 1.0, 0.0, 15, 1e-12)
    with pytest.raises(ValueError, match="b-series grade 2 is too small"):
        solve_ivp(short)


def test_concurrent_solves_match_solves_alone():
    # two threads that replace the kept columns in turn get their own results
    problems = [OdeProblem(*(constant_oracle(v) for v in abg), (0.0, 6.0), 1.0, 0.0, 15, 1e-12)
                for abg in ((0, 1, 0), (0.5, 4.0, 3.0))]
    alone = [outputs(solve_ivp(p)) for p in problems]
    results = [[], []]

    def work(i):
        for _ in range(5):
            results[i].append(outputs(solve_ivp(problems[i])))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [[alone[0]] * 5, [alone[1]] * 5]
