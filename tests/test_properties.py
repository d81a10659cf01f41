"""Hypothesis property tests of the algebraic identities the package relies on.

Every test is derandomized, so a run is reproducible and needs no example
database; the whole file runs in about two seconds.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from refvals import full_sum_taylor

from blends import (
    Blend,
    Blendstring,
    LocalTaylor,
    OffPathError,
    blend_eval_derivs,
    compose,
    div,
    exp_oracle,
    mul,
    ode_taylor,
    sin_oracle,
)
from blends import blendstring
from blends.blendstring import DISPATCH_RTOL
from blends.series import _taylor_columns

derandomized = settings(derandomize=True, max_examples=40, deadline=None)

EPS = 2.0**-52
unit = st.floats(-1.0, 1.0, allow_nan=False)
scalars = st.builds(complex, unit, unit)


def coeffs(grade):
    return st.lists(scalars, min_size=grade + 1, max_size=grade + 1).map(tuple)


@st.composite
def quotient_operands(draw):
    """x and y of one grade at one knot; y's constant term dominates its tail."""
    grade = draw(st.integers(0, 8))
    x = draw(coeffs(grade))
    y0 = draw(st.builds(complex, st.floats(1.0, 2.0), unit))
    small = scalars.map(lambda c: c / (2 * max(grade, 1)))
    tail = draw(st.lists(small, min_size=grade, max_size=grade))
    knot = draw(scalars)
    return LocalTaylor(knot, x), LocalTaylor(knot, (y0,) + tuple(tail))


@derandomized
@given(quotient_operands())
def test_div_undoes_mul(operands):
    # |y_1| + ... + |y_m| <= |y_0| / sqrt(2), so 1/y's coefficients stay below
    # 1/|y_0| times a geometric factor and the round trip loses about an ulp per term
    x, y = operands
    back = div(mul(x, y), y)
    scale = max(1.0, max(abs(c) for c in x.coeffs))
    for got, want in zip(back.coeffs, x.coeffs):
        assert abs(got - want) <= 4 * (x.grade + 1) * EPS * scale


@derandomized
@given(st.integers(0, 8), st.integers(0, 8), st.data())
def test_blend_meets_both_hermite_conditions(m, n, data):
    # H^(j)(0) = j! p_j for j <= m and H^(j)(1) = j! q_j for j <= n
    p, q = data.draw(coeffs(m)), data.draw(coeffs(n))
    b = Blend(LocalTaylor(0j, p), LocalTaylor(1 + 0j, q))
    for s, want in ((0.0, p), (1.0, q)):
        jet = blend_eval_derivs(b, s, len(want) - 1)
        for j, (got, c) in enumerate(zip(jet, want)):
            # the jet sums binomial weights up to C(m+n+2, n+1) before cancelling
            bound = 8 * EPS * math.factorial(j) * math.comb(m + n + 2, n + 1)
            assert abs(got - math.factorial(j) * c) <= bound


@st.composite
def strings(draw):
    """A blendstring of 2..6 knots at distinct points, grade 0..8, unit-sized data."""
    grade = draw(st.integers(0, 8))
    knots = draw(st.lists(scalars.map(lambda z: 3 * z), min_size=2, max_size=6, unique=True))
    return Blendstring([LocalTaylor(z, draw(coeffs(grade))) for z in knots])


@derandomized
@given(strings())
def test_integral_is_the_sum_over_segments(bs):
    pieces = [Blendstring(bs.records[k : k + 2]).definite_integral() for k in range(bs.segments)]
    total = bs.definite_integral()
    scale = sum(abs(p) for p in pieces) + 1.0
    assert abs(total - sum(pieces)) <= 8 * bs.segments * EPS * scale


def _bits(z):
    return z.real.hex(), z.imag.hex()


finite = st.floats(allow_nan=False, allow_infinity=False)


@derandomized
@given(strings(), st.lists(st.builds(complex, finite, finite), min_size=1, max_size=8))
def test_document_round_trip_is_bit_exact(bs, extremes):
    # the unit-sized string, with its first coefficients replaced by any finite
    # doubles (subnormals, extremes and signed zeros included)
    first = bs.records[0]
    extremes = tuple(extremes[: first.grade + 1])
    head = LocalTaylor(first.knot, extremes + first.coeffs[len(extremes) :])
    bs = Blendstring((head,) + bs.records[1:])
    back = Blendstring.from_document(bs.to_document())
    assert len(back) == len(bs)
    for r, s in zip(bs.records, back.records):
        assert _bits(complex(r.knot)) == _bits(s.knot)
        assert [_bits(complex(c)) for c in r.coeffs] == [_bits(c) for c in s.coeffs]


def zero_tailed(grade):
    """grade + 1 coefficients, a random number of them (none, some or all) trailing exact zeros."""
    return st.tuples(coeffs(grade), st.integers(0, grade + 1)).map(
        lambda t: t[0][: t[1]] + (0j,) * (grade + 1 - t[1])
    )


@st.composite
def taylor_problems(draw):
    """Shared a and b, and one to three columns (g, y0, y1), all with random zero tails."""
    grade = draw(st.integers(0, 12))
    a, b = draw(zero_tailed(grade)), draw(zero_tailed(grade))
    data = st.sampled_from([0.0, 1.0, 0j]) | scalars
    columns = draw(st.lists(st.tuples(zero_tailed(grade), data, data), min_size=1, max_size=3))
    return grade, a, b, columns


# Hypothesis's explain phase takes minutes on a failure of this test; the
# shrunk counterexample is reported without it
@settings(derandomized, phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(taylor_problems())
def test_taylor_recurrence_matches_the_full_sum(problem):
    # the terms the recurrence leaves out are exact zeros; subtracting one
    # can only turn a -0.0 from g into +0.0, so bits are compared where g
    # holds no negative zero and values everywhere
    grade, a, b, columns = problem
    got = _taylor_columns(a, b, columns, grade)
    for (g, y0, y1), col in zip(columns, got):
        want = full_sum_taylor(a, b, g, y0, y1, grade)
        single = ode_taylor(LocalTaylor(0j, a), LocalTaylor(0j, b), LocalTaylor(0j, g), y0, y1, grade)
        assert col == list(single.coeffs) == want
        if not any(math.copysign(1.0, x) < 0 for c in g for x in (c.real, c.imag) if x == 0):
            assert [_bits(c) for c in col] == [_bits(c) for c in want]
            assert [_bits(c) for c in single.coeffs] == [_bits(c) for c in want]


def test_taylor_recurrence_stays_exact_on_fractions():
    # y'' + y'/2 + (1 + x/2 + x^2/3) y = 1 + x, and the zero column beside it
    grade, f = 8, Fraction
    a = (f(1, 2),) + (f(0),) * grade
    b = (f(1), f(1, 2), f(1, 3)) + (f(0),) * (grade - 2)
    g = (f(1), f(1)) + (f(0),) * (grade - 1)
    zero = (f(0),) * (grade + 1)
    columns = [(g, f(1), f(-1)), (zero, f(0), f(0))]
    for (g, y0, y1), col in zip(columns, _taylor_columns(a, b, columns, grade)):
        assert all(type(c) is Fraction for c in col)
        assert col == full_sum_taylor(a, b, g, y0, y1, grade)


@derandomized
@given(scalars.map(lambda z: 3 * z), st.integers(0, 12))
def test_compose_with_the_identity_series_is_the_oracle(knot, grade):
    identity = LocalTaylor(knot, ((knot, 1.0) + (0j,) * grade)[: grade + 1])
    got = compose(exp_oracle, identity).coeffs
    assert [_bits(c) for c in got] == [_bits(complex(c)) for c in exp_oracle(knot, grade)]


@pytest.mark.parametrize("grade", [5, 15])
@pytest.mark.parametrize("knot", [0.4 + 0.3j, -1.2 + 0.7j])
def test_compose_exp_on_sin_matches_mpmath_taylor(knot, grade):
    got = compose(exp_oracle, LocalTaylor(knot, sin_oracle(knot, grade))).coeffs
    with mpmath.workdps(30):
        want = mpmath.taylor(lambda z: mpmath.exp(mpmath.sin(z)), mpmath.mpc(knot), grade)
        for c, w in zip(got, want):
            assert abs(c - w) <= 1e-13 * abs(w)


# the self-crossing path of the dispatch unit test (z = 1 is on segments 0
# and 2), and one that runs back over itself ([1/2, 1] is on segments 0, 1, 2)
CROSSING_PATHS = ([0j, 2 + 0j, 1 + 1j, 1 - 1j], [0j, 1 + 0j, 0.5 + 0j, 2 + 0j])
coordinate = st.floats(-3.0, 3.0)


@st.composite
def dispatch_cases(draw):
    """A path and a point near one of its segments: a knot, an interior point, or an
    offset of 3 or 1/2 DISPATCH_RTOL along or across the segment from a knot or interior point."""
    knots = draw(
        st.sampled_from(CROSSING_PATHS)
        | st.lists(st.builds(complex, coordinate, coordinate), min_size=2, max_size=6)
    )
    assume(all(abs(b - a) >= 1e-2 for a, b in zip(knots, knots[1:])))
    k = draw(st.integers(0, len(knots) - 2))
    x = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    off = DISPATCH_RTOL * draw(st.sampled_from([0, 3, -3, 3j, -3j, 0.5, -0.5, 0.5j, -0.5j]))
    a, d = knots[k], knots[k + 1] - knots[k]
    if off == 0 and x in (0.0, 1.0):  # the knots themselves, exactly
        return knots, knots[k + int(x)]
    return knots, a + (x + off) * d


def first_match(knots, z):
    """The segment a plain scan in path order picks, and z's least distance from
    any segment's tolerance edge in that segment's parameter s."""
    tol, pick, margin = DISPATCH_RTOL, None, math.inf
    for k in range(len(knots) - 1):
        s = (z - knots[k]) / (knots[k + 1] - knots[k])
        margin = min(margin, abs(abs(s.imag) - tol), abs(s.real + tol), abs(s.real - 1 - tol))
        if pick is None and abs(s.imag) <= tol and -tol <= s.real <= 1 + tol:
            pick = k
    return pick, margin


@derandomized
@given(dispatch_cases())
def test_dispatch_picks_the_first_matching_segment(case):
    knots, z = case
    pick, margin = first_match(knots, z)
    assume(margin > 1e-3 * DISPATCH_RTOL)  # no point within rounding of a tolerance edge
    bs = Blendstring([LocalTaylor(c, (0.0,)) for c in knots])
    with mock.patch.object(blendstring, "blend_eval", lambda b, s: b):  # eval returns its blend
        if pick is None:
            with pytest.raises(OffPathError):
                bs.eval(z)
        else:
            assert bs.eval(z) is bs.segment_blend(pick)


def _walk(n, seed):
    """n + 1 knots of a random walk that turns by up to a radian per step."""
    rng, z, angle, knots = random.Random(seed), 0j, 0.0, [0j]
    for _ in range(n):
        angle += rng.uniform(-1.0, 1.0)
        z += rng.uniform(0.03, 0.08) * cmath.exp(1j * angle)
        knots.append(z)
    return knots


# a long random walk that crosses itself; one long segment among 200 short
# ones on the real axis, diagonal or in line with them (so the first cell
# size gives too many cell-segment pairs); a path that runs over [0, 1] three times
SHORT = [k / 100 for k in range(101)]
INDEX_PATHS = {
    "walk": _walk(240, 7),
    "diagonal": SHORT + [900 + 700j + x for x in SHORT[1:]],
    "in_line": SHORT + [999 + x for x in SHORT[1:]],
    "retrace": [k / 40 for k in range(41)] + [1 - k / 40 for k in range(1, 41)] + [k / 40 for k in range(1, 41)],
}


def _index_points(knots, seed):
    """Every knot, points on and within 3 or 1/2 DISPATCH_RTOL of segments, points
    outside the bounding box, and non-finite points."""
    rng = random.Random(seed)
    pts = list(knots)
    for _ in range(300):
        k = rng.randrange(len(knots) - 1)
        off = DISPATCH_RTOL * rng.choice([0, 3, -3, 3j, -3j, 0.5, -0.5, 0.5j, -0.5j])
        pts.append(knots[k] + (rng.choice([0.0, 1.0, rng.random()]) + off) * (knots[k + 1] - knots[k]))
    xs, ys = [z.real for z in knots], [z.imag for z in knots]
    pts += [complex(min(xs) - 1, 0), complex(max(xs) + 1, max(ys)), complex(0, min(ys) - 1),
            complex(max(xs), max(ys) + 1), max(xs) + max(ys) * 1j]
    nan, inf = math.nan, math.inf
    return pts + [complex(nan, 0), complex(0, nan), complex(nan, nan), complex(inf, 0),
                  complex(0, -inf), complex(inf, inf), complex(-inf, nan)]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("name", sorted(INDEX_PATHS))
def test_indexed_dispatch_matches_a_plain_scan(name, scale):
    # the segment index must pick what a scan in path order picks, on long
    # paths, uneven spans and retraced segments, at extreme knot scales
    knots = [scale * z for z in INDEX_PATHS[name]]
    bs = Blendstring([LocalTaylor(c, (0.0,)) for c in knots])
    with warnings.catch_warnings(), mock.patch.object(blendstring, "blend_eval", lambda b, s: b):
        warnings.simplefilter("error")
        for z in _index_points(knots, len(knots)):
            pick, margin = first_match(knots, z)
            if not margin > 1e-3 * DISPATCH_RTOL:  # within rounding of a tolerance edge
                continue
            if pick is None:
                with pytest.raises(OffPathError):
                    bs.eval(z)
            else:
                assert bs.eval(z) is bs.segment_blend(pick)
    # cells and (cell, segment) pairs stay O(segments)
    x0, y0, side, nx, ny, starts, ids, *_ = bs._path.grid
    assert nx * ny <= 20 * bs.segments and len(ids) <= 8 * bs.segments


def test_segment_index_is_built_by_eval_alone():
    bs = Blendstring.from_oracle(INDEX_PATHS["walk"], 3, exp_oracle)
    bs.deval(nrefine=2)
    bs.definite_integral()
    assert bs._path.grid is None
    bs.eval(bs.knots[5])
    assert bs._path.grid is not None


def test_dispatch_skips_segments_with_non_finite_knots():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bs = Blendstring([LocalTaylor(c, (1.0,)) for c in (0.0, 1.0, complex(math.inf, 0))])
        assert bs.eval(0.5) == 1.0
        with pytest.raises(OffPathError):
            bs.eval(2.0)
        bs = Blendstring([LocalTaylor(c, (1.0,)) for c in (complex(math.nan, 0), 1.0)])
        with pytest.raises(OffPathError):
            bs.eval(1.0)
