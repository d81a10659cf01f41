"""Hypothesis property tests of the algebraic identities the package relies on.

Every test is derandomized, so a run is reproducible and needs no example
database; the whole file runs in about a second.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from blends import Blend, Blendstring, LocalTaylor, blend_eval_derivs, div, mul

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
