import copy
import math
import pickle
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from refvals import hermite_form

from blends import (
    Blendstring,
    CompatibilityError,
    DocumentError,
    EvalOverflowError,
    EvalTable,
    OffPathError,
    constant_oracle,
    cos_oracle,
    exp_oracle,
    identity_oracle,
    recip_gamma_oracle,
    sin_oracle,
)
from blends.blend import Blend, blend_eval, blend_eval_derivs
from blends.blendstring import DISPATCH_RTOL, zip_with
from blends.series import LocalTaylor, combine, div, mul

KNOTS4 = [-1.0, -1 / 3, 1 / 3, 1.0]


def exp_string(grade=5, knots=KNOTS4):
    return Blendstring.from_oracle(knots, grade, exp_oracle)


def test_build_and_eval_exp():
    bs = exp_string()
    xs = np.linspace(-1, 1, 1000)
    worst = max(abs(bs.eval(float(x)) - math.exp(x)) for x in xs)
    assert worst <= 1e-14


def test_build_validations():
    with pytest.raises(CompatibilityError):
        Blendstring.from_oracle([0.0, 0.0], 2, exp_oracle)
    with pytest.raises(ValueError):
        Blendstring.from_oracle([], 2, exp_oracle)
    single = Blendstring.from_oracle([2.0], 2, exp_oracle)
    assert single.segments == 0


def test_eval_at_knots_is_exact():
    bs = exp_string()
    for r in bs.records:
        assert bs.eval(r.knot) == r.coeffs[0]


def test_eval_of_fraction_records_is_exact():
    # from_taylor's d^j scaling keeps the records' arithmetic
    bs = Blendstring([LocalTaylor(F(0), (F(1), F(1, 3))), LocalTaylor(F(1, 2), (F(2), F(1, 7)))])
    got = bs.eval(F(1, 4))
    assert type(got) is F and got == F(127, 84)


def test_fraction_blends_are_kept():
    # exact rationals do not depend on any precision, so each segment's blend
    # and its power coefficients are built once
    bs = Blendstring([LocalTaylor(F(k, 2), (F(1), F(k, 3))) for k in range(3)])
    for k in range(bs.segments):
        assert bs.segment_blend(k) is bs.segment_blend(k)


def test_eval_off_path():
    bs = exp_string()
    with pytest.raises(OffPathError):
        bs.eval(10 + 10j)
    with pytest.raises(OffPathError):
        bs.eval(0.5 + 0.1j)


def test_compatibility():
    a = exp_string()
    assert a.compatible(a)
    assert not a.compatible(Blendstring.from_oracle([-1, 0, 1 / 3, 1], 5, exp_oracle))
    assert not a.compatible(Blendstring.from_oracle(KNOTS4, 6, exp_oracle))


def test_zip_add_one_plus_z():
    ones = Blendstring.from_oracle(KNOTS4, 5, constant_oracle(1.0))
    z = Blendstring.from_oracle(KNOTS4, 5, identity_oracle)
    s = zip_with(ones, z, combine)
    for a, r in zip(KNOTS4, s.records):
        assert r.coeffs[0] == pytest.approx(1 + a)
        assert r.coeffs[1] == pytest.approx(1.0)
    for x in np.linspace(-1, 1, 50):
        assert s.eval(float(x)) == pytest.approx(1 + x, abs=1e-14)


def test_zip_chebyshev_recurrence():
    ones = Blendstring.from_oracle(KNOTS4, 5, constant_oracle(1.0))
    z = Blendstring.from_oracle(KNOTS4, 5, identity_oracle)
    t_prev, t_cur = ones, z
    for _ in range(5):
        two_z_t = zip_with(z, t_cur, lambda x, y: combine(mul(x, y), mul(x, y)))
        t_prev, t_cur = t_cur, zip_with(two_z_t, t_prev, lambda x, y: combine(x, y, 1.0, -1.0))
    xs = np.linspace(-1, 1, 400)
    ref = np.polynomial.chebyshev.chebval(xs, [0] * 6 + [1])
    worst = max(abs(t_cur.eval(float(x)) - r) for x, r in zip(xs, ref))
    assert worst <= 1e-13


def test_zip_division_rational_error_humps():
    ones = Blendstring.from_oracle(KNOTS4, 5, constant_oracle(1.0))
    z = Blendstring.from_oracle(KNOTS4, 5, identity_oracle)
    num = zip_with(ones, z, lambda x, y: combine(x, y, 1.0, 0.5))
    den = zip_with(ones, z, lambda x, y: combine(x, y, 1.0, -0.5))
    rat = zip_with(num, den, div)
    seg_max = []
    for k in range(3):
        a, b = KNOTS4[k], KNOTS4[k + 1]
        xs = np.linspace(a, b, 200)
        seg_max.append(
            max(abs(rat.eval(float(x)) - (1 + x / 2) / (1 - x / 2)) for x in xs)
        )
    # visible per-segment humps, growing toward the pole side
    assert seg_max[0] < seg_max[1] < seg_max[2]
    assert 1e-9 < seg_max[2] < 1e-4


def test_map_identity_and_exp():
    bs = exp_string()
    same = bs.map(identity_oracle)
    for r1, r2 in zip(bs.records, same.records):
        assert np.allclose(r1.coeffs, r2.coeffs)
    z = Blendstring.from_oracle(KNOTS4, 5, identity_oracle)
    mapped = z.map(exp_oracle)
    for r1, r2 in zip(mapped.records, bs.records):
        assert np.allclose(r1.coeffs, r2.coeffs, rtol=1e-13)


def test_map_square_polynomial():
    def square(point, grade):
        out = [complex(point) ** 2] + [0j] * grade
        if grade >= 1:
            out[1] = 2.0 * point
        if grade >= 2:
            out[2] = 1.0
        return out

    z = Blendstring.from_oracle([0.0, 0.7, 2.0], 4, identity_oracle)
    sq = z.map(square)
    for r in sq.records:
        a = r.knot
        assert np.allclose(r.coeffs, [a * a, 2 * a, 1.0, 0.0, 0.0])


def test_deval_constant_one():
    ones = Blendstring.from_oracle([0.0, 1.0, 2.0], 3, constant_oracle(1.0))
    t = ones.deval(nder=1)
    assert np.allclose(t.derivatives(0), 1.0)
    assert np.allclose(t.derivatives(1), 0.0, atol=1e-13)


def test_deval_point_layout():
    bs = Blendstring.from_oracle([0.0, 1.0, 1 + 1j], 3, constant_oracle(1.0))
    t0 = bs.deval(nrefine=0)
    assert len(t0) == 3
    assert np.allclose(t0.points, [0.0, 1.0, 1 + 1j])
    t2 = bs.deval(nrefine=2, nder=0)
    # knots once each plus two interior points per segment
    assert len(t2) == 3 + 2 * 2
    # default refinement
    assert len(bs.deval()) == 3 + 2 * (2 * (3 + 1))


def test_deval_degenerate_single_knot():
    single = Blendstring.from_oracle([2.0], 2, exp_oracle)
    t = single.deval(nrefine=0, nder=1)
    assert len(t) == 1
    assert t.points[0] == 2.0
    assert t.derivs[0, 0] == pytest.approx(math.exp(2.0))
    assert t.derivs[1, 0] == pytest.approx(math.exp(2.0))


def test_deval_second_derivative_accuracy():
    bs = exp_string()
    t = bs.deval(nrefine=80, nder=3)
    pts = t.points.real
    assert np.max(np.abs(t.derivatives(2) - np.exp(pts))) <= 1e-12


def test_smoothness_at_interior_knots():
    from blends.blend import blend_eval_derivs

    bs = exp_string()
    m = bs.grade
    for k in range(1, bs.segments):
        dl = bs.records[k].knot - bs.records[k - 1].knot
        dr = bs.records[k + 1].knot - bs.records[k].knot
        left = blend_eval_derivs(bs.segment_blend(k - 1), 1.0, m)
        right = blend_eval_derivs(bs.segment_blend(k), 0.0, m)
        for j in range(m + 1):
            zl = left[j] / dl**j
            zr = right[j] / dr**j
            # top-order recovery is limited by the spread of the data scales
            assert abs(zl - zr) <= 1e-9 * max(1.0, abs(zl))


def test_convergence_orders():
    # fixed grade, halving segment widths; aggregate slope of the max error
    for m, mlist, order in ((2, (2, 4, 8, 16), 6), (3, (1, 2, 4, 8), 8)):
        errs, derrs = [], []
        for M in mlist:
            bs = Blendstring.from_oracle(list(np.linspace(-1, 1, M + 1)), m, exp_oracle)
            t = bs.deval(nrefine=24, nder=1)
            pts = t.points.real
            errs.append(np.max(np.abs(t.derivatives(0) - np.exp(pts))))
            derrs.append(np.max(np.abs(t.derivatives(1) - np.exp(pts))))
        slope = np.polyfit(np.log2([2 / M for M in mlist]), np.log2(errs), 1)[0]
        dslope = np.polyfit(np.log2([2 / M for M in mlist]), np.log2(derrs), 1)[0]
        assert abs(slope - order) <= 0.5
        assert abs(dslope - (order - 1)) <= 0.5


def test_indefinite_integral_constant():
    ones = Blendstring.from_oracle([0.0, 1.0, 2.0], 3, constant_oracle(1.0))
    anti = ones.indefinite_integral()
    assert anti.grade == 4
    assert anti.records[0].coeffs[0] == 0.0
    assert anti.records[-1].coeffs[0] == pytest.approx(2.0)
    for x in np.linspace(0, 2, 20):
        assert anti.eval(float(x)) == pytest.approx(x, abs=1e-14)


def test_indefinite_then_differentiate_recovers_records():
    bs = exp_string()
    anti = bs.indefinite_integral()
    for r0, r1 in zip(bs.records, anti.records):
        back = r1.derivative()
        for a, b in zip(back.coeffs, r0.coeffs):
            # one rounding in the divide, one in the multiply
            assert abs(a - b) <= 4e-16 * abs(b) + 1e-300


def test_fundamental_theorem_pointwise():
    bs = exp_string()
    anti = bs.indefinite_integral()
    t0 = bs.deval(nrefine=7, nder=0)
    t1 = anti.deval(nrefine=7, nder=1)
    assert np.allclose(t1.derivatives(1), t0.derivatives(0), rtol=1e-12, atol=1e-14)


def test_definite_integral_against_cumulative():
    bs = exp_string()
    anti = bs.indefinite_integral()
    total = bs.definite_integral()
    assert total == pytest.approx(anti.records[-1].coeffs[0], rel=1e-14)
    assert total == pytest.approx(math.e - math.exp(-1), rel=1e-13)
    ones = Blendstring.from_oracle([-1.0, 1.0], 6, constant_oracle(1.0))
    assert ones.definite_integral() == pytest.approx(2.0)


def test_recip_gamma_quadrature():
    bs = Blendstring.from_oracle([-3.0, -2.0, -1.0, 0.0], 7, recip_gamma_oracle)
    val = bs.definite_integral()
    assert abs(val.real - (-0.606607588783124)) <= 5e-13
    assert abs(val.imag) <= 1e-14
    assert abs(val.real - (-0.606607588776539)) <= 1e-11


def test_truncate():
    bs = exp_string()
    cut = bs.truncate(3)
    assert cut.grade == 3
    for r0, r1 in zip(bs.records, cut.records):
        assert r1.coeffs == r0.coeffs[:4]
    with pytest.raises(ValueError):
        bs.truncate(9)


def test_document_roundtrip():
    bs = exp_string()
    again = Blendstring.from_document(bs.to_document())
    assert again == bs


def test_document_errors():
    with pytest.raises(DocumentError):
        Blendstring.from_document("")
    with pytest.raises(DocumentError):
        Blendstring.from_document("{not json")
    with pytest.raises(DocumentError):
        Blendstring.from_document('{"format_version": 2}')
    good = exp_string().to_document()
    import json

    doc = json.loads(good)
    doc["coefficients"][2] = doc["coefficients"][2][:-1]
    with pytest.raises(DocumentError, match="coefficients"):
        Blendstring.from_document(json.dumps(doc))


def _with_first_coefficient(re):
    """The exp string's document with coefficients[1][0] set to {"re": re, "im": 0}."""
    import json

    doc = json.loads(exp_string().to_document())
    doc["coefficients"][1][0] = {"re": re, "im": 0}
    return json.dumps(doc)


def test_document_integer_too_large_for_a_double():
    text = _with_first_coefficient(10**399)  # json writes all 400 digits
    with pytest.raises(DocumentError, match=r"coefficients\[1\]\[0\]"):
        Blendstring.from_document(text)


def test_document_boolean_is_not_a_number():
    text = _with_first_coefficient(True)  # json writes true
    with pytest.raises(DocumentError, match=r"coefficients\[1\]\[0\]"):
        Blendstring.from_document(text)
    grade1 = exp_string(grade=1).to_document().replace('"grade": 1', '"grade": true')
    with pytest.raises(DocumentError, match="grade"):
        Blendstring.from_document(grade1)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_document_format_version_must_be_the_integer_1(version):
    text = exp_string().to_document().replace('"format_version": 1', f'"format_version": {version}')
    with pytest.raises(DocumentError, match="format_version"):
        Blendstring.from_document(text)


def test_save_load(tmp_path):
    bs = exp_string()
    path = tmp_path / "exp.blend.json"
    bs.save(path)
    assert Blendstring.load(path) == bs


def test_blendstring_backed_oracle():
    from blends import blendstring_oracle

    bs = exp_string()
    oracle = blendstring_oracle(bs)
    rebuilt = Blendstring.from_oracle(bs.knots, 5, oracle)
    assert rebuilt == bs
    with pytest.raises(OffPathError):
        oracle(0.123, 5)
    with pytest.raises(ValueError):
        oracle(bs.knots[0], 9)


def test_eval_table_csv():
    bs = exp_string(grade=2, knots=[0.0, 1.0])
    t = bs.deval(nrefine=1, nder=1)
    text = t.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "re_z,im_z,re_d0,im_d0,re_d1,im_d1"
    assert len(lines) == 1 + len(t)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[2] == pytest.approx(1.0)


# -- batched deval and array dispatch --------------------------------------

# a complex polygon with three corners (1, 1+1j, 0.5+1.5j), uneven knots
CORNER_KNOTS = [0.0, 0.4, 1.0, 1 + 0.3j, 1 + 1j]
CORNER_KNOTS += [0.75 + 1.25j, 0.5 + 1.5j, 0.1 + 1.2j, -0.2 + 1j]


def _per_segment_table(bs, nrefine, nder):
    """Reference table: one blend_eval_derivs call per segment, z-scaled."""
    s = np.arange(nrefine + 2) / (nrefine + 1)
    cols = [[] for _ in range(nder + 1)]
    for k in range(bs.segments):
        d = bs.knots[k + 1] - bs.knots[k]
        jets = blend_eval_derivs(bs.segment_blend(k), s, nder)
        keep = slice(None) if k == bs.segments - 1 else slice(0, -1)
        for order in range(nder + 1):
            cols[order].append(np.asarray(jets[order] / d**order)[keep])
    return [np.concatenate(c) for c in cols]


def test_deval_batched_matches_per_segment_kernel():
    bs = Blendstring.from_oracle(CORNER_KNOTS, 12, exp_oracle)
    bounds = (1e-14, 1e-12, 1e-10, 1e-8)
    for nder in range(4):
        t = bs.deval(nrefine=9, nder=nder)
        want = _per_segment_table(bs, 9, nder)
        for order in range(nder + 1):
            got = t.derivatives(order)
            scale = np.max(np.abs(want[order]))
            assert np.max(np.abs(got - want[order])) <= bounds[order] * scale
        assert np.max(np.abs(t.derivatives(0) - np.exp(t.points))) <= 1e-13


def _record_from_taylor(monkeypatch):
    """Patch Blend.from_taylor to keep every blend it builds; returns that list."""
    built, build = [], Blend.from_taylor.__func__

    def record(cls, left, right):
        built.append(build(cls, left, right))
        return built[-1]

    monkeypatch.setattr(Blend, "from_taylor", classmethod(record))
    return built


def test_deval_builds_one_batched_blend_per_string(monkeypatch):
    built = _record_from_taylor(monkeypatch)
    bs = Blendstring.from_oracle(CORNER_KNOTS, 12, exp_oracle)
    assert built == []  # construction builds no blend
    first = bs.deval(nrefine=3, nder=2)
    assert len(built) == 1 and np.shape(built[0].left.knot) == (bs.segments, 1)
    assert "power_coeffs" in vars(built[0])  # kept with the blend
    assert bs.deval(nrefine=3, nder=2) == first
    bs.deval(nrefine=8, nder=0)
    assert len(built) == 1


@pytest.mark.parametrize("oracle, grade", [(exp_oracle, 12), (sin_oracle, 25), (recip_gamma_oracle, 8)])
def test_deval_power_coeffs_match_each_segment_blend(monkeypatch, oracle, grade):
    # the batched blend's power coefficients are each segment's, up to how
    # numpy's complex multiply rounds the d^j scaling
    built = _record_from_taylor(monkeypatch)
    bs = Blendstring.from_oracle(CORNER_KNOTS, grade, oracle)
    bs.deval(nrefine=0)
    e, f = built[0].power_coeffs
    for k in range(bs.segments):
        want = np.array(sum(bs.segment_blend(k).power_coeffs, ()))
        got = np.array([c[k, 0] for c in e + f])
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def test_deval_overflow_raises_before_numpy_warns():
    # grade 600 of unit data: the power coefficients pass the largest double,
    # which deval reports as EvalOverflowError, with no RuntimeWarning first
    bs = Blendstring([LocalTaylor(k, (1.0,) * 601) for k in (0, 1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalOverflowError):
            bs.deval(nrefine=3, nder=1)


def test_deval_layout_and_last_point():
    bs = Blendstring.from_oracle(CORNER_KNOTS, 12, exp_oracle)
    for nrefine in (0, 1, 5):
        t = bs.deval(nrefine=nrefine, nder=1)
        assert len(t) == bs.segments * (nrefine + 1) + 1
        assert t.points[-1] == complex(CORNER_KNOTS[-1])
        # every knot appears once, at its own position in path order
        assert list(t.points[:: nrefine + 1]) == [complex(z) for z in CORNER_KNOTS]
        assert t.derivs.dtype == complex and t.derivs.shape == (2, len(t))
    t0 = bs.deval(nrefine=0, nder=2)
    want = _per_segment_table(bs, 0, 2)
    scale = np.max(np.abs(want[0]))
    assert np.max(np.abs(t0.derivatives(0) - want[0])) <= 1e-14 * scale


def test_deval_single_segment():
    bs = Blendstring.from_oracle([0.2, 0.2 + 0.9j], 6, exp_oracle)
    t = bs.deval(nrefine=4, nder=2)
    assert len(t) == 6
    assert t.points[0] == 0.2 and t.points[-1] == 0.2 + 0.9j
    want = _per_segment_table(bs, 4, 2)
    for order in range(3):
        assert np.allclose(t.derivatives(order), want[order], rtol=1e-13, atol=0)


def test_eval_table_holds_read_only_arrays():
    bs = Blendstring.from_oracle(CORNER_KNOTS, 7, exp_oracle)
    t = bs.deval(nrefine=3, nder=2)
    n = 4 * bs.segments + 1
    assert t.points.shape == (n,) and t.derivs.shape == (3, n) and t.nder == 2 and len(t) == n
    assert t.points.dtype == complex and t.derivs.dtype == complex
    for twin in (t, copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert twin == t
        for arr in (twin.points, twin.derivs):
            with pytest.raises(ValueError):
                arr[0] = 0
    # rows: (z, (d0, d1, d2)) per point in Python complex numbers
    assert len(t.rows) == n and all(type(v) is complex for z, d in t.rows for v in (z, *d))
    assert [z for z, _ in t.rows] == list(t.points)
    assert [d for _, d in t.rows] == [tuple(col) for col in t.derivs.T]
    # equality is bitwise: negative zero differs, the same NaN matches
    assert EvalTable([0.0], [[-0.0]]) != EvalTable([0.0], [[0.0]])
    assert EvalTable([0.0], [[math.nan]]) == EvalTable([0.0], [[math.nan]])
    assert EvalTable([0.0], [[1.0]]) != EvalTable([0.0], [[1.0], [0.0]])
    for points, derivs in ((t.points, t.derivs[:, 1:]), (t.points, t.derivs[:0]),
                           (t.points[None], t.derivs), (t.points, t.derivs[0])):
        with pytest.raises(ValueError):
            EvalTable(points, derivs)


def test_dispatch_first_segment_wins_on_self_crossing_path():
    # segment 0 runs 0 -> 2 along the real axis, segment 2 runs 1+1j -> 1-1j,
    # so z = 1 lies on both; the records differ so the two blends disagree
    recs = [
        LocalTaylor(0.0, (0.0, 0.0)),
        LocalTaylor(2.0, (0.0, 0.0)),
        LocalTaylor(1 + 1j, (10.0, 0.0)),
        LocalTaylor(1 - 1j, (10.0, 0.0)),
    ]
    bs = Blendstring(recs)
    assert bs.eval(1.0) == blend_eval(bs.segment_blend(0), 0.5) == 0.0
    assert blend_eval(bs.segment_blend(2), 0.5) == 10.0
    assert bs.eval(1 + 0.5j) == 10.0


def test_dispatch_tolerance_edges():
    bs = exp_string()
    a, b = KNOTS4[-2], KNOTS4[-1]
    inside = a + (1 + DISPATCH_RTOL / 2) * (b - a)
    assert bs.eval(inside) == blend_eval(bs.segment_blend(2), (inside - a) / (b - a))
    assert bs.eval(0.0 + 0.5j * DISPATCH_RTOL * (b - a)) == pytest.approx(1.0)
    with pytest.raises(OffPathError):
        bs.eval(a + (1 + 3 * DISPATCH_RTOL) * (b - a))
    with pytest.raises(OffPathError):
        bs.eval(KNOTS4[0] - 1e-3)
    for k in (-1, bs.segments):
        with pytest.raises(IndexError):
            bs.segment_blend(k)


# -- copies, pickles and wider scalar types ---------------------------------


def test_copy_deepcopy_and_pickle_round_trip():
    bs = Blendstring.from_oracle(CORNER_KNOTS, 7, exp_oracle)
    z = 1 + 0.65j
    value, table = bs.eval(z), bs.deval(nrefine=3, nder=2)  # fills the cache
    fresh = pickle.dumps(Blendstring.from_oracle(CORNER_KNOTS, 7, exp_oracle))
    assert pickle.dumps(bs) == fresh  # the cache is never serialized
    for twin in (copy.copy(bs), copy.deepcopy(bs), pickle.loads(pickle.dumps(bs))):
        assert twin == bs
        assert twin.eval(z) == value
        assert twin.deval(nrefine=3, nder=2) == table


def _mp_exp_string(knots, grade):
    recs = []
    for a in knots:
        e, coeffs = mpmath.exp(a), []
        for j in range(grade + 1):
            coeffs.append(e / mpmath.factorial(j))
        recs.append(LocalTaylor(a, coeffs))
    return Blendstring(recs)


def test_mpmath_records_eval_and_integral():
    with mpmath.workdps(30):
        knots = [mpmath.mpc(0), mpmath.mpc("0.5", "0.25"), mpmath.mpc(1)]
        bs = _mp_exp_string(knots, 6)
        for k, frac in ((0, mpmath.mpf("0.3")), (1, mpmath.mpf("0.7"))):
            a, b = knots[k], knots[k + 1]
            z = a + frac * (b - a)
            v = bs.eval(z)
            assert isinstance(v, mpmath.mpc)
            assert v == blend_eval(bs.segment_blend(k), (z - a) / (b - a))
            assert abs(v - mpmath.exp(z)) <= 1e-7
        total = bs.definite_integral()
        assert isinstance(total, mpmath.mpc)
        assert abs(total - (mpmath.e - 1)) <= 1e-9
        with pytest.raises(TypeError, match="mpc"):
            bs.deval(nrefine=2)


def test_mpmath_eval_keeps_30_digits():
    # at grade 20 the blend is exact to far below 1e-25 on this path, so the
    # power coefficients and Horner loops must run in 30-digit arithmetic
    with mpmath.workdps(30):
        knots = [mpmath.mpc(0), mpmath.mpc("0.5", "0.25"), mpmath.mpc(1)]
        bs = _mp_exp_string(knots, 20)
        for k, frac in ((0, mpmath.mpf("0.3")), (1, mpmath.mpf("0.7")), (1, mpmath.mpf(1))):
            z = knots[k] + frac * (knots[k + 1] - knots[k])
            assert abs(bs.eval(z) - mpmath.exp(z)) <= 1e-25


def test_mpmath_eval_follows_the_current_precision():
    # a first use at 15 digits must not fix the precision of later ones
    with mpmath.workdps(30):
        knots = [mpmath.mpf(0), mpmath.mpf("0.5"), mpmath.mpf(1)]
        bs = _mp_exp_string(knots, 20)
    z = mpmath.mpf("0.3")
    with mpmath.workdps(15):
        bs.eval(z)
    with mpmath.workdps(30):
        assert abs(bs.eval(z) - mpmath.exp(z)) <= 1e-25


@pytest.mark.parametrize("oracle", [exp_oracle, sin_oracle, cos_oracle, recip_gamma_oracle])
@pytest.mark.parametrize("grade", [5, 15, 25, 40])
def test_eval_roundoff_against_40_digit_hermite_form(oracle, grade):
    # the same double coefficients, s and t = 1 - s, evaluated by the header
    # formula in 40 digits; the path keeps every function well away from its
    # zeros.  For s < 1/2, t itself rounds, and t^(n+1) scales that rounding
    # by n+1 in any form of the kernel, so the reference takes the double t.
    knots = [0.5, 1.25 + 0.5j, 2.0 + 0.25j]
    bs = Blendstring.from_oracle(knots, grade, oracle)
    for k in range(bs.segments):
        b = bs.segment_blend(k)
        for frac in (0.13, 0.45, 0.5, 0.86):
            z = knots[k] + frac * (knots[k + 1] - knots[k])
            s = (z - knots[k]) / (knots[k + 1] - knots[k])
            with mpmath.workdps(40):
                p, q = ([mpmath.mpc(c) for c in r.coeffs] for r in (b.left, b.right))
                ref = hermite_form(p, q, mpmath.mpc(s), mpmath.mpc(1 - s))
            assert abs(bs.eval(z) - ref) <= 4e-15 * abs(ref)


def test_mpmath_records_integral_uses_exact_weights():
    # at grade 30 the blend is exact to far below 1e-28 on this path, so only
    # weights rounded to double could spoil the 30-digit integral
    with mpmath.workdps(30):
        knots = [mpmath.mpc(0), mpmath.mpc("0.5", "0.25"), mpmath.mpc(1)]
        total = _mp_exp_string(knots, 30).definite_integral()
        assert abs(total - (mpmath.e - 1)) <= 1e-28
