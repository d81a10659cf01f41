import json
import math

import numpy as np
import pytest

from blends import Blendstring
from blends.cli import main, parse_scalar, parse_scalar_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_scalar():
    assert parse_scalar("2") == 2.0
    assert parse_scalar("-1/3") == -1.0 / 3.0
    assert parse_scalar("1.5e-3") == 1.5e-3
    assert parse_scalar("1+2i") == 1 + 2j
    assert parse_scalar("1-2j") == 1 - 2j
    assert parse_scalar("2i") == 2j
    assert parse_scalar("-i") == -1j
    assert parse_scalar("3/4+1/2i") == 0.75 + 0.5j
    with pytest.raises(ValueError):
        parse_scalar("blah")
    assert parse_scalar_list("-1,-1/3,1/3,1") == [-1, -1 / 3, 1 / 3, 1]


def test_build_exp_and_deval(tmp_path, capsys):
    doc = tmp_path / "exp.json"
    code, _, err = run(
        capsys, "build", "exp", "--knots=-1,-1/3,1/3,1", "--grade", "5",
        "--out", str(doc),
    )
    assert code == 0, err
    bs = Blendstring.load(doc)
    assert bs.grade == 5 and len(bs) == 4
    xs = np.linspace(-1, 1, 200)
    assert max(abs(bs.eval(float(x)) - math.exp(x)) for x in xs) <= 1e-14

    csv = tmp_path / "exp.csv"
    code, _, err = run(
        capsys, "deval", str(doc), "--nrefine", "4", "--nder", "1", "--out", str(csv)
    )
    assert code == 0, err
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,re_d0,im_d0,re_d1,im_d1"
    assert len(lines) == 1 + 4 + 3 * 4  # header, knots, interior points


def test_space_separated_negative_knots(tmp_path, capsys):
    # the documented space-separated form with a leading-dash value
    out = tmp_path / "e.json"
    code, _, err = run(
        capsys, "build", "exp", "--knots", "-1,-1/3,1/3,1", "--grade", "5",
        "--out", str(out),
    )
    assert code == 0, err
    assert Blendstring.load(out).grade == 5


def test_build_identity_and_poly(tmp_path, capsys):
    out = tmp_path / "id.json"
    code, _, _ = run(
        capsys, "build", "identity", "--knots", "0,1", "--grade", "3", "--out", str(out)
    )
    assert code == 0
    bs = Blendstring.load(out)
    for r in bs.records:
        assert np.allclose(r.coeffs, [r.knot, 1.0, 0.0, 0.0])

    out2 = tmp_path / "poly.json"
    code, _, _ = run(
        capsys, "build", "poly", "--coeffs", "1,0,-1", "--knots=-1,0,1",
        "--grade", "4", "--out", str(out2),
    )
    assert code == 0
    bs2 = Blendstring.load(out2)
    for x in np.linspace(-1, 1, 40):
        assert bs2.eval(float(x)) == pytest.approx(1 - x * x, abs=1e-14)


def test_unknown_function_is_an_error(capsys):
    code, _, err = run(capsys, "build", "nosuch", "--knots", "0,1", "--out", "-")
    assert code == 1
    assert err.startswith("error:") and "\n" not in err.strip()


def test_duplicate_knots_error(capsys):
    code, _, err = run(capsys, "build", "exp", "--knots", "0,0", "--out", "-")
    assert code == 1
    assert err.startswith("error:")


def test_integrate_recip_gamma(tmp_path, capsys):
    doc = tmp_path / "rg.json"
    run(capsys, "build", "recip-gamma", "--knots=-3,-2,-1,0", "--grade", "7",
        "--out", str(doc))
    code, out, _ = run(capsys, "integrate", str(doc), "--definite", "--format", "csv")
    assert code == 0
    re_part, im_part = (float(v) for v in out.strip().splitlines()[1].split(","))
    assert re_part == pytest.approx(-0.606607588783124, abs=5e-13)
    assert abs(im_part) <= 1e-14

    antider = tmp_path / "anti.json"
    code, _, _ = run(capsys, "integrate", str(doc), "--out", str(antider))
    assert code == 0
    anti = Blendstring.load(antider)
    assert anti.grade == 8


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, "deval", str(tmp_path / "nope.json"), "--out", "-")
    assert code == 1
    assert err.startswith("error:")


def test_solve_sho_problem(tmp_path, capsys):
    prob = {
        "equation": {"name": "sho"},
        "path": ["0", "6.283185307179586"],
        "grade": 15,
        "tol": 1e-12,
        "y0": "1",
        "y1": "0",
    }
    pf = tmp_path / "sho.json"
    pf.write_text(json.dumps(prob))
    out = tmp_path / "sol.json"
    code, _, err = run(capsys, "solve", str(pf), "--out", str(out))
    assert code == 0, err
    sol = Blendstring.load(out)
    assert abs(sol.records[-1].coeffs[0] - 1.0) <= 1e-10
    assert abs(sol.records[-1].coeffs[1]) <= 1e-10
    log = (tmp_path / "sol.json.steps.csv").read_text()
    assert log.startswith("index,")


def test_solve_mathieu_q0(tmp_path, capsys):
    prob = {
        "equation": {"name": "mathieu", "a": 1.0, "q": 0.0},
        "path": ["0", "3.141592653589793"],
        "grade": 10,
        "tol": 1e-10,
        "y0": "1",
        "y1": "0",
    }
    pf = tmp_path / "m.json"
    pf.write_text(json.dumps(prob))
    out = tmp_path / "msol.json"
    code, _, err = run(capsys, "solve", str(pf), "--out", str(out))
    assert code == 0, err
    sol = Blendstring.load(out)
    assert abs(sol.records[-1].coeffs[0] - math.cos(math.pi)) <= 1e-9


def test_solve_malformed_problem(tmp_path, capsys):
    pf = tmp_path / "bad.json"
    pf.write_text("{broken")
    code, _, err = run(capsys, "solve", str(pf), "--out", "-")
    assert code == 1
    assert "line" in err


_SHO = {"equation": {"name": "sho"}, "path": ["0", "1"], "grade": 8, "tol": 1e-9,
        "y0": "1", "y1": "0"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("y0", {"re": "1", "im": 0}),
        ("path", 5),
        ("equation", []),
        ("tol", [1e-9]),
        ("grade", 8.7),
        ("grade", True),
        ("h_max", [1.0]),
    ],
    ids=["string_re", "path_number", "equation_list", "tol_list", "grade_float", "grade_bool",
         "h_max_list"],
)
def test_solve_rejects_malformed_field(tmp_path, capsys, field, value):
    pf = tmp_path / "bad.json"
    pf.write_text(json.dumps({**_SHO, field: value}))
    code, out, err = run(capsys, "solve", str(pf), "--out", "-")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_solve_airy_with_step_bounds(tmp_path, capsys):
    from scipy.special import airy

    ai0, aip0, _, _ = airy(-2.0)
    prob = {
        "equation": {"name": "airy"},
        "path": ["-2", "0.5"],
        "grade": 12,
        "tol": 1e-11,
        "y0": float(ai0),
        "y1": float(aip0),
        "h_init": 0.1,
        "h_min": 1e-6,
        "h_max": 0.4,
    }
    pf = tmp_path / "airy.json"
    pf.write_text(json.dumps(prob))
    out, log = tmp_path / "ai.json", tmp_path / "ai.csv"
    code, _, err = run(capsys, "solve", str(pf), "--out", str(out), "--step-log", str(log))
    assert code == 0, err
    ai, aip, _, _ = airy(0.5)
    end = Blendstring.load(out).records[-1].coeffs
    assert abs(end[0] - ai) <= 1e-9 and abs(end[1] - aip) <= 1e-9
    rows = log.read_text().splitlines()[1:]
    hs = [float(row.split(",")[5]) for row in rows]
    assert hs[0] == 0.1 and max(hs) <= 0.4


def test_stability_table(capsys):
    code, out, err = run(capsys, "stability", "1..3", "--nu", "0.5,1")
    assert code == 0, err
    lines = out.strip().splitlines()
    got = {}
    for line in lines[1:4]:
        m, _, frac = line.split(",")
        got[int(m)] = float(frac)
    assert got[1] == pytest.approx(0.94035, abs=1e-4)
    assert got[2] == pytest.approx(0.99817, abs=1e-4)
    assert got[3] == pytest.approx(0.99997, abs=1e-4)
    assert any(line.startswith("m,nu,C,S") for line in lines)


def test_stability_bad_range(capsys):
    code, _, err = run(capsys, "stability", "7..9")
    assert code == 1
    assert err.startswith("error:")


def test_stability_empty_range(capsys):
    code, out, err = run(capsys, "stability", "3..1")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_stability_complex_nu(capsys):
    # the table is of real step lengths; an imaginary part is refused, not dropped
    code, out, err = run(capsys, "stability", "1", "--nu", "1+2i")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_stability_infinite_nu(capsys):
    # 1e400 reads as inf, which has no step matrix: one error line, no table
    code, out, err = run(capsys, "stability", "1", "--nu", "1e400")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_mathieu_demo(tmp_path, capsys):
    out = tmp_path / "u.csv"
    code, _, err = run(
        capsys, "mathieu-demo", "--a", "2.088698902749697", "--q", "1.4687686137851403i",
        "--xi0", "1.485", "--grade", "12", "--tol", "1e-9", "--out", str(out),
    )
    assert code == 0
    assert "Ce0" in err and "u(pi)" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("re_z,im_z,re_d0")
    assert len(lines) > 10
