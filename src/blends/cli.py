"""Command-line front end.

Subcommands: build, deval, integrate, solve, stability, mathieu-demo.
Knots and scalars on the command line use `re` or `re+imi` syntax; the real
and imaginary parts may be decimals or exact fractions like -1/3.  All file
formats are the documented JSON blendstring document and CSV tables.  Errors
print one machine-parsable line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .blendstring import Blendstring, _fmt, _read_cplx
from .errors import BlendsError
from .functions import constant_oracle, get_oracle, poly_oracle, zero_oracle
from .mathieu import (
    generalized_eigenfunction,
    mathieu_operator,
    mathieu_pair,
    modified_endpoint,
    ordinary_params,
)
from .odesolve import OdeProblem, sho_amplification, solve_ivp, stability_threshold

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<re>{_NUM})?(?P<im>(?:[+-]|(?<=^))(?:{_NUM})?[ij])?$"
)


def _part(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(Fraction(num) / Fraction(den))
    return float(text)


def parse_scalar(token: str) -> complex:
    """Parse `re`, `re+imi`, or pure-imaginary `imi`; fractions allowed."""
    t = token.strip().replace(" ", "")
    m = _SCALAR_RE.match(t)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse scalar {token!r}")
    re_part = _part(m.group("re")) if m.group("re") else 0.0
    if m.group("im") is None:
        return complex(re_part, 0.0)
    im_text = m.group("im")[:-1]  # strip i/j; a bare sign means unit size
    return complex(re_part, _part(im_text + "1" if im_text in ("", "+", "-") else im_text))


def parse_scalar_list(text: str) -> list:
    return [parse_scalar(tok) for tok in text.split(",") if tok.strip()]


def _fmt_cplx(z: complex) -> str:
    z = complex(z)
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# -- equation registry for problem documents ---------------------------------


def _equation_oracles(spec):
    if not isinstance(spec, dict):
        raise ValueError("problem file: equation must be an object")
    name = spec.get("name")
    if name == "sho":
        return zero_oracle, constant_oracle(1.0), zero_oracle
    if name == "airy":
        return zero_oracle, poly_oracle((0, -1)), zero_oracle
    if name == "mathieu":
        if "a" not in spec or "q" not in spec:
            raise ValueError("mathieu equation needs parameters a and q")
        return mathieu_operator(*(_doc_scalar(spec[k], f"equation.{k}") for k in "aq"))
    if name == "constant-coefficient":
        for key in ("a", "b", "g"):
            if key not in spec:
                raise ValueError("constant-coefficient equation needs a, b and g")
        return tuple(constant_oracle(_doc_scalar(spec[k], f"equation.{k}")) for k in "abg")
    raise ValueError(f"unknown equation {name!r}")


def _doc_scalar(obj, where: str) -> complex:
    if isinstance(obj, dict):
        return _read_cplx(obj, where)
    if isinstance(obj, str):
        return parse_scalar(obj)
    if type(obj) not in (int, float):  # bool is an int subclass
        raise ValueError(f"{where}: cannot read scalar {obj!r}")
    return complex(obj)


def _doc_real(doc: dict, key: str) -> float:
    if type(doc[key]) not in (int, float):
        raise ValueError(f"problem file: {key} must be a number")
    return float(doc[key])


def load_problem(text: str) -> OdeProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ValueError("problem file: expected a JSON object")
    for key in ("equation", "path", "grade", "tol", "y0", "y1"):
        if key not in doc:
            raise ValueError(f"problem file: missing field {key!r}")
    aorc, borc, gorc = _equation_oracles(doc["equation"])
    if not isinstance(doc["path"], list):
        raise ValueError("problem file: path must be a list of scalars")
    path = [_doc_scalar(w, f"path[{i}]") for i, w in enumerate(doc["path"])]
    kwargs = {k: _doc_real(doc, k) for k in ("h_init", "h_min", "h_max") if doc.get(k) is not None}
    return OdeProblem(
        aorc, borc, gorc, path, _doc_scalar(doc["y0"], "y0"), _doc_scalar(doc["y1"], "y1"),
        doc["grade"], _doc_real(doc, "tol"), **kwargs,
    )


# -- subcommands --------------------------------------------------------------


def _cmd_build(args) -> int:
    coeffs = parse_scalar_list(args.coeffs) if args.coeffs else None
    oracle = get_oracle(args.function, coeffs)
    knots = parse_scalar_list(args.knots)
    bs = Blendstring.from_oracle(knots, args.grade, oracle)
    _write(args.out, bs.to_document())
    return 0


def _cmd_deval(args) -> int:
    bs = Blendstring.load(args.input)
    table = bs.deval(nrefine=args.nrefine, nder=args.nder)
    _write(args.out, table.to_csv())
    return 0


def _cmd_integrate(args) -> int:
    bs = Blendstring.load(args.input)
    if args.definite:
        val = bs.definite_integral()
        if args.format == "csv":
            _write(args.out, f"re,im\n{_fmt(val.real)},{_fmt(val.imag)}\n")
        else:
            _write(args.out, _fmt_cplx(val) + "\n")
    else:
        _write(args.out, bs.indefinite_integral().to_document())
    return 0


def _cmd_solve(args) -> int:
    with open(args.input) as f:
        problem = load_problem(f.read())
    result = solve_ivp(problem)
    _write(args.out, result.solution.to_document())
    log_path = args.step_log
    if log_path is None and args.out not in (None, "-"):
        log_path = args.out + ".steps.csv"
    if log_path:
        _write(log_path, result.step_log_csv())
    return 0


def _cmd_stability(args) -> int:
    lo, dots, hi = args.mrange.partition("..")
    ms = range(int(lo), int(hi if dots else lo) + 1)
    if not ms:
        raise ValueError(f"empty grade range {args.mrange!r}")
    nus = parse_scalar_list(args.nu or "")
    if any(nu.imag for nu in nus):
        raise ValueError(f"nu must be real, not {args.nu!r}")
    out = "m,nustar,nustar_over_pi\n"
    for m in ms:
        nustar = stability_threshold(m)
        out += f"{m},{_fmt(nustar)},{_fmt(nustar / math.pi)}\n"
    if nus:
        out += "m,nu,C,S\n"
        for m in ms:
            for nu in nus:
                c, s = sho_amplification(m, nu.real)
                out += f"{m},{_fmt(nu.real)},{_fmt(c)},{_fmt(s)}\n"
    _write(args.out, out)
    return 0


def _cmd_mathieu_demo(args) -> int:
    a = parse_scalar(args.a)
    q = parse_scalar(args.q)
    params = ordinary_params(a, q)
    w1, w2 = mathieu_pair(params, args.grade, args.tol)
    u = generalized_eigenfunction(w1, w2, w1)
    table = u.deval(nder=2)
    _write(args.out, table.to_csv())
    ce_end = modified_endpoint(a, q, args.xi0, args.grade, args.tol)
    vals = table.derivatives(0)
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    summary = (
        f"knots={len(u)} grade={u.grade}\n"
        f"u(0)={_fmt_cplx(u.eval(0))}\n"
        f"u(pi)={_fmt_cplx(u.eval(math.pi))}\n"
        f"u(2pi)={_fmt_cplx(u.eval(2 * math.pi))}\n"
        f"max|u|={_fmt(scale)}\n"
        f"Ce0({_fmt(args.xi0)})={_fmt_cplx(ce_end)} |Ce0|={_fmt(abs(ce_end))}\n"
    )
    sys.stderr.write(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")

    p = argparse.ArgumentParser(prog="blends", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", parents=[common], help="build a blendstring from a named function")
    b.add_argument("function", help="exp | sin | cos | identity | poly | recip | recip-gamma")
    b.add_argument("--knots", required=True, help="comma-separated knots, e.g. -1,-1/3,1/3,1")
    b.add_argument("--coeffs", default=None, help="polynomial coefficients for poly/recip")
    b.add_argument("--grade", type=int, default=5)
    b.set_defaults(func=_cmd_build)

    d = sub.add_parser("deval", parents=[common], help="evaluate a blendstring everywhere")
    d.add_argument("input")
    d.add_argument("--nrefine", type=int, default=None)
    d.add_argument("--nder", type=int, default=0)
    d.set_defaults(func=_cmd_deval)

    i = sub.add_parser("integrate", parents=[common], help="integrate a blendstring")
    i.add_argument("input")
    i.add_argument("--definite", action="store_true")
    i.add_argument("--format", choices=("doc", "csv"), default="doc")
    i.set_defaults(func=_cmd_integrate)

    s = sub.add_parser("solve", parents=[common], help="march an ODE problem document")
    s.add_argument("input")
    s.add_argument("--step-log", default=None, help="step log CSV path")
    s.set_defaults(func=_cmd_solve)

    st = sub.add_parser("stability", parents=[common], help="stepsize stability thresholds")
    st.add_argument("mrange", help="grade range, e.g. 1..3")
    st.add_argument("--nu", default=None, help="comma-separated nu samples to tabulate C,S")
    st.set_defaults(func=_cmd_stability)

    md = sub.add_parser("mathieu-demo", parents=[common], help="generalized eigenfunction pipeline")
    md.add_argument("--a", required=True)
    md.add_argument("--q", required=True)
    md.add_argument("--xi0", type=float, default=1.485)
    md.add_argument("--grade", type=int, default=5)
    md.add_argument("--tol", type=float, default=1e-10)
    md.set_defaults(func=_cmd_mathieu_demo)
    return p


# options whose values may start with a dash (negative knots, coefficients);
# fold `--opt -1,...` into `--opt=-1,...` so argparse does not read the value
# as an option string
_DASH_VALUE_OPTS = {"--knots", "--coeffs", "--nu", "--a", "--q"}


def _fold_dash_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _DASH_VALUE_OPTS and tok.startswith("-"):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_dash_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BlendsError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: io: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
