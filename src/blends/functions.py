"""Built-in series oracles and the name registry used by the CLI.

All oracles follow the package convention: ``oracle(point, grade)`` returns
exactly grade+1 Taylor coefficients of the function about ``point``.
"""

from __future__ import annotations

import cmath
from typing import Sequence

from .blendstring import Blendstring
from .errors import OffPathError
from .series import _quotient, taylor_shift
from .special import recip_gamma_oracle

__all__ = [
    "exp_oracle",
    "sin_oracle",
    "cos_oracle",
    "identity_oracle",
    "constant_oracle",
    "zero_oracle",
    "poly_oracle",
    "recip_poly_oracle",
    "blendstring_oracle",
    "get_oracle",
    "FUNCTION_NAMES",
]


def exp_oracle(point, grade):
    c = cmath.exp(point)
    out = [c]
    for j in range(1, grade + 1):
        c = c / j
        out.append(c)
    return out


def _trig_series(cycle, grade):
    """Taylor coefficients f^(j)/j! from (f, f'), using f'' = -f."""
    out, f = [], 1.0
    for j in range(grade + 1):
        if j > 1:
            f *= j
        v = cycle[j % 2] if j % 4 < 2 else -cycle[j % 2]
        out.append(v / f)
    return out


def sin_oracle(point, grade):
    return _trig_series((cmath.sin(point), cmath.cos(point)), grade)


def cos_oracle(point, grade):
    return _trig_series((cmath.cos(point), -cmath.sin(point)), grade)


def identity_oracle(point, grade):
    out = [complex(point)] + [0j] * grade
    if grade >= 1:
        out[1] = 1.0 + 0j
    return out


def constant_oracle(value):
    value = complex(value)

    def oracle(point, grade):
        return [value] + [0j] * grade

    return oracle


def zero_oracle(point, grade):
    return [0j] * (grade + 1)


def poly_oracle(coeffs: Sequence[complex]):
    """Oracle for a polynomial given by coefficients in ascending powers of z."""
    coeffs = [complex(c) for c in coeffs] or [0j]

    def oracle(point, grade):
        return taylor_shift(coeffs, point, grade + 1)

    return oracle


def recip_poly_oracle(coeffs: Sequence[complex]):
    """Oracle for 1/p(z); refuses points where p vanishes."""
    base = poly_oracle(coeffs)

    def oracle(point, grade):
        p = base(point, grade)
        if abs(p[0]) == 0:
            raise ZeroDivisionError(f"polynomial vanishes at {point!r}")
        return _quotient([1.0 + 0j] + [0j] * grade, p)

    return oracle


def blendstring_oracle(bs: Blendstring):
    """Oracle backed by an existing blendstring; valid only at its knots."""
    table = {r.knot: r for r in bs.records}

    def oracle(point, grade):
        rec = table.get(complex(point))
        if rec is None:
            raise OffPathError(f"{point!r} is not a knot of the backing blendstring")
        if grade > rec.grade:
            raise ValueError(f"backing blendstring only has grade {rec.grade}")
        return list(rec.coeffs[: grade + 1])

    return oracle


_ORACLES = {
    "exp": exp_oracle, "sin": sin_oracle, "cos": cos_oracle, "identity": identity_oracle,
    "poly": poly_oracle, "recip": recip_poly_oracle, "recip-gamma": recip_gamma_oracle,
}
FUNCTION_NAMES = tuple(_ORACLES)


def get_oracle(name: str, coeffs: Sequence[complex] | None = None):
    """Look a function oracle up by registry name.

    ``poly`` and ``recip`` require the polynomial coefficients; the other
    names take no parameters.
    """
    if name not in _ORACLES:
        raise ValueError(f"unknown function {name!r}; known: {', '.join(FUNCTION_NAMES)}")
    if name not in ("poly", "recip"):
        return _ORACLES[name]
    if not coeffs:
        raise ValueError(f"function {name!r} needs polynomial coefficients")
    return _ORACLES[name](coeffs)
