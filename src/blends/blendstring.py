"""Blendstrings: chains of local Taylor records blended over polygonal paths.

A blendstring is an ordered sequence of LocalTaylor records, all of one
grade, whose consecutive knots are distinct.  Each consecutive pair spans a
straight segment in the complex plane over which the two records are blended;
the chain as a whole represents a piecewise-polynomial function with grade-m
smoothness at the interior knots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .blend import Blend, blend_eval, blend_eval_derivs, blend_integrate
from .errors import CompatibilityError, DocumentError, OffPathError
from .series import LocalTaylor, SeriesOracle, compose

__all__ = ["Blendstring", "EvalTable", "zip_with", "DISPATCH_RTOL"]

# A point belongs to a segment when its affine parameter is within this
# tolerance (relative to the segment length) of the real interval [0,1];
# the first matching segment wins, so dispatch is deterministic on paths
# that cross themselves.
DISPATCH_RTOL = 1e-10
_EXACT = (int, float, complex, Fraction)  # arithmetic that no precision setting changes


@dataclass(frozen=True, eq=False)
class EvalTable:
    """Batch evaluation output: points along the path with z-derivatives.

    ``points`` (N,) are ordered along the path with each knot exactly once;
    ``derivs`` (nder+1, N) holds derivatives 0..nder with respect to z
    (actual derivatives, not Taylor coefficients).  Both are read-only
    complex arrays, and tables compare equal when they match bit for bit.
    """

    points: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        points, derivs = np.array(self.points, complex), np.array(self.derivs, complex)
        if points.ndim != 1 or derivs.shape[1:] != points.shape or not len(derivs):
            raise ValueError("points must have shape (N,) and derivs (nder+1, N), nder >= 0")
        points.flags.writeable = derivs.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "derivs", derivs)

    def __reduce__(self):  # copies and pickles come back read-only too
        return (EvalTable, (self.points, self.derivs))

    @property
    def nder(self) -> int:
        return len(self.derivs) - 1

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, EvalTable) and self.derivs.shape == other.derivs.shape and (
            self.points.tobytes() + self.derivs.tobytes()
            == other.points.tobytes() + other.derivs.tobytes()
        )

    @property
    def rows(self) -> tuple:
        """(z, (d0, ..., d_nder)) per point, as Python complex numbers."""
        return tuple(zip(self.points.tolist(), map(tuple, self.derivs.T.tolist())))

    def derivatives(self, order: int = 0) -> np.ndarray:
        return self.derivs[order]

    def to_csv(self) -> str:
        cols = ["re_z", "im_z"] + [f"{p}_d{k}" for k in range(self.nder + 1) for p in ("re", "im")]
        table = np.vstack([self.points, self.derivs])
        vals = np.stack([table.real, table.imag], axis=1).reshape(-1, len(self)).T
        lines = [",".join(cols)] + [",".join(map(_fmt, row)) for row in vals.tolist()]
        return "\n".join(lines) + "\n"


class _Path:
    """Arrays a blendstring derives from its records, filled on first use.

    ``a`` and ``d`` are segment starts and spans in complex double; ``grid``,
    built by the first scalar eval, is a uniform grid whose cells list in
    ascending order the segments whose dispatch box may reach into them.
    ``blends`` keeps each segment's Blend of int, float, complex or Fraction
    records; ``batched()`` gives deval's one Blend of all segments, built by
    Blend.from_taylor from records whose knots and coefficients are
    (segments, 1) complex columns, and kept with its power coefficients.
    """

    __slots__ = ("records", "a", "d", "grid", "blends", "batch")

    def __init__(self, records):
        z = np.array([r.knot for r in records], dtype=complex)
        self.records = records
        self.a = z[:-1]
        self.d = z[1:] - z[:-1]
        self.grid = None
        self.blends = [None] * (len(records) - 1)
        self.batch = None

    def locate(self, z: complex) -> int | None:
        """The first segment k whose w = (z - mid_k)/d_k has |re w| <= 1/2 + tol and
        |im w| <= tol, testing only the candidates of z's grid cell; None if none has."""
        x0, y0, side, nx, ny, starts, ids, mid, d = self.grid or self._grid()
        fx, fy = (z.real - x0) / side, (z.imag - y0) / side
        if 0 <= fx < nx and 0 <= fy < ny:  # false for nan
            cell = int(fy) * nx + int(fx)
            for k in ids[starts[cell] : starts[cell + 1]]:
                w = (z - mid[k]) / d[k]
                if abs(w.real) <= 0.5 + DISPATCH_RTOL and abs(w.imag) <= DISPATCH_RTOL:
                    return k
        return None

    def _grid(self) -> tuple:
        # each segment's candidate region is the axis-aligned box of its dispatch
        # rectangle at twice the tolerance, mid +- half-widths: no point the test
        # accepts lies outside it, and cell indices are monotone in x and y
        with np.errstate(invalid="ignore"):  # a non-finite knot's segments match nothing
            mid = self.a + self.d / 2
        keep = np.flatnonzero(np.isfinite(mid) & np.isfinite(self.d))
        n, c, d = len(keep), mid[keep], self.d[keep]
        if not n:
            self.grid = (0.0, 0.0, 1.0, 0, 0, [], [], [], [])
            return self.grid
        half = np.abs([d.real, d.imag])
        half = (0.5 + 2 * DISPATCH_RTOL) * half + 2 * DISPATCH_RTOL * half[::-1]
        box = np.concatenate([[c.real, c.imag] - half, [c.real, c.imag] + half])
        x0, y0 = origin = box[:2].min(1)
        box -= origin[[0, 1, 0, 1], None]
        w, ht = box[2:].max(1)
        # side >= the median span, sqrt(area / 2n) and (w + ht) / 8n, so at most 10n + 1
        # cells, and doubled until there are at most 8n (cell, segment) pairs
        side = max(np.partition(np.abs(d), n // 2)[n // 2],
                   math.sqrt(w) * math.sqrt(ht / (2 * n)), (w + ht) / (8 * n))
        while True:
            i0, j0, i1, j1 = q = (box / side).astype(int)
            wide = i1 - i0 + 1
            count = wide * (j1 - j0 + 1)
            if count.sum() <= 8 * n:
                break
            side *= 2
        nx, ny = (q[2:].max(1) + 1).tolist()
        # every (cell, segment) pair, sorted by cell and then segment, so each cell
        # lists its candidates in ascending order and the first match wins
        seg = np.repeat(np.arange(n), count)
        r = np.arange(len(seg)) - np.repeat(count.cumsum() - count, count)
        rows, cols = np.divmod(r, wide[seg])
        cells = (j0[seg] + rows) * nx + i0[seg] + cols
        starts = np.bincount(cells + 1, minlength=nx * ny + 1).cumsum()
        ids = keep[np.sort(cells * n + seg) % n]
        self.grid = (float(x0), float(y0), float(side), nx, ny, starts.tolist(), ids.tolist(),
                     mid.tolist(), self.d.tolist())
        return self.grid

    def batched(self) -> Blend:
        if self.batch is None:
            coeffs = np.array([r.coeffs for r in self.records])
            if coeffs.dtype.kind not in "biufc":
                odd = next(
                    c for c in coeffs.flat if not isinstance(c, (float, complex))
                )
                raise TypeError(
                    "batch evaluation needs float or complex coefficients, "
                    f"not {type(odd).__name__}"
                )
            z = np.array([r.knot for r in self.records], dtype=complex)[:, None]
            cols = coeffs.T[:, :, None]  # cols[j] is coefficient j of every knot, (knots, 1)
            self.batch = Blend.from_taylor(
                LocalTaylor(z[:-1], cols[:, :-1]), LocalTaylor(z[1:], cols[:, 1:])
            )
        return self.batch


def _along(table):
    """Flatten a (segments, points) table in path order, each knot once."""
    return np.concatenate([table[:, :-1].ravel(), table[-1, -1:]])


class Blendstring:
    """Ordered local Taylor records of a shared grade along a polygonal path."""

    # _path caches arrays derived from the records (see _Path); it is built
    # on first use and is not part of equality, copies or pickles
    __slots__ = ("records", "_path")

    def __init__(self, records: Sequence[LocalTaylor]):
        records = tuple(records)
        if not records:
            raise ValueError("a blendstring needs at least one record")
        g = records[0].grade
        for r in records:
            if r.grade != g:
                raise CompatibilityError("all records must share one grade")
        for a, b in zip(records, records[1:]):
            if a.knot == b.knot:
                raise CompatibilityError(
                    f"consecutive knots must be distinct (knot {a.knot!r} repeats)"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_path", None)

    def __setattr__(self, name, value):
        raise AttributeError("Blendstring is immutable")

    def __reduce__(self):
        return (Blendstring, (self.records,))

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        return isinstance(other, Blendstring) and self.records == other.records

    def __repr__(self) -> str:
        return (
            f"Blendstring({len(self.records)} knots, grade {self.grade}, "
            f"{self.knots[0]!r} -> {self.knots[-1]!r})"
        )

    # -- construction --------------------------------------------------

    @classmethod
    def from_oracle(
        cls, knots: Sequence[complex], grade: int, oracle: SeriesOracle
    ) -> "Blendstring":
        """Fill a blendstring by asking ``oracle(knot, grade)`` at every knot."""
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        recs = []
        for a in knots:
            c = tuple(oracle(a, grade))
            if len(c) != grade + 1:
                raise ValueError(
                    f"oracle returned {len(c)} coefficients at {a!r}, wanted {grade + 1}"
                )
            recs.append(LocalTaylor(a, c))
        return cls(recs)

    # -- basic queries ---------------------------------------------------

    @property
    def grade(self) -> int:
        return self.records[0].grade

    @property
    def knots(self) -> tuple:
        return tuple(r.knot for r in self.records)

    @property
    def segments(self) -> int:
        return len(self.records) - 1

    def compatible(self, other: "Blendstring") -> bool:
        """True iff equal length, equal corresponding knots, equal grade."""
        return (
            len(self.records) == len(other.records)
            and self.grade == other.grade
            and all(a.knot == b.knot for a, b in zip(self.records, other.records))
        )

    def segment_blend(self, k: int) -> Blend:
        """The blend over segment k, with coefficients scaled to s-space."""
        if not 0 <= k < self.segments:
            raise IndexError(f"segment {k} out of range 0..{self.segments - 1}")
        blends = self._cache().blends
        b = blends[k]
        if b is None:
            pair = self.records[k : k + 2]
            b = Blend.from_taylor(*pair)
            if all(isinstance(x, _EXACT) for r in pair for x in (r.knot, *r.coeffs)):
                blends[k] = b  # mpmath types are rebuilt in each call's precision
        return b

    def _cache(self) -> "_Path":
        path = self._path
        if path is None:
            path = _Path(self.records)
            object.__setattr__(self, "_path", path)
        return path

    # -- evaluation ------------------------------------------------------

    def eval(self, z: complex) -> complex:
        """Value at a single point on (or within DISPATCH_RTOL of) some segment."""
        if self.segments == 0:
            if z == self.records[0].knot:
                return self.records[0].coeffs[0]
            raise OffPathError(f"{z!r} is not the single knot of this blendstring")
        k = self._cache().locate(complex(z))
        if k is None:
            raise OffPathError(f"{z!r} lies on no segment of this blendstring")
        # the segment is chosen in double precision; s is recomputed in the
        # records' own arithmetic, so wider scalar types keep their digits
        a = self.records[k].knot
        s = (z - a) / (self.records[k + 1].knot - a)
        return blend_eval(self.segment_blend(k), s)

    def deval(self, nrefine: int | None = None, nder: int = 0) -> EvalTable:
        """Evaluate everywhere: knots plus nrefine interior points per segment.

        Defaults to nrefine = 2*(grade+1) interior points.  Derivatives are
        returned with respect to z, so each s-jet is divided by span**k.
        All segments go through one jet evaluation in complex double
        precision; coefficients that numpy cannot hold as float or complex
        raise TypeError.
        """
        if nrefine is None:
            nrefine = 2 * (self.grade + 1)
        if nrefine < 0 or nder < 0:
            raise ValueError("nrefine and nder must be nonnegative")
        if self.segments == 0:
            r = self.records[0]
            derivs = [[math.factorial(k) * c] for k, c in enumerate(r.coeffs[: nder + 1])]
            return EvalTable([r.knot], derivs + [[0j]] * (nder + 1 - len(derivs)))
        path = self._cache()
        # the batched blend at a (1, nrefine+2) row of s values: every
        # segment's jet in one call
        s = np.arange(nrefine + 2)[None, :] / (nrefine + 1)
        d = path.d[:, None]
        pts = path.a[:, None] + s * d
        scale = 1.0
        zjets = []
        for jet in blend_eval_derivs(path.batched(), s, nder):
            zjets.append(_along(np.broadcast_to(jet / scale, pts.shape)))
            scale = scale * d
        pts = _along(pts)
        pts[-1] = self.records[-1].knot
        return EvalTable(pts, zjets)

    # -- algebra ----------------------------------------------------------

    def map(self, outer_oracle: SeriesOracle) -> "Blendstring":
        """Compose an outer function onto this blendstring, knot by knot."""
        return Blendstring([compose(outer_oracle, r) for r in self.records])

    def truncate(self, grade: int) -> "Blendstring":
        """Drop coefficients above ``grade`` at every knot."""
        if grade < 0 or grade > self.grade:
            raise ValueError(f"cannot truncate grade {self.grade} to {grade}")
        return Blendstring(
            [LocalTaylor(r.knot, r.coeffs[: grade + 1]) for r in self.records]
        )

    # -- calculus ----------------------------------------------------------

    def _knot_integrals(self) -> list:
        """Integrals from the first knot to each knot, added left to right one
        segment at a time, as mul and blend_integrate add (sum() compensates from 3.12)."""
        out = [0j]
        for k in range(self.segments):
            d = self.records[k + 1].knot - self.records[k].knot
            out.append(out[-1] + d * blend_integrate(self.segment_blend(k)))
        return out

    def indefinite_integral(self) -> "Blendstring":
        """Antiderivative blendstring, grade+1, vanishing at the first knot.

        Coefficient lists integrate termwise; the running constants are the
        exact per-segment blend integrals, so the result is the exact
        antiderivative of this blendstring along its own path.
        """
        if self.segments < 1:
            raise ValueError("need at least one segment to integrate")
        return Blendstring([
            LocalTaylor(r.knot, (F,) + tuple(c / (j + 1) for j, c in enumerate(r.coeffs)))
            for r, F in zip(self.records, self._knot_integrals())
        ])

    def definite_integral(self) -> complex:
        """Integral along the whole path: sum of exact per-segment integrals."""
        return self._knot_integrals()[-1]

    # -- serialization ------------------------------------------------------

    def to_document(self) -> str:
        """Human-readable JSON document, each number as the shortest text of its double."""
        knots = ",\n    ".join(_cplx(r.knot) for r in self.records)
        rows = []
        for r in self.records:
            rows.append("[" + ", ".join(_cplx(c) for c in r.coeffs) + "]")
        coeffs = ",\n    ".join(rows)
        return (
            "{\n"
            '  "format_version": 1,\n'
            f'  "grade": {self.grade},\n'
            '  "knots": [\n    ' + knots + "\n  ],\n"
            '  "coefficients": [\n    ' + coeffs + "\n  ]\n"
            "}\n"
        )

    @classmethod
    def from_document(cls, text: str) -> "Blendstring":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise DocumentError("top level: expected an object")
        if type(doc.get("format_version")) is not int or doc["format_version"] != 1:
            raise DocumentError("format_version: expected the integer 1")
        grade = doc.get("grade")
        if type(grade) is not int or grade < 0:
            raise DocumentError("grade: expected a nonnegative integer")
        knots = doc.get("knots")
        if not isinstance(knots, list) or not knots:
            raise DocumentError("knots: expected a non-empty list")
        coeffs = doc.get("coefficients")
        if not isinstance(coeffs, list) or len(coeffs) != len(knots):
            raise DocumentError("coefficients: expected one row per knot")
        recs = []
        for i, (kn, row) in enumerate(zip(knots, coeffs)):
            if not isinstance(row, list) or len(row) != grade + 1:
                raise DocumentError(f"coefficients[{i}]: expected {grade + 1} entries")
            knot = _read_cplx(kn, f"knots[{i}]")
            values = [_read_cplx(c, f"coefficients[{i}][{j}]") for j, c in enumerate(row)]
            recs.append(LocalTaylor(knot, values))
        try:
            return cls(recs)
        except (CompatibilityError, ValueError) as exc:
            raise DocumentError(str(exc)) from exc

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_document())

    @classmethod
    def load(cls, path) -> "Blendstring":
        with open(path) as f:
            return cls.from_document(f.read())


def zip_with(
    x: Blendstring,
    y: Blendstring,
    op: Callable[[LocalTaylor, LocalTaylor], LocalTaylor],
) -> Blendstring:
    """Apply a binary record operation knot-wise to two compatible blendstrings."""
    if not x.compatible(y):
        raise CompatibilityError("blendstrings are not compatible")
    return Blendstring([op(a, b) for a, b in zip(x.records, y.records)])


def _fmt(v: float) -> str:
    """The shortest text that reads back to the same double (-0.0 keeps its sign)."""
    return repr(float(v))


def _cplx(c) -> str:
    c = complex(c)
    return '{"re": ' + _fmt(c.real) + ', "im": ' + _fmt(c.imag) + "}"


def _read_cplx(obj, where: str) -> complex:
    re, im = (obj.get("re"), obj.get("im")) if isinstance(obj, dict) else (None, None)
    if type(re) not in (int, float) or type(im) not in (int, float):  # bool is an int subclass
        raise DocumentError(f"{where}: expected an object with re/im numbers")
    try:
        return complex(re, im)
    except OverflowError as exc:
        raise DocumentError(f"{where}: number too large for a double") from exc
