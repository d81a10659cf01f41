"""Pieces shared by the workloads: ops, seeded stratified inputs, error measure."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# a relative error below this reads as 17 digits, so exact results do not
# dominate the minimum
DIGITS_FLOOR = 1e-17
# default failure bound on the relative error: far above what a working
# kernel produces, far below what a wrong formula or a dropped term gives.
# It is deliberately not tied to the requested tol, which the solver does
# not honour yet; that shows in accurate_digits instead.
CHECK_BOUND = 1e-6


class CheckFailed(Exception):
    """An op's output is structurally wrong (shape, points, knots)."""


@dataclass
class Op:
    """One timed call into the program: its kind and its generated inputs."""

    kind: str
    params: dict
    bound: float = CHECK_BOUND
    ref: object = field(default=None, repr=False)


def strata(rng, n, lo, hi, step=1):
    """n values, one uniform draw in each of n equal slices of [lo, hi].

    Value i comes from slice (step * i) mod n, so two parameters drawn with
    different steps pair their slices in a fixed pattern.  Stratified,
    fixed pairings keep the mix of op sizes (and the worst case of the mix)
    nearly the same for every seed, so run-to-run spread comes from the
    program, not from the draw.  Workloads shuffle the op order afterwards.
    """
    return [lo + (hi - lo) * ((step * i) % n + rng.random()) / n for i in range(n)]


def log_grid(n, lo_exp, hi_exp, step=1):
    """n log-spaced values from 10**lo_exp to 10**hi_exp, paired like strata.

    Used for tolerances: the worst error of a run tracks the loosest tol,
    so jittering tol would make accurate_digits depend on the seed.
    """
    return [10.0 ** (lo_exp + (hi_exp - lo_exp) * ((step * i) % n) / (n - 1)) for i in range(n)]


def cycle(values, n):
    """n entries cycling through values."""
    return [values[i % len(values)] for i in range(n)]


def unit(rng):
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def polygon(rng, start, legs, lo, hi, box):
    """Waypoints of a seeded polygon with leg lengths in [lo, hi] inside box."""
    (x0, x1), (y0, y1) = box
    pts = [complex(start)]
    while len(pts) <= legs:
        step = rng.uniform(lo, hi) * unit(rng)
        z = pts[-1] + step
        if x0 <= z.real <= x1 and y0 <= z.imag <= y1:
            pts.append(z)
    return pts


def knots_along(rng, waypoints, segments, jitter=0.2):
    """Knots along a polygon: waypoints included, segments split evenly with jitter."""
    legs = len(waypoints) - 1
    per = [segments // legs + (1 if i < segments % legs else 0) for i in range(legs)]
    knots = [waypoints[0]]
    for (a, b), n in zip(zip(waypoints, waypoints[1:]), per):
        for j in range(1, n):
            knots.append(a + (b - a) * (j + rng.uniform(-jitter, jitter)) / n)
        knots.append(b)
    return knots


def relerr(got, want) -> float:
    """max |got - want| / max |want| over all entries; inf if shapes differ or not finite."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    if got.shape != want.shape or got.size == 0:
        raise CheckFailed(f"shape {got.shape} != reference shape {want.shape}")
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    out = err / scale if scale > 0 else err
    return out if math.isfinite(out) else math.inf


def digits(err: float) -> float:
    """-log10 of a relative error; 0 when nothing was measured."""
    return -math.log10(max(err, DIGITS_FLOOR)) if math.isfinite(err) else 0.0


def load_refs() -> dict:
    with open(HERE / "refs.json") as f:
        return json.load(f)


def cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def knot_data(bs):
    """(knots, values, first derivatives) of a blendstring's records, as arrays."""
    recs = bs.records
    return (np.array([r.knot for r in recs], dtype=complex),
            np.array([r.coeffs[0] for r in recs], dtype=complex),
            np.array([r.coeffs[1] for r in recs], dtype=complex))
