"""Generalized eigenfunction of the Mathieu equation at a double point.

On the imaginary-q axis the two lowest even characteristic values collide at
q* ~ 1.46877i, where the two eigenfunctions coalesce and the usual spectral
expansion needs the Jordan-chain partner u solving

    u'' + (a* - 2 q* cos 2z) u + w(z) = 0,

with w the coalesced eigenfunction.  Everything here is assembled from
blendstring machinery: both homogeneous solutions marched on a shared mesh,
knot-wise products, and exact indefinite integrals in the
variation-of-parameters formula.  u comes out vanishing at 0, pi and 2*pi.
"""

import math

import numpy as np

from blends import (
    MathieuParams,
    double_point,
    even_characteristic_values,
    generalized_eigenfunction,
    mathieu_pair,
    modified_endpoint,
)

# locate the double point: Newton's method on the continuant of the Fourier
# recurrence, from a bracket that the Fourier-matrix eigenvalues check
astar, qstar = double_point()
print(f"double point: a* = {astar.real:.12f}, q* = {qstar.imag:.12f} i")
ev = even_characteristic_values(qstar, 4)
print("lowest even characteristic values there:",
      ", ".join(f"{e.real:+.6f}{e.imag:+.2e}i" for e in ev))

# both homogeneous solutions on one mesh, then the Green's construction
grade, tol = 15, 1e-10
params = MathieuParams(astar, qstar, (0.0, 2 * math.pi))
w1, w2 = mathieu_pair(params, grade, tol)
print(f"\nmarched both solutions in {len(w1) - 1} steps at grade {grade}")

u = generalized_eigenfunction(w1, w2, w1)
table = u.deval(nder=2)
umax = float(np.max(np.abs(table.derivatives(0))))
print(f"max |u| on [0, 2pi] = {umax:.6f}")
for x, label in ((0.0, "0"), (math.pi, "pi"), (2 * math.pi, "2pi")):
    print(f"  |u({label})| / max|u| = {abs(u.eval(x)) / umax:.2e}")

# verify u against the differential equation it was built for
pts = table.points
resid = np.abs(
    table.derivatives(2)
    + (astar - 2 * qstar * np.cos(2 * pts)) * table.derivatives(0)
    + np.array([w1.eval(z) for z in pts])
)
print(f"max |u'' + (a-2q cos 2z)u + w| = {resid.max():.2e}")

# the modified counterpart grows fast along the imaginary axis
for xi in (0.5, 1.0, 1.485):
    val = modified_endpoint(astar, qstar, xi, grade, tol)
    print(f"|w(i*{xi:5.3f})| = {abs(val):.4f}")
