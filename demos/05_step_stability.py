"""Stepsize stability of the collocation step for oscillatory problems.

One step of size h for y'' + w^2 y = 0 multiplies (y, y') by a matrix whose
entries are rational functions C_m, S_m of nu = w h standing in for cos and
sin.  The matrix has unit determinant and trace 2 C_m, so steps stay on the
unit circle exactly while |C_m| <= 1; the first failure nu* sits near pi
and crowds it rapidly as the grade grows.  Inside the narrow window past
nu* the excess |C_m|-1 is tiny, so the growth per step is negligible anyway.
"""

import math

import numpy as np

from blends import sho_amplification, sho_step_matrix, stability_threshold

print("grade   nu*/pi             first instability onset")
for m in range(1, 7):
    nustar = stability_threshold(m)
    print(f"  {m}    {nustar / math.pi:.12f}     nu* = {nustar:.12f}")

print("\nC_m(nu) and S_m(nu) against cos and sin, m = 3:")
print("   nu      C_3          cos nu       S_3          sin nu")
for nu in (0.5, 1.0, 2.0, 3.0):
    c, s = sho_amplification(3, nu)
    print(f"  {nu:.1f}  {c:+.9f} {math.cos(nu):+.9f}  {s:+.9f} {math.sin(nu):+.9f}")

# energy identity: the off-diagonal product balances the diagonal exactly
worst = max(
    abs(c * c + s * s - 1.0)
    for nu in np.linspace(0.05, 3.0, 60)
    for c, s in [sho_amplification(3, float(nu))]
)
print(f"\nmax |C^2 + S^2 - 1| on (0, 3]: {worst:.2e}")

# the instability window for m=3: excess and eigenvalue growth
nus = np.linspace(0.999 * math.pi, 1.002 * math.pi, 200)
excess = []
lam = []
for nu in nus:
    c, _ = sho_amplification(3, float(nu))
    excess.append(c * c - 1.0)
    lam.append(float(np.max(np.abs(np.linalg.eigvals(sho_step_matrix(3, float(nu)))))))
print(f"window near pi, m=3: max C^2-1 = {max(excess):.3e}, "
      f"max |lambda| = {max(lam):.6f}")
print(f"worst growth over 1000 such steps: {max(lam) ** 1000:.3f}x")
