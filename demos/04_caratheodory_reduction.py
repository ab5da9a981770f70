"""Shrinking a vector family without moving its Gaussian statistics.

The covariance of sum_i g_i u_i lives in the cone spanned by the outer
products u_i (x) u_i, so whenever the family is larger than d(d+1)/2 a weight
vector can be pivoted to zero while the covariance stays put.  Splitting each
vector by the resulting weights yields two families whose Gaussian energies
and squared norms add up to the original -- so the better branch can only
improve a type or cotype ratio (mediant inequality).
"""

import numpy as np

from banach_gauge import (
    SpaceOracle,
    VectorFamily,
    caratheodory_reduce,
    flm_reduce,
    gaussian_ratio,
)

rng = np.random.default_rng(42)

print("=== weight reduction in d = 2: bound d(d+1)/2 = 3 ===")
U = rng.standard_normal((10, 2))
red = caratheodory_reduce(U)
print("  input family size:", len(U))
print("  nonzero weights:  ", int(np.count_nonzero(red.weights)))
print("  weights:          ", np.round(red.weights, 4))
A = U.T @ U
B = red.vectors.T @ (red.weights[:, None] * red.vectors)
print("  covariance residual:", float(np.linalg.norm(A - B)))
print("  norm identity: sum|v|^2 + sum|w|^2 =",
      round(float(np.sum(red.v**2) + np.sum(red.w**2)), 10),
      " vs sum|u|^2 =", round(float(np.sum(U**2)), 10))
c1 = red.weights[0]
print("  v-branch covariance == A/c1: residual",
      float(np.linalg.norm(red.v.T @ red.v - A / c1)))
print("  w-branch covariance == (1-1/c1)A: residual",
      float(np.linalg.norm(red.w.T @ red.w - (1 - 1 / c1) * A)))

print()
print("=== iterated reduction keeps the type ratio (statistically) ===")
space = SpaceOracle("l1", 2)
fam = VectorFamily.make(rng.standard_normal((10, 2)).tolist(), space)
before = gaussian_ratio(fam, "type", samples=100_000, seed=7)
out = flm_reduce(fam, "type", mc_samples=20_000, seed=11)
after = gaussian_ratio(out, "type", samples=100_000, seed=7)
print(f"  family 10 -> {len(out)} vectors")
print(f"  type ratio before: {before.point:.4f}  [{before.ci_low:.4f}, {before.ci_high:.4f}]")
print(f"  type ratio after:  {after.point:.4f}  [{after.ci_low:.4f}, {after.ci_high:.4f}]")
