"""Type-2 and cotype-2 ratios: exact sign averages vs Gaussian Monte Carlo.

The type ratio of a family compares the average squared norm of its random
sign combinations to the sum of squared norms; the cotype ratio is the
reciprocal orientation.  Ratios above 1 witness distance from Euclidean
behavior, and exact oracles turn those witnesses into certificates.
"""

import math
from fractions import Fraction

from banach_gauge import (
    SpaceOracle,
    VectorFamily,
    c2_lower_from_witness,
    gaussian_ratio,
    kwapien_upper,
    rademacher_ratio,
)

F = Fraction


def basis_family(space, k):
    vecs = []
    for i in range(k):
        row = [F(0)] * space.dim
        row[i] = F(1)
        vecs.append(row)
    return VectorFamily.make(vecs, space)


print("=== exact sign averages (2^(n-1) patterns: eps and -eps pair up) ===")
for tag, dim, kind in [("l1", 2, "type"), ("l2", 4, "type"), ("l2", 4, "cotype"),
                       ("linf", 2, "cotype")]:
    space = SpaceOracle(tag, dim)
    est = rademacher_ratio(basis_family(space, dim), kind)
    print(f"  {tag:4s} basis family, {kind:6s} ratio = {est.exact}")

print()
print("=== the same ratios by Gaussian Monte Carlo, with 95% intervals ===")
space = SpaceOracle("l1", 2)
fam = basis_family(space, 2)
est = gaussian_ratio(fam, "type", samples=200_000, seed=1)
closed_form = (2 + 4 / math.pi) / 2
print(f"  l1 type ratio: point {est.point:.4f}, ci [{est.ci_low:.4f}, {est.ci_high:.4f}]")
print(f"  closed form (2 + 4/pi)/2 = {closed_form:.4f}")

print()
print("=== a cotype witness inside the 2-convexified span ===")
space = SpaceOracle("T2", 4)
fam = VectorFamily.make(
    [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]], space
)
est = rademacher_ratio(fam, "cotype")
low = c2_lower_from_witness(est)
print(f"  family e_3, e_4: cotype ratio = {est.exact} (exact)")
print(f"  certified Euclidean-distortion lower bound: sqrt({est.exact}) = {low.value:.4f}")

print()
print("=== composing upper bounds ===")
print("  if T2(X) <= 1.5 and C2(X) <= 2.0 then c2(X) <=", kwapien_upper(1.5, 2.0))
