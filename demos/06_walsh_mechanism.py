"""Why embeddability caps sign-averaged functionals: the Walsh experiment.

Index base vectors by the subsets of {1..m} and weight them with Gaussians.
Sampling the random Fourier combination Phi_g at all 2^m sign vectors gives a
point set of size at most 2^(m+1) + 1.  Because Walsh characters are
orthonormal, any linear map into Euclidean space satisfies an exact identity
on these combinations -- so a low-distortion embedding of the *finite* point
set forces the sign-averaged energy of Phi_g below a measured multiple of
the weighted energy of the base family.  The experiment measures both sides;
the ratio never exceeds 1.
"""

import numpy as np

from banach_gauge import (
    SpaceOracle,
    WalshEnsemble,
    jl_mechanism_experiment,
    walsh_orthogonality_check,
    walsh_pointset,
)

print("=== the point set at m = 2 ===")
base = np.eye(4)
ens = WalshEnsemble(base, np.ones(4))
pset = walsh_pointset(ens)
print(f"  size {len(pset)} (bound 2^3 + 1 = 9); rows:")
for p in pset.points:
    print("   ", p)

print()
print("=== the orthogonality identity, to machine precision ===")
rng = np.random.default_rng(5)
z = rng.standard_normal((8, 3))
res = walsh_orthogonality_check(z)
print(f"  mean-over-signs energy {res.lhs:.12f}")
print(f"  sum of energies        {res.rhs:.12f}")
print(f"  relative residual      {res.residual:.2e}")

print()
print("=== the mechanism on a taxicab family ===")
space = SpaceOracle("l1", 2)
family = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
rep = jl_mechanism_experiment(space, family, eps=0.5, seed=2, trials=10)
print("  trial   lhs      rhs      ratio   D_comp  D_jl   proxy")
for t in rep.trials:
    print(f"  {t.trial:3d}  {t.lhs:8.4f} {t.rhs:8.4f}  {t.ratio:.4f}  "
          f"{t.d_composite:.3f}  {t.d_jl:.3f}  {t.delta_proxy:.3f}")
print(f"  max ratio over trials: {rep.max_ratio:.4f}  (<= 1 is the theorem)")
print(f"  note: {rep.note}")
