"""Hunting flat vectors, and what they certify.

A flat vector has small base norm relative to its tail mass past index 2.
The norm is a max of linear functionals on the nonnegative orthant (one per
certificate tree), so the flattest vector under a tail normalization is the
value of a linear program over the functionals seen so far.  Each round
solves the LP exactly, asks the norm engine for the truth at the optimum,
and adds the refuting certificate as a new cut until LP value == norm.

Every converged witness then yields an exact cotype ratio in the
2-convexified span -- a certified lower bound on its Euclidean distortion.
"""

from banach_gauge import (
    SpaceOracle,
    cotype_certificate,
    diagonal_sqrt_family,
    flatness,
    rademacher_ratio,
    search_flat,
)

print("=== theta*(N): the flattest ratio reachable with support in [1, N] ===")
print("  N   theta*      rounds  pool  witness")
witnesses = {}
for N in range(3, 9):
    res = search_flat(N)
    witnesses[N] = res.x
    flag = "converged" if res.converged else "round-capped"
    print(f"  {N}   {str(res.theta):9s}  {res.rounds:4d}  {len(res.pool):4d}"
          f"  {res.x}  ({flag})")

print()
print("=== from witness to certified distortion bound ===")
print("  N   cotype ratio   c2 lower   claimed-at-scale")
for N, x in witnesses.items():
    cert = cotype_certificate(x, N)
    claimed = f"{cert.claimed_c2_lower:.3f}" if cert.claimed_c2_lower else "-"
    print(f"  {N}   {str(cert.ratio):11s}  {cert.c2_lower:9.4f}   {claimed}")

print()
print("=== cross-check: the generic sign enumeration gives the same ratio ===")
for N in (4, 8):
    x = witnesses[N]
    fam = diagonal_sqrt_family(SpaceOracle("T2", N), x)
    est = rademacher_ratio(fam, "cotype")
    cert = cotype_certificate(x, N)
    print(f"  N={N}: flat-search ratio {cert.ratio}  == sign-enumeration {est.exact}")

print()
print("=== flatness is scale-free ===")
x = witnesses[4]
print(f"  theta({x}) = {flatness(x)}")
print(f"  theta(6 * witness) = {flatness(6 * x)}")
