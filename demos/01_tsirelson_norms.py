"""Exact norm evaluation with certificates.

The base norm is defined by a recursion: a vector's norm is the larger of its
biggest coordinate and half the best sum over admissible families of
restrictions.  Everything here is exact rational arithmetic, so values print
as fractions, and every evaluation comes with a certificate tree that can be
replayed independently.
"""

from fractions import Fraction

from banach_gauge import (
    FinVec,
    certificate_value,
    modified_norm,
    norming_functional,
    t2_norm,
    t2_norm_sq,
    tsirelson_norm,
    tsirelson_norm_bruteforce,
    validate_certificate,
)

# a few hand-picked vectors; {j: v} means coordinate j holds v
examples = [
    FinVec({5: 1}),                          # a single unit vector
    FinVec({3: 1, 4: 1}),                    # the first nontrivial split
    FinVec({3: 1, 4: 1, 5: 1, 6: 1}),        # four ones past index 2
    FinVec({1: 1, 2: 1, 3: 1, 4: 1}),        # four ones from the start
    FinVec({2: Fraction(1, 2), 7: 2}),
]

print("=== base norm, with the all-subsets oracle as a cross-check ===")
for x in examples:
    res = tsirelson_norm(x)
    brute = tsirelson_norm_bruteforce(x)
    status = "ok" if res.value == brute else "MISMATCH"
    print(f"  ||{x}|| = {res.value}   (oracle {brute}, {status}; "
          f"ranges {res.stats.expansions}, chain cells {res.stats.memo_entries})")

print()
print("=== certificates are checkable objects ===")
x = FinVec({3: 1, 4: 1, 5: 1, 6: 1})
res = tsirelson_norm(x)
print("  vector:", x)
print("  value:", res.value)
print("  certificate tree:", res.certificate.root)
print("  replayed value:", certificate_value(res.certificate, x))
print("  validates:", validate_certificate(res.certificate, x))

# a certificate linearizes to a functional lam with <lam, |z|> <= ||z|| for
# every z -- this is what the cutting-plane search consumes
lam = norming_functional(res.certificate)
print("  norming functional:", lam)
for z in examples:
    pairing = sum((lam[j] * abs(z[j]) for j in z.support()), Fraction(0))
    print(f"    <lam, |{z}|> = {pairing}  <=  ||z|| = {tsirelson_norm(z).value}")

print()
print("=== the 2-convexified norm takes squares before the recursion ===")
for x in [FinVec({3: 1, 4: 1}), FinVec({3: 1, 4: -1, 5: 1, 6: -1})]:
    print(f"  ||{x}||^2 = {t2_norm_sq(x).value}, ||.|| ~ {t2_norm(x):.6f}")

print()
print("=== the modified recursion allows disjoint (not successive) parts ===")
for x in [FinVec({1: 1, 2: 1}), FinVec({1: 1, 2: 1, 3: 1}), FinVec({3: 1, 4: 1})]:
    print(f"  modified ||{x}|| = {modified_norm(x)}   base ||.|| = {tsirelson_norm(x).value}")
