"""Random projections: how far down can a point cloud go at 1 + eps?

A cloud of n points embeds into O(log n / eps^2) dimensions with pairwise
distances preserved up to 1 + eps.  The map here is a multiple of a random
orthogonal projection, normalized so no pair shrinks; the distortion report
tracks the worst expansion and the pairs attaining the extremes.
"""

import math

import numpy as np

from banach_gauge import (
    EmbeddingFailed,
    LinearMap,
    PointSet,
    SpaceOracle,
    distortion_of_map,
    jl_embed,
)

rng = np.random.default_rng(0)
pts = rng.standard_normal((500, 200))

print("=== 500 Gaussian points in R^200 ===")
for eps in (1.0, 0.5, 0.25):
    d = min(math.ceil(8.0 * math.log(len(pts)) / eps**2), pts.shape[1])
    try:
        lmap, rep = jl_embed(pts, eps, constant=8.0, seed=3)
        print(f"  eps = {eps:5.2f}: target dim {lmap.target_dim:4d}  "
              f"distortion {rep.distortion:.4f}  (target {1 + eps})")
    except EmbeddingFailed as exc:
        print(f"  eps = {eps:5.2f}: target dim {d:4d}  FAILED "
              f"(best {exc.best_report.distortion:.4f})")

print()
print("=== measuring a fixed map between different norms ===")
corners = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
identity = LinearMap(np.eye(2))
rep = distortion_of_map(corners, identity, source_norm=SpaceOracle("l1", 2))
print("  the 4-cube corners, taxicab -> Euclidean via the identity:")
print(f"  min ratio {rep.min_ratio:.6f} at pair {rep.argmin}")
print(f"  max ratio {rep.max_ratio:.6f} at pair {rep.argmax}")
print(f"  distortion {rep.distortion:.6f}  (= sqrt(2): the diagonal pairs contract)")
