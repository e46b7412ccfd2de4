"""
Building and checking explicit tube covers
==========================================

A cover certificate is just a list of tubes.  Its cost is the sum of
cross-section measures, and a Monte Carlo sweep confirms that no point
of the body escapes.  Finer parallel covers approach the shadow area.
"""

import numpy as np

from tubemeasure import (
    Ball,
    PointCloud,
    axis_aligned_cuboid,
    cover_check,
    cover_cost,
    cover_search,
    parallel_cover_from_projection,
    shadow_area,
)

cube = axis_aligned_cuboid(np.full(3, 0.5), np.full(3, 0.5))
axis = np.array([0.0, 0.0, 1.0])

# slicing the unit square shadow into a grid of square tubes: the cost
# equals the shadow area exactly at every resolution, since dyadic
# squares tile the square without overlap
print("parallel covers of the unit cube along z")
print(f"  shadow area: {shadow_area(cube, axis):.6f}")
for step in (0.5, 0.25, 0.125):
    cover = parallel_cover_from_projection(cube, axis, step)
    covered, _ = cover_check(cube, cover, samples=50_000)
    print(
        f"  step {step:<6} tubes {len(cover.tubes):>4}  "
        f"cost {cover_cost(cover):.6f}  covered: {covered}"
    )

# a deliberately thin cover must fail, and the checker names a witness
ball = Ball(center=np.zeros(3), radius=1.0)
thin = parallel_cover_from_projection(ball, axis, 0.5)
thin_half = type(thin)(tubes=thin.tubes[: len(thin.tubes) // 2])
covered, worst = cover_check(ball, thin_half, samples=50_000)
print()
print(f"half of a ball cover: covered={covered}, escaped point {np.round(worst, 4)}")

# the search lays thin tubes through pairs of cloud points: collinear
# points share one tube, and N scattered points need at most ceil(N / 2)
print()
line = PointCloud(points=np.outer(np.arange(20.0), np.array([1.0, 2.0, 2.0])))
scattered = PointCloud(points=np.random.default_rng(3).uniform(-2.0, 2.0, (20, 3)))
for name, cloud in (("collinear", line), ("scattered", scattered)):
    found = cover_search(cloud, seed=3)
    covered, _ = cover_check(cloud, found)
    print(
        f"search on a {name} cloud of 20 points: {len(found.tubes)} tube(s), "
        f"cost {cover_cost(found):.2e}, covered: {covered}"
    )
