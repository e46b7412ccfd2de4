"""
Minimal width of a convex polygon, exactly
==========================================

In the plane the cheapest shadow of a convex body is its minimal width,
attained in a direction perpendicular to some edge.  The minimum-shadow
routine enumerates the vertices of the arrangement of facet-normal
lines, which in the plane are exactly the hull-edge directions that
rotating calipers visit, so it finds the width exactly.  A dense scan of
support widths can only agree from above.
"""

import math

import numpy as np

from tubemeasure import Ball, ConvexPolytope, plank_value_2d

# a disk has the same width 2r in every direction
disk = Ball(center=np.zeros(2), radius=1.0)
width, direction = plank_value_2d(disk)
print(f"unit disk width: {width}")

# for the equilateral triangle the width is the altitude sqrt(3)/2
tri = ConvexPolytope.hull_of(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
)
width, direction = plank_value_2d(tri)
print(f"triangle width:  {width:.12f}  (altitude {math.sqrt(3.0) / 2.0:.12f})")
print(f"attained along:  {np.round(direction, 6)}")

# exact width vs. a dense scan of support widths h(d) + h(-d) on random hulls
theta = np.linspace(0.0, math.pi, 4096, endpoint=False)
dirs = np.column_stack([np.cos(theta), np.sin(theta)])
rng = np.random.default_rng(42)
print()
print(f"{'vertices':>8} {'exact':>12} {'scan':>12} {'scan excess':>12}")
for _ in range(6):
    pts = rng.standard_normal((int(rng.integers(5, 12)), 2))
    poly = ConvexPolytope.hull_of(pts)
    exact, _ = plank_value_2d(poly)
    proj = pts @ dirs.T
    scan = float((proj.max(axis=0) - proj.min(axis=0)).min())
    print(f"{len(pts):>8} {exact:>12.8f} {scan:>12.8f} {scan - exact:>12.2e}")
