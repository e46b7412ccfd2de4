"""
Exhausting a disk with dyadic squares
=====================================

Square tubes with dyadic cross sections can be packed greedily inside a
ball: at each depth, keep every lattice square that fits entirely inside
and is not already covered.  The kept area converges to the full disk,
and every containment and disjointness is a statement about integers.
"""

from fractions import Fraction

from tubemeasure import ball_square_packing, common_refinement, pigeonhole_select

print("dyadic squares inside the unit disk")
print(f"{'depth':>5} {'new squares':>12} {'covered fraction':>18}")
previous = 0
for depth in range(1, 11):
    packing = ball_square_packing(2, 1.0, depth)
    total = packing.n_squares
    print(f"{depth:>5} {total - previous:>12} {packing.covered_fraction:>18.7f}")
    previous = total

# the census is radius-free: cells are stored as integer lattice indices,
# scaled by the radius only on output, so the same tree serves every disk.
# ``squares`` gives float centers with rational half-widths; ``square_exact``
# and ``to_dict`` give exact rationals
deep = ball_square_packing(2, 1.0, 4)
print(f"\ndepth 4 holds {len(deep.squares)} squares; the first three:")
for center, half in deep.squares[:3]:
    print(f"  center ({center[0]}, {center[1]}), half width {half}")

# Two tube families with different rational widths refine to a common
# grid: the largest width dividing both, computed by an integer gcd.
delta, count_a, count_b = common_refinement(Fraction(3, 4), Fraction(5, 6))
print(f"\nrefining widths 3/4 and 5/6: common width {delta}, counts {count_a} and {count_b}")

# Averaged mass bounds single out one good cell.  If the slices retain
# at least (1 - eps) of the mass on average, some slice does so alone.
masses = [2.0, 1.0, 4.0]
weights = [1.2, 0.99, 3.9]
index = pigeonhole_select(masses, weights, eps=0.25)
print(f"slice retaining its share: index {index} ({weights[index]} of {masses[index]})")
