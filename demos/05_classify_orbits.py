#!/usr/bin/env python3
"""Classify all constructed parallelisms at q = 3 and q = 4 up to
equivalence under the stabilizer of the spread and its distinguished line.

At q = 3 the 64 good sets collapse to 4 distinct parallelisms (conjugate
relabelings of norm-minus-one pencils give the same spreads), which fall
into 2 orbits: the one-plane family and its dual one-point family.  At
q = 4 the 120 parallelisms split into 6 orbits.
"""

from spreadsmith.equivalence import (are_equivalent, classify, stabilizer_group,
                                     stabilizer_order)
from spreadsmith.goodsets import count_good_sets, dual, fixed_plane_good_set
from spreadsmith.spreads import geometry_for_q

for q in (3, 4):
    geo = geometry_for_q(q)
    lam = geo.lam
    grp = stabilizer_group(geo)
    rep = classify(geo)
    print(f"=== q = {q}: group order {grp.order} "
          f"(formula {stabilizer_order(geo)}), {count_good_sets(lam)} good sets, "
          f"{rep.family_size} distinct parallelisms")
    for i, orbit in enumerate(rep.orbits):
        print(f"  orbit {i}: size {orbit.size:>3}  stabilizer "
              f"{orbit.stabilizer_order:>4}  representative "
              f"{[tuple(c) for c in orbit.representative]}")
    for name, bound in rep.bounds.items():
        print(f"  reference lower bound {name} = {bound} "
              f"<= {rep.orbit_count} orbits")
    print()

# the classical example and its dual are inequivalent
geo = geometry_for_q(3)
lam = geo.lam
B = fixed_plane_good_set(lam, lam.I[0], 0)
w = are_equivalent(geo, B, dual(B))
print("one-plane family vs its dual at q=3:",
      "equivalent" if w else "NOT equivalent (as expected)")
