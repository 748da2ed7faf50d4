#!/usr/bin/env python3
"""The geometry of one regulus switch, line by line.

Take a pencil line, build the Desarguesian spread it directs, intersect
with the reference spread to get the shared regulus, compute the opposite
regulus by direct transversal search, and switch.  Every incidence shown
is computed over the exact field arithmetic.
"""

from spreadsmith.proj_geometry import line_intersection, plucker, klein_bilinear
from spreadsmith.spreads import geometry_for_q

geo = geometry_for_q(3)
s = geo.spec
q = geo.q

l = geo.line_set_L()[0]
a, u, v = geo.label_of(l)
print(f"pencil line with label (alpha_idx={a}, u_pow={u}, v_pow={v})")
print("  generators:", l)

sp = geo.spread_from_transversal(l)
d = geo.desarguesian_spread()
reg = geo.regulus_of(l)
print(f"\ninduced spread: {len(sp)} lines; shares "
      f"{len(set(sp) & set(d))} lines with the reference spread")
print(f"shared regulus contains the distinguished line:",
      geo.line_id(geo.space.r_U1) in reg)

opp = geo.opposite_regulus(reg)
# spreads and reguli are sorted tuples of line ids; geo.line gives a
# line's coordinates
reg_lines, opp_lines = list(map(geo.line, reg)), list(map(geo.line, opp))
print(f"\nopposite regulus: {len(opp)} transversals; incidence matrix "
      "(rows: regulus, cols: opposite):")
for r in reg_lines:
    row = []
    for o in opp_lines:
        pt = line_intersection(s, r, o)
        row.append("x" if pt is not None and pt in geo.sigma_eta else ".")
    print("   ", " ".join(row))

# the same incidences through the quadric embedding of line geometry
print("\nsame incidences via the polarized quadric form (0 = meet):")
for r in reg_lines:
    vals = [klein_bilinear(s, plucker(s, r), plucker(s, o)) for o in opp_lines]
    print("   ", vals)

h = geo.hall_spread(l)
print(f"\nswitched spread: {len(h)} lines, "
      f"valid: {geo.is_spread(h).ok}, "
      f"disjoint from the reference spread: {not set(h) & set(d)}")
print(f"lines exchanged by the switch: {len(set(h) ^ set(sp))} "
      f"(= 2(q+1))")
