#!/usr/bin/env python3
"""Build a first parallelism of PG(3,3) and take it apart.

The construction: pick a good set (here the classical one-plane example:
every base point on the distinguished line, one fixed plane), switch the
regulus of each pencil-line spread, and add the Desarguesian spread.  The
result partitions all 130 lines of the subgeometry.
"""

from spreadsmith.goodsets import fixed_plane_good_set
from spreadsmith.parallelisms import (
    build_parallelism,
    characterize,
    group_E,
    is_E_invariant,
    verify_parallelism,
)
from spreadsmith.spreads import geometry_for_q

geo = geometry_for_q(3)
q = geo.q
lam = geo.lam

gs = fixed_plane_good_set(lam, lam.I[0], 0)
print("good set (alpha_idx, u_pow, v_pow):")
for c in gs:
    print("   ", tuple(c))

par = build_parallelism(geo, gs)
print(f"\nparallelism: {len(par)} spreads "
      f"({len(par) - 1} switched + 1 Desarguesian)")

cert = verify_parallelism(geo, par)
print(f"exact cover: {cert.line_count} lines of the subgeometry, "
      f"each exactly once -> {'pass' if cert.ok else 'FAIL'}")
print(f"cover fingerprint: {cert.checksum[:32]}..")

E = group_E(geo)
print(f"\nprescribed automorphism group: order {E.order}, "
      f"invariance {'holds' if is_E_invariant(geo, par) else 'FAILS'} "
      f"(checked on its 2m = {len(E.generators)} generators)")

res = characterize(geo, par)
print("\nreading the good set back off the spreads:")
for c in res.good_set:
    print("   ", tuple(c))
print("round trip:", "exact" if res.ok else res.reason)

# peek inside one switched member: the Hall spread of the first line of the
# first pencil, and the regulus of the Desarguesian spread that it switched
l = geo.pencil(*par.source[0])[0]
sp, reg = par.spreads[0], geo.regulus_of(l)
assert sp == geo.hall_spread(l)
print(f"\none switched member: {len(sp)} lines; the switched regulus "
      f"has {len(reg)} lines and contains the distinguished line:",
      geo.line_id(geo.space.r_U1) in reg)
