"""
Weyl orbits of the E7 fundamental weights
=========================================

The seven invariant coordinates are orbit sums over the Weyl orbits of
the fundamental weights.  This script builds the orbits and prints the
numbers everything else in the package is anchored to.
"""

from tauforge.rootsys import (
    build_system,
    characteristic_vector,
    deformed_weyl_vector,
    weyl_orbit,
)

sysr = build_system("E7")

print("E7 in the x7 = -x8 hyperplane, 63 positive roots:",
      len(sysr.positive_roots))
print()
print("  a   |orbit|   |w_a|^2")
print("  ---  -------  --------")
for a in range(1, 8):
    orbit = weyl_orbit(sysr, a)
    print(f"  {a}    {orbit.size:6d}   {str(sysr.weight_lengths_sq[a-1]):>6}")

# the characteristic vector grades the polynomial flag P_n
print()
print("characteristic vector:", characteristic_vector(sysr))

# rho enters the ground-state energy; its squared length is exact
rho = deformed_weyl_vector(sysr)
print("rho^2 / nu^2 =", rho.rho_sq_over_nu_sq)

# orbits of the smallest weight come in +/- pairs
orb1 = weyl_orbit(sysr, 1)
rows = {tuple(u) for u in orb1.ints.tolist()}
negated = {tuple(-c for c in u) for u in rows}
print("orbit 1 closed under negation:", negated == rows)
