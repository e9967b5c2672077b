"""
Polynomial flags and the discrete spectrum
==========================================

The operator preserves the flag P_0 < P_1 < P_2 < ... of polynomial
spaces graded by the characteristic vector (1,2,2,2,3,3,4).  On each
P_n it acts triangularly in the dominance order, so the spectrum reads
off the diagonal and is affine in nu.
"""

from fractions import Fraction

from tauforge.operator import (
    e7_operator,
    enumerate_flag_basis,
    flag_degree_check,
    spectrum,
)

op = e7_operator("raw")

print("flag dimensions:",
      [enumerate_flag_basis("E7", n).dim for n in range(7)])
print("weighted-degree bounds hold:", flag_degree_check(op)["ok"])

# the P_1 spectrum in closed form
s1 = spectrum(op, 1)
print()
print("P1 eigenvalues:", [str(e) for e in s1.eigenvalues])
print("certificate:", s1.certificate)

# P_3, evaluated at a rational coupling
s3 = spectrum(op, 3)
nu = Fraction(1, 2)
print()
print(f"P3 eigenvalues at nu = {nu}:")
for mono, val in zip(s3.basis.monomials, s3.at(nu)):
    print(f"  {mono}: {val}")

# at nu = 0 the model is free and the eigenvalue on the lambda-flag is
# -(lambda, lambda); the multiset below is therefore a root-data check
print()
print("P2 eigenvalues at nu = 0:", sorted(spectrum(op, 2).at(0)))
