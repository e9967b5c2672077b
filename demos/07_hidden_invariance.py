"""
The hidden weighted-projective invariance
=========================================

Each invariant tau_a can be shifted by any weighted-homogeneous
polynomial of its own grade in the lower variables.  Applied line by
line the substitution is a composition of transvections of the flag:
unit triangular, determinant one, and it commutes with the grading.
"""

from fractions import Fraction

from tauforge.operator import WP_PARAM_NAMES, weighted_projective_check
from tauforge.pcg64 import wp_param_sets

# the stream of numpy's default_rng(7), drawn without numpy
(params,) = wp_param_sets(7, 1)
print("random rational parameters, e.g.",
      {k: str(params[k]) for k in list(params)[:4]}, "...")

rep = weighted_projective_check(params, 6, mode="sequential")
print()
print(f"sequential substitution on P6 (dim {rep['dim']}):")
for line in rep["per_line"]:
    print(f"  line tau_{line['line']}: unit triangular =",
          line["unit_triangular"])
print("  composite determinant:", rep["det"])
print("  ok:", rep["ok"])

# applying all lines in a single parallel substitution is NOT the same
# map; it can even fail to be invertible
params0 = {k: Fraction(0) for k in WP_PARAM_NAMES}
params0["b2_1"] = Fraction(1)
params0["b3_1"] = Fraction(1)
simul = weighted_projective_check(params0, 6, mode="simultaneous")
print()
print("simultaneous reading of the same display:")
print("  determinant:", simul["det"], "-> invertible:", simul["invertible"])
print("the displayed transformation is meant to be read line by line.")
