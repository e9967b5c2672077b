"""
Auditing the published operator tables
======================================

The operator in invariant coordinates is h = sum A_ij d_i d_j + sum B_i d_i.
The package ships the tables exactly as published ("raw") and compares
every entry against a chain-rule oracle that knows nothing about the
tables.  Eight entries disagree; refitting them from the oracle gives
the corrected forms ("canonical").
"""

from tauforge.operator import e7_operator
from tauforge.oracle import FramePool, fit_entry, verify_tables
from tauforge.rootsys import build_system

raw = e7_operator("raw")

# stage 1: numeric audit in double precision
report = verify_tables(raw, samples=12, seed=20240, tol=1e-6)
print("raw tables vs oracle at 12 sample points:")
print("  discrepant entries:", report["discrepant"])

# stage 2: refit one discrepant entry from high-precision frames;
# denominators are snapped to small rationals and re-checked at
# held-out points
pool = FramePool(build_system("E7"), 14, seed=23)
fit = fit_entry(raw, "B1", pool=pool)
print()
print("refit of B1:")
print("  polynomial:", fit.poly)
print("  held-out residual:", f"{fit.residual:.2e}")

# the raw entry differs only in the nu-part
print()
print("  raw       B1 =", raw.b_entry(1))
print("  canonical B1 =", e7_operator('canonical').b_entry(1))

# the corrected tables pass the same audit cleanly
clean = verify_tables(e7_operator("canonical"), samples=12, seed=20240)
print()
print("canonical tables all pass:", clean["all_pass"])
