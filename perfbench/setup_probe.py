"""The set-up every tauforge CLI process pays, done once in a fresh process.

Usage: python3 perfbench/setup_probe.py SEED

Imports tauforge, builds E7 and its seven Weyl orbits, loads the `raw` and
`canonical` tables, and evaluates one double and one high-precision frame
at a point drawn from SEED.  Prints one JSON line the benchmark checks.
"""

from __future__ import annotations

import json
import sys


def main(seed: int) -> dict:
    from mpmath import mp

    from tauforge import oracle
    from tauforge.operator import e7_operator
    from tauforge.rootsys import build_system, weyl_orbit

    e7 = build_system("E7")
    sizes = [weyl_orbit(e7, a + 1).size for a in range(e7.rank)]
    raw = e7_operator("raw")
    canonical = e7_operator("canonical")
    with mp.workdps(oracle.hp_digits()):
        fast = oracle.build_frame(e7, oracle.sample_points(e7, 1, seed=seed)[0])
        exact = oracle.build_frame(
            e7, oracle.sample_points(e7, 1, seed=seed, precision="hp")[0]
        )
        gap = max(abs(a - b) / (1 + abs(b)) for a, b in zip(fast.tau, exact.tau))
    return {
        "orbit_sizes": sizes,
        "tau_gap": float(gap),
        "raw_violations": len(raw.violations),
        "canonical_violations": len(canonical.violations),
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
