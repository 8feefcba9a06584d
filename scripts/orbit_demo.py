#!/usr/bin/env python3
"""Walk through the two positive-potential constructions on the Hopf fixtures.

Prints the diagnostics of the periodic-ODE potential for f = eps cos t, then
runs the vertical-circle orbit average twice: once on the invariant input
(where the averaged potential reproduces the input's squared norm) and once
from the norm-modulated structure via the twisted vertical circle.
"""

import sys
from pathlib import Path

import numpy as np

# this checkout's lcklab first, whatever PYTHONPATH names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcklab import manifolds as M
from lcklab import potential as P


def main():
    print("== periodic ODE potential, f = 0.3 cos t")
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    for k, v in sol.diagnostics().items():
        print(f"   {k:>22s} = {v:.12g}")

    print("== invariant input (fixed point of the averaging)")
    hopf = M.gallery("hopf_diag")
    pts = hopf.sample(25, seed=9)
    res = P.orbit_average_potential(
        hopf, hopf.kahler_lift(), hopf.fields["B"], hopf.flows["A"], points=pts,
        phi=hopf.phi,
    )
    gap = np.abs(res.g.values(pts).real - res.f.values(pts).real).max()
    print(f"   |g - f| = {gap:.3e} (the potential is unchanged)")

    print("== twisted vertical circle on the norm-modulated fixture")
    lee = M.gallery("leeolo", eps=0.3)
    orbit = P.leeolo_orbit_pipeline(lee, lee.sample(25, seed=9))
    for k, v in sorted(orbit.checks.items()):
        print(f"   {k:>28s} = {v:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
