#!/usr/bin/env python3
"""Print the raw wall time per RK4 step of the six-charge ring at larger N.

The ring is the bench's ring6 geometry: particle k sits at angle 2 pi k / N
with a small random offset and velocity, alternating charge sign, and mass,
charge magnitude and radius set by k mod 6. The ring radius grows as 3 N / 6,
so neighbours keep ring6's spacing. At N = 6 and the default seed the
particles are those of ring6. N = 1 is a single self-interacting charge,
the shape of the certify workload's median step (a one-particle pulse
step), whose cost is per-call overhead, not physics. --mode picks the
self-force mode (exact by default; asymptotic reads u'' at every self
root). The median and min cover every step; the last column is the first
step alone, whose root batches start cold. Times are raw
time.perf_counter readings, not normalised for host speed: compare them
within one run.
"""

import argparse
import math
import statistics
import time

import numpy as np

from retnbody.dynamics import seed, step
from retnbody.fields import SelfForceMode
from retnbody.worldline import ParticleSpec

DT = 0.02


def ring(n: int, rng):
    specs, positions, velocities = [], [], []
    radius = 3.0 * n / 6
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        pos = np.array([radius * math.cos(ang), radius * math.sin(ang), 0.0])
        positions.append(pos + rng.normal(0.0, 0.05, size=3))
        velocities.append(rng.normal(0.0, 0.02, size=3))
        j = k % 6
        sign = 1.0 if k % 2 == 0 else -1.0
        specs.append(ParticleSpec(1.0 + 0.15 * j, sign * (0.35 + 0.03 * j), 0.5 + 0.06 * j,
                                  f"p{k}"))
    return specs, positions, velocities


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 12, 24, 48])
    ap.add_argument("--steps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=[m.value for m in SelfForceMode],
                    default=SelfForceMode.EXACT.value)
    args = ap.parse_args()

    print(f"{'N':>4} {'steps':>6} {'median ms/step':>15} {'min ms/step':>12} "
          f"{'first ms':>9}")
    for n in args.sizes:
        st = seed(*ring(n, np.random.default_rng(args.seed)), dt=DT,
                  mode=SelfForceMode(args.mode))
        ms = []
        for _ in range(args.steps):
            t = time.perf_counter()
            step(st)
            ms.append(1e3 * (time.perf_counter() - t))
        print(f"{n:>4} {args.steps:>6} {statistics.median(ms):>15.3f} {min(ms):>12.3f} "
              f"{ms[0]:>9.3f}")


if __name__ == "__main__":
    main()
