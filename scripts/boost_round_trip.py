#!/usr/bin/env python3
"""Integrate a two-charge system in the lab frame, boost the solution,
re-integrate it in the moving frame, boost back, and print the mismatch.

Frame covariance of the delay-type equations shows up as a round-trip
mismatch far below the dt-halving integration tolerance.
"""

import argparse

import numpy as np

from retnbody import minkowski as mk
from retnbody.dynamics import run, seed
from retnbody.worldline import ParticleSpec, WorldlineHistory


def truncated(h, t_cut):
    tab = h.table
    out = WorldlineHistory(h.spec, c=h.c)
    out.extend(tab[tab[:, 0] < t_cut - 1e-9])
    out.append(h.state_at_time(t_cut))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=0.3)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--t-end", type=float, default=2.2)
    ap.add_argument("--t0-moving", type=float, default=0.55,
                    help="start of the moving-frame integration")
    args = ap.parse_args()

    specs = [ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.5, -0.4, 0.7, "b")]
    st = seed(specs, [[-1.5, 0, 0], [1.5, 0.3, 0]], [[0, 0, 0], [0, 0, 0]],
              dt=args.dt, coverage_factor=2.0)
    run(st, args.t_end)
    fine = seed(specs, [[-1.5, 0, 0], [1.5, 0.3, 0]], [[0, 0, 0], [0, 0, 0]],
                dt=args.dt / 2, coverage_factor=2.0)
    run(fine, args.t_end)

    tol = 0.0
    for t in np.linspace(0.05, 0.8 * args.t_end, 34):
        for hc, hf in zip(st.histories, fine.histories):
            tol = max(tol, float(np.max(np.abs(
                hc.state_at_time(float(t)).r - hf.state_at_time(float(t)).r))))

    lam = mk.Boost(np.array([args.beta, 0.0, 0.0])).matrix()
    lam_inv = mk.Boost(np.array([-args.beta, 0.0, 0.0])).matrix()
    pre = [truncated(h.transformed(lam, 0), args.t0_moving) for h in st.histories]
    stp = seed(prehistories=pre, t0=args.t0_moving, dt=args.dt)
    run(stp, args.t0_moving + 0.5)

    mism = 0.0
    for tp in np.linspace(args.t0_moving + 0.05, args.t0_moving + 0.49, 23):
        for hp, hs in zip(stp.histories, st.histories):
            back = lam_inv @ hp.state_at_time(float(tp)).r
            mism = max(mism, float(np.max(np.abs(
                back - hs.state_at_time(float(back[0] / hs.c)).r))))

    print(f"beta = {args.beta}, dt = {args.dt}")
    print(f"integration tolerance (dt-halving): {tol:.3e}")
    print(f"boost round-trip mismatch:          {mism:.3e}")
    print(f"mismatch / tolerance:               {mism / tol:.3f}")


if __name__ == "__main__":
    main()
