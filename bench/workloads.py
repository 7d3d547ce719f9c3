"""The three benchmark workloads: inputs made from a seed, the commands
run through ``retnbody.harness.main``, set-up, and output checks.

Every workload writes its configs and CSVs into a work directory; the
program sees only those files. A solution is one pass over the
workload's commands into a fresh output directory.
"""

from __future__ import annotations

import math
import os

import numpy as np
import yaml

from retnbody import harness, worldline

PAIR = (  # the run_pair.yaml particles: asymmetric, opposite charges
    {"label": "left", "m0": 1.0, "q": 0.5, "sigma": 0.8,
     "center": (-1.5, 0.0, 0.0)},
    {"label": "right", "m0": 1.5, "q": -0.4, "sigma": 0.7,
     "center": (1.5, 0.3, 0.0)},
)
PAIR_DT = 0.005
PAIR_PREHISTORY_NODES = 10_000
PAIR_STEPS = 60

RING_N = 6
RING_RADIUS = 3.0
RING_DT = 0.02
RING_STEPS = 10

CERTIFY = (  # subcommand, shipped example config
    ("check-pb", "check_pb"),
    ("demo-no-interaction", "demo_no_interaction"),
    ("compare-asymptotic", "compare_asymptotic"),
    ("action-oracle", "action_oracle"),
)
EXTREMALITY_MAX = 0.1


def _write_yaml(path, mapping) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(mapping, fh, sort_keys=True)
    return path


def _orbit(rng, center):
    """Smooth bounded orbit through ``center`` at t = 0: two sine modes
    per axis, speeds below 0.2 c."""
    amp = rng.uniform(0.02, 0.05, size=(2, 3))
    omega = rng.uniform(0.6, 1.4, size=(2, 3))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(2, 3))
    base = np.asarray(center) - (amp * np.sin(phase)).sum(axis=0)

    def x(t):
        return base + (amp * np.sin(omega * t + phase)).sum(axis=0)

    def v(t):
        return (amp * omega * np.cos(omega * t + phase)).sum(axis=0)

    def a(t):
        return (-amp * omega**2 * np.sin(omega * t + phase)).sum(axis=0)

    return x, v, a


def end_state(states):
    """(t, r, u) of the last node of every history, in stepping order."""
    out = []
    for st in states:
        for h in st.histories:
            last = h.samples[-1]
            out.append([float(last.t), *map(float, last.r), *map(float, last.u)])
    return out


def _constraint_check(states):
    """Worst |u.u - 1| over every stored node against its hard tolerance."""
    worst, ok = 0.0, True
    for st in states:
        for h in st.histories:
            u = np.array([s.u for s in h.samples])
            err = np.abs(u[:, 0] ** 2 - np.sum(u[:, 1:] ** 2, axis=1) - 1.0)
            worst = max(worst, float(err.max()))
            ok = ok and bool(err.max() <= h.hard_tol)
    return ("u_norm_within_hard_tol", ok, f"worst |u.u-1| = {worst:.3e}")


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Workload:
    name = ""
    tail_pct = 90         # step_ms_tail percentile: >= 10 steps beyond it
    min_solutions = 1     # at min_solutions, 10 steps do lie beyond tail_pct
    setups_per_solution = 5  # timed set-ups before each solution
    has_reference = True  # end state compared with reference.json at seed 0

    def __init__(self, root: str, work: str, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.configs: list[str] = []
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def commands(self, out: str) -> list[list[str]]:
        return [["run", self.configs[0], "--output-dir", out]]

    def setup(self) -> None:
        """Config load to a seeded state ready to step (timed by the caller)."""
        for path in self.configs:
            harness.build_state(harness.load_config(path), self.work)

    def check(self, out: str, states) -> list[tuple]:
        return [_constraint_check(states)]


class PairRestart(Workload):
    """The run_pair pair restarted from 10^4-node recorded prehistories."""

    name = "pair_restart"
    tail_pct = 94
    min_solutions = 3
    setups_per_solution = 1  # one set-up parses 2 x 10^4 CSV rows

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        t_nodes = np.linspace(-PAIR_DT * (PAIR_PREHISTORY_NODES - 1), 0.0,
                              PAIR_PREHISTORY_NODES)
        particles = []
        for p in PAIR:
            spec = worldline.ParticleSpec(p["m0"], p["q"], p["sigma"], p["label"])
            x, v, a = _orbit(rng, p["center"])
            hist = worldline.history_from_kinematics(spec, t_nodes, x, v, a)
            csv_name = f"prehistory_{p['label']}.csv"
            hist.export_csv(os.path.join(self.work, csv_name))
            particles.append({"label": p["label"], "m0": p["m0"], "q": p["q"],
                              "sigma": p["sigma"], "prehistory": csv_name})
        cfg = {"particles": particles, "mode": "exact", "c": 1.0,
               "dt": PAIR_DT, "t0": 0.0, "t_end": PAIR_STEPS * PAIR_DT,
               "output_dir": "out"}
        self.configs = [_write_yaml(os.path.join(self.work, "pair_restart.yaml"), cfg)]


class Ring6(Workload):
    """Six charges on a ring, alternating signs, distinct masses and radii."""

    name = "ring6"
    tail_pct = 75
    min_solutions = 4

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        particles = []
        for k in range(RING_N):
            ang = 2.0 * math.pi * k / RING_N
            pos = np.array([RING_RADIUS * math.cos(ang),
                            RING_RADIUS * math.sin(ang), 0.0])
            pos += rng.normal(0.0, 0.05, size=3)
            vel = rng.normal(0.0, 0.02, size=3)
            sign = 1.0 if k % 2 == 0 else -1.0
            particles.append({"label": f"p{k}", "m0": 1.0 + 0.15 * k,
                              "q": sign * (0.35 + 0.03 * k),
                              "sigma": 0.5 + 0.06 * k,
                              "position": [float(v) for v in pos],
                              "velocity": [float(v) for v in vel]})
        cfg = {"particles": particles, "mode": "exact", "c": 1.0,
               "dt": RING_DT, "t0": 0.0, "t_end": RING_STEPS * RING_DT,
               "output_dir": "out"}
        self.configs = [_write_yaml(os.path.join(self.work, "ring6.yaml"), cfg)]


class Certify(Workload):
    """The four certificate subcommands on the shipped example configs."""

    name = "certify"
    tail_pct = 98
    has_reference = False

    def prepare(self) -> None:
        for _, stem in CERTIFY:
            with open(os.path.join(self.root, "configs", f"{stem}.yaml"),
                      encoding="utf-8") as fh:
                cfg = yaml.safe_load(fh)
            cfg["seed"] = self.seed
            cfg["output_dir"] = "out"
            self.configs.append(_write_yaml(os.path.join(self.work, f"{stem}.yaml"), cfg))

    def commands(self, out: str) -> list[list[str]]:
        return [[cmd, path, "--output-dir", os.path.join(out, stem)]
                for (cmd, stem), path in zip(CERTIFY, self.configs)]

    def setup(self) -> None:
        for (cmd, _), path in zip(CERTIFY, self.configs):
            cfg = harness.load_config(path)
            if cmd != "check-pb":  # check-pb never builds a state
                harness.build_state(cfg, self.work)

    def check(self, out: str, states) -> list[tuple]:
        results = [_constraint_check(states)]
        for stem, table in (("check_pb", "pb_residuals.csv"),
                            ("demo_no_interaction", "no_interaction_report.csv")):
            path = os.path.join(out, stem, table)
            rows = _csv_rows(path) if os.path.exists(path) else []
            bad = [r["check"] for r in rows if r["status"] != "pass"]
            results.append((f"{table}_all_pass", bool(rows) and not bad,
                            f"{len(rows)} rows, failing: {bad or 'none'}"))
        path = os.path.join(out, "action_oracle", "action_summary.csv")
        ratio = math.inf
        if os.path.exists(path):
            ratio = float({r["key"]: r["value"] for r in _csv_rows(path)}
                          .get("extremality_ratio", "inf"))
        results.append(("extremality_ratio_at_most_0.1", ratio <= EXTREMALITY_MAX,
                        f"extremality_ratio = {ratio:.4g}"))
        return results


WORKLOADS = {w.name: w for w in (PairRestart, Ring6, Certify)}
