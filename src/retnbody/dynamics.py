"""Method-of-steps integrator for the delay equations of motion.

Everything advances on one coordinate-time clock. The first-order system
per particle is

    dx/dt   = c u_vec / gamma
    du_mu/dt = (1 / gamma m0) [ (q/c) F^(tot)_mu_nu u^nu + g_mu ]

with g the asymptotic self four-force (asymptotic mode only; exact mode
carries the self field inside F). Steps are classic fixed-size RK4 on
whole arrays: x (N, 3), u (N, 4), s (N,) and every stage slope hold one
row per particle. Each force evaluation is one fields.total_faraday call
on states the step holds: the base states, a stage's (N, 14) node block
or the committed nodes. It solves the delay roots and field kernels of
all particles as one batch of the system's one root plan and returns
each particle's covariant force (q/c) F u + g as an (N, 4) array, which
_deriv divides by u^0 m0 (the plan's m0 column) and raises; every
evaluation but a state's first starts its roots from the evaluation
before (see step). Each stage's (N, 14) node rows are written column by
column where they are computed, with no copy. After acceptance a fifth
evaluation fixes the appended acceleration sample, proper time advances
by Simpson quadrature of c dt / gamma, and the new nodes are committed
as one checked block (worldline.commit); they are also the states the
step record and the next step start from. Each step ends with exactly
one batch at the new time. Its plan also holds the potentials' and the
reported delays' roots, so it serves the step's diagnostics and the
next step's first evaluation, which the state caches under the time and
the history lengths it holds for (read once per step).

Stages 2 to 4 and the fifth evaluation run with their node blocks
staged (worldline.staged), which the store writes only when a query
reads past the committed nodes. When no query read the fifth
evaluation's stage it made every query on the committed nodes, so its
batch is the step-end batch; otherwise the step-end batch is solved
again, from the fifth's, once the nodes are committed. Only a state's
first evaluation starts cold (the first step of a run or a restart, or
a state with no cached step-end batch), so a state's continuation is
fixed, bit for bit, by the state with its cached batch; a restart from
the committed nodes agrees with the uninterrupted run to the root
tolerance, not bit for bit.

Histories are the state. A SystemState is little more than the history
set, held in one store (worldline.HistoryBank, filled by seed), plus the
stepping policy; prehistory coverage is the seeding invariant (delay
roots must never under-run recorded samples during the first steps).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .canonical import _IDX_PAIRS
from .fields import ExternalFieldModel, SelfForceMode, _tensor, total_faraday
from .minkowski import dots, lower, raise_index
from .retardation import _add_potentials, max_delay, solve_delays
from .worldline import (
    ConstraintViolation,
    ParticleSpec,
    WorldlineHistory,
    WorldlineSample,
    _four_velocity,
    commit,
    copy_histories,
    gather,
    inertial_history,
    staged,
    write_table,
)

# nodes of each synthesized inertial prehistory
PREHISTORY_NODES = 16

_MU, _NU = np.array(_IDX_PAIRS).T  # the index pairs of m_hat's components


class InsufficientPrehistory(Exception):
    """Raised when a supplied prehistory does not reach the delay depth
    refined from the actual roots before t0.

    Carries .required, coverage_factor times that depth: the coverage
    (in coordinate time before t0) a synthesized prehistory would get.
    """

    def __init__(self, message: str, required: float):
        super().__init__(message)
        self.required = required


@dataclass
class StepRecord:
    step: int
    t: float
    constraint_err: np.ndarray
    h_eff: np.ndarray
    p_hat: np.ndarray
    m_hat: np.ndarray
    self_delays: np.ndarray
    pair_delays: np.ndarray
    # per particle: the step's local error estimate (see step)
    local_error: np.ndarray
    wall_time: float


class Diagnostics:
    """Append-only per-step records."""

    def __init__(self):
        self._records = []

    def append(self, rec: StepRecord) -> None:
        self._records.append(rec)

    @property
    def records(self):
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def header(self, labels) -> list:
        cols = ["step", "t"]
        cols += [f"constraint_err_{l}" for l in labels]
        cols += [f"h_eff_{l}" for l in labels]
        cols += [f"p_hat_{mu}" for mu in range(4)]
        cols += [f"m_hat_{mu}{nu}" for mu, nu in _IDX_PAIRS]
        cols += [f"self_delay_{l}" for l in labels]
        cols += [f"pair_delay_{li}_{lj}" for li in labels for lj in labels
                 if li != lj]
        return cols

    def export_csv(self, path, labels, comment: str | None = None) -> None:
        """Write the records; wall times stay in memory only, because
        exported files must be bit-identical across repeated runs, and so
        do local error estimates, so that the file keeps its columns."""
        header = self.header(labels)
        rows = [[r.step, r.t, *r.constraint_err, *r.h_eff, *r.p_hat, *r.m_hat,
                 *r.self_delays, *r.pair_delays] for r in self._records]
        write_table(path, header, np.array(rows, dtype=np.float64).reshape(-1, len(header)),
                    comment)


@dataclass
class SystemState:
    histories: list
    t_now: float
    dt: float
    external: ExternalFieldModel = field(default_factory=ExternalFieldModel.none)
    mode: SelfForceMode = SelfForceMode.EXACT
    renormalize_u: bool = False
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    # the states, the step-end force evaluation and its root batch of the
    # last step, keyed by the time and history lengths they hold for: the
    # next step's first evaluation, from which its other evaluations start
    # (see step); None, and the next step starts cold
    last_eval: tuple | None = field(default=None, repr=False, compare=False)
    # (origin, k, dt): step k + 1 ends at origin + (k + 1) dt while the
    # state's dt is the grid's; None, or another dt, starts (t_now, 0, dt)
    grid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.histories)

    @property
    def c(self) -> float:
        return self.histories[0].c  # the nodes' own, so never at odds with them

    @property
    def specs(self):
        return [h.spec for h in self.histories]


def _static_delay_estimate(specs, positions, c: float) -> float:
    est = max(s.sigma for s in specs) / c
    for i in range(len(specs)):
        for j in range(len(specs)):
            if i == j:
                continue
            d = float(np.linalg.norm(positions[i] - positions[j]))
            sig = max(specs[i].sigma, specs[j].sigma)
            est = max(est, math.sqrt(d * d + sig * sig) / c)
    return est


def seed(specs=None, positions=None, velocities=None, *, prehistories=None,
         t0: float = 0.0, dt: float = 1e-2, c: float = 1.0,
         external: ExternalFieldModel | None = None,
         mode: SelfForceMode = SelfForceMode.EXACT, renormalize_u: bool = False,
         coverage_factor: float = 1.2) -> SystemState:
    """Build a valid SystemState; the one place prehistories are made and checked.

    prehistories holds one entry per particle: a supplied history of light
    speed c ending at t0 (up to 1e-12 (1 + |t0|) after it), or None for a
    particle given by specs, positions and velocities at t0
    (prehistories=None means every particle is). Each None entry
    gets an exactly inertial prehistory of PREHISTORY_NODES nodes reaching
    coverage_factor times the delay depth before t0: the depth refined
    from the actual roots (max_delay, with one node at t0 standing for
    each missing prehistory), or the static estimate when that is larger;
    each is synthesized once. A supplied history shorter than the refined
    depth raises InsufficientPrehistory carrying required =
    coverage_factor * depth.

    The system's histories are copies in one store (copy_histories), each
    node and slope bit kept: a supplied history is left as it is, so it can
    seed another system too. prehistories must name each history once.
    """
    external = external or ExternalFieldModel.none()
    if prehistories is None:
        if specs is None:
            raise ValueError("seed needs specs+positions+velocities "
                             "or explicit prehistories")
        prehistories = [None] * len(specs)
    supplied = [h for h in prehistories if h is not None]
    for h in supplied:
        if h.c != c:
            raise ValueError("prehistory light speed differs from the config c")
        if h.t_latest < t0 or h.t_latest - t0 > 1e-12 * (1.0 + abs(t0)):
            raise ValueError(
                f"prehistory of {h.spec.label!r} ends at {h.t_latest}, "
                f"expected t0={t0}")
    missing = [i for i, h in enumerate(prehistories) if h is None]
    if missing and any(a is None for a in (specs, positions, velocities)):
        raise ValueError("particles without a prehistory need specs, "
                         "positions and velocities")
    specs = [specs[i] if h is None else h.spec for i, h in enumerate(prehistories)]
    xs = [np.asarray(positions[i], dtype=np.float64) if h is None
          else h.state_at_time(t0).r[1:] for i, h in enumerate(prehistories)]
    vs = {i: np.asarray(velocities[i], dtype=np.float64) for i in missing}

    # the refined depth is solved with one node at t0 standing for each
    # missing prehistory: its inertial extension is that prehistory
    hists = copy_histories([WorldlineHistory(specs[i], c) if h is None else h
                            for i, h in enumerate(prehistories)])
    if missing:
        commit([hists[i] for i in missing],
               [np.concatenate(([t0, 0.0, c * t0], xs[i], _four_velocity(vs[i], c),
                                np.zeros(4))) for i in missing])
    depth = max_delay(hists, t0)
    if missing:
        span = coverage_factor * _static_delay_estimate(specs, xs, c)
        # the static span unless the refined depth needs more than its
        # first node's time covers
        if coverage_factor * depth > t0 - (t0 - span):
            span = coverage_factor * depth
        hists = copy_histories([
            h if h is not None else inertial_history(specs[i], xs[i] - vs[i] * span, vs[i],
                                                     t0 - span, t0, PREHISTORY_NODES, c=c)
            for i, h in enumerate(prehistories)])
    shortest = min((t0 - h.t_first for h in supplied), default=math.inf)
    if shortest < depth:
        raise InsufficientPrehistory(
            f"prehistory coverage {shortest} is below the refined delay "
            f"depth {depth}", required=coverage_factor * depth)
    return SystemState(hists, t0, dt, external, mode, renormalize_u)


def _deriv(state: SystemState, now: WorldlineSample, prev=None):
    """Stage derivatives dx/dt (N, 3) and contravariant du/dt (N, 4) of
    every particle at its state in now from one total_faraday batch on
    the histories as they stand, and that batch, started from prev when
    given (see total_faraday)."""
    f, batch = total_faraday(state.histories, now, state.external, state.mode, prev)
    g = now.u[:, :1]
    du = raise_index(f / (g * batch[0].m0_col))
    return state.c * now.u[:, 1:] / g, du, batch


def _node_rows(rows, c: float, t: float, du) -> np.ndarray:
    """Complete (N, 14) node rows in CSV_HEADER order, one per particle,
    whose s, x and u are written: t, r^0 = c t and a = (gamma / c) du/dt."""
    rows[:, 0], rows[:, 2] = t, c * t
    np.multiply(rows[:, 6:7] / c, du, out=rows[:, 10:])
    return rows


def _states(rows) -> WorldlineSample:
    """The states of node rows, as a gather returns them once they are nodes."""
    return WorldlineSample(rows[:, 0], rows[:, 1], rows[:, 2:6], rows[:, 6:10], rows[:, 10:])


def step(state: SystemState) -> SystemState:
    """Advance every history by one RK4 step of size dt; each stage
    quantity is one array with a row per particle.

    Stages 2 to 4 and the final stage each run with their rows staged
    (worldline.staged). Every evaluation solves the same root plan, so
    each root batch starts warm: each root from the model step off the
    same row in the evaluation before (total_faraday's prev), whose
    observer event is at most dt/2 away; the retarded time moves
    smoothly with it. Only the first evaluation of a state with no
    cached step-end batch starts cold. When no query of the final
    evaluation read its stage, every query was on the committed nodes,
    so its batch is the step-end batch; otherwise the step-end batch is
    solved again on the committed nodes, from the final batch. Either
    way it serves the diagnostics and the next step's first evaluation.

    With renormalize_u, u is divided by sqrt(u.u) at the step's end; a
    u.u that is not positive raises ConstraintViolation naming the
    particle, before the square root. The step record's external
    potential is read at the new nodes before they are committed, so a
    user-analytic potential that fails its check commits nothing.

    The step records (dt/6) |k4 - k5| per particle, k5 the final
    evaluation's slopes: the difference between RK4 and its
    first-same-as-last embedded solution of weights (1/6, 1/3, 1/3, 0,
    1/6), an estimate of the step's local error at no extra
    evaluation."""
    t_w = time.perf_counter()
    hs = state.histories
    n, dt, t, c = len(hs), state.dt, state.t_now, state.c
    origin, k, _ = state.grid if state.grid and state.grid[2] == dt else (t, 0, dt)
    lengths = tuple([len(h) for h in hs])
    if state.last_eval is not None and state.last_eval[0] == (t, lengths):
        base, kx1, ku1, batch = state.last_eval[1]
    else:
        base = gather(hs, np.arange(n), np.full(n, t))
        kx1, ku1, batch = _deriv(state, base)
    x0, u0, s0 = base.r[:, 1:], base.u, base.s
    inv_g0 = 1.0 / u0[:, 0]

    def advanced(frac, kx, ku):
        # the stage's node rows, each column written where it is computed
        h, rows = frac * dt, np.empty((n, 14))
        u = np.add(u0, h * ku, out=rows[:, 6:10])
        np.add(s0, h * c * 0.5 * (inv_g0 + 1.0 / u[:, 0]), out=rows[:, 1])
        np.add(x0, h * kx, out=rows[:, 3:6])
        return _node_rows(rows, c, t + h, ku)

    def stage_deriv(rows, prev):
        with staged(hs, rows):
            return _deriv(state, _states(rows), prev=prev)

    ra = advanced(0.5, kx1, ku1)
    kx2, ku2, batch = stage_deriv(ra, prev=batch)
    rb = advanced(0.5, kx2, ku2)
    kx3, ku3, batch = stage_deriv(rb, prev=batch)
    kx4, ku4, batch = stage_deriv(advanced(1.0, kx3, ku3), prev=batch)

    t1 = origin + (k + 1) * dt
    rows = np.empty((n, 14))  # the final stage's, and the committed nodes
    np.add(x0, (dt / 6.0) * (kx1 + 2 * kx2 + 2 * kx3 + kx4), out=rows[:, 3:6])
    u1 = u0 + (dt / 6.0) * (ku1 + 2 * ku2 + 2 * ku3 + ku4)
    if state.renormalize_u:
        uu = dots(u1, u1)
        off = uu <= 0.0  # no real square root, and no mass shell to project on
        if np.count_nonzero(off):
            i = int(np.argmax(off))
            exc = ConstraintViolation(f"u.u = {uu[i]:.3e} is not positive, so u cannot be "
                                      "renormalized onto the mass shell")
            exc.particle = hs[i].spec.label
            raise exc
        u1 = u1 / np.sqrt(uu)[:, None]
    rows[:, 6:10] = u1
    g_mid = 0.5 * (ra[:, 6] + rb[:, 6])  # u^0 of the two midpoint stages
    np.add(s0, (c * dt / 6.0) * (inv_g0 + 4.0 / g_mid + 1.0 / u1[:, 0]), out=rows[:, 1])

    # the final evaluation fixes the appended acceleration sample
    _node_rows(rows, c, t1, ku4)
    with staged(hs, rows) as stage:
        kx5, ku5, batch = _deriv(state, _states(rows), prev=batch)
    rows[:, 10:] = (u1[:, :1] / c) * ku5  # a, as _node_rows makes it
    # the step record's external potential at the new nodes, read (and a
    # user-analytic one checked) before they are committed
    A_ext = state.external.potential(rows[:, 2:6])
    commit(hs, rows)
    state.t_now, state.grid = t1, (origin, k + 1, dt)
    now = _states(rows)
    if stage.read:
        kx5, ku5, batch = _deriv(state, now, prev=batch)
    # commit wrote one node per history
    state.last_eval = ((t1, tuple([m + 1 for m in lengths])), (now, kx5, ku5, batch))
    # the local error estimate, its position part in units of c weighted
    # by |u|
    err = (dt / 6.0) * np.sqrt(
        np.add.reduce((ku4 - ku5) ** 2, axis=1)
        + np.add.reduce(u1 * u1, axis=1) * np.add.reduce((kx4 - kx5) ** 2, axis=1) / (c * c))
    state.diagnostics.append(_diagnose(state, now, batch, time.perf_counter() - t_w, err,
                                       A_ext))
    return state


def _diagnose(state: SystemState, now, batch, wall: float, local_error,
              A_ext) -> StepRecord:
    """Step record at t_now from the particles' states now at t_now and
    the step-end batch (plan, roots): the potentials A (n, 4), the
    external ones A_ext at now.r plus the sum over its roots, and each
    observer's self delay and companions' sigma_i delays, read off its
    rows, and the step's local error estimate (n,). No root is solved
    here."""
    c, u, (plan, roots) = state.c, now.u, batch
    A = _add_potentials(A_ext, plan, roots)
    tau = roots.t_ret.take(plan.own)
    m0 = plan.obs_m0
    qA = plan.q_c * A
    P = (m0 * c)[:, None] * lower(u) + qA
    pi = P - qA
    heff = dots(pi, pi) / (2.0 * m0 * c)
    # one row of terms per index pair, each summed along its contiguous
    # row: the order, so the bits, of a sum of that pair's terms alone
    rl, Pl = lower(now.r).T, P.T
    m_hat = np.add.reduce(rl.take(_MU, axis=0) * Pl.take(_NU, axis=0)
                          - rl.take(_NU, axis=0) * Pl.take(_MU, axis=0), axis=1)
    return StepRecord(step=len(state.diagnostics) + 1, t=state.t_now,
                      constraint_err=np.abs(dots(u, u) - 1.0), h_eff=heff,
                      p_hat=np.add.reduce(P, axis=0),
                      m_hat=m_hat, self_delays=tau[:, 0],
                      pair_delays=tau[:, 1:].ravel(), local_error=local_error,
                      wall_time=wall)


def step_count(span: float, dt: float) -> int:
    """The steps of dt in span, which must be one or more whole steps up to rounding."""
    steps = span / dt
    n = int(round(steps))
    if not (n >= 1 and abs(steps - n) <= 1e-9 * steps):
        raise ValueError(f"dt = {dt!r} does not divide {span!r} into whole steps ({steps!r})")
    return n


def run(state: SystemState, t_end: float, trajectory_dir=None,
        diagnostics_path=None, csv_comment: str | None = None) -> SystemState:
    """Step until t_end; CSV sinks are flushed even on mid-run failure.

    t_end must be a whole number n of steps after t_now, up to rounding;
    step k ends at t_end - (n - k) dt, the last exactly on t_end. An
    exception raised by a step carries .step and .t, its number and start.
    """
    n_steps = step_count(t_end - state.t_now, state.dt)
    state.grid = (float(t_end), -n_steps, state.dt)
    try:
        for _ in range(n_steps):
            t_step = state.t_now
            try:
                step(state)
            except Exception as exc:
                # failure context: the failing step (numbered as in the
                # diagnostics) and the time it started from
                exc.step, exc.t = len(state.diagnostics) + 1, t_step
                raise
    finally:
        if trajectory_dir is not None:
            for h in state.histories:
                h.export_csv(os.path.join(trajectory_dir,
                                          f"trajectory_{h.spec.label}.csv"),
                             comment=csv_comment)
        if diagnostics_path is not None:
            state.diagnostics.export_csv(diagnostics_path,
                                         [h.spec.label for h in state.histories],
                                         comment=csv_comment)
    return state


def copy_state(state: SystemState, dt: float | None = None) -> SystemState:
    """Independent deep copy (fresh histories in one fresh store, and
    fresh diagnostics) that steps on bit for bit as the original would.

    The copy shares the original's last_eval, which no step writes into
    and which holds for t_now whatever dt is; its roots name the
    original's histories, of which a warm start reads only the light
    speed. The copy keeps the step grid, which holds only for the grid's
    own dt (see step)."""
    dup = replace(state, histories=copy_histories(state.histories),
                  dt=state.dt if dt is None else dt, diagnostics=Diagnostics())
    dup.grid = state.grid
    return dup


# -- demonstration scenarios --------------------------------------------------

# the pulse demo's particle, the time its pulse switches off, its end and step
PULSE = ParticleSpec(m0=1.0, q=0.5, sigma=0.5, label="pulse")
PULSE_SWITCH, PULSE_END, PULSE_DT = 2.0, 4.0, 0.02
# the pair demo's two charges, their distance, its end and step
PAIR = (ParticleSpec(1.0, 0.5, 0.8, "left"), ParticleSpec(1.0, 0.5, 0.8, "right"))
PAIR_D, PAIR_END, PAIR_DT = 3.0, 1.0, 0.05


def _pulse_field(e_amp: float, c: float) -> ExternalFieldModel:
    """The pulse demo's user-analytic field: E along x of amplitude e_amp
    times a sin^2 envelope that switches off at PULSE_SWITCH."""
    t_switch = PULSE_SWITCH
    F_on = ExternalFieldModel.uniform(E=(e_amp, 0.0, 0.0)).tensor

    def env(tau):
        if 0.0 <= tau <= t_switch:
            return math.sin(math.pi * tau / t_switch) ** 2
        return 0.0

    def env_integral(tau):
        if tau <= 0.0:
            return 0.0
        if tau >= t_switch:
            return 0.5 * t_switch
        return 0.5 * tau - (t_switch / (4.0 * math.pi)) * math.sin(
            2.0 * math.pi * tau / t_switch)

    def far(r):
        return env(r[0] / c) * F_on

    def pot(r):
        # covariant A_1(t) = c e_amp int env dt gives F_01 = e_amp env(t)
        # with no spurious components; after switch-off A is pure gauge
        A = np.zeros(4)
        A[1] = c * e_amp * env_integral(r[0] / c)
        return A

    return ExternalFieldModel.analytic(far, pot)


def demo_locally_isolated(e_amp: float = 0.3, c: float = 1.0) -> dict:
    """One particle (PULSE) kicked by an external pulse that switches off
    at PULSE_SWITCH, run to PULSE_END.

    After switch-off the exact self force stays nonzero (the history is
    curved inside the delay window) even though no external field acts;
    with the pulse amplitude at zero the worldline stays inertial and the
    self force vanishes. Doubling the charge on the frozen history
    multiplies the self force at a probe record by exactly four.

    The pulse envelope is sin^2, so the acceleration is continuously
    differentiable at both junctions. Keep q^2/(c^2 sigma) below m0: the
    delayed self-force feedback is amplifying when the EM mass dominates
    the bare mass and the run then trips the kinematic hard tolerance.
    """
    q, dt = PULSE.q, PULSE_DT
    st = seed([PULSE], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
              t0=0.0, dt=dt, c=c, external=_pulse_field(e_amp, c))
    run(st, PULSE_END)
    h = st.histories[0]

    post = [r.t for r in st.diagnostics.records if r.t > PULSE_SWITCH + 2 * dt]
    # the self force at every post-switch record from one root batch and
    # one kernel pass; each tensor is contracted with u on its own
    now = h.states_at(post)
    roots = solve_delays((h,), 0, now.r, PULSE.sigma, obs=0, now=now)
    ones = np.ones(len(post))
    F = _tensor(roots, 2.0 * q * ones, -ones)
    max_post = max(float(np.linalg.norm((q / c) * (m @ u))) for m, u in zip(F, now.u))

    # at the probe record the doubled charge's force: the same root at
    # kernel weight 2 (2 q)
    k = len(post) // 2
    f1 = (q / c) * (F[k] @ now.u[k])
    f2 = (2.0 * q / c) * (_tensor(roots, 4.0 * q * ones, -ones)[k] @ now.u[k])
    n1, n2 = float(np.linalg.norm(f1)), float(np.linalg.norm(f2))
    ratio = n2 / n1 if n1 > 0.0 else float("nan")
    return {"post_switch_max_self_force": max_post,
            "q_doubling_ratio": ratio,
            "force_pair": (f1, f2),
            "state": st}


def demo_globally_isolated(c: float = 1.0) -> dict:
    """Two equal charges (PAIR) released from rest PAIR_D apart; no
    external field.

    Reports the mirror-symmetry residual of the trajectories. As in the
    pulse demo, q^2/(c^2 sigma) stays below m0 so the delayed self-force
    feedback damps.
    """
    st = seed(PAIR, [[-PAIR_D / 2, 0.0, 0.0], [PAIR_D / 2, 0.0, 0.0]],
              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], t0=0.0, dt=PAIR_DT, c=c)
    run(st, PAIR_END)
    h1, h2 = st.histories

    ts = [rec.t for rec in st.diagnostics.records]
    mirror = float(np.max(np.abs(h1.states_at(ts).r[:, 1:] + h2.states_at(ts).r[:, 1:])))
    return {"mirror_residual": mirror, "state": st}


def flow_non_bijectivity_check(state_a: SystemState, state_b: SystemState,
                               t_end: float) -> dict:
    """Integrate two seeds sharing one instantaneous state; report divergence.

    The integration tolerance is measured by a dt-halving rerun of the
    first seed; the check passes when the trajectory divergence exceeds
    ten times that tolerance while the initial instantaneous states agree
    to 1e-14.
    """
    t0 = state_a.t_now
    if abs(state_b.t_now - t0) > 1e-14:
        raise ValueError("seeds must share t0")

    def now(state, t):
        """Every particle's state at time t, from one gather."""
        return gather(state.histories, np.arange(state.n), np.full(state.n, t))

    sa, sb = now(state_a, t0), now(state_b, t0)
    agree = max(float(np.max(np.abs(sa.r - sb.r))), float(np.max(np.abs(sa.u - sb.u))))

    fine = copy_state(state_a, dt=state_a.dt / 2.0)
    ra = run(copy_state(state_a), t_end)
    rb = run(copy_state(state_b), t_end)
    rf = run(fine, t_end)

    tol = float(np.max(np.abs(now(ra, t_end).r - now(rf, t_end).r)))

    ts = [rec.t for rec in ra.diagnostics.records]
    div = np.zeros(len(ts))
    for hx, hy in zip(ra.histories, rb.histories):
        div = np.maximum(div, np.max(np.abs(hx.states_at(ts).r[:, 1:]
                                            - hy.states_at(ts).r[:, 1:]), axis=1))
    max_div = float(np.max(div, initial=0.0))
    return {"initial_agreement": agree,
            "divergence": div,
            "max_divergence": max_div,
            "tolerance": tol,
            "passes": bool(agree < 1e-14 and max_div > 10.0 * tol)}
