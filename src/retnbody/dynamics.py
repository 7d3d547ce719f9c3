"""Method-of-steps integrator for the delay equations of motion.

Everything advances on one coordinate-time clock. The first-order system
per particle is

    dx/dt   = c u_vec / gamma
    du_mu/dt = (1 / gamma m0) [ (q/c) F^(tot)_mu_nu u^nu + g_mu ]

with g the asymptotic self four-force (asymptotic mode only; exact mode
carries the self field inside F). Steps are classic fixed-size RK4 on
whole arrays: x (N, 3), u (N, 4), s (N,) and every stage slope hold one
row per particle, read from the histories with one gather. Each mid-step
evaluation runs inside worldline.staged, which puts one stage-local node
per particle (a row of one (N, 14) node block) after each history's
latest node and takes it off again when the evaluation is done. After
acceptance a fifth, staged force evaluation fixes the appended
acceleration sample, proper time advances by Simpson quadrature of
c dt / gamma, and the new nodes are committed as one checked block
(worldline.commit); they are also the states the step record and the
next step start from. Each force evaluation is one fields.total_faraday
call, which solves the delay roots and field kernels of all particles
as one batch and returns the (N, 4, 4) tensor stack that _deriv
contracts with u at once. Each step ends with exactly one batch at the
new time, which also holds the potentials' and the reported delays'
roots: it serves the step's diagnostics and the next step's first
evaluation. In exact mode with 2 c dt below every radius it is the fifth
evaluation itself; otherwise it is solved afresh on the committed
histories (see step).

Histories are the state. A SystemState is little more than the history
set, held in one store (worldline.HistoryBank, filled by seed), plus the
stepping policy; prehistory coverage is the seeding invariant (delay
roots must never under-run recorded samples during the first steps).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .canonical import _IDX_PAIRS
from .fields import ExternalFieldModel, SelfForceMode, _kernel, self_faraday, total_faraday
from .minkowski import _antisymmetric_part, dots, lower, raise_index
from .retardation import max_delay, solve_delays
from .worldline import (
    ParticleSpec,
    WorldlineSample,
    commit,
    copy_histories,
    gather,
    inertial_history,
    share_store,
    staged,
    write_table,
)

# nodes of each synthesized inertial prehistory
PREHISTORY_NODES = 16


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
        exported files must be bit-identical across repeated runs."""
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
    c: float = 1.0
    external: ExternalFieldModel = field(default_factory=ExternalFieldModel.none)
    mode: SelfForceMode = SelfForceMode.EXACT
    include_self: bool = True
    include_binary: bool = True
    renormalize_u: bool = False
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    # the states and the step-end force evaluation of the last step,
    # keyed by the time and history lengths they hold for (see step)
    last_eval: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.histories)

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
         mode: SelfForceMode = SelfForceMode.EXACT,
         include_self: bool = True, include_binary: bool = True,
         renormalize_u: bool = False,
         coverage_factor: float = 1.2) -> SystemState:
    """Build a valid SystemState; the one place prehistories are made and checked.

    prehistories holds one entry per particle: a supplied history ending
    at t0, or None for a particle given by specs, positions and velocities
    at t0 (prehistories=None means every particle is). Each None entry
    gets an exactly inertial prehistory of PREHISTORY_NODES nodes reaching
    coverage_factor times the delay depth before t0: the depth refined
    from the actual roots (max_delay), or the static estimate when that
    is larger. A supplied history shorter than the refined depth raises
    InsufficientPrehistory carrying required = coverage_factor * depth.
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
        if abs(h.t_latest - t0) > 1e-12 * (1.0 + abs(t0)):
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

    def synthesized(span):
        hists = [h if h is not None else
                 inertial_history(specs[i], xs[i] - vs[i] * span, vs[i],
                                  t0 - span, t0, PREHISTORY_NODES, c=c)
                 for i, h in enumerate(prehistories)]
        share_store(hists)
        return hists

    hists = synthesized(coverage_factor * _static_delay_estimate(specs, xs, c))
    depth = max_delay(hists, t0)
    if missing and coverage_factor * depth > t0 - hists[missing[0]].t_first:
        hists = synthesized(coverage_factor * depth)
    shortest = min((t0 - h.t_first for h in supplied), default=math.inf)
    if shortest < depth:
        raise InsufficientPrehistory(
            f"prehistory coverage {shortest} is below the refined delay "
            f"depth {depth}", required=coverage_factor * depth)
    return SystemState(hists, t0, dt, c, external, mode, include_self,
                       include_binary, renormalize_u)


def _deriv(state: SystemState, t_q: float, u, report: bool = False):
    """Stage derivatives dx/dt (N, 3) and contravariant du/dt (N, 4) of
    every particle at the four-velocities u (N, 4) from one total_faraday
    batch on the histories as they stand, and its report: with report,
    the potentials and delays of the step record from the same batch."""
    F, g, rep = total_faraday(state.histories, range(state.n), t_q, state.external,
                              state.mode, state.include_self, state.include_binary, report)
    q, m0 = np.array([(h.spec.q, h.spec.m0) for h in state.histories]).T
    f_cov = (q / state.c)[:, None] * (F @ u[:, :, None])[:, :, 0]
    if g is not None:
        f_cov = f_cov + g
    du = raise_index(f_cov / (u[:, :1] * m0[:, None]))
    return state.c * u[:, 1:] / u[:, :1], du, rep


def _node_rows(state: SystemState, t: float, x, u, du, s) -> np.ndarray:
    """One node per particle at time t as (N, 14) rows in CSV_HEADER
    order, with a = (gamma / c) du/dt."""
    rows = np.empty((state.n, 14))
    rows[:, 0], rows[:, 1], rows[:, 2] = t, s, state.c * t
    rows[:, 3:6], rows[:, 6:10], rows[:, 10:] = x, u, (u[:, :1] / state.c) * du
    return rows


def step(state: SystemState) -> SystemState:
    """Advance every history by one RK4 step of size dt; each stage
    quantity is one array with a row per particle."""
    t_w = time.perf_counter()
    hs = state.histories
    dt, t, c = state.dt, state.t_now, state.c
    key = (t, tuple(len(h) for h in hs))
    if state.last_eval is not None and state.last_eval[0] == key:
        base, kx1, ku1 = state.last_eval[1]
    else:
        base = gather(hs, np.arange(state.n), np.full(state.n, t))
        kx1, ku1, _ = _deriv(state, t, base.u)
    x0, u0, s0 = base.r[:, 1:], base.u, base.s

    def advanced(frac, kx, ku):
        u = u0 + frac * dt * ku
        s = s0 + frac * dt * c * 0.5 * (1.0 / u0[:, 0] + 1.0 / u[:, 0])
        return x0 + frac * dt * kx, u, s

    xa, ua, sa = advanced(0.5, kx1, ku1)
    with staged(hs, _node_rows(state, t + dt / 2, xa, ua, ku1, sa)):
        kx2, ku2, _ = _deriv(state, t + dt / 2, ua)
    xb, ub, sb = advanced(0.5, kx2, ku2)
    with staged(hs, _node_rows(state, t + dt / 2, xb, ub, ku2, sb)):
        kx3, ku3, _ = _deriv(state, t + dt / 2, ub)
    xc, uc, sc = advanced(1.0, kx3, ku3)
    with staged(hs, _node_rows(state, t + dt, xc, uc, ku3, sc)):
        kx4, ku4, _ = _deriv(state, t + dt, uc)

    t1 = t + dt
    x1 = x0 + (dt / 6.0) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
    u1 = u0 + (dt / 6.0) * (ku1 + 2 * ku2 + 2 * ku3 + ku4)
    if state.renormalize_u:
        u1 = u1 / np.sqrt(dots(u1, u1))[:, None]
    g_mid = 0.5 * (ua[:, 0] + ub[:, 0])
    s1 = s0 + (c * dt / 6.0) * (1.0 / u0[:, 0] + 4.0 / g_mid + 1.0 / u1[:, 0])

    # first same as last: the final evaluation sees the appended nodes
    # except for their a, which only a query inside the step just taken
    # reads. In exact mode every root iterate reaches back at least
    # sigma / 2c (f < 0 below sigma / c), so 2 c dt < min sigma keeps all
    # of them out of it: the final evaluation is then the step-end batch.
    # Otherwise that batch is solved on the committed histories.
    fsal = (state.mode == SelfForceMode.EXACT
            and 2.0 * c * dt < min(h.spec.sigma for h in hs))
    with staged(hs, _node_rows(state, t1, x1, u1, ku4, s1)):
        kx5, ku5, report = _deriv(state, t1, u1, report=fsal)
    rows = _node_rows(state, t1, x1, u1, ku5, s1)
    commit(hs, rows)
    state.t_now = t1
    if not fsal:
        kx5, ku5, report = _deriv(state, t1, u1, report=True)
    # the committed nodes are the states at t1, as a gather there returns them
    now = WorldlineSample(rows[:, 0], rows[:, 1], rows[:, 2:6], rows[:, 6:10], rows[:, 10:])
    state.last_eval = ((t1, tuple(len(h) for h in hs)), (now, kx5, ku5))
    state.diagnostics.append(_diagnose(state, now, report, time.perf_counter() - t_w))
    return state


def _diagnose(state: SystemState, now, report, wall: float) -> StepRecord:
    """Step record at t_now from the particles' states now at t_now and
    the report of the step-end batch: the potentials A (n, 4) and each
    observer's self delay and companions' sigma_i delays. No root is
    solved here."""
    t, hs, c = state.t_now, state.histories, state.c
    u = now.u
    A, tau = report
    q, m0 = np.array([(h.spec.q, h.spec.m0) for h in hs]).T
    qA = (q / c)[:, None] * A
    P = (m0 * c)[:, None] * lower(u) + qA
    pi = P - qA
    heff = dots(pi, pi) / (2.0 * m0 * c)
    r_low = lower(now.r)
    p_hat = P.sum(axis=0)
    m_hat = np.array([
        float(np.sum(r_low[:, mu] * P[:, nu] - r_low[:, nu] * P[:, mu]))
        for mu, nu in _IDX_PAIRS])
    return StepRecord(step=len(state.diagnostics) + 1, t=t,
                      constraint_err=np.abs(dots(u, u) - 1.0), h_eff=heff, p_hat=p_hat,
                      m_hat=m_hat, self_delays=tau[:, 0],
                      pair_delays=tau[:, 1:].ravel(), wall_time=wall)


def run(state: SystemState, t_end: float, trajectory_dir=None,
        diagnostics_path=None, csv_comment: str | None = None) -> SystemState:
    """Step until t_end; CSV sinks are flushed even on mid-run failure.

    An exception raised by a step carries .step and .t, the step's number
    and start time.
    """
    if not t_end > state.t_now:
        raise ValueError(f"t_end={t_end} must exceed t_now={state.t_now}")
    n_steps = int(round((t_end - state.t_now) / state.dt))
    if n_steps < 1:
        raise ValueError("t_end is less than one step away")
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
    fresh diagnostics)."""
    return SystemState(copy_histories(state.histories), state.t_now,
                       state.dt if dt is None else dt,
                       state.c, state.external, state.mode,
                       state.include_self, state.include_binary,
                       state.renormalize_u)


# -- demonstration scenarios --------------------------------------------------


def demo_locally_isolated(q: float = 0.5, sigma: float = 0.5, m0: float = 1.0,
                          e_amp: float = 0.3, t_switch: float = 2.0,
                          t_end: float = 4.0, dt: float = 0.02,
                          c: float = 1.0) -> dict:
    """One particle kicked by an external pulse that switches off.

    After switch-off the exact self force stays nonzero (the history is
    curved inside the delay window) even though no external field acts;
    with the pulse amplitude at zero the worldline stays inertial and the
    self force vanishes. Doubling the charge on the frozen final history
    multiplies the self force by exactly four.

    The pulse envelope is sin^2, so the acceleration is continuously
    differentiable at both junctions. Keep q^2/(c^2 sigma) below m0: the
    delayed self-force feedback is amplifying when the EM mass dominates
    the bare mass and the run then trips the kinematic hard tolerance.
    """
    spec = ParticleSpec(m0=m0, q=q, sigma=sigma, label="pulse")
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

    ext = ExternalFieldModel.analytic(far, pot)
    st = seed([spec], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]],
              t0=0.0, dt=dt, c=c, external=ext)
    run(st, t_end)
    h = st.histories[0]

    post = [r.t for r in st.diagnostics.records if r.t > t_switch + 2 * dt]
    # the self force at every post-switch record from one root batch and
    # one kernel pass; each tensor is contracted with u on its own
    now = h.states_at(post)
    roots = solve_delays((h,), 0, now.r, sigma, obs=0, now=now)
    F = _antisymmetric_part(_kernel(roots, np.full(len(post), 2.0 * q), np.full(len(post), -1.0)),
                            (None, 4, 4))
    forces = [float(np.linalg.norm((spec.q / c) * (m @ u))) for m, u in zip(F, now.u)]
    max_post = max(forces) if forces else 0.0

    t_probe = post[len(post) // 2] if post else t_end
    doubled = h.copy(ParticleSpec(m0=m0, q=2.0 * q, sigma=sigma, label="pulse2q"))
    smp = h.state_at_time(t_probe)
    f1 = (spec.q / c) * (self_faraday(h, t_probe).matrix @ smp.u)
    f2 = (2.0 * spec.q / c) * (self_faraday(doubled, t_probe).matrix @ smp.u)
    n1, n2 = float(np.linalg.norm(f1)), float(np.linalg.norm(f2))
    ratio = n2 / n1 if n1 > 0.0 else float("nan")

    heffs = [r.h_eff[0] for r in st.diagnostics.records]
    jumps = [abs(b - a) for a, b in zip(heffs, heffs[1:])]
    return {"post_switch_max_self_force": max_post,
            "q_doubling_ratio": ratio,
            "force_pair": (f1, f2),
            "h_eff_max_jump": max(jumps) if jumps else 0.0,
            "state": st}


def demo_globally_isolated(d: float = 3.0, q: float = 0.5, sigma: float = 0.8,
                           m0: float = 1.0, t_end: float = 1.0,
                           dt: float = 0.05, c: float = 1.0) -> dict:
    """Two equal charges released from rest; no external field.

    Reports the mirror-symmetry residual of the trajectories, the total
    p_hat drift over the window (measured, not asserted) and the final
    instant-form non-commutation probe. As in the pulse demo, keep
    q^2/(c^2 sigma) below m0 so the delayed self-force feedback damps.
    """
    from .canonical import (ConstrainedState, FrozenHistoryContext,
                            instant_form_constrained, state_from_histories)

    specs = [ParticleSpec(m0, q, sigma, "left"), ParticleSpec(m0, q, sigma, "right")]
    st = seed(specs, [[-d / 2, 0.0, 0.0], [d / 2, 0.0, 0.0]],
              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], t0=0.0, dt=dt, c=c)
    p0 = _diagnose(st, gather(st.histories, np.arange(st.n), np.zeros(st.n)),
                   total_faraday(st.histories, range(st.n), 0.0, st.external,
                                 report=True)[2], 0.0).p_hat
    run(st, t_end)
    h1, h2 = st.histories

    ts = [rec.t for rec in st.diagnostics.records]
    mirror = float(np.max(np.abs(h1.states_at(ts).r[:, 1:] + h2.states_at(ts).r[:, 1:])))

    drift = st.diagnostics.records[-1].p_hat - p0

    ctx = FrozenHistoryContext([h1, h2], ExternalFieldModel.none(), st.t_now)
    x = state_from_histories([h1, h2], st.t_now, ctx)
    rep = instant_form_constrained(ConstrainedState(x.r[:, 1:], x.P[:, 1:]), ctx)
    return {"mirror_residual": mirror,
            "p_hat_drift": drift,
            "comm_p0_pl": rep["comm_p0_pl"],
            "state": st}


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

    # accumulated end times differ at roundoff between dt grids
    t_cmp = min(ra.t_now, rb.t_now, rf.t_now)
    tol = float(np.max(np.abs(now(ra, t_cmp).r - now(rf, t_cmp).r)))

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
