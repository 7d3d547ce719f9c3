"""Causal delay-root solving on sampled worldlines.

The scalar delay equation for an observation at coordinate time t and a
shell radius sigma is

    c * tau = sqrt( |x_obs(t) - x_src(t - tau)|^2 + sigma^2 )

whose positive root places the emission event on the shifted cone
Rt.Rt = sigma^2 through the observation event. For subluminal source
motion the root exists and is unique. One bracketed Newton iteration on
the squared form f(tau) = (c tau)^2 - |dx|^2 - sigma^2 finds it: each
iteration evaluates the source event (r, u, a) at the current iterate,
which gives f and, from the source velocity, f' and the step to the
root of f for a source moving on inertially. A step that leaves the
bracket bisects it instead.

Roots are solved in batches. solve_delays runs the iteration on M
(source, observer event, sigma) requests at once, one worldline gather
of every row per iteration (worldline._read); a root that meets its
tolerance keeps its delay, so each later gather reads its event again,
bit for bit, and its bits do not depend on the batch it is in, only on
its first iterate. Each root keeps the segment its last gather read: a
later iterate strictly inside it, a kept root's included, is read off
its two node rows with no lookup, and the batch hands the segments on
with its roots (DelayRoots.segment), so the asymptotic self-force reads
u'' at a self root strictly inside one with no lookup either. A cold
batch starts every root from the static guess sqrt(d^2 + sigma^2) / c.
A warm batch (_plan_roots with the roots of the evaluation before, on
the same plan, handed to the solver as seed) starts each root from the
iteration's own model step off the same row of that batch, its source
moving on inertially from the converged event to the new observer
event (_first_iterates, inside the solver's one errstate): by the
implicit function theorem a retarded time moves smoothly with the
observation time wherever Rt.u != 0, so this first iterate is close,
and it costs no gather. A root whose step is not a finite positive
delay starts from the static guess, which is made only for such roots;
the bracket is made once a root needs a Newton step, so a warm batch
whose roots all converge on their first iterate builds neither. Every
batch of a run but its first is warm (see dynamics.step); a warm
batch's roots agree with a cold one's to the root tolerance, not bit
for bit. The bracket, tolerance and iteration budget are the same either
way, and every root is checked on a gather of its last iterate.
self_delay and pair_delay are one-batch calls of it, and
line_potentials resolves the potential at each root of a batch. A
failing root raises with the observer, source, sigma and observation
time named, and carries the observer label as .particle. Products of
stacked vectors are one np.vecdot call (_dot), each row rounded as a @ b.

Which roots a system needs, and how each enters its observer's sums, is
decided in one place, _root_plan, one plan per (specs, observers, mode,
c):
the self cone and the two shell cones of each charged pair, which the
effective potentials read, each neutral source's sigma_i cone, which
only the reported delays read, and, for a force, the point-limit cone
of each charged pair in asymptotic mode. Each root's weights sum the
terms it stands for, so an observer's force or potential is one
weighted sum over its roots (_per_slot). The plan also carries the
constants each evaluation reads: per root its kernel sign, source charge
and bins, per observer its charge and mass, and in asymptotic mode the
self roots, their observers and the constants of g (-m_em c and
q^2 / 3c at the plan's light speed). fields.total_faraday (so
every batch of dynamics), canonical.effective_potentials and max_delay
all read it, and so does the action oracle's smoothed potential
(harness._smoothed_a_eff), which takes its cones and weights from the
rows with a potential weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .minkowski import lower
from .worldline import WorldlineHistory, WorldlineSample, _read, _Segment, gather

MAX_ITER = 120
JAC_TOL = 1e-10  # floor of |Rt.u| / (|Rt| |u|) at a delta-line-integral root


class NoConvergence(Exception):
    """Raised when the bracketed Newton iteration does not meet the root
    tolerance within MAX_ITER evaluations (a source that outruns its
    shell, or a bracket collapsed onto float noise)."""


class DegenerateJacobian(Exception):
    """Raised when |Rt.u| at the root is too small to resolve the delta
    line integral (grazing emission; overlapping particles)."""


@dataclass(frozen=True)
class DelayRoot:
    t_ret: float
    s_ret: float
    source_event: WorldlineSample
    residual: float

    def __post_init__(self):
        if not np.isfinite(self.t_ret) or self.t_ret < 0.0:
            raise ValueError(f"delay must be a finite non-negative time, got {self.t_ret!r}")


class DelayRoots(NamedTuple):
    """M roots solved as one batch. Root m lies on histories[src[m]] for
    the observer event events[m] and shell radius sigma[m]; obs[m] is the
    observer's index in histories, -1 for an event on none of them.
    segment, the worldline._Segment each source event was read from,
    serves later reads of the events with no lookup (None: not kept).
    Immutable, and built as a tuple is: every batch builds one."""

    histories: tuple
    src: np.ndarray
    obs: np.ndarray
    events: np.ndarray
    sigma: np.ndarray
    t_ret: np.ndarray
    s_ret: np.ndarray
    source: WorldlineSample  # stacked source events
    residual: np.ndarray
    segment: _Segment | None = None

    def label(self, k: int):
        return self.histories[k].spec.label if k >= 0 else None

    def fail(self, kind, message: str, m: int) -> Exception:
        """kind(message) naming root m, with .particle its observer's label."""
        t_obs = self.events[m, 0] / self.histories[self.src[m]].c
        observer = self.label(self.obs[m])
        exc = kind(f"{message} (observer {'event' if observer is None else repr(observer)}, "
                   f"source {self.label(self.src[m])!r}, sigma={self.sigma[m].item()!r}, "
                   f"t_obs={t_obs.item()!r})")
        exc.particle = observer
        return exc

    def check_jacobian(self, jac, scale, jac_tol: float, where: str) -> None:
        """Raise DegenerateJacobian for the first root with jac below
        jac_tol times scale."""
        bad = jac < jac_tol * np.maximum(scale, 1e-300)
        if np.count_nonzero(bad):
            m = int(np.argmax(bad))
            raise self.fail(DegenerateJacobian, f"|Rt.u| = {jac[m]:.3e} {where}; "
                            "grazing emission geometry", m)

    def root(self, m: int) -> DelayRoot:
        src = self.source
        return DelayRoot(float(self.t_ret[m]), float(self.s_ret[m]),
                         WorldlineSample(float(src.t[m]), float(src.s[m]),
                                         src.r[m], src.u[m], src.a[m]),
                         float(self.residual[m]))


def root_tolerance(d2: float, sigma: float) -> float:
    # the defining equation lives in squared-length units; the 1e-12 floor
    # exceeds sigma^2 below sigma ~ 1e-6, where self roots are not resolved
    return 1e-12 * (1.0 + d2 + sigma**2)


# Euclidean products of stacked vectors, one call, each rounded like a @ b
_dot = np.vecdot


def _per_root(x, m: int, dtype=None) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    return x if x.ndim else np.full(m, x)


def _model_step(tau, f, dx, u, c):
    """(den, step): the root tau - f / den of f's model for a source
    moving on inertially from its event at the delay tau, with dx = x_obs -
    x_src, u the source's four-velocity and v = c u/u^0. The model is
    f + 2 b s + (c^2 - v^2) s^2 with b = f'/2, and den = b + sqrt(b^2 -
    (c^2 - v^2) f): the step is exact for inertial sources, -f/f' as
    f -> 0, and always forward while f < 0, where den > 0. Where den is
    not positive (or NaN) the step is no root; the solver bisects."""
    v = c * u[:, 1:] / u[:, :1]
    b = c * c * tau - _dot(dx, v)
    den = b + np.sqrt(b * b - (c * c - _dot(v, v)) * f)
    return den, tau - f / den


def solve_delays(histories, src, events, sigma, obs=-1, now=None,
                 seed=None) -> DelayRoots:
    """Causal roots of f(tau) = (c tau)^2 - |dx|^2 - sigma^2 for M
    requests in one batch, dx = x_obs - x_src(t_obs - tau).

    src, obs and sigma give one value per root or one for all; events are
    the (M, 4) observer events (r^0 = c t_obs). now, the source states at
    the observation times (only t, s and r are read), is gathered if not given.

    The first iterate of each root is the static guess sqrt(d^2 +
    sigma^2) / c, d the distance at t_obs, unless seed gives another:
    one value per root or one for all, a NaN keeping that root's static
    guess, or the DelayRoots of the same requests at nearby observer
    events, whose model steps (_first_iterates) then give them inside
    the solver's one errstate. Whatever the first iterate, the bracket,
    the tolerance and the iteration budget are the same, and every root
    is checked on a gather of its own last iterate.

    Every iteration gathers every row. A root that meets its tolerance
    keeps its delay, so later gathers read its event again, bit for bit;
    the iteration stops once every root meets it, and after MAX_ITER
    gathers raises NoConvergence naming the first root, in request
    order, that does not. An iterate strictly inside the segment its
    root's last gather read is read from that segment's rows with no
    lookup (worldline._read), with the bits of a gather; the roots keep
    the segment of their last gather (segment).
    """
    hs = tuple(histories)
    events = np.asarray(events, dtype=np.float64).reshape(-1, 4)
    m = len(events)
    src, obs, sigma = _per_root(src, m), _per_root(obs, m), _per_root(sigma, m, np.float64)
    c = hs[0].c  # gather checks that the sources share it
    if now is None:
        now = gather(hs, src, events[:, 0] / c)
    obs_x = events[:, 1:]
    d0 = obs_x - now.r[:, 1:]
    d2 = _dot(d0, d0)
    sig2 = sigma * sigma
    tol = root_tolerance(d2, sigma)
    # the bracket f(lo) < 0 < f(hi), where f(0) = -d^2 - sigma^2 <= 0: made
    # once a root needs a step, (0, inf) before
    lo = hi = seg = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the first iterates: the static guess, made only where a root has no seed
        if seed is None:
            tau = np.sqrt(d2 + sig2) / c
        else:
            tau = (_first_iterates(seed, events, now.t) if isinstance(seed, DelayRoots)
                   else _per_root(seed, m, np.float64))
            static = np.isnan(tau)
            if np.count_nonzero(static):
                tau = np.where(static, np.sqrt(d2 + sig2) / c, tau)
        for _ in range(MAX_ITER):
            ev, seg = _read(hs, src, now.t - tau, seg)
            dx = obs_x - ev.r[:, 1:]
            f = (c * tau) ** 2 - _dot(dx, dx) - sig2
            res = np.abs(f)
            done = res <= tol  # False for a NaN residual
            if np.count_nonzero(done) == m:
                break
            below = f < 0.0
            lo = np.where(below, tau, 0.0 if lo is None else lo)
            hi = np.where(below, np.inf if hi is None else hi, tau)
            # Newton step on f's model for a source moving on inertially
            # from this event (_model_step). A step outside (lo, hi), or
            # with no positive denominator, bisects.
            den, step = _model_step(tau, f, dx, ev.u, c)
            ok = (den > 0.0) & (lo < step) & (step < hi)
            tau = np.where(done, tau, np.where(ok, step, 0.5 * (lo + hi)))
    roots = DelayRoots(hs, src, obs, events, sigma, tau, now.s - ev.s, ev, res, seg)
    if np.count_nonzero(done) < m:
        k = int(np.argmin(done))
        raise roots.fail(NoConvergence, f"delay iteration exhausted {MAX_ITER} "
                         f"evaluations with residual {res[k]:.3e} > {tol[k]:.3e}", k)
    return roots


def self_delay(h: WorldlineHistory, t: float, sigma: float | None = None) -> DelayRoot:
    """Causal root of the 1-particle delay equation at observation time t.

    sigma defaults to the particle's own radius.
    """
    sigma = h.spec.sigma if sigma is None else sigma
    now = gather((h,), 0, [t])
    return solve_delays((h,), 0, now.r, sigma, obs=0, now=now).root(0)


def pair_delay(h_source: WorldlineHistory, observer_event, sigma_shift: float) -> DelayRoot:
    """Causal root of the 2-particle delay equation.

    observer_event is the observer's four-position (r^0 = c t); the root is
    searched on the source history. sigma_shift selects which particle's
    radius shifts the cone (each binary field needs both choices).
    """
    return solve_delays((h_source,), 0, observer_event, sigma_shift).root(0)


def line_potentials(roots: DelayRoots, q) -> np.ndarray:
    """Resolve 2q * integral ds u(s) delta(Rt.Rt - sigma^2) at each root,
    q the source's charge (one per root, or one for all), or any multiple
    of it: an (M, 4) array.

    The delta contributes 1/|d(Rt.Rt)/ds| = 1/|2 Rt.u| at the root, so the
    result is q * u(s_ret) / |Rt.u(s_ret)|: the shifted Lienard-Wiechert-type
    potential, whose static time component is q / sqrt(d^2 + sigma^2).
    """
    u = roots.source.u
    rt = roots.events - roots.source.r
    jac = np.abs(rt[:, 0] * u[:, 0] - _dot(rt[:, 1:], u[:, 1:]))
    scale = np.sqrt(np.abs(_dot(rt, rt))) * np.sqrt(np.abs(_dot(u, u)))
    roots.check_jacobian(jac, scale, JAC_TOL, "at the root")
    return _per_root(q, len(u), np.float64)[:, None] * u / jac[:, None]


class _RootPlan(NamedTuple):
    """The delay roots of one batch, one row per root ordered by source,
    how forces, potentials and delays read them, and their constants."""

    src: np.ndarray     # per root: source, observer, observer slot and
    obs: np.ndarray     # sigma; the kernel weight k and potential weight
    slot: np.ndarray    # w, each the sum over the terms the root stands
    sigma: np.ndarray   # for (self: k = 2 q, w = 2; shell cone: k = q_j,
    k: np.ndarray       # w = 1; equal radii and the point limit:
    w: np.ndarray       # k = 2 q_j, w = 2)
    own: np.ndarray     # per slot and source, own history first: the
    #                     sigma_i root
    sign: np.ndarray    # per root: the kernel sign (-1 self, +1 pair),
    q: np.ndarray       # the source's charge and the bins 4 slot + mu of
    bins: np.ndarray    # its four terms (_per_slot); per observer slot:
    obs_q: np.ndarray   # the charge and rest mass
    obs_m0: np.ndarray
    g_slot: np.ndarray  # per observer slot that takes the asymptotic
    g_row: np.ndarray   # self-force g (a charged one, in asymptotic
    g_em: np.ndarray    # mode): the slot, its self root, -m_em c and
    g_rad: np.ndarray   # q^2 / 3c, m_em = q^2 / (c^2 sigma)


def _self_force_constants(q, sigma, c: float):
    """(-m_em c, q^2 / 3c) of the first-order self-force of charges q of
    radii sigma, m_em = q^2 / (c^2 sigma): the factors of du/ds and of
    the projected u'' in g."""
    return -(q * q / (c * c * sigma)) * c, q * q / (3.0 * c)


@cache
def _root_plan(specs, observers, mode=None, c: float = 1.0) -> _RootPlan:
    """The roots a system needs at a set of observers (indices into
    specs): one plan per arguments for the life of the process, so every
    evaluation of a system solves the same rows in the same order.

    Every charged observer gets its self cone and, per charged companion
    j, its sigma_i and sigma_j cones, at potential weight 2 and 1; every
    neutral source gets its sigma_i cone, weightless, so that every delay
    is reported. mode, the fields.SelfForceMode of the force or None for
    no force, adds the kernel weights: 2 q on the self cone in exact
    mode, q_j on each shell cone, or in asymptotic mode q_j twice on the
    point-limit cone sigma = 0 (the self cone is then the first-order
    self-force's root, at kernel weight 0, and the plan holds the
    constants of g at light speed c). A root shared by several cones
    (equal radii, the point limit) sums their weights.
    """
    forces = mode is not None
    exact = forces and mode.value == "exact"
    rows = {}  # (source, slot, sigma) -> [kernel weight, potential weight]

    def root(key, k=0.0, w=0.0):
        kw = rows.setdefault(key, [0.0, 0.0])
        kw[0] += k
        kw[1] += w
        return key

    g_keys, own = [], []  # g_keys: (slot, self root) of each g (asymptotic mode)
    for s, i in enumerate(observers):
        sources = (i, *(j for j in range(len(specs)) if j != i))
        own.append([(j, s, specs[i].sigma) for j in sources])
        for j, first in zip(sources, own[s]):
            q = specs[j].q
            if not q:
                root(first)
            elif j == i:
                if exact:
                    root(first, k=2.0 * q)
                elif forces:
                    g_keys.append((s, first))
                root(first, w=2.0)
            else:
                cones = (first, (j, s, specs[j].sigma))
                if forces:
                    for key in cones if exact else [(j, s, 0.0)] * 2:
                        root(key, k=q)
                for key in cones:
                    root(key, w=1.0)
    keys = sorted(rows, key=lambda key: key[0])  # stable: first use within a source
    row = {key: r for r, key in enumerate(keys)}
    cols = np.array(keys, dtype=np.float64).reshape(-1, 3)
    src, slot = cols[:, :2].T.astype(np.intp)
    k, w = np.array([rows[key] for key in keys], dtype=np.float64).reshape(-1, 2).T
    obs = np.array(observers, dtype=np.intp)
    q, m0 = np.array([(spec.q, spec.m0) for spec in specs], dtype=np.float64).T
    g_slot, g_row = np.array([(s, row[key]) for s, key in g_keys], dtype=np.intp).reshape(-1, 2).T
    plan = _RootPlan(
        src, obs[slot], slot, cols[:, 2], k, w,
        np.array([[row[key] for key in o] for o in own], dtype=np.intp),
        np.where(src == obs[slot], -1.0, 1.0), q[src], 4 * slot[:, None] + np.arange(4),
        q[obs], m0[obs], g_slot, g_row,
        *_self_force_constants(q[obs[g_slot]], cols[g_row, 2], float(c)))
    for x in plan:
        x.flags.writeable = False  # shared by every call with these arguments
    return plan


def _first_iterates(prev: DelayRoots, events, t) -> np.ndarray:
    """First iterates of a plan's roots, for observer events (one per
    row) at times t, from prev, the roots of the same plan on nearby
    observer events, read row for row with no gather: the model step of
    the solver (_model_step) from prev's root, its source moving on
    inertially from its converged event to the new observer event. NaN,
    so the static guess, where the step is not a finite positive delay.
    solve_delays makes them inside its errstate, so they raise no
    floating-point warning there."""
    src, c = prev.source, prev.histories[0].c
    tau = t - src.t
    dx = events[:, 1:] - src.r[:, 1:]
    f = (c * tau) ** 2 - _dot(dx, dx) - prev.sigma * prev.sigma
    step = _model_step(tau, f, dx, src.u, c)[1]
    return np.where((step > 0.0) & (step < np.inf), step, np.nan)


def _plan_roots(histories, plan: _RootPlan, events, now=None, prev=None) -> DelayRoots:
    """The plan's roots for observer events (one per observer slot) as
    one batch; now, the states of all histories at the observation time,
    is gathered by the solver when not given. With prev, the roots of the
    same plan on nearby observer events, the batch starts from the first
    iterates _first_iterates makes from them (solve_delays' seed); without,
    cold."""
    events, src = events.take(plan.slot, axis=0), plan.src
    if now is not None:
        now = WorldlineSample(now.t[src], now.s[src], now.r.take(src, axis=0), None, None)
    return solve_delays(histories, src, events, plan.sigma, obs=plan.obs, now=now, seed=prev)


def _per_slot(plan: _RootPlan, terms, n: int) -> np.ndarray:
    """(n, 4, ...) sums of the (M, 4, ...) per-root terms over each
    observer slot, each slot's terms added to zero in root order (one
    bincount): each further axis of 4 refines the plan's bins."""
    bins = plan.bins
    for _ in terms.shape[2:]:
        bins = 4 * bins[..., None] + np.arange(4)
    return np.bincount(bins.ravel(), weights=terms.ravel(),
                       minlength=terms[0].size * n).reshape(n, *terms.shape[1:])


def _add_potentials(A, plan: _RootPlan, roots: DelayRoots):
    """A (one row per observer slot) plus the sum of the plan's weighted
    potential terms."""
    return A + _per_slot(plan, lower(line_potentials(roots, plan.q * plan.w)), len(A))


def max_delay(histories, t0: float) -> float:
    """Largest delay root the system's diagnostics solve at time t0: every
    self cone, both shell cones of each charged pair and the sigma_i cone
    of each neutral source, as one batch."""
    hs = tuple(histories)
    n = len(hs)
    plan = _root_plan(tuple(h.spec for h in hs), tuple(range(n)))
    now = gather(hs, np.arange(n), np.full(n, float(t0)))
    return float(_plan_roots(hs, plan, now.r, now).t_ret.max())
