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
per iteration; a root that meets its tolerance is frozen with the event
of its last iterate, so its bits do not depend on the batch it is in,
only on its first iterate. A cold batch starts every root from the
static guess sqrt(d^2 + sigma^2) / c. A warm batch (_plan_roots with the
roots of the evaluation before, on the same plan) starts each root from
the iteration's own model step off the same row of that batch, its
source moving on inertially from the converged event to the new
observer event (_first_iterates): by the implicit function theorem a
retarded time moves smoothly with the observation time wherever Rt.u !=
0, so this first iterate is close, and it costs no gather. A root whose
step is not a finite positive delay starts from the static guess. Every
batch of a run but its first is warm (see dynamics.step); a warm
batch's roots agree with a cold one's to the root tolerance, not bit
for bit. The bracket, tolerance and iteration budget are the same either
way, and every root is checked on a gather of its last iterate.
self_delay and pair_delay are one-batch calls of it, and
line_potentials resolves the potential at each root of a batch. A
failing root raises with the observer, source, sigma and observation
time named, and carries the observer label as .particle.

Which roots a system needs, and how each enters its observer's sums, is
decided in one place, _root_plan, one plan per (specs, observers, mode):
the self cone and the two shell cones of each charged pair, which the
effective potentials read, each neutral source's sigma_i cone, which
only the reported delays read, and, for a force, the point-limit cone
of each charged pair in asymptotic mode. Each root's weights sum the
terms it stands for, so an observer's force or potential is one
weighted sum over its roots (_per_slot). fields.total_faraday (so every
batch of dynamics), canonical.effective_potentials and max_delay all
read it, and so does the action oracle's smoothed potential
(harness._smoothed_a_eff), which takes its cones and weights from the
rows with a potential weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .minkowski import lower
from .worldline import WorldlineHistory, WorldlineSample, gather

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


@dataclass(frozen=True)
class DelayRoots:
    """M roots solved as one batch. Root m lies on histories[src[m]] for
    the observer event events[m] and shell radius sigma[m]; obs[m] is the
    observer's index in histories, -1 for an event on none of them."""

    histories: tuple
    src: np.ndarray
    obs: np.ndarray
    events: np.ndarray
    sigma: np.ndarray
    t_ret: np.ndarray
    s_ret: np.ndarray
    source: WorldlineSample  # stacked source events
    residual: np.ndarray

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


def _dot(a, b):
    """Euclidean products of stacked vectors, each rounded like a @ b."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
    the observation times, is gathered when not given.

    The first iterate of each root is the static guess sqrt(d^2 +
    sigma^2) / c, d the distance at t_obs, unless seed (one value per root
    or one for all) gives another: a NaN in seed keeps that root's static
    guess. Whatever the first iterate, the bracket, the tolerance and the
    iteration budget are the same, and every root is checked on a gather
    of its own last iterate.
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
    # the delay, residual and source event of each root, filled as roots
    # converge; a coincident point source (d = sigma = 0) converges on its
    # first iterate, tau = 0, whose gather at t_obs returns now
    t_ret = res = event = None

    def fill(k, tau_k, f_k, ev_k):
        nonlocal t_ret, res, event
        if t_ret is None:
            t_ret, res = np.zeros(m), np.zeros(m)
            event = [np.array(x) for x in (now.t, now.s, now.r, now.u, now.a)]
        t_ret[k], res[k] = tau_k, np.abs(f_k)
        for column, x in zip(event, ev_k):
            column[k] = x

    # the roots still iterating, in request order, and their data
    # compacted: source, t_obs, x_obs, sigma^2, tolerance, iterate and the
    # bracket f(lo) < 0 < f(hi), where f(0) = -d^2 - sigma^2 <= 0
    live = np.arange(m)
    l_src, l_t, l_x, l_sig2, l_tol = src, now.t, obs_x, sig2, tol
    tau = np.sqrt(d2 + sig2) / c
    if seed is not None:
        seed = _per_root(seed, m, np.float64)
        tau = np.where(np.isnan(seed), tau, seed)
    lo, hi = np.zeros(len(live)), np.full(len(live), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            if not live.size:
                break
            ev = gather(hs, l_src, l_t - tau)
            u = ev.u
            dx = l_x - ev.r[:, 1:]
            f = (c * tau) ** 2 - _dot(dx, dx) - l_sig2
            done = np.abs(f) <= l_tol
            n_done = np.count_nonzero(done)
            # three exits and a lazy fill, not one scatter: one scatter made steps 5-10% slower
            if n_done == m:
                # every root at once, in request order
                t_ret, res, event = tau, np.abs(f), [ev.t, ev.s, ev.r, u, ev.a]
                live = live[:0]
                break
            if n_done == len(live):
                fill(live, tau, f, (ev.t, ev.s, ev.r, u, ev.a))
                live = live[:0]
                break
            if n_done:
                fill(live[done], tau[done], f[done], (x[done] for x in (ev.t, ev.s, ev.r, u, ev.a)))
                go = ~done
                live, f, dx, u, l_src, l_t, l_x, l_sig2, l_tol, tau, lo, hi = (
                    x[go] for x in (live, f, dx, u, l_src, l_t, l_x, l_sig2, l_tol, tau, lo, hi))
            below = f < 0.0
            lo = np.where(below, tau, lo)
            hi = np.where(below, hi, tau)
            # Newton step on f's model for a source moving on inertially
            # from this event (_model_step). A step outside (lo, hi), or
            # with no positive denominator, bisects.
            den, step = _model_step(tau, f, dx, u, c)
            tau = np.where((den > 0.0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
    if t_ret is None:  # no root converged
        fill(live[:0], 0.0, 0.0, ())
    roots = DelayRoots(hs, src, obs, events, sigma, t_ret, now.s - event[1],
                       WorldlineSample(*event), res)
    if live.size:
        raise roots.fail(NoConvergence, f"delay iteration exhausted {MAX_ITER} "
                         f"evaluations with residual {abs(f[0]):.3e} > "
                         f"{tol[live[0]]:.3e}", live[0])
    return roots


def self_delay(h: WorldlineHistory, t: float, sigma: float | None = None) -> DelayRoot:
    """Causal root of the 1-particle delay equation at observation time t.

    sigma defaults to the particle's own radius.
    """
    if sigma is None:
        sigma = h.spec.sigma
    now = gather((h,), 0, [t])
    return solve_delays((h,), 0, now.r, sigma, obs=0, now=now).root(0)


def pair_delay(h_source: WorldlineHistory, observer_event, sigma_shift: float) -> DelayRoot:
    """Causal root of the 2-particle delay equation.

    observer_event is the observer's four-position (r^0 = c t); the root is
    searched on the source history. sigma_shift selects which particle's
    radius shifts the cone (each binary field needs both choices).
    """
    return solve_delays((h_source,), 0, observer_event, sigma_shift).root(0)


def line_potentials(roots: DelayRoots) -> np.ndarray:
    """Resolve 2q * integral ds u(s) delta(Rt.Rt - sigma^2) at each root,
    q the source's charge: an (M, 4) array.

    The delta contributes 1/|d(Rt.Rt)/ds| = 1/|2 Rt.u| at the root, so the
    result is q * u(s_ret) / |Rt.u(s_ret)|: the shifted Lienard-Wiechert-type
    potential, whose static time component is q / sqrt(d^2 + sigma^2).
    """
    u = roots.source.u
    rt = roots.events - roots.source.r
    jac = np.abs(rt[:, 0] * u[:, 0] - _dot(rt[:, 1:], u[:, 1:]))
    scale = np.sqrt(np.abs(_dot(rt, rt))) * np.sqrt(np.abs(_dot(u, u)))
    roots.check_jacobian(jac, scale, JAC_TOL, "at the root")
    q = np.array([h.spec.q for h in roots.histories])[roots.src]
    return q[:, None] * u / jac[:, None]


class _RootPlan(NamedTuple):
    """The delay roots of one batch, one row per root ordered by source,
    and how forces, potentials and delays read them."""

    src: np.ndarray     # per root: source, observer, observer slot and
    obs: np.ndarray     # sigma; the kernel weight k and potential weight
    slot: np.ndarray    # w, each the sum over the terms the root stands
    sigma: np.ndarray   # for (self: k = 2 q, w = 2; shell cone: k = q_j,
    k: np.ndarray       # w = 1; equal radii and the point limit:
    w: np.ndarray       # k = 2 q_j, w = 2)
    self_row: np.ndarray    # per observer slot: its self-force root, or -1
    own: np.ndarray         # per slot and source, own history first: the
    #                         sigma_i root


@cache
def _root_plan(specs, observers, mode=None) -> _RootPlan:
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
    self-force's root, at kernel weight 0). A root shared by several
    cones (equal radii, the point limit) sums their weights.
    """
    forces = mode is not None
    exact = forces and mode.value == "exact"
    rows = {}  # (source, slot, sigma) -> [kernel weight, potential weight]

    def root(key, k=0.0, w=0.0):
        kw = rows.setdefault(key, [0.0, 0.0])
        kw[0] += k
        kw[1] += w
        return key

    self_keys, own = [], []
    for s, i in enumerate(observers):
        sources = (i, *(j for j in range(len(specs)) if j != i))
        own.append([(j, s, specs[i].sigma) for j in sources])
        self_keys.append(None)
        for j, first in zip(sources, own[s]):
            q = specs[j].q
            if not q:
                root(first)
            elif j == i:
                if forces:
                    self_keys[s] = root(first, k=2.0 * q if exact else 0.0)
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
    plan = _RootPlan(
        src, np.array(observers, dtype=np.intp)[slot], slot, cols[:, 2], k, w,
        np.array([row.get(key, -1) for key in self_keys], dtype=np.intp),
        np.array([[row[key] for key in o] for o in own], dtype=np.intp))
    for x in plan:
        x.flags.writeable = False  # shared by every call with these arguments
    return plan


def _first_iterates(prev: DelayRoots, events, t) -> np.ndarray:
    """First iterates of a plan's roots, for observer events (one per
    row) at times t, from prev, the roots of the same plan on nearby
    observer events, read row for row with no gather: the model step of
    the solver (_model_step) from prev's root, its source moving on
    inertially from its converged event to the new observer event. NaN,
    so the static guess, where the step is not a finite positive delay."""
    src, c = prev.source, prev.histories[0].c
    tau = t - src.t
    dx = events[:, 1:] - src.r[:, 1:]
    f = (c * tau) ** 2 - _dot(dx, dx) - prev.sigma * prev.sigma
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = _model_step(tau, f, dx, src.u, c)[1]
        return np.where((step > 0.0) & (step < np.inf), step, np.nan)


def _plan_roots(histories, plan: _RootPlan, events, now=None, prev=None) -> DelayRoots:
    """The plan's roots for observer events (one per observer slot) as
    one batch; now, the states of all histories at the observation time,
    is gathered by the solver when not given. With prev, the roots of the
    same plan on nearby observer events, and now, the batch starts from
    the first iterates _first_iterates makes from them; without, cold."""
    events = events[plan.slot]
    if now is not None:
        now = now.take(plan.src)
    seed = None if prev is None else _first_iterates(prev, events, now.t)
    return solve_delays(histories, plan.src, events, plan.sigma, obs=plan.obs, now=now,
                        seed=seed)


def _per_slot(plan: _RootPlan, terms, n: int) -> np.ndarray:
    """(n, 4) sums of the (M, 4) per-root terms over each observer slot,
    each slot's terms added to zero in root order (one bincount)."""
    bins = (4 * plan.slot[:, None] + np.arange(4)).ravel()
    return np.bincount(bins, weights=terms.ravel(), minlength=4 * n).reshape(n, 4)


def _add_potentials(A, plan: _RootPlan, roots: DelayRoots):
    """A (one row per observer slot) plus the sum of the plan's weighted
    potential terms."""
    return A + _per_slot(plan, plan.w[:, None] * lower(line_potentials(roots)), len(A))


def max_delay(histories, t0: float) -> float:
    """Largest delay root the system's diagnostics solve at time t0: every
    self cone, both shell cones of each charged pair and the sigma_i cone
    of each neutral source, as one batch."""
    hs = tuple(histories)
    n = len(hs)
    plan = _root_plan(tuple(h.spec for h in hs), tuple(range(n)))
    now = gather(hs, np.arange(n), np.full(n, float(t0)))
    return float(_plan_roots(hs, plan, now.r, now).t_ret.max())
