"""Causal delay-root solving on sampled worldlines.

The scalar delay equation for an observation at coordinate time t and a
shell radius sigma is

    c * tau = sqrt( |x_obs(t) - x_src(t - tau)|^2 + sigma^2 )

whose positive root places the emission event on the shifted cone
Rt.Rt = sigma^2 through the observation event. For subluminal source
motion the right-hand side is a contraction in tau, so the root exists
and is unique; the solver runs a few fixed-point sweeps, switches to a
secant refinement, and falls back to bracketed bisection if the iterates
misbehave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .worldline import WorldlineHistory, WorldlineSample

MAX_ITER = 120
JAC_TOL = 1e-10  # floor of |Rt.u| / (|Rt| |u|) at a delta-line-integral root


class HistoryTooShort(Exception):
    """Raised in strict-coverage mode when the root search needs times
    before the first recorded sample."""


class NoConvergence(Exception):
    """Raised when neither the fixed-point/secant loop nor bisection
    settles within the iteration budget."""


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


def _source_pos(h, t, strict):
    if strict and t < h.t_first:
        raise HistoryTooShort(
            f"delay search reached t={t!r} before first recorded sample "
            f"t_first={h.t_first!r}")
    return h.state_at_time(t).r[1:]


def root_tolerance(d2: float, sigma: float) -> float:
    # the defining equation lives in squared-length units
    return 1e-12 * (1.0 + d2 + sigma**2)


def _solve_delay(h, obs_x3, t_obs, sigma: float, c: float,
                 seed: float | None = None,
                 strict_coverage: bool = False) -> tuple[float, float]:
    """Return (tau, residual) for the delay equation at one observation."""

    def shell(tau: float) -> float:
        dx = obs_x3 - _source_pos(h, t_obs - tau, strict_coverage)
        return float(np.sqrt(dx @ dx + sigma * sigma)) / c

    d0 = obs_x3 - _source_pos(h, t_obs, strict_coverage)
    d2_now = float(d0 @ d0)
    tol_sq = root_tolerance(d2_now, sigma)

    def residual(tau: float) -> float:
        dx = obs_x3 - _source_pos(h, t_obs - tau, strict_coverage)
        return (c * tau) ** 2 - float(dx @ dx) - sigma * sigma

    base = shell(0.0)
    if base == 0.0:
        # coincident static point source, sigma = 0
        return 0.0, 0.0
    tau = base if seed is None else float(seed)

    # damped fixed-point sweeps; the map is a contraction with factor <= beta
    prev = None
    for _ in range(4):
        nxt = shell(tau)
        if prev is not None and abs(nxt - tau) > abs(tau - prev):
            break
        prev, tau = tau, nxt

    # secant refinement on g(tau) = c tau - c shell(tau)
    def g(tau):
        return c * (tau - shell(tau))

    a, b = tau, tau * (1.0 + 1e-6) + 1e-14
    ga, gb = g(a), g(b)
    for _ in range(MAX_ITER):
        if abs(residual(a)) <= tol_sq and a >= 0.0:
            return a, abs(residual(a))
        if gb == ga:
            break
        step = ga * (b - a) / (gb - ga)
        a, b = a - step, a
        ga, gb = g(a), ga
        if not np.isfinite(a) or a < 0.0 or abs(step) > 10.0 * (1.0 + abs(b)):
            break

    # bisection net: g(0) < 0 and g grows like (1 - beta) c tau for large tau
    lo, hi = 0.0, max(2.0 * shell(0.0), 1e-12)
    expand = 0
    while g(hi) <= 0.0:
        hi *= 2.0
        expand += 1
        if expand > 200:
            raise NoConvergence("could not bracket the causal delay root")
    glo = g(lo)
    for _ in range(max(MAX_ITER, 200)):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(residual(mid)) <= tol_sq:
            return mid, abs(residual(mid))
        if (glo < 0.0) == (gm < 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo < 1e-17 * (1.0 + hi):
            break
    res = abs(residual(0.5 * (lo + hi)))
    if res <= tol_sq:
        return 0.5 * (lo + hi), res
    raise NoConvergence(
        f"delay iteration exhausted with residual {res:.3e} > {tol_sq:.3e}")


def _finish(h, t_obs, tau, res) -> DelayRoot:
    src = h.state_at_time(t_obs - tau)
    s_now = h.proper_time_of(t_obs)
    return DelayRoot(t_ret=tau, s_ret=s_now - src.s, source_event=src,
                     residual=res)


def self_delay(h: WorldlineHistory, t: float, sigma: float | None = None,
               seed: float | None = None,
               strict_coverage: bool = False) -> DelayRoot:
    """Causal root of the 1-particle delay equation at observation time t.

    sigma defaults to the particle's own radius.
    """
    if sigma is None:
        sigma = h.spec.sigma
    obs = h.state_at_time(t)
    tau, res = _solve_delay(h, obs.r[1:], t, sigma, h.c, seed=seed,
                            strict_coverage=strict_coverage)
    return _finish(h, t, tau, res)


def pair_delay(h_source: WorldlineHistory, observer_event, sigma_shift: float,
               seed: float | None = None,
               strict_coverage: bool = False) -> DelayRoot:
    """Causal root of the 2-particle delay equation.

    observer_event is the observer's four-position (r^0 = c t); the root is
    searched on the source history. sigma_shift selects which particle's
    radius shifts the cone (each binary field needs both choices).
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    t_obs = float(obs_r[0]) / h_source.c
    tau, res = _solve_delay(h_source, obs_r[1:], t_obs, sigma_shift,
                            h_source.c, seed=seed,
                            strict_coverage=strict_coverage)
    return _finish(h_source, t_obs, tau, res)


def delta_line_integral(h: WorldlineHistory, observer_event, sigma: float,
                        strict_coverage: bool = False) -> np.ndarray:
    """Resolve 2q * integral ds u(s) delta(Rt.Rt - sigma^2) at the causal root.

    The delta contributes 1/|d(Rt.Rt)/ds| = 1/|2 Rt.u| at the root, so the
    result is q * u(s_ret) / |Rt.u(s_ret)|: the shifted Lienard-Wiechert-type
    potential, whose static time component is q / sqrt(d^2 + sigma^2).
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    root = pair_delay(h, obs_r, sigma, strict_coverage=strict_coverage)
    src = root.source_event
    rt = obs_r - src.r
    u = src.u
    jac = abs(float(rt[0] * u[0] - rt[1:] @ u[1:]))
    rt_norm = float(np.sqrt(abs(rt @ rt)))
    u_norm = float(np.sqrt(abs(u @ u)))
    if jac < JAC_TOL * max(rt_norm * u_norm, 1e-300):
        raise DegenerateJacobian(
            f"|Rt.u| = {jac:.3e} at the root; grazing emission geometry")
    return h.spec.q * u / jac


def max_delay(histories, t0: float, strict_coverage: bool = False) -> float:
    """Largest of all self and pair delay roots of the system at time t0.

    Pair roots are evaluated with both shell radii, matching the two
    emission cones each binary field needs.
    """
    hs = list(histories)
    worst = 0.0
    for i, hi in enumerate(hs):
        r = self_delay(hi, t0, strict_coverage=strict_coverage)
        worst = max(worst, r.t_ret)
        obs = hi.state_at_time(t0).r
        for j, hj in enumerate(hs):
            if j == i:
                continue
            for shift in (hi.spec.sigma, hj.spec.sigma):
                r = pair_delay(hj, obs, shift, strict_coverage=strict_coverage)
                worst = max(worst, r.t_ret)
    return worst
