"""Causal delay-root solving on sampled worldlines.

The scalar delay equation for an observation at coordinate time t and a
shell radius sigma is

    c * tau = sqrt( |x_obs(t) - x_src(t - tau)|^2 + sigma^2 )

whose positive root places the emission event on the shifted cone
Rt.Rt = sigma^2 through the observation event. For subluminal source
motion the root exists and is unique. One bracketed Newton iteration on
the squared form f(tau) = (c tau)^2 - |dx|^2 - sigma^2 finds it: each
iteration makes one history query, which gives f and, from the source
velocity, f' and the step to the root of f for a source moving on
inertially. A step that leaves the bracket bisects it instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .worldline import WorldlineHistory, WorldlineSample

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


def root_tolerance(d2: float, sigma: float) -> float:
    # the defining equation lives in squared-length units; the 1e-12 floor
    # exceeds sigma^2 below sigma ~ 1e-6, where self roots are not resolved
    return 1e-12 * (1.0 + d2 + sigma**2)


def _solve_delay(h, obs_x3, now: WorldlineSample, sigma: float,
                 seed: float | None = None) -> DelayRoot:
    """The causal root of f(tau) = (c tau)^2 - |dx|^2 - sigma^2 with
    dx = obs_x3 - x_src(t - tau), where now is the source h at t."""
    c = h.c
    d0 = obs_x3 - now.r[1:]
    d2 = float(d0 @ d0)
    if d2 + sigma * sigma == 0.0:
        # coincident static point source, sigma = 0
        return DelayRoot(t_ret=0.0, s_ret=0.0, source_event=now, residual=0.0)
    tol = root_tolerance(d2, sigma)
    tau = math.sqrt(d2 + sigma * sigma) / c if seed is None else float(seed)
    # bracket with f(lo) < 0 < f(hi); f(0) = -d^2 - sigma^2 < 0
    lo, hi = 0.0, math.inf
    for _ in range(MAX_ITER):
        src = h.state_at_time(now.t - tau)
        dx = obs_x3 - src.r[1:]
        f = (c * tau) ** 2 - float(dx @ dx) - sigma * sigma
        if abs(f) <= tol:
            return DelayRoot(t_ret=tau, s_ret=now.s - src.s, source_event=src,
                             residual=abs(f))
        if f < 0.0:
            lo = tau
        else:
            hi = tau
        # Newton step on f's model for a source moving on inertially from
        # this sample, f + 2 b s + (c^2 - v^2) s^2 with b = f'/2 and
        # v = c u/u^0: exact for inertial sources, -f/f' as f -> 0, and
        # always forward while f < 0. A step outside (lo, hi) bisects.
        v = c * src.u[1:] / src.u[0]
        b = c * c * tau - float(dx @ v)
        disc = b * b - (c * c - float(v @ v)) * f
        den = b + math.sqrt(disc) if disc >= 0.0 else 0.0
        step = tau - f / den if den > 0.0 else math.nan
        tau = step if lo < step < hi else 0.5 * (lo + hi)
    raise NoConvergence(
        f"delay iteration exhausted {MAX_ITER} evaluations with residual "
        f"{abs(f):.3e} > {tol:.3e}")


def self_delay(h: WorldlineHistory, t: float, sigma: float | None = None,
               seed: float | None = None) -> DelayRoot:
    """Causal root of the 1-particle delay equation at observation time t.

    sigma defaults to the particle's own radius.
    """
    if sigma is None:
        sigma = h.spec.sigma
    now = h.state_at_time(t)
    return _solve_delay(h, now.r[1:], now, sigma, seed=seed)


def pair_delay(h_source: WorldlineHistory, observer_event, sigma_shift: float,
               seed: float | None = None) -> DelayRoot:
    """Causal root of the 2-particle delay equation.

    observer_event is the observer's four-position (r^0 = c t); the root is
    searched on the source history. sigma_shift selects which particle's
    radius shifts the cone (each binary field needs both choices).
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    now = h_source.state_at_time(float(obs_r[0]) / h_source.c)
    return _solve_delay(h_source, obs_r[1:], now, sigma_shift, seed=seed)


def delta_line_integral(h: WorldlineHistory, observer_event, sigma: float) -> np.ndarray:
    """Resolve 2q * integral ds u(s) delta(Rt.Rt - sigma^2) at the causal root.

    The delta contributes 1/|d(Rt.Rt)/ds| = 1/|2 Rt.u| at the root, so the
    result is q * u(s_ret) / |Rt.u(s_ret)|: the shifted Lienard-Wiechert-type
    potential, whose static time component is q / sqrt(d^2 + sigma^2).
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    root = pair_delay(h, obs_r, sigma)
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


def max_delay(histories, t0: float) -> float:
    """Largest of all self and pair delay roots of the system at time t0.

    Pair roots are evaluated with both shell radii, matching the two
    emission cones each binary field needs.
    """
    hs = list(histories)
    worst = 0.0
    for i, hi in enumerate(hs):
        r = self_delay(hi, t0)
        worst = max(worst, r.t_ret)
        obs = hi.state_at_time(t0).r
        for j, hj in enumerate(hs):
            if j == i:
                continue
            # equal radii share one root
            for shift in {hi.spec.sigma, hj.spec.sigma}:
                r = pair_delay(hj, obs, shift)
                worst = max(worst, r.t_ret)
    return worst
