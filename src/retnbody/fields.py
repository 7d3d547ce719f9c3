"""Faraday-tensor contributions acting on a particle.

Four sources are covered:
  * an external model (none, constant-uniform, or user-supplied callables)
  * the exact retarded self-field of a finite-size particle
  * the exact retarded binary field of a companion (two emission cones,
    one per shell radius)
  * the first-order asymptotic self-force (EM-mass term plus the
    projected third-derivative term)

All tensors are covariant F_{mu nu} and exactly antisymmetric. The
retarded kernels share one algebraic core: with Rt the bi-vector between
the present event and the emission event, D = Rt.u(s'), and
N_{mu nu} = u_mu Rt_nu - u_nu Rt_mu, the s'-derivative of N/D expands to

    dN/ds' = a_mu Rt_nu - a_nu Rt_mu        (the u x u terms cancel)
    dD/ds' = (dRt/ds').u + Rt.a

where dRt/ds' is -u(s') for the self bi-vector (present minus retarded
point of the same worldline) and +u(s') for the pair bi-vector (source
minus observer, differentiated along the source).

total_faraday serves a set of observers at one time from one root batch
(retardation.solve_delays): every self root, every shifted-cone pair
root of a charged companion (one root per distinct radius, equal radii
one root doubled), or in asymptotic mode the point-limit pair roots.
The kernel then runs once on all roots as (M, 4, 4) array operations,
with the same elementwise grazing-emission guard. Sources with q = 0
are left out: their kernels are multiplied by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .minkowski import FaradayTensor, dot, lower
from .retardation import JAC_TOL, DelayRoots, solve_delays
from .worldline import WorldlineHistory, gather


class SelfForceMode(Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ExternalFieldModel:
    """External EM field: none, constant-uniform, or analytic callables.

    For the constant-uniform variant the four-potential uses the linear
    gauge A_mu(r) = -1/2 F_{mu nu} r^nu, which reproduces the constant
    tensor under F = dA terms and keeps A exactly linear in r.
    """

    variant: str = "none"
    tensor: np.ndarray | None = None
    faraday_fn: object | None = None
    potential_fn: object | None = None

    def __post_init__(self):
        if self.variant not in ("none", "constant-uniform", "user-analytic"):
            raise ValueError(f"unknown external field variant {self.variant!r}")
        if self.variant == "constant-uniform":
            if self.tensor is None:
                raise ValueError("constant-uniform model needs a field tensor")
            # validates shape and antisymmetry
            object.__setattr__(self, "tensor",
                               FaradayTensor(self.tensor).matrix)
        if self.variant == "user-analytic":
            if self.faraday_fn is None or self.potential_fn is None:
                raise ValueError("user-analytic model needs both callables")

    @classmethod
    def none(cls) -> "ExternalFieldModel":
        return cls(variant="none")

    @classmethod
    def uniform(cls, E=(0.0, 0.0, 0.0), B=(0.0, 0.0, 0.0)) -> "ExternalFieldModel":
        """Constant uniform field from its six components.

        Components are packed so a static charge feels the force
        (q gamma / c)(E + beta x B) in contravariant spatial components.
        """
        E = np.asarray(E, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        F = np.zeros((4, 4))
        F[0, 1:] = E
        F[1:, 0] = -E
        F[1, 2] = -B[2]
        F[2, 1] = B[2]
        F[2, 3] = -B[0]
        F[3, 2] = B[0]
        F[3, 1] = -B[1]
        F[1, 3] = B[1]
        return cls(variant="constant-uniform", tensor=F)

    @classmethod
    def analytic(cls, faraday_fn, potential_fn) -> "ExternalFieldModel":
        return cls(variant="user-analytic", faraday_fn=faraday_fn,
                   potential_fn=potential_fn)

    def faraday(self, r) -> np.ndarray:
        if self.variant == "none":
            return np.zeros((4, 4))
        if self.variant == "constant-uniform":
            return self.tensor
        return np.asarray(self.faraday_fn(np.asarray(r)), dtype=np.float64)

    def potential(self, r) -> np.ndarray:
        """A_mu at one event r (4,), or at each row of a block r (P, 4)."""
        r = np.asarray(r, dtype=np.float64)
        if self.variant == "none":
            return np.zeros(r.shape)
        if self.variant == "constant-uniform":
            return -0.5 * (self.tensor @ r.T).T
        if r.ndim == 1:
            return np.asarray(self.potential_fn(r), dtype=np.float64)
        return np.array([self.potential_fn(p) for p in r],
                        dtype=np.float64).reshape(r.shape)


def _kernel(roots: DelayRoots, k, u_sign) -> np.ndarray:
    """The expanded s'-derivative kernel -(k/|D|)[dN/D - N dD/D^2] of
    every root, (M, 4, 4), with k and u_sign one per root; the bi-vector
    is source minus observer for u_sign = +1 (pair) and observer minus
    source for -1 (self). It equals W Rt - Rt W with
    W = -(k / |D| D)(a - u dD/D), so it is exactly antisymmetric."""
    src = roots.source
    rt = u_sign[:, None] * (src.r - roots.events)
    vec = np.stack((rt, src.u, src.a), axis=1)  # (M, 3, 4): Rt, u, a
    low = lower(vec)
    # Minkowski products: Rt.Rt, Rt.u, Rt.a and u.Rt, u.u, u.a
    prod = low[:, :2] @ vec.swapaxes(1, 2)
    D = prod[:, 0, 1]
    roots.check_jacobian(np.abs(D), np.sqrt(np.abs(prod[:, 0, 0])), JAC_TOL,
                         "in the field kernel")
    dD = u_sign * prod[:, 1, 1] + prod[:, 0, 2]
    w = (-k / (np.abs(D) * D))[:, None] * (low[:, 2] - low[:, 1] * (dD / D)[:, None])
    rt_l = low[:, 0]
    return w[:, :, None] * rt_l[:, None, :] - rt_l[:, :, None] * w[:, None, :]


def self_faraday(h: WorldlineHistory, t: float,
                 sigma: float | None = None) -> FaradayTensor:
    """Exact retarded self-field tensor at the particle's own position.

    Vanishes identically on inertial stretches because the bi-vector is
    then parallel to u(s') and every antisymmetric combination dies.
    """
    if sigma is None:
        sigma = h.spec.sigma
    now = gather((h,), 0, [t])
    roots = solve_delays((h,), 0, now.r, sigma, obs=0, now=now)
    return FaradayTensor(_kernel(roots, np.array([2.0 * h.spec.q]), np.array([-1.0]))[0])


def _binary_term(h_source: WorldlineHistory, obs_r, sigma_shift: float) -> np.ndarray:
    """Pair kernel of one emission cone of h_source at the event obs_r."""
    roots = solve_delays((h_source,), 0, obs_r, sigma_shift)
    return _kernel(roots, np.array([h_source.spec.q]), np.ones(1))[0]


def binary_faraday(h_source: WorldlineHistory, observer_event,
                   sigma_i: float, sigma_j: float) -> FaradayTensor:
    """Retarded binary field of the source particle at the observer event.

    One emission cone per shell radius; equal radii collapse to a single
    root whose term is doubled exactly.
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    if sigma_i == sigma_j:
        return FaradayTensor(2.0 * _binary_term(h_source, obs_r, sigma_i))
    return FaradayTensor(_binary_term(h_source, obs_r, sigma_i)
                         + _binary_term(h_source, obs_r, sigma_j))


def binary_faraday_pointlimit(h_source: WorldlineHistory,
                              observer_event) -> FaradayTensor:
    """Leading-order binary field: both cones collapsed onto the light cone."""
    return FaradayTensor(2.0 * _binary_term(h_source, observer_event, 0.0))


def _asymptotic_g(h: WorldlineHistory, roots: DelayRoots, m: int, t: float) -> np.ndarray:
    q = h.spec.q
    c = h.c
    src = roots.source
    u, a = src.u[m], src.a[m]
    udd = h.u_dotdot_at_time(t - roots.t_ret[m])
    m_em = q * q / (c * c * roots.sigma[m])
    g_contra = (-m_em * c * a
                - (q * q / (3.0 * c)) * (udd - u * dot(u, udd)))
    return lower(g_contra)


def asymptotic_self_force(h: WorldlineHistory, t: float,
                          sigma: float | None = None) -> np.ndarray:
    """First-order self-force four-vector g_mu, covariant components.

    g = -m_em c du/ds - (q^2 / 3c) [uddot - u (u.uddot)], all kinematic
    factors evaluated at the retarded proper time of the self delay root;
    m_em = q^2 / (c^2 sigma). The projected second term is orthogonal to
    u by construction whenever u.u = 1.
    """
    if sigma is None:
        sigma = h.spec.sigma
    now = gather((h,), 0, [t])
    return _asymptotic_g(h, solve_delays((h,), 0, now.r, sigma, obs=0, now=now), 0, t)


class _ForcePlan(NamedTuple):
    """The roots of one total_faraday call, ordered by source, and how
    their terms combine."""

    self_slot: np.ndarray  # observer slots with a self term, and its root
    self_row: np.ndarray
    src: np.ndarray        # per root: source, observer, sigma, weight, u_sign
    observer: np.ndarray
    sigma: np.ndarray
    k: np.ndarray
    u_sign: np.ndarray
    slot: np.ndarray       # per pair term: observer slot, rank among the
    rank: np.ndarray       # observer's pair terms, first and last cone root
    first: np.ndarray
    last: np.ndarray


@lru_cache(maxsize=64)
def _force_plan(specs, observers, exact: bool, include_self: bool,
                include_binary: bool) -> _ForcePlan:
    """Each charged observer's self root (exact mode: kernel weight 2 q),
    then per pair of an observer slot and a charged companion j its first
    cone (sigma_i, or 0 in the point limit) and, for distinct radii, its
    sigma_j cone (weight q_j). Sources with q = 0 get no root."""
    q = np.array([s.q for s in specs])
    sig = np.array([s.sigma for s in specs])
    obs = np.array(observers, dtype=np.intp)
    self_slot = np.flatnonzero(q[obs] != 0.0) if include_self else np.zeros(0, np.intp)
    slot, j = np.nonzero((np.arange(len(specs)) != obs[:, None]) & (q != 0.0)
                         & include_binary)
    i, ii = obs[slot], obs[self_slot]
    second = (sig[j] != sig[i]) & exact
    n_s, n_p, n_2 = len(ii), len(j), np.count_nonzero(second)
    src = np.concatenate((ii, j, j[second]))
    order = np.argsort(src, kind="stable")
    row = np.empty_like(order)  # each unordered root's place in the plan
    row[order] = np.arange(len(order))
    first = row[n_s:n_s + n_p]
    last = first.copy()
    last[second] = row[n_s + n_p:]
    plan = _ForcePlan(self_slot, row[:n_s], src[order], *(
        np.concatenate(x)[order] for x in (
            (ii, i, i[second]),
            (sig[ii], sig[i] if exact else np.zeros(n_p), sig[j][second]),
            (2.0 * q[ii] if exact else np.zeros(n_s), q[j], q[j][second]),
            (-np.ones(n_s), np.ones(n_p + n_2)))),
        slot, np.arange(n_p) - np.searchsorted(slot, slot), first, last)
    for x in plan:  # shared by every call with these arguments
        x.flags.writeable = False
    return plan


def total_faraday(histories, observers, t: float, external: ExternalFieldModel,
                  mode: SelfForceMode = SelfForceMode.EXACT,
                  include_self: bool = True, include_binary: bool = True):
    """Total field tensor on each observer particle at time t, plus the
    separate four-force, from one root batch and one kernel pass.

    observers are indices into histories. Returns one (FaradayTensor, g)
    per observer, where g is None in exact mode and the asymptotic
    self-force vector in asymptotic mode (asymptotic mode also collapses
    binary cones to the point limit). include_self and include_binary
    are debug switches that drop the corresponding contribution entirely.
    """
    hs = tuple(histories)
    obs = tuple(int(i) for i in observers)
    exact = mode == SelfForceMode.EXACT
    plan = _force_plan(tuple(h.spec for h in hs), obs, exact, include_self, include_binary)
    n = len(hs)
    now = gather(hs, np.arange(n), np.full(n, float(t)))
    F = np.array([external.faraday(now.r[i]) for i in obs], dtype=np.float64).reshape(-1, 4, 4)
    # asymptotic mode: a neutral observer's g vanishes without a root
    g = [np.zeros(4) if include_self and not exact else None for _ in obs]
    if plan.src.size:
        roots = solve_delays(hs, plan.src, now.r[plan.observer], plan.sigma,
                             obs=plan.observer, now=now.take(plan.src))
        if exact or plan.slot.size:
            K = _kernel(roots, plan.k, plan.u_sign)
        if exact:
            F[plan.self_slot] += K[plan.self_row]
        else:
            for s, m in zip(plan.self_slot, plan.self_row):
                g[s] = _asymptotic_g(hs[obs[s]], roots, m, t)
        if plan.slot.size:
            # equal radii: one root doubled exactly (K + K == 2 K)
            terms = K[plan.first] + K[plan.last]
            # each observer adds its companions' terms in source order
            for r in range(plan.rank.max() + 1):
                at = plan.rank == r
                F[plan.slot[at]] += terms[at]
    return list(zip(FaradayTensor.each(F), g))
