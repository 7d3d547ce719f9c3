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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .minkowski import FaradayTensor, dot, lower
from .retardation import JAC_TOL, DegenerateJacobian, pair_delay, self_delay
from .worldline import WorldlineHistory


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
        if self.variant == "none":
            return np.zeros(4)
        if self.variant == "constant-uniform":
            return -0.5 * (self.tensor @ np.asarray(r, dtype=np.float64))
        return np.asarray(self.potential_fn(np.asarray(r)), dtype=np.float64)


def _kernel(rt: np.ndarray, u: np.ndarray, a: np.ndarray, k: float,
            u_sign: float) -> np.ndarray:
    """The expanded s'-derivative kernel -(k/|D|)[dN/D - N dD/D^2]."""
    D = dot(rt, u)
    rt_norm = float(np.sqrt(abs(dot(rt, rt))))
    if abs(D) < JAC_TOL * max(rt_norm, 1e-300):
        raise DegenerateJacobian(
            f"|Rt.u| = {abs(D):.3e} in the field kernel; grazing geometry")
    rt_l = lower(rt)
    u_l = lower(u)
    a_l = lower(a)
    N = np.outer(u_l, rt_l) - np.outer(rt_l, u_l)
    dN = np.outer(a_l, rt_l) - np.outer(rt_l, a_l)
    dD = u_sign * dot(u, u) + dot(rt, a)
    return -(k / abs(D)) * (dN / D - N * (dD / (D * D)))


def self_faraday(h: WorldlineHistory, t: float,
                 sigma: float | None = None) -> FaradayTensor:
    """Exact retarded self-field tensor at the particle's own position.

    Vanishes identically on inertial stretches because the bi-vector is
    then parallel to u(s') and every antisymmetric combination dies.
    """
    if sigma is None:
        sigma = h.spec.sigma
    obs = h.state_at_time(t)
    root = self_delay(h, t, sigma)
    src = root.source_event
    rt = obs.r - src.r
    return FaradayTensor(_kernel(rt, src.u, src.a, 2.0 * h.spec.q, -1.0))


def _binary_term(h_source: WorldlineHistory, obs_r: np.ndarray,
                 sigma_shift: float) -> np.ndarray:
    root = pair_delay(h_source, obs_r, sigma_shift)
    src = root.source_event
    rt = src.r - obs_r
    return _kernel(rt, src.u, src.a, h_source.spec.q, +1.0)


def binary_faraday(h_source: WorldlineHistory, observer_event,
                   sigma_i: float, sigma_j: float) -> FaradayTensor:
    """Retarded binary field of the source particle at the observer event.

    One emission cone per shell radius; equal radii collapse to a single
    root whose term is doubled exactly.
    """
    obs_r = np.asarray(observer_event, dtype=np.float64)
    if sigma_i == sigma_j:
        return FaradayTensor(2.0 * _binary_term(h_source, obs_r, sigma_i))
    A = _binary_term(h_source, obs_r, sigma_i)
    B = _binary_term(h_source, obs_r, sigma_j)
    return FaradayTensor(A + B)


def binary_faraday_pointlimit(h_source: WorldlineHistory,
                              observer_event) -> FaradayTensor:
    """Leading-order binary field: both cones collapsed onto the light cone."""
    obs_r = np.asarray(observer_event, dtype=np.float64)
    return FaradayTensor(2.0 * _binary_term(h_source, obs_r, 0.0))


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
    q = h.spec.q
    c = h.c
    root = self_delay(h, t, sigma)
    t_ret = t - root.t_ret
    src = h.state_at_time(t_ret)
    udd = h.u_dotdot_at_time(t_ret)
    m_em = q * q / (c * c * sigma)
    g_contra = (-m_em * c * src.a
                - (q * q / (3.0 * c)) * (udd - src.u * dot(src.u, udd)))
    return lower(g_contra)


def total_faraday(histories, i: int, t: float, external: ExternalFieldModel,
                  mode: SelfForceMode = SelfForceMode.EXACT,
                  include_self: bool = True, include_binary: bool = True):
    """Total field tensor on particle i, plus the separate four-force.

    Returns (FaradayTensor, g) where g is None in exact mode and the
    asymptotic self-force vector in asymptotic mode (asymptotic mode also
    collapses binary cones to the point limit). include_self and
    include_binary are debug switches that drop the corresponding
    contribution entirely.
    """
    hs = list(histories)
    h_i = hs[i]
    obs = h_i.state_at_time(t)
    F = external.faraday(obs.r).copy()
    g = None
    if mode == SelfForceMode.EXACT:
        if include_self:
            F = F + self_faraday(h_i, t).matrix
        if include_binary:
            for j, h_j in enumerate(hs):
                if j == i:
                    continue
                F = F + binary_faraday(h_j, obs.r, h_i.spec.sigma,
                                       h_j.spec.sigma).matrix
    else:
        if include_self:
            g = asymptotic_self_force(h_i, t)
        if include_binary:
            for j, h_j in enumerate(hs):
                if j == i:
                    continue
                F = F + binary_faraday_pointlimit(h_j, obs.r).matrix
    return FaradayTensor(F), g
