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

total_faraday, the one force path, takes the states of every particle
at one time (the rows dynamics.step already holds) and solves one root
batch of the system's one root plan for its self-force mode
(retardation._root_plan; each root's kernel weight k sums the terms it
stands for), handing the plan's rows to the one solver as the plan
holds them (retardation._plan_roots). Self and binary fields always act
together, as in the system's one variational principle. The equations
of motion read the field only through the Lorentz force (q/c) F u, so
the kernel gives each root's covariant factors (W, Rt), (M, 4) arrays
with an elementwise grazing-emission guard, contracts them with the
observer's u as W (Rt.u) - Rt (W.u) and adds them per observer
(retardation._per_slot) to the external F u (ExternalFieldModel.faraday_u:
no tensor for variant none, the user tensors checked in one pass for
user-analytic), then scales each observer's sum by the plan's q / c; g
is one array expression over every self root (_asymptotic_g), with the
plan's constants and u'' read off the segment each self root's gather
found (no second lookup of the event). It returns (f, batch): the
(n, 4) covariant force (q/c) F u + g, and the batch's (plan, roots). The
plan also holds the roots of the potentials and the reported delays, so
the step diagnostics read them off the batch, and the next evaluation of
an RK step may start its roots from it (prev). A user-analytic model's
tensors and potentials are checked where they are read: a tensor must
be a finite antisymmetric 4x4 matrix and a potential a finite
four-vector (ValueError).
self_faraday and binary_faraday build one root's tensor W Rt - Rt W
(_tensor); the same factors give each root's potential gradient
(_potential_gradients), whose antisymmetric part is that tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .minkowski import _SIGNS, FaradayTensor, _antisymmetric_part, dots, lower
from .retardation import (JAC_TOL, DelayRoots, _dot, _per_slot, _plan_roots, _root_plan,
                           _self_force_constants, solve_delays)
from .worldline import WorldlineHistory, _read_udotdot, gather


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
        """F_mu nu at an event r (4,) or at each row of r (P, 4); user tensors are checked."""
        r = np.asarray(r, dtype=np.float64)
        shape = r.shape[:-1] + (4, 4)
        if self.variant == "none":
            return np.zeros(shape)
        if self.variant == "constant-uniform":
            return np.broadcast_to(self.tensor, shape)
        return self._user_tensors(r.reshape(-1, 4)).reshape(shape)

    def _user_tensors(self, r) -> np.ndarray:
        """The user tensors at each row of r (P, 4), checked: (P, 4, 4)."""
        return _antisymmetric_part([self.faraday_fn(p) for p in r], (None, 4, 4))

    def faraday_u(self, r, u) -> np.ndarray:
        """F_mu nu u^nu at each row of r and u (P, 4), each rounded like F @ u."""
        if self.variant == "none":
            return np.zeros(u.shape)
        F = (np.broadcast_to(self.tensor, (len(u), 4, 4)) if self.variant == "constant-uniform"
             else self._user_tensors(r))
        return (F @ u[:, :, None])[:, :, 0]

    def potential(self, r) -> np.ndarray:
        """A_mu at one event r (4,), or at each row of a block r (P, 4)."""
        r = np.asarray(r, dtype=np.float64)
        if self.variant == "none":
            return np.zeros(r.shape)
        if self.variant == "constant-uniform":
            # a stacked mat-vec: each row rounds like the one-event T @ r
            return -0.5 * (self.tensor @ r.reshape(-1, 4, 1)).reshape(r.shape)
        return _four_potentials([self.potential_fn(p) for p in r.reshape(-1, 4)]).reshape(r.shape)


def _four_potentials(values) -> np.ndarray:
    """The (P, 4) array of P user potentials, after checking in one pass
    that each is a four-vector and every component finite (ValueError)."""
    A = np.array(values, dtype=np.float64)
    if A.shape[1:] != (4,):
        raise ValueError(f"expected a four-potential of 4 components at each event, "
                         f"got shape {A.shape[1:]}")
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise ValueError("four-potential components must be finite")
    return A


def _kernel(roots: DelayRoots, k, u_sign):
    """Covariant factors (W, Rt), each (M, 4), of the expanded
    s'-derivative kernel -(k/|D|)[dN/D - N dD/D^2] = W Rt - Rt W of every
    root, W = -(k / |D| D)(a - u dD/D), with k and u_sign one per root;
    Rt is source minus observer for u_sign = +1 (pair) and observer minus
    source for -1 (self)."""
    src = roots.source
    rt_up = u_sign[:, None] * (src.r - roots.events)
    # lowered by eta's diagonal, as minkowski.lower lowers them
    rt, u = rt_up * _SIGNS, src.u * _SIGNS
    D = _dot(rt, src.u)
    abs_d = np.abs(D)
    roots.check_jacobian(abs_d, np.sqrt(np.abs(_dot(rt, rt_up))), JAC_TOL, "in the field kernel")
    dD = u_sign * _dot(u, src.u) + _dot(rt, src.a)
    w = (-k / (abs_d * D))[:, None] * (src.a * _SIGNS - u * (dD / D)[:, None])
    return w, rt


def _tensor(roots: DelayRoots, k, u_sign) -> np.ndarray:
    """The kernel tensors W Rt - Rt W of every root, (M, 4, 4), exactly
    antisymmetric."""
    w, rt = _kernel(roots, k, u_sign)
    return w[:, :, None] * rt[:, None, :] - rt[:, :, None] * w[:, None, :]


def _potential_gradients(roots: DelayRoots, k) -> np.ndarray:
    """dA_nu/dx^mu, (M, 4, 4) indexed [m, mu, nu], of every root's
    potential term k u_nu / |D| in its observer event x, sources fixed:
    -Rt_mu W_nu - (k / |D| D) u_mu u_nu, (W, Rt) the self-sign kernel
    factors (the retarded point moves by ds'/dx^mu = Rt_mu / D). Its
    antisymmetric part is the root's kernel tensor (_tensor): F = dA."""
    w, rt = _kernel(roots, k, np.full(len(k), -1.0))
    u, D = lower(roots.source.u), _dot(rt, roots.source.u)
    return (-rt[:, :, None] * w[:, None, :]
            - (k / (np.abs(D) * D))[:, None, None] * (u[:, :, None] * u[:, None, :]))


def _external_gradient(external: ExternalFieldModel, r) -> np.ndarray:
    """dA_nu/dr^mu of the external potential at each row of r (P, 4), as
    (P, 4, 4) indexed [p, mu, nu]: F/2 in the constant-uniform linear
    gauge, 0 with none; a user-analytic model has none to give (ValueError)."""
    if external.variant == "user-analytic":
        raise ValueError("a user-analytic field model gives no derivative of its potential")
    return 0.5 * external.faraday(r)


def self_faraday(h: WorldlineHistory, t: float,
                 sigma: float | None = None) -> FaradayTensor:
    """Exact retarded self-field tensor at the particle's own position.

    Vanishes identically on inertial stretches because the bi-vector is
    then parallel to u(s') and every antisymmetric combination dies.
    """
    sigma = h.spec.sigma if sigma is None else sigma
    now = gather((h,), 0, [t])
    roots = solve_delays((h,), 0, now.r, sigma, obs=0, now=now)
    return FaradayTensor(_tensor(roots, np.array([2.0 * h.spec.q]), np.array([-1.0]))[0])


def _binary_term(h_source: WorldlineHistory, obs_r, sigma_shift: float) -> np.ndarray:
    """Pair kernel of one emission cone of h_source at the event obs_r."""
    roots = solve_delays((h_source,), 0, obs_r, sigma_shift)
    return _tensor(roots, np.array([h_source.spec.q]), np.ones(1))[0]


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


def _asymptotic_g(roots: DelayRoots, rows, em, rad) -> np.ndarray:
    """g_mu (M, 4) of the self roots rows, em = -m_em c and rad = q^2 / 3c
    one per row, each row with the bits of its own one-root evaluation.
    u'' comes from the segment each source event was read from where it
    lies strictly inside one (worldline._read_udotdot); u_dotdot looks up
    the others."""
    src = roots.source
    t, u, a = src.t[rows], src.u[rows], src.a[rows]
    udd = _read_udotdot(roots.histories, roots.src[rows], t, u, [x[rows] for x in roots.segment])
    return lower(em[:, None] * a - rad[:, None] * (udd - u * dots(u, udd)[:, None]))


def asymptotic_self_force(h: WorldlineHistory, t: float,
                          sigma: float | None = None) -> np.ndarray:
    """First-order self-force four-vector g_mu, covariant components.

    g = -m_em c du/ds - (q^2 / 3c) [uddot - u (u.uddot)], all kinematic
    factors evaluated at the retarded proper time of the self delay root;
    m_em = q^2 / (c^2 sigma). The projected second term is orthogonal to
    u by construction whenever u.u = 1.
    """
    sigma = h.spec.sigma if sigma is None else sigma
    now = gather((h,), 0, [t])
    roots = solve_delays((h,), 0, now.r, sigma, obs=0, now=now)
    return _asymptotic_g(roots, [0], *_self_force_constants(np.array([h.spec.q]), roots.sigma,
                                                            h.c))[0]


def total_faraday(histories, now, external: ExternalFieldModel,
                  mode: SelfForceMode = SelfForceMode.EXACT, prev=None):
    """Covariant force on every particle from one root batch and one kernel
    pass, as (f, batch); now holds every history's state at one time, as
    gather(histories, arange(n), full(n, t)) returns them.

    f (n, 4) is (q/c) F u + g: F the total covariant field (external,
    self and binary), contracted root by root with the particle's u, and
    g the first-order self-force in asymptotic mode (which also collapses
    binary cones to the point limit).

    batch is the (plan, roots) of this evaluation: the system's one root
    plan for the mode, which also holds every potential's and reported
    delay's root, and its roots. prev, the batch of an evaluation at a
    nearby time, starts every root from the model step off the same row
    there (retardation._first_iterates) when it holds the same plan (one
    whose key, the arguments it was made for, equals this evaluation's);
    otherwise the batch starts cold, and its roots have the bits of any
    other cold batch holding them.
    """
    hs = tuple(histories)
    n = len(hs)
    key = (tuple([h.spec for h in hs]), tuple(range(n)), mode, hs[0].c)
    # prev's plan is this one when made for the same arguments: then the
    # plan is not looked up again (the key compares item by item, each the
    # same object, where a lookup would hash every spec)
    warm = prev is not None and prev[0].key == key
    plan = prev[0] if warm else _root_plan(*key)
    Fu = external.faraday_u(now.r, now.u)
    roots = _plan_roots(hs, plan, now.r, now, prev[1] if warm else None)
    if np.count_nonzero(plan.k):
        w, rt = _kernel(roots, plan.k, plan.sign)
        u_obs = now.u.take(plan.slot, axis=0)
        Fu += _per_slot(plan, w * _dot(rt, u_obs)[:, None] - rt * _dot(w, u_obs)[:, None], n)
    f = plan.q_c * Fu
    if plan.g_row.size:
        # a neutral particle's g vanishes without a root
        f[plan.g_slot] += _asymptotic_g(roots, plan.g_row, plan.g_em, plan.g_rad)
    return f, (plan, roots)
