"""Canonical layer: momenta, Hamiltonians, Poisson brackets, generators.

The phase space is the unconstrained 8N-dimensional set of per-particle
pairs (r^mu, P_mu): positions contravariant, momenta covariant, all
components independent. The local Poisson bracket pairs them with no
metric factor,

    [A, B] = sum_i sum_mu (dA/dr^mu dB/dP_mu - dA/dP_mu dB/dr^mu),

so [r^mu, P_nu] = delta^mu_nu. Non-local (history) dependences are held
by a FrozenHistoryContext, a snapshot of its own copies of the histories:
local brackets differentiate only the explicit present-state slots,
history slots are constants of the snapshot. The
Gateaux bracket in nonlocal_bracket is the complementary rule that
transforms the histories too.

Sign conventions: with the fundamental bracket above and the generators

    p_mu = sum_i P^(i)_mu
    M_mu_nu = sum_i (r_mu P_nu - r_nu P_mu)        (r_mu = eta r)

the algebra closes as

    [M_mu_nu, p_a]   = +eta_mu_a p_nu  - eta_nu_a p_mu
    [M_mu_nu, M_a_b] = +eta_mu_a M_nu_b - eta_nu_a M_mu_b
                       + eta_nu_b M_mu_a - eta_mu_b M_nu_a

(the opposite global sign, i.e. the same conditions on {p, -M}, is the
other self-consistent orientation). One check covers both: relabeling M
as s M with closure sign s multiplies each [M, p] relation by s and each
[M, M] relation by s^2 = 1, so every residual keeps its magnitude.

Stacks of states: a CanonicalState may hold one state, r and P of shape
(N, 4), or a stack of them, (..., N, 4). A phase function that takes
stacks evaluates one to one value per state, shape (...), and
differentiates it to one gradient pair per state, each (..., N, 4). The
Poincare generators do (H_N takes one state at a time), so the bracket
engine (bracket_matrix), the closure check (lorentz_condition_residuals)
and the Jacobi pass of check_bracket_algebra take a whole stack in one
array pass, and each state's results carry the bits a single-state call
gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ExternalFieldModel, _external_gradient, _potential_gradients
from .minkowski import ETA, dots, lower, raise_index
from .retardation import _add_potentials, _dot, _per_slot, _plan_roots, _root_plan
from .worldline import HARD_TOL, ConstraintViolation, commit, copy_histories, gather

# brackets of the Poincare generators are at most quadratic in the
# state, so the Jacobi check's central differences carry no truncation
# error and a wide step keeps the 1/h round-off well below its threshold
JACOBI_FD_STEP = 1e-3
# absolute spread below which the Richardson pair of a Gateaux bracket
# is accepted whatever its relative disagreement
NOISE_FLOOR = 1e-9

_IDX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class ContextMismatch(Exception):
    """Raised when a constrained evaluation is handed a context that does
    not match (particle count, or a non-vanishing external potential)."""


class NumericalNoise(Exception):
    """Raised when the Richardson pair of a Gateaux bracket disagrees by
    more than the stability budget."""


# -- canonical state ---------------------------------------------------------

@dataclass(frozen=True)
class CanonicalState:
    """Super-abundant N-body state: r (N,4) contravariant, P (N,4) covariant,
    or a stack of such states, r and P of shape (..., N, 4)."""

    r: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.r, dtype=np.float64))
        P = np.atleast_2d(np.asarray(self.P, dtype=np.float64))
        if r.shape != P.shape or r.shape[-1] != 4:
            raise ValueError(f"state needs matching (..., N, 4) blocks, got {r.shape} / {P.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(P))):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.r.shape[-2]

    def replace(self, r=None, P=None) -> "CanonicalState":
        return CanonicalState(self.r if r is None else r,
                              self.P if P is None else P)


# -- phase functions and the bracket engine ---------------------------------

@dataclass
class PhaseFunction:
    """Scalar function of the canonical state and its analytic gradient,
    which returns (dF/dr, dF/dP), each of the state's shape. On a stack of
    states (..., N, 4) the evaluator returns one value per state, shape
    (...), and the gradient one (..., N, 4) pair."""

    evaluator: object
    gradient: object

    def value(self, x: CanonicalState):
        """F at a state as a float, or at a stack as an array (...)."""
        v = self.evaluator(x)
        return float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=np.float64)

    def gradient_at(self, x: CanonicalState):
        gr, gP = self.gradient(x)
        return np.asarray(gr, dtype=np.float64), np.asarray(gP, dtype=np.float64)

    def __mul__(self, other: "PhaseFunction") -> "PhaseFunction":
        def grad(x, a=self, b=other):
            ga_r, ga_P = a.gradient(x)
            gb_r, gb_P = b.gradient(x)
            # each state's value scales its own (N, 4) blocks
            va, vb = (np.asarray(f.value(x))[..., None, None] for f in (a, b))
            return ga_r * vb + gb_r * va, ga_P * vb + gb_P * va
        return PhaseFunction(lambda x: self.value(x) * other.value(x), grad)

    def combine(self, ca: float, other: "PhaseFunction", cb: float) -> "PhaseFunction":
        def grad(x, a=self, b=other):
            ga_r, ga_P = a.gradient(x)
            gb_r, gb_P = b.gradient(x)
            return ca * ga_r + cb * gb_r, ca * ga_P + cb * gb_P
        return PhaseFunction(lambda x: ca * self.value(x) + cb * other.value(x), grad)


def bracket_matrix(etas, xis, x: CanonicalState) -> np.ndarray:
    """Local brackets [eta_a, xi_b] of two families of phase functions as
    one (..., A, B) array at x, a state or a stack of states (..., N, 4),
    from one gradient per distinct function: a function named in both
    families, or twice in one, is differentiated once. Each element is
    reduced over its state's 4N slots as a single bracket is, so its bits
    depend neither on the family nor on the stack it is computed in."""
    etas, xis = list(etas), list(xis)
    distinct = {id(f): f for f in etas + xis}  # in order of first appearance
    row = {key: k for k, key in enumerate(distinct)}
    flat = x.r.shape[:-2] + (-1,)
    grads = [f.gradient_at(x) for f in distinct.values()]
    gr, gP = (np.stack([g[k].reshape(flat) for g in grads], axis=-2) for k in (0, 1))
    a = [row[id(f)] for f in etas]
    b = [row[id(f)] for f in xis]
    er, eP = gr[..., a, None, :], gP[..., a, None, :]
    xr, xP = gr[..., None, b, :], gP[..., None, b, :]
    return np.sum(er * xP, axis=-1) - np.sum(eP * xr, axis=-1)


def poisson_bracket(eta_fn: PhaseFunction, xi_fn: PhaseFunction,
                    x: CanonicalState) -> float:
    """Local bracket over the unconstrained state."""
    return float(bracket_matrix([eta_fn], [xi_fn], x)[0, 0])


def _shifted_states(x: CanonicalState, step: float):
    """The 16N states of a central-difference pass over the 8N slots of
    the state x (r, then P, particle by particle) as one (2, 8N) stack:
    [0, k] moves slot k by +h_k and [1, k] by -h_k, h = step (1 + |slot|).
    Returns the stack and h."""
    slots = np.concatenate((x.r.ravel(), x.P.ravel()))
    h = step * (1.0 + np.abs(slots))
    k = np.arange(len(slots))
    ys = np.tile(slots, (2, len(slots), 1))
    ys[0, k, k] += h
    ys[1, k, k] -= h
    ys = ys.reshape(2, len(slots), 2, x.n, 4)
    return CanonicalState(ys[..., 0, :, :], ys[..., 1, :, :]), h


def check_bracket_algebra(x: CanonicalState, triples) -> dict:
    """Max residuals of antisymmetry, linearity, Leibniz and Jacobi over
    the supplied (eta, xi, zeta) triples at the state x.

    Per triple, the first three come from one bracket matrix of
    [eta, xi, 2 eta - 3 xi, eta xi] against [eta, xi, zeta]. Jacobi takes
    the gradients of [eta, xi], [xi, zeta] and [zeta, eta] from central
    differences of step JACOBI_FD_STEP over their 3 x 3 bracket matrix,
    (fp - fm) / 2h element by element, with fp and fm from one
    bracket_matrix call on the stack of x's 16N shifted states
    (_shifted_states). So each function of a triple must take stacks of
    states (PhaseFunction), as the Poincare generators do. Those
    differences are exact only for brackets at most quadratic in the
    state, as the Poincare generators' are; a bracket of higher degree
    reads a truncation error, not a Jacobi violation.
    """
    rep = {"antisymmetry": 0.0, "linearity": 0.0, "leibniz": 0.0, "jacobi": 0.0}
    ys, h = _shifted_states(x, JACOBI_FD_STEP)
    half = 4 * x.n
    for triple in triples:
        eta_fn, xi_fn, zeta_fn = triple
        B = bracket_matrix([eta_fn, xi_fn, eta_fn.combine(2.0, xi_fn, -3.0),
                            eta_fn * xi_fn], triple, x).tolist()
        rep["antisymmetry"] = max(rep["antisymmetry"], abs(B[0][1] + B[1][0]))
        lin = B[2][2] - 2.0 * B[0][2] + 3.0 * B[1][2]
        rep["linearity"] = max(rep["linearity"], abs(lin))
        leib = B[3][2] - eta_fn.value(x) * B[1][2] - B[0][2] * xi_fn.value(x)
        rep["leibniz"] = max(rep["leibniz"], abs(leib))

        fp, fm = bracket_matrix(triple, triple, ys)
        d = (fp - fm) / (2.0 * h)[:, None, None]  # (8N, 3, 3): d/dr slots, then d/dP
        jac = 0.0
        for (a, b), outer in zip(((0, 1), (1, 2), (2, 0)), (zeta_fn, eta_fn, xi_fn)):
            o_r, o_P = (g.ravel() for g in outer.gradient_at(x))
            jac += float(np.sum(d[:half, a, b] * o_P) - np.sum(d[half:, a, b] * o_r))
        rep["jacobi"] = max(rep["jacobi"], abs(jac))
    return rep


# -- effective momenta and Hamiltonians --------------------------------------

def effective_momentum(u, spec, A_eff_cov, c: float = 1.0) -> np.ndarray:
    """Covariant canonical momentum P_mu = m0 c u_mu + (q/c) A_mu."""
    return _momenta(np.asarray(u, dtype=np.float64).reshape(1, 4), [spec],
                    np.asarray(A_eff_cov, dtype=np.float64).reshape(1, 4), c, [HARD_TOL])[0]


def _momenta(u, specs, A, c: float, hard_tol) -> np.ndarray:
    """effective_momentum of each row of u and A (N, 4), one spec per row,
    after checking every |u.u - 1| against its row's hard_tol."""
    err = np.abs(dots(u, u) - 1.0)
    bad = ~(err <= hard_tol)
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise ConstraintViolation(
            f"|u.u - 1| = {err[i]:.3e} exceeds {hard_tol[i]:.1e} in a canonical momentum")
    q, m0 = np.array([(s.q, s.m0) for s in specs]).T
    return (m0 * c)[:, None] * lower(u) + (q / c)[:, None] * A


# -- frozen history context ---------------------------------------------------

class FrozenHistoryContext:
    """Immutable snapshot of all histories plus per-particle effective
    potential evaluators.

    The snapshot copies the histories into one store, reads their latest
    states from that copy, and appends one node to each copy, as one
    block: a short inertial continuation past the capture time, so that
    an event up to the margin past c t_ref still evaluates, as a central
    difference in a state's r^0 needs (the shipped certificates observe at
    c t_ref). The margin sits far below every delay root, so no field or
    potential kernel ever interpolates inside it. Nodes appended to a
    history later stay invisible to the snapshot.
    """

    def __init__(self, histories, external: ExternalFieldModel, t_ref: float):
        base = list(histories)
        if not base:
            raise ValueError("context needs at least one history")
        self.c = base[0].c
        self.external = external
        self.t_ref = float(t_ref)
        self.specs = tuple(h.spec for h in base)
        min_sigma = min(h.spec.sigma for h in base)
        margin = 0.02 * min_sigma / self.c + 1e-5 * (1.0 + abs(t_ref))
        latest = np.array([h.t_latest for h in base])
        if np.count_nonzero(latest < t_ref):
            h = base[int(np.argmax(latest < t_ref))]
            raise ValueError(f"history {h.spec.label!r} ends at {h.t_latest} before "
                             f"capture time {t_ref}")
        frozen = copy_histories(base)
        last = gather(frozen, np.arange(len(base)), latest)
        g = last.u[:, 0]
        dt_ext = (latest + margin) - latest
        r_ext = last.r + (self.c / g)[:, None] * last.u * dt_ext[:, None]
        r_ext[:, 0] = self.c * (last.t + dt_ext)
        commit(frozen, np.column_stack((last.t + dt_ext, last.s + (self.c / g) * dt_ext, r_ext,
                                        last.u, np.zeros((len(base), 4)))))
        self._histories = tuple(frozen)

    @property
    def n(self) -> int:
        return len(self._histories)

    def a_eff_cov(self, i: int, r_obs) -> np.ndarray:
        return a_eff_covariant(self._histories, self.external, i, r_obs)


def a_eff_covariant(histories, external: ExternalFieldModel, i: int,
                    r_obs) -> np.ndarray:
    """Covariant effective potential A_(eff)mu^(tot) of particle i at the
    observation event r_obs: external + 2x self + two-cone binary sum."""
    return effective_potentials(histories, external, [i], [r_obs])[0]


def effective_potentials(histories, external: ExternalFieldModel, observers,
                         events) -> np.ndarray:
    """A_eff of each observer particle at its event, (n, 4), from one root
    batch of the system's root plan (retardation._root_plan).

    Each observer's potential is the external potential plus one sum
    over its roots, each term weighted by the plan: its self term at
    weight 2 and each charged companion's sigma_i and sigma_j terms at
    weight 1; a neutral source's one root (its sigma_i cone, which the
    plan holds for the reported delays) has weight 0 and adds nothing.
    The batch holds one root per cone: 2N - 1 per observer among N
    charged particles of distinct radii, and an equal-radius pair's one
    root enters the sum once at weight 2.
    """
    hs = tuple(histories)
    events = np.asarray(events, dtype=np.float64).reshape(-1, 4)
    plan = _root_plan(tuple(h.spec for h in hs), tuple(int(i) for i in observers))
    return _add_potentials(external.potential(events), plan, _plan_roots(hs, plan, events))


def _potentials_and_gradients(histories, external: ExternalFieldModel, observers, events):
    """(A, dA): effective_potentials, with its bits, and from the same
    batch their gradients in the events, histories fixed, dA[i, mu, nu] =
    dA_nu/dr^mu: the external part plus each root's closed-form term at
    kernel weight k = q_src w (fields._potential_gradients)."""
    hs = tuple(histories)
    events = np.asarray(events, dtype=np.float64).reshape(-1, 4)
    plan = _root_plan(tuple(h.spec for h in hs), tuple(int(i) for i in observers))
    roots = _plan_roots(hs, plan, events)
    dA = _per_slot(plan, _potential_gradients(roots, plan.qw), len(events))
    return (_add_potentials(external.potential(events), plan, roots),
            _external_gradient(external, events) + dA)


def state_from_histories(histories, t: float,
                         ctx: FrozenHistoryContext) -> CanonicalState:
    """Canonical state carried by the histories at time t: P as
    effective_momentum builds it from u and A_eff, for all particles from
    one gather and one effective_potentials batch."""
    hs = list(histories)
    n = len(hs)
    now = gather(hs, np.arange(n), np.full(n, float(t)))
    A = effective_potentials(ctx._histories, ctx.external, range(n), now.r)
    return CanonicalState(now.r, _momenta(now.u, [h.spec for h in hs], A, hs[0].c,
                                          [h.hard_tol for h in hs]))


def effective_hamiltonian(state: CanonicalState, i: int,
                          ctx: FrozenHistoryContext) -> float:
    """H_eff^(i) = (1/2 m0 c) pi.pi with pi = P - (q/c) A_eff(r_i)."""
    spec = ctx.specs[i]
    A = ctx.a_eff_cov(i, state.r[i])
    pi = state.P[i] - (spec.q / ctx.c) * A
    # pi is covariant; eta is its own inverse
    return float(pi[0] ** 2 - pi[1:] @ pi[1:]) / (2.0 * spec.m0 * ctx.c)


def system_hamiltonian(state: CanonicalState, ctx: FrozenHistoryContext) -> float:
    return sum(effective_hamiltonian(state, i, ctx) for i in range(state.n))


def hamiltonian_phase_function(ctx: FrozenHistoryContext) -> PhaseFunction:
    """H_N as a local phase function over the frozen snapshot, with its
    closed-form gradient dH/dP = pi^mu / (m0 c) and dH/dr^mu =
    -(q/c) (dA_nu/dr^mu) pi^nu / (m0 c), A and dA from one batch over
    every particle (_potentials_and_gradients)."""
    q_c, m0c = np.array([(s.q / ctx.c, s.m0 * ctx.c) for s in ctx.specs]).T

    def grad(x):
        A, dA = _potentials_and_gradients(ctx._histories, ctx.external, range(x.n), x.r)
        pi_up = raise_index(x.P - q_c[:, None] * A) / m0c[:, None]
        return -q_c[:, None] * (dA @ pi_up[:, :, None])[:, :, 0], pi_up

    return PhaseFunction(lambda x: system_hamiltonian(x, ctx), grad)


# -- Poincare generators over the unconstrained state ------------------------

def _p_hat(mu: int) -> PhaseFunction:
    def ev(x, mu=mu):
        return np.sum(x.P[..., mu], axis=-1)

    def grad(x, mu=mu):
        gP = np.zeros_like(x.P)
        gP[..., mu] = 1.0
        return np.zeros_like(x.r), gP

    return PhaseFunction(ev, grad)


def _m_hat(mu: int, nu: int) -> PhaseFunction:
    def ev(x, mu=mu, nu=nu):
        r_low = lower(x.r)
        return np.sum(r_low[..., mu] * x.P[..., nu] - r_low[..., nu] * x.P[..., mu], axis=-1)

    def grad(x, mu=mu, nu=nu):
        r_low = lower(x.r)
        gP = np.zeros_like(x.P)
        gP[..., nu] += r_low[..., mu]
        gP[..., mu] -= r_low[..., nu]
        return x.P[..., nu, None] * ETA[mu] - x.P[..., mu, None] * ETA[nu], gP

    return PhaseFunction(ev, grad)


class GeneratorSet:
    """Poincare generators: four translations and six antisymmetric pairs,
    each a sum over however many particles the state holds, each taking
    a state or a stack of states."""

    def __init__(self):
        self.p_hat = tuple(_p_hat(mu) for mu in range(4))
        self.M_pairs = {(mu, nu): _m_hat(mu, nu) for mu, nu in _IDX_PAIRS}

    def M(self, mu: int, nu: int) -> PhaseFunction:
        """M_mu_nu for distinct mu, nu in 0..3: a stored pair, or for
        mu > nu the same expression in the reversed indices, which is
        -M_nu_mu bit for bit."""
        if mu == nu or not {mu, nu} <= {0, 1, 2, 3}:
            raise ValueError(f"M_mu_nu needs distinct indices in 0..3, got {(mu, nu)}")
        return self.M_pairs[(mu, nu)] if mu < nu else _m_hat(mu, nu)

    def translation(self, a_cov) -> PhaseFunction:
        """F = -p^mu a_mu; generates r -> r - a (raised), P unchanged."""
        a_up = raise_index(np.asarray(a_cov, dtype=np.float64))

        def ev(x):
            return -np.sum(x.P @ a_up, axis=-1)

        def grad(x):
            return np.zeros_like(x.r), np.tile(-a_up, (*x.P.shape[:-1], 1))

        return PhaseFunction(ev, grad)


def lorentz_condition_residuals(state: CanonicalState,
                                gens: GeneratorSet | None = None) -> dict:
    """Max residuals of the Poincare closure relations at a state, or
    over a stack of states (..., N, 4), where each equals the largest of
    the per-state calls' residuals bit for bit.

    The relations are checked on {p, M} with the closure signs fixed by
    [r^mu, P_nu] = +delta (module docstring), from one 10 x 10 bracket
    matrix of the generators per state compared with the structure
    constants as arrays.
    """
    if gens is None:
        gens = GeneratorSet()
    fns = [*gens.p_hat, *(gens.M_pairs[k] for k in _IDX_PAIRS)]
    vals = np.stack([np.asarray(f.value(state)) for f in fns], axis=-1)
    G = bracket_matrix(fns, fns, state)
    p = vals[..., :4]
    mu, nu = np.array(_IDX_PAIRS).T
    M = np.zeros((*vals.shape[:-1], 4, 4))
    M[..., mu, nu], M[..., nu, mu] = vals[..., 4:], -vals[..., 4:]
    # [M_mu_nu, p_al] and [M_mu_nu, M_al_be] against the closure in p, M
    Mp = ETA[mu] * p[..., nu, None] - ETA[nu] * p[..., mu, None]
    m, n, a, b = mu[:, None], nu[:, None], mu[None], nu[None]
    MM = (ETA[m, a] * M[..., n, b] - ETA[n, a] * M[..., m, b]
          + ETA[n, b] * M[..., m, a] - ETA[m, b] * M[..., n, a])
    return {"pp": float(np.max(np.abs(G[..., :4, :4]))),
            "Mp": float(np.max(np.abs(G[..., 4:, :4] - Mp))),
            "MM": float(np.max(np.abs(G[..., 4:, 4:] - MM)))}


# -- constrained instant form -------------------------------------------------

@dataclass(frozen=True)
class ConstrainedState:
    """Per-particle spatial pairs: x (N,3) positions r^l, P (N,3) covariant P_l."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        P = np.atleast_2d(np.asarray(self.P, dtype=np.float64))
        if x.shape != P.shape or x.shape[1] != 3:
            raise ValueError(f"constrained state needs (N,3) blocks, got {x.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _instant_form_p0(xp: ConstrainedState, ctx: FrozenHistoryContext):
    """Each particle's p0 term at its event, with the pi_l and the root it
    is built from, and the term's derivative in each of its own positions
    x^l: (p0 (N,), pi (N,3), root (N,), dp0_dx (N,3)).

    p0 = sqrt(m0^2 c^2 + pi.pi) + (q/c) A_0 with pi_l = P_l - (q/c) A_l,
    and dp0/dx^l = (q/c)(dA_0/dx^l - pi_m (dA_m/dx^l) / root), from one
    potential batch over the N events (_potentials_and_gradients; only
    the explicit observer-position dependence of A_eff is
    differentiated). Requires an isolated context with one history per
    particle.
    """
    if ctx.external.variant != "none":
        raise ContextMismatch(
            "instant-form generators are defined for the isolated case; "
            f"context carries external variant {ctx.external.variant!r}")
    if xp.n != ctx.n:
        raise ContextMismatch(
            f"state has {xp.n} particles but context has {ctx.n}")
    events = np.column_stack([np.full(xp.n, ctx.c * ctx.t_ref), xp.x])
    A, dA = _potentials_and_gradients(ctx._histories, ctx.external, range(xp.n), events)
    q_c = np.array([spec.q / ctx.c for spec in ctx.specs])
    m2c2 = np.array([spec.m0 ** 2 * ctx.c ** 2 for spec in ctx.specs])
    pi3 = xp.P - q_c[:, None] * A[:, 1:]
    root = np.sqrt(m2c2 + _dot(pi3, pi3))
    dp0 = q_c[:, None] * (dA[:, 1:, 0] - (dA[:, 1:, 1:] @ pi3[:, :, None])[:, :, 0] / root[:, None])
    return root + q_c * A[:, 0], pi3, root, dp0


def instant_form_constrained(xp: ConstrainedState,
                             ctx: FrozenHistoryContext) -> dict:
    """Instant-form generator values and the non-commutation probes.

    Returns a dict with the generator values (p0, p_l, M_lm, N_l0) and the
    bracket probes comm_p0_pl[l] = [p0|x', p_l] = sum_i d p0 / d r^(i)l,
    differentiated in closed form against the frozen snapshot, all from
    one potential batch (_instant_form_p0). Requires an isolated
    context (no external potential) with one history per particle;
    raises ContextMismatch otherwise.
    """
    terms, _, _, dp0 = _instant_form_p0(xp, ctx)
    p_l = xp.P.sum(axis=0)
    # covariant spatial positions r_l = -x^l
    x_low = -xp.x
    M_lm = {}
    for (l, m) in ((1, 2), (1, 3), (2, 3)):
        M_lm[(l, m)] = float(np.sum(x_low[:, l - 1] * xp.P[:, m - 1]
                                    - x_low[:, m - 1] * xp.P[:, l - 1]))
    return {"p0": sum(terms), "p_l": p_l, "M_lm": M_lm,
            "N_l0": sum(x_low * terms[:, None]), "comm_p0_pl": sum(dp0)}


def instant_form_increments(xp: ConstrainedState, ctx: FrozenHistoryContext,
                            dt: float):
    """Coordinate-time increments generated by the constrained p0.

    The evolution generator under the bracket [r^l, P_m] = +delta_lm is
    G = -c dt p0|x'; dr^l = -c dt d p0 / d P_l = -c dt pi_l / root and
    dP_l = c dt d p0 / d x^l, both in closed form from one potential
    batch (_instant_form_p0, whose ContextMismatch checks apply). Returns
    (dr, dP), both (N,3).
    """
    _, pi3, root, dp0 = _instant_form_p0(xp, ctx)
    return -ctx.c * dt * pi3 / root[:, None], ctx.c * dt * dp0


# -- non-local (Gateaux) brackets ---------------------------------------------

class TranslationVariation:
    """delta0 r^mu = d^mu constant on every slot and every history sample."""

    def __init__(self, d4):
        self.d = np.asarray(d4, dtype=np.float64)

    def apply(self, state: CanonicalState, histories, alpha: float):
        shift = alpha * self.d
        new_state = state.replace(r=state.r + shift)
        new_hist = [h.transformed(np.eye(4), shift) for h in histories]
        return new_state, new_hist


def nonlocal_bracket(xi, variation, state: CanonicalState, histories,
                     alpha: float = 1e-3) -> float:
    """Gateaux bracket {xi, F}: d/d alpha of xi along the perturbed
    state-plus-history direction, central differences at alpha and
    alpha/2 with Richardson extrapolation.

    xi is a callable (state, histories) -> float evaluated on perturbed
    copies; the perturbation is applied to both the local slots and every
    history sample. Raises NumericalNoise when the two central-difference
    estimates disagree beyond the stability budget.
    """
    def d_at(a: float) -> float:
        sp, hp = variation.apply(state, histories, +a)
        sm, hm = variation.apply(state, histories, -a)
        return (xi(sp, hp) - xi(sm, hm)) / (2.0 * a)

    d1 = d_at(alpha)
    d2 = d_at(alpha / 2.0)
    best = (4.0 * d2 - d1) / 3.0
    spread = abs(d2 - d1)
    scale = 1.0 + abs(xi(state, list(histories)))
    if spread > NOISE_FLOOR * scale and spread > 0.25 * abs(best):
        raise NumericalNoise(
            f"central-difference pair disagrees: {d1:.6e} vs {d2:.6e} "
            f"(spread {spread:.3e})")
    return best
