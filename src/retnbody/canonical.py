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
other self-consistent orientation; residual checks accept either via the
`orientation` argument so both conventions are covered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ExternalFieldModel
from .minkowski import ETA, dots, lower, raise_index
from .retardation import _add_potentials, _plan_roots, _root_plan
from .worldline import HARD_TOL, ConstraintViolation, WorldlineSample, gather

FD_STEP = 1e-6
# absolute spread below which the Richardson pair of a Gateaux bracket
# is accepted whatever its relative disagreement
NOISE_FLOOR = 1e-9

_IDX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GradientUnavailable(Exception):
    """Raised when a phase function has no analytic gradient and finite
    differencing is disallowed or fails."""


class ContextMismatch(Exception):
    """Raised when a constrained evaluation is handed a context that does
    not match (particle count, or a non-vanishing external potential)."""


class NumericalNoise(Exception):
    """Raised when the Richardson pair of a Gateaux bracket disagrees by
    more than the stability budget."""


# -- canonical state ---------------------------------------------------------

@dataclass(frozen=True)
class CanonicalState:
    """Super-abundant N-body state: r (N,4) contravariant, P (N,4) covariant."""

    r: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.r, dtype=np.float64))
        P = np.atleast_2d(np.asarray(self.P, dtype=np.float64))
        if r.shape != P.shape or r.shape[1] != 4:
            raise ValueError(f"state needs matching (N,4) blocks, got {r.shape} / {P.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(P))):
            raise ValueError("state components must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def replace(self, r=None, P=None) -> "CanonicalState":
        return CanonicalState(self.r if r is None else r,
                              self.P if P is None else P)


# -- phase functions and the bracket engine ---------------------------------

@dataclass
class PhaseFunction:
    """Scalar function of the canonical state with an optional analytic
    gradient returning (dF/dr, dF/dP), each of shape (N,4)."""

    evaluator: object
    gradient: object | None = None
    name: str = ""
    fd_ok: bool = True
    fd_step: float = FD_STEP

    def value(self, x: CanonicalState) -> float:
        return float(self.evaluator(x))

    def gradient_at(self, x: CanonicalState):
        if self.gradient is not None:
            gr, gP = self.gradient(x)
            return np.asarray(gr, dtype=np.float64), np.asarray(gP, dtype=np.float64)
        if not self.fd_ok:
            raise GradientUnavailable(
                f"phase function {self.name or '<anonymous>'} has no gradient")
        try:
            return _fd_gradient(self.evaluator, x, self.fd_step)
        except Exception as exc:  # evaluator failed on a probe state
            raise GradientUnavailable(
                f"finite differencing failed for {self.name or '<anonymous>'}: {exc}"
            ) from exc

    def gradient_selftest(self, x: CanonicalState, rtol: float = 1e-6) -> float:
        """Max relative deviation of the analytic gradient from central FD."""
        if self.gradient is None:
            return 0.0
        gr_a, gP_a = self.gradient(x)
        gr_f, gP_f = _fd_gradient(self.evaluator, x, self.fd_step)
        scale = 1.0 + max(np.max(np.abs(gr_a)), np.max(np.abs(gP_a)))
        dev = max(np.max(np.abs(gr_a - gr_f)), np.max(np.abs(gP_a - gP_f))) / scale
        if dev > rtol:
            raise GradientUnavailable(
                f"analytic gradient of {self.name or '<anonymous>'} deviates "
                f"from finite differences by {dev:.3e} (> {rtol:.1e})")
        return dev

    def __mul__(self, other: "PhaseFunction") -> "PhaseFunction":
        grad = None
        if self.gradient is not None and other.gradient is not None:
            def grad(x, a=self, b=other):
                ga_r, ga_P = a.gradient(x)
                gb_r, gb_P = b.gradient(x)
                va, vb = a.value(x), b.value(x)
                return ga_r * vb + gb_r * va, ga_P * vb + gb_P * va
        return PhaseFunction(lambda x: self.value(x) * other.value(x), grad,
                             name=f"({self.name})*({other.name})")

    def combine(self, ca: float, other: "PhaseFunction", cb: float) -> "PhaseFunction":
        grad = None
        if self.gradient is not None and other.gradient is not None:
            def grad(x, a=self, b=other):
                ga_r, ga_P = a.gradient(x)
                gb_r, gb_P = b.gradient(x)
                return ca * ga_r + cb * gb_r, ca * ga_P + cb * gb_P
        return PhaseFunction(lambda x: ca * self.value(x) + cb * other.value(x),
                             grad, name=f"{ca}*({self.name})+{cb}*({other.name})")


def _fd_gradient(fn, x: CanonicalState, step: float):
    gr = np.zeros_like(x.r)
    gP = np.zeros_like(x.P)
    for block, out in ((x.r, gr), (x.P, gP)):
        for i in range(x.n):
            for mu in range(4):
                h = step * (1.0 + abs(block[i, mu]))
                plus = block.copy()
                minus = block.copy()
                plus[i, mu] += h
                minus[i, mu] -= h
                if block is x.r:
                    fp = fn(x.replace(r=plus))
                    fm = fn(x.replace(r=minus))
                else:
                    fp = fn(x.replace(P=plus))
                    fm = fn(x.replace(P=minus))
                out[i, mu] = (fp - fm) / (2.0 * h)
    return gr, gP


def poisson_bracket(eta_fn: PhaseFunction, xi_fn: PhaseFunction,
                    x: CanonicalState) -> float:
    """Local bracket over the unconstrained state."""
    er, eP = eta_fn.gradient_at(x)
    xr, xP = xi_fn.gradient_at(x)
    return float(np.sum(er * xP) - np.sum(eP * xr))


def check_bracket_algebra(x: CanonicalState, triples) -> dict:
    """Max residuals of antisymmetry, linearity, Leibniz and Jacobi over
    the supplied (eta, xi, zeta) triples."""
    rep = {"antisymmetry": 0.0, "linearity": 0.0, "leibniz": 0.0, "jacobi": 0.0}
    for eta_fn, xi_fn, zeta_fn in triples:
        b_ex = poisson_bracket(eta_fn, xi_fn, x)
        rep["antisymmetry"] = max(rep["antisymmetry"],
                                  abs(b_ex + poisson_bracket(xi_fn, eta_fn, x)))
        comb = eta_fn.combine(2.0, xi_fn, -3.0)
        lin = (poisson_bracket(comb, zeta_fn, x)
               - 2.0 * poisson_bracket(eta_fn, zeta_fn, x)
               + 3.0 * poisson_bracket(xi_fn, zeta_fn, x))
        rep["linearity"] = max(rep["linearity"], abs(lin))
        prod = eta_fn * xi_fn
        leib = (poisson_bracket(prod, zeta_fn, x)
                - eta_fn.value(x) * poisson_bracket(xi_fn, zeta_fn, x)
                - poisson_bracket(eta_fn, zeta_fn, x) * xi_fn.value(x))
        rep["leibniz"] = max(rep["leibniz"], abs(leib))

        # brackets of the Poincare generators are at most quadratic in the
        # state, so central differences carry no truncation error and a
        # wide step keeps the 1/h round-off well below the Jacobi threshold
        def inner(a, b):
            return PhaseFunction(lambda y, a=a, b=b: poisson_bracket(a, b, y),
                                 fd_step=1e-3, name=f"[{a.name},{b.name}]")

        jac = (poisson_bracket(inner(eta_fn, xi_fn), zeta_fn, x)
               + poisson_bracket(inner(xi_fn, zeta_fn), eta_fn, x)
               + poisson_bracket(inner(zeta_fn, eta_fn), xi_fn, x))
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

    The snapshot copies every history and appends one node to the copy:
    a short inertial continuation past the capture time, so that
    finite-difference probes of the observation event stay inside the
    queryable range; the margin sits far below every delay root, so no
    field or potential kernel ever interpolates inside it. Nodes appended
    to a history later stay invisible to the snapshot.
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
        frozen = []
        for h in base:
            if h.t_latest < t_ref:
                raise ValueError(
                    f"history {h.spec.label!r} ends at {h.t_latest} before "
                    f"capture time {t_ref}")
            last = h.state_at_time(h.t_latest)
            g = last.u[0]
            dt_ext = (h.t_latest + margin) - h.t_latest
            r_ext = last.r + (h.c / g) * last.u * dt_ext
            r_ext[0] = h.c * (last.t + dt_ext)
            snap = h.copy()
            snap.append(WorldlineSample(t=last.t + dt_ext, s=last.s + (h.c / g) * dt_ext,
                                        r=r_ext, u=last.u, a=np.zeros(4)))
            frozen.append(snap)
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

    Each observer adds, one term at a time, the external potential, its
    doubled self term and each charged companion's sigma_i and sigma_j
    terms; q = 0 adds nothing. The batch holds one root per cone: 2N - 1
    per observer among N charged particles of distinct radii, and an
    equal-radius pair's one root enters the sum twice.
    """
    hs = tuple(histories)
    events = np.asarray(events, dtype=np.float64).reshape(-1, 4)
    plan = _root_plan(tuple(h.spec for h in hs), tuple(int(i) for i in observers),
                      potentials=True)
    A = np.array([external.potential(e) for e in events], dtype=np.float64).reshape(-1, 4)
    if not plan.src.size:
        return A
    return _add_potentials(A, plan, _plan_roots(hs, plan, events))


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
    """H_N as a local phase function over the frozen snapshot (FD gradient)."""
    return PhaseFunction(lambda x: system_hamiltonian(x, ctx), name="H_N")


# -- Poincare generators over the unconstrained state ------------------------

def _p_hat(mu: int) -> PhaseFunction:
    def ev(x, mu=mu):
        return float(np.sum(x.P[:, mu]))

    def grad(x, mu=mu):
        gr = np.zeros_like(x.r)
        gP = np.zeros_like(x.P)
        gP[:, mu] = 1.0
        return gr, gP

    return PhaseFunction(ev, grad, name=f"p_{mu}")


def _m_hat(mu: int, nu: int) -> PhaseFunction:
    def ev(x, mu=mu, nu=nu):
        r_low = x.r @ ETA
        return float(np.sum(r_low[:, mu] * x.P[:, nu] - r_low[:, nu] * x.P[:, mu]))

    def grad(x, mu=mu, nu=nu):
        r_low = x.r @ ETA
        gr = np.zeros_like(x.r)
        gP = np.zeros_like(x.P)
        gr += np.outer(x.P[:, nu], ETA[mu]) - np.outer(x.P[:, mu], ETA[nu])
        gP[:, nu] += r_low[:, mu]
        gP[:, mu] -= r_low[:, nu]
        return gr, gP

    return PhaseFunction(ev, grad, name=f"M_{mu}{nu}")


class GeneratorSet:
    """Poincare generators: four translations and six antisymmetric pairs,
    each a sum over however many particles the state holds."""

    def __init__(self):
        self.p_hat = tuple(_p_hat(mu) for mu in range(4))
        self.M_pairs = {(mu, nu): _m_hat(mu, nu) for mu, nu in _IDX_PAIRS}

    def M(self, mu: int, nu: int) -> PhaseFunction:
        if mu == nu:
            return PhaseFunction(lambda x: 0.0,
                                 lambda x: (np.zeros_like(x.r), np.zeros_like(x.P)),
                                 name="0")
        if (mu, nu) in self.M_pairs:
            return self.M_pairs[(mu, nu)]
        base = self.M_pairs[(nu, mu)]
        return base.combine(-1.0, base, 0.0)

    def translation(self, a_cov) -> PhaseFunction:
        """F = -p^mu a_mu; generates r -> r - a (raised), P unchanged."""
        a_up = raise_index(np.asarray(a_cov, dtype=np.float64))

        def ev(x):
            return -float(np.sum(x.P @ a_up))

        def grad(x):
            gr = np.zeros_like(x.r)
            gP = np.tile(-a_up, (x.n, 1))
            return gr, gP

        return PhaseFunction(ev, grad, name="F_translation")

    def boost(self, b_upper) -> PhaseFunction:
        """F = 1/2 b^{alpha beta} M_{alpha beta}, b antisymmetric.

        The antisymmetrized sum collapses to F = sum_i r_alpha b^{ab} P_b,
        which is what gets evaluated.
        """
        b = np.asarray(b_upper, dtype=np.float64)
        if np.max(np.abs(b + b.T)) > 1e-12 * (1.0 + np.max(np.abs(b))):
            raise ValueError("boost parameter matrix must be antisymmetric")
        etab = ETA @ b

        def ev(x):
            return float(np.sum((x.r @ etab) * x.P))

        def grad(x):
            gr = x.P @ etab.T
            gP = x.r @ etab
            return gr, gP

        return PhaseFunction(ev, grad, name="F_boost")


def lorentz_condition_residuals(state: CanonicalState,
                                gens: GeneratorSet | None = None,
                                flip: bool = False) -> dict:
    """Max residuals of the Poincare closure relations at one state.

    With flip=False the relations are checked on {p, M} with the closure
    signs fixed by [r^mu, P_nu] = +delta (module docstring). flip=True
    checks the same conditions on the relabeled realization {p, -M} with
    the opposite global closure sign; both orientations are identities and
    must give residuals at roundoff.
    """
    if gens is None:
        gens = GeneratorSet()
    s = -1.0 if flip else 1.0
    rep = {"pp": 0.0, "Mp": 0.0, "MM": 0.0}
    p_vals = [g.value(state) for g in gens.p_hat]

    def m_val(mu, nu):
        # value of the realization's M (s * implemented M), antisymmetric
        if mu == nu:
            return 0.0
        if (mu, nu) in gens.M_pairs:
            return s * gens.M_pairs[(mu, nu)].value(state)
        return -s * gens.M_pairs[(nu, mu)].value(state)

    for mu in range(4):
        for nu in range(4):
            val = poisson_bracket(gens.p_hat[mu], gens.p_hat[nu], state)
            rep["pp"] = max(rep["pp"], abs(val))
    for (mu, nu) in _IDX_PAIRS:
        Mf = gens.M_pairs[(mu, nu)]
        for al in range(4):
            # [sM, p] against the s-signed closure in p
            lhs = s * poisson_bracket(Mf, gens.p_hat[al], state)
            rhs = s * (ETA[mu, al] * p_vals[nu] - ETA[nu, al] * p_vals[mu])
            rep["Mp"] = max(rep["Mp"], abs(lhs - rhs))
    for (mu, nu) in _IDX_PAIRS:
        for (al, be) in _IDX_PAIRS:
            # [sM, sM] against s * (closure in sM)
            lhs = s * s * poisson_bracket(gens.M_pairs[(mu, nu)],
                                          gens.M_pairs[(al, be)], state)
            rhs = s * (ETA[mu, al] * m_val(nu, be) - ETA[nu, al] * m_val(mu, be)
                       + ETA[nu, be] * m_val(mu, al) - ETA[mu, be] * m_val(nu, al))
            rep["MM"] = max(rep["MM"], abs(lhs - rhs))
    return rep


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


def _observer_event(ctx: FrozenHistoryContext, x3) -> np.ndarray:
    return np.concatenate(([ctx.c * ctx.t_ref], np.asarray(x3, dtype=np.float64)))


def _p0_term(ctx: FrozenHistoryContext, i: int, x3, P3) -> float:
    spec = ctx.specs[i]
    A = ctx.a_eff_cov(i, _observer_event(ctx, x3))
    pi3 = np.asarray(P3, dtype=np.float64) - (spec.q / ctx.c) * A[1:]
    root = math.sqrt(spec.m0 ** 2 * ctx.c ** 2 + float(pi3 @ pi3))
    return root + (spec.q / ctx.c) * A[0]


def _dp0_dx(ctx: FrozenHistoryContext, i: int, x3, P3, l: int,
            fd_step: float) -> float:
    """Central difference of particle i's p0 term in its position x^l."""
    h = fd_step * (1.0 + abs(x3[l]))
    xp_p = x3.copy()
    xp_m = x3.copy()
    xp_p[l] += h
    xp_m[l] -= h
    return (_p0_term(ctx, i, xp_p, P3) - _p0_term(ctx, i, xp_m, P3)) / (2.0 * h)


def instant_form_constrained(xp: ConstrainedState,
                             ctx: FrozenHistoryContext,
                             fd_step: float = FD_STEP) -> dict:
    """Instant-form generator values and the non-commutation probes.

    Returns a dict with the generator values (p0, p_l, M_lm, N_l0) and the
    bracket probes comm_p0_pl[l] = [p0|x', p_l] = sum_i d p0 / d r^(i)l,
    evaluated by central differences against the frozen snapshot (only the
    explicit observer-position dependence of A_eff is differentiated).
    Requires an isolated context (no external potential).
    """
    if ctx.external.variant != "none":
        raise ContextMismatch(
            "instant-form generators are defined for the isolated case; "
            f"context carries external variant {ctx.external.variant!r}")
    if xp.n != ctx.n:
        raise ContextMismatch(
            f"state has {xp.n} particles but context has {ctx.n}")

    terms = [_p0_term(ctx, i, xp.x[i], xp.P[i]) for i in range(xp.n)]
    p0 = sum(terms)
    p_l = xp.P.sum(axis=0)
    # covariant spatial positions r_l = -x^l
    x_low = -xp.x
    M_lm = {}
    for (l, m) in ((1, 2), (1, 3), (2, 3)):
        M_lm[(l, m)] = float(np.sum(x_low[:, l - 1] * xp.P[:, m - 1]
                                    - x_low[:, m - 1] * xp.P[:, l - 1]))
    N_l0 = np.array([sum(x_low[i, l] * terms[i] for i in range(xp.n))
                     for l in range(3)])

    comm = np.array([sum(_dp0_dx(ctx, i, xp.x[i], xp.P[i], l, fd_step)
                         for i in range(xp.n)) for l in range(3)])
    return {"p0": p0, "p_l": p_l, "M_lm": M_lm, "N_l0": N_l0,
            "comm_p0_pl": comm}


def instant_form_increments(xp: ConstrainedState, ctx: FrozenHistoryContext,
                            dt: float, fd_step: float = FD_STEP):
    """Coordinate-time increments generated by the constrained p0.

    The evolution generator under the bracket [r^l, P_m] = +delta_lm is
    G = -c dt p0|x'; dr^l comes out analytically, dP_l by the same
    finite differences the non-commutation probe uses. Returns (dr, dP),
    both (N,3).
    """
    dr = np.zeros_like(xp.x)
    dP = np.zeros_like(xp.P)
    for i in range(xp.n):
        spec = ctx.specs[i]
        A = ctx.a_eff_cov(i, _observer_event(ctx, xp.x[i]))
        pi3 = xp.P[i] - (spec.q / ctx.c) * A[1:]
        root = math.sqrt(spec.m0 ** 2 * ctx.c ** 2 + float(pi3 @ pi3))
        # d p0 / d P_l = pi_l / root; dr^l = -c dt (pi_l / root)
        dr[i] = -ctx.c * dt * pi3 / root
        for l in range(3):
            dP[i, l] = ctx.c * dt * _dp0_dx(ctx, i, xp.x[i], xp.P[i], l, fd_step)
    return dr, dP


# -- non-local (Gateaux) brackets ---------------------------------------------

def _expm_small(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by plain Taylor series; ample for ||A|| << 1."""
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 40):
        term = term @ A / k
        out = out + term
        if np.max(np.abs(term)) < 1e-18 * (1.0 + np.max(np.abs(out))):
            break
    return out


class TranslationVariation:
    """delta0 r^mu = d^mu constant on every slot and every history sample."""

    def __init__(self, d4):
        self.d = np.asarray(d4, dtype=np.float64)

    def apply(self, state: CanonicalState, histories, alpha: float):
        shift = alpha * self.d
        new_state = state.replace(r=state.r + shift)
        new_hist = [h.transformed(np.eye(4), shift) for h in histories]
        return new_state, new_hist

    @classmethod
    def from_generator(cls, a_cov):
        # F = -p^mu a_mu gives [r^mu, F] = -a^mu
        return cls(-raise_index(np.asarray(a_cov, dtype=np.float64)))


class LorentzVariation:
    """Exact one-parameter Lorentz orbit with tangent omega at alpha = 0.

    omega is the mixed generator (omega^mu_nu); positions, velocities and
    accelerations transform with expm(alpha omega), covariant momenta with
    expm(-alpha omega^T). Using the exact orbit keeps u.u and proper-time
    labels invariant for every alpha, so the central differences probe the
    group direction without constraint-violation noise.
    """

    def __init__(self, omega_mixed):
        self.omega = np.asarray(omega_mixed, dtype=np.float64)

    @classmethod
    def from_boost_parameter(cls, b_upper):
        # F = 1/2 b^{ab} M_{ab} gives delta0 r = -(b eta) r
        b = np.asarray(b_upper, dtype=np.float64)
        return cls(-(b @ ETA))

    def apply(self, state: CanonicalState, histories, alpha: float):
        lam = _expm_small(alpha * self.omega)
        lam_p = _expm_small(-alpha * self.omega.T)
        new_state = CanonicalState(state.r @ lam.T, state.P @ lam_p.T)
        new_hist = [h.transformed(lam, 0.0) for h in histories]
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
