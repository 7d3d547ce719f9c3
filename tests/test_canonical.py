import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retnbody.canonical import (
    CanonicalState,
    ConstrainedState,
    ContextMismatch,
    FrozenHistoryContext,
    GeneratorSet,
    NumericalNoise,
    PhaseFunction,
    TranslationVariation,
    _potentials_and_gradients,
    bracket_matrix,
    check_bracket_algebra,
    effective_hamiltonian,
    effective_momentum,
    effective_potentials,
    hamiltonian_phase_function,
    instant_form_constrained,
    instant_form_increments,
    lorentz_condition_residuals,
    nonlocal_bracket,
    poisson_bracket,
    state_from_histories,
    system_hamiltonian,
)
from retnbody import retardation as ret
from retnbody import dynamics, harness
from retnbody.fields import ExternalFieldModel
from retnbody.minkowski import ETA, dot, lower, raise_index
from retnbody.worldline import (
    ConstraintViolation,
    ParticleSpec,
    copy_histories,
    history_from_kinematics,
    inertial_history,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def coord_fn(block: str, i: int, mu: int) -> PhaseFunction:
    def ev(x):
        return getattr(x, block)[..., i, mu]

    def grad(x):
        gr = np.zeros_like(x.r)
        gP = np.zeros_like(x.P)
        (gr if block == "r" else gP)[..., i, mu] = 1.0
        return gr, gP

    return PhaseFunction(ev, grad)


def random_state(rng, n: int) -> CanonicalState:
    return CanonicalState(rng.normal(0.0, 2.0, (n, 4)),
                          rng.normal(0.0, 1.5, (n, 4)))


def boost_generator(b_upper) -> PhaseFunction:
    """F = 1/2 b^{alpha beta} M_{alpha beta}, b antisymmetric.

    The antisymmetrized sum collapses to F = sum_i r_alpha b^{ab} P_b,
    which is what gets evaluated.
    """
    b = np.asarray(b_upper, dtype=np.float64)
    if np.max(np.abs(b + b.T)) > 1e-12 * (1.0 + np.max(np.abs(b))):
        raise ValueError("boost parameter matrix must be antisymmetric")
    etab = ETA @ b

    def ev(x):
        return np.sum((x.r @ etab) * x.P, axis=(-2, -1))

    def grad(x):
        gr = x.P @ etab.T
        gP = x.r @ etab
        return gr, gP

    return PhaseFunction(ev, grad)


# step of the central differences the analytic gradients are checked against
FD_STEP = 1e-6


def _fd_gradient(fn, x: CanonicalState, step: float):
    """Central differences (dF/dr, dF/dP) of a scalar phase function over
    the 8N slots of a state, or of each state of a stack, each of the
    state's shape: element by element (fp - fm) / (2 h), with
    h = step (1 + |slot|)."""
    out = []
    for block, at in ((x.r, lambda b: x.replace(r=b)), (x.P, lambda b: x.replace(P=b))):
        grad = np.zeros_like(block)
        for i in range(x.n):
            for mu in range(4):
                h = step * (1.0 + np.abs(block[..., i, mu]))
                plus = block.copy()
                minus = block.copy()
                plus[..., i, mu] += h
                minus[..., i, mu] -= h
                fp, fm = np.asarray(fn(at(plus))), np.asarray(fn(at(minus)))
                grad[..., i, mu] = (fp - fm) / (2.0 * h)
        out.append(grad)
    return tuple(out)


def gradient_selftest(f: PhaseFunction, x: CanonicalState, rtol: float = 1e-6) -> float:
    """Max relative deviation of f's analytic gradient from central FD."""
    gr_a, gP_a = f.gradient(x)
    gr_f, gP_f = _fd_gradient(f.evaluator, x, FD_STEP)
    scale = 1.0 + max(np.max(np.abs(gr_a)), np.max(np.abs(gP_a)))
    dev = max(np.max(np.abs(gr_a - gr_f)), np.max(np.abs(gP_a - gP_f))) / scale
    assert dev <= rtol, (f"analytic gradient deviates from finite differences "
                         f"by {dev:.3e} (> {rtol:.1e})")
    return dev


def line_potential(h, observer_event, sigma):
    """The resolved potential of the one root of h at observer_event."""
    return ret.line_potentials(ret.solve_delays((h,), 0, observer_event, sigma), h.spec.q)[0]


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


class LorentzVariation:
    """Exact one-parameter Lorentz orbit with tangent omega at alpha = 0,
    a variation for nonlocal_bracket.

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


def wiggling_pair(q1: float, q2: float, t_end: float = 1.0, c: float = 1.0):
    """Two accelerated worldlines with distinct masses, radii and phases,
    in one store."""
    spec1 = ParticleSpec(m0=1.0, q=q1, sigma=0.4, label="a")
    spec2 = ParticleSpec(m0=1.5, q=q2, sigma=0.6, label="b")

    def make(x_off, amp, om, ph, spec):
        def x_fn(t):
            return np.array([x_off + amp * math.sin(om * (t + ph)),
                             0.1 * math.sin(0.3 * (t + ph)), 0.0])

        def v_fn(t):
            return np.array([amp * om * math.cos(om * (t + ph)),
                             0.03 * math.cos(0.3 * (t + ph)), 0.0])

        def a_fn(t):
            return np.array([-amp * om * om * math.sin(om * (t + ph)),
                             -0.009 * math.sin(0.3 * (t + ph)), 0.0])

        nodes = np.linspace(-40.0, t_end, 1600)
        return history_from_kinematics(spec, nodes, x_fn, v_fn, a_fn, c=c)

    return tuple(copy_histories([make(-1.1, 0.25, 0.6, 0.4, spec1),
                                 make(+1.1, 0.20, 0.5, 1.3, spec2)]))


# -- fundamental brackets and algebra ----------------------------------------


def test_fundamental_brackets():
    rng = np.random.default_rng(7)
    x = random_state(rng, 3)
    for i in range(3):
        for j in range(3):
            for mu in range(4):
                for nu in range(4):
                    want = 1.0 if (i == j and mu == nu) else 0.0
                    got = poisson_bracket(coord_fn("r", i, mu),
                                          coord_fn("P", j, nu), x)
                    assert abs(got - want) < 1e-14
                    assert abs(poisson_bracket(coord_fn("r", i, mu),
                                               coord_fn("r", j, nu), x)) < 1e-14
                    assert abs(poisson_bracket(coord_fn("P", i, mu),
                                               coord_fn("P", j, nu), x)) < 1e-14


def test_bracket_algebra_properties_polynomial():
    rng = np.random.default_rng(11)
    x = random_state(rng, 2)
    gens = GeneratorSet()
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 0.3, -0.3
    triples = [
        (gens.p_hat[0], gens.M_pairs[(0, 1)], gens.M_pairs[(1, 2)]),
        (gens.M_pairs[(0, 1)], gens.M_pairs[(0, 2)], gens.p_hat[1]),
        (gens.p_hat[2], boost_generator(b), gens.translation([0.5, -1.0, 0.2, 0.0])),
    ]
    rep = check_bracket_algebra(x, triples)
    for key in ("antisymmetry", "linearity", "leibniz", "jacobi"):
        assert rep[key] < 1e-10, (key, rep)


def test_generator_gradients_match_fd():
    rng = np.random.default_rng(3)
    x = random_state(rng, 2)
    gens = GeneratorSet()
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = -0.7, 0.7
    funcs = list(gens.p_hat) + list(gens.M_pairs.values())
    funcs += [boost_generator(b), gens.translation([1.0, 0.3, -0.4, 0.9])]
    for f in funcs:
        assert gradient_selftest(f, x) < 1e-6


def test_lorentz_conditions_both_orientations():
    # the {p, -M} orientation states the same equations (module docstring),
    # so one check covers both
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(8):
            x = random_state(rng, n)
            rep = lorentz_condition_residuals(x)
            assert max(rep.values()) < 1e-11, rep


def test_lorentz_residuals_match_the_bracket_by_bracket_loop():
    # the one-matrix evaluation against one poisson_bracket per relation
    rng = np.random.default_rng(29)
    gens = GeneratorSet()
    p = gens.p_hat
    for n in (1, 2, 3, 5):
        x = random_state(rng, n)
        pv = [f.value(x) for f in p]

        def m(mu, nu):
            return 0.0 if mu == nu else gens.M(mu, nu).value(x)

        want = {"pp": max(abs(poisson_bracket(a, b, x)) for a in p for b in p)}
        want["Mp"] = max(abs(poisson_bracket(gens.M_pairs[k], p[al], x)
                             - (ETA[k[0], al] * pv[k[1]] - ETA[k[1], al] * pv[k[0]]))
                         for k in gens.M_pairs for al in range(4))
        want["MM"] = max(abs(poisson_bracket(gens.M_pairs[(mu, nu)], gens.M_pairs[(al, be)], x)
                             - (ETA[mu, al] * m(nu, be) - ETA[nu, al] * m(mu, be)
                                + ETA[nu, be] * m(mu, al) - ETA[mu, be] * m(nu, al)))
                         for mu, nu in gens.M_pairs for al, be in gens.M_pairs)
        assert lorentz_condition_residuals(x, gens) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_bracket_matrix_elements_are_single_brackets_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    x = random_state(rng, n)
    gens = GeneratorSet()
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 0.3, -0.3
    b[1, 3], b[3, 1] = -0.8, 0.8

    def ev(y):
        return np.sum(y.r[..., 1] * y.P[..., 0] ** 2, axis=-1)

    fd = PhaseFunction(ev, lambda y: _fd_gradient(ev, y, FD_STEP))
    etas = [gens.p_hat[0], gens.M_pairs[(0, 1)], coord_fn("r", n - 1, 2),
            gens.translation([0.4, -0.2, 0.7, 0.1]), fd, gens.M(3, 1)]
    xis = [coord_fn("P", 0, 1), boost_generator(b), gens.p_hat[3], fd,
           gens.M_pairs[(1, 2)], coord_fn("r", 0, 0), gens.translation([1.0, 0.0, 0.3, -0.5])]
    got = bracket_matrix(etas, xis, x)
    assert got.shape == (len(etas), len(xis))
    for a, eta in enumerate(etas):
        er, eP = eta.gradient_at(x)
        for b_, xi in enumerate(xis):
            xr, xP = xi.gradient_at(x)
            assert got[a, b_] == np.sum(er * xP) - np.sum(eP * xr)
            assert got[a, b_] == poisson_bracket(eta, xi, x)


def scalar_bracket_algebra(x, triples):
    """Reference: every bracket a scalar poisson_bracket call, each Jacobi
    inner bracket differentiated on its own, slot by slot."""
    def fd_gradient(fn, y, step=1e-3):
        gr, gP = np.zeros_like(y.r), np.zeros_like(y.P)
        for block, out in ((y.r, gr), (y.P, gP)):
            for i in range(y.n):
                for mu in range(4):
                    h = step * (1.0 + abs(block[i, mu]))
                    plus, minus = block.copy(), block.copy()
                    plus[i, mu] += h
                    minus[i, mu] -= h
                    if block is y.r:
                        fp, fm = fn(y.replace(r=plus)), fn(y.replace(r=minus))
                    else:
                        fp, fm = fn(y.replace(P=plus)), fn(y.replace(P=minus))
                    out[i, mu] = (fp - fm) / (2.0 * h)
        return gr, gP

    def inner(a, b):
        def ev(y):
            return poisson_bracket(a, b, y)

        return PhaseFunction(ev, lambda y: fd_gradient(ev, y))

    rep = {"antisymmetry": 0.0, "linearity": 0.0, "leibniz": 0.0, "jacobi": 0.0}
    for eta, xi, zeta in triples:
        rep["antisymmetry"] = max(rep["antisymmetry"], abs(
            poisson_bracket(eta, xi, x) + poisson_bracket(xi, eta, x)))
        lin = (poisson_bracket(eta.combine(2.0, xi, -3.0), zeta, x)
               - 2.0 * poisson_bracket(eta, zeta, x) + 3.0 * poisson_bracket(xi, zeta, x))
        rep["linearity"] = max(rep["linearity"], abs(lin))
        leib = (poisson_bracket(eta * xi, zeta, x)
                - eta.value(x) * poisson_bracket(xi, zeta, x)
                - poisson_bracket(eta, zeta, x) * xi.value(x))
        rep["leibniz"] = max(rep["leibniz"], abs(leib))
        jac = (poisson_bracket(inner(eta, xi), zeta, x)
               + poisson_bracket(inner(xi, zeta), eta, x)
               + poisson_bracket(inner(zeta, eta), xi, x))
        rep["jacobi"] = max(rep["jacobi"], abs(jac))
    return rep


@pytest.mark.parametrize("n", range(1, 8))
def test_bracket_algebra_matches_the_scalar_loop_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    gens = GeneratorSet()
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 0.6, -0.6
    b[2, 3], b[3, 2] = -0.4, 0.4

    def ev(y):
        return np.sum(y.r[..., 2] * y.P[..., 1], axis=-1)

    fd = PhaseFunction(ev, lambda y: _fd_gradient(ev, y, FD_STEP))
    triples = [
        (gens.p_hat[0], gens.M(0, 1), gens.M(1, 2)),
        (gens.M(0, 1), gens.M(0, 2), gens.p_hat[2]),
        (boost_generator(b), gens.translation([0.3, -0.7, 0.2, 0.5]), gens.M(3, 1)),
        (fd, gens.M(3, 1), gens.p_hat[1]),
        (coord_fn("r", n - 1, 3), coord_fn("P", 0, 2), boost_generator(b)),
    ]
    x = random_state(rng, n)
    got = check_bracket_algebra(x, triples)
    assert got == scalar_bracket_algebra(x, triples)
    assert all(type(v) is float for v in got.values())


def test_jacobi_detects_a_field_that_is_not_a_gradient():
    # dF/dP_0 of particle 0 equals r^1 of particle 0, but dF/dr^1 is zero:
    # the "gradient" is not closed, so its bracket breaks Jacobi while
    # staying exactly antisymmetric
    def grad(y):
        gP = np.zeros_like(y.P)
        gP[..., 0, 0] = y.r[..., 0, 1]
        return np.zeros_like(y.r), gP

    bad = PhaseFunction(lambda y: np.zeros(y.r.shape[:-2]), grad)
    gens = GeneratorSet()
    rng = np.random.default_rng(37)
    x = random_state(rng, 2)
    rep = check_bracket_algebra(x, [(bad, coord_fn("P", 0, 1), coord_fn("r", 0, 0))])
    assert rep["antisymmetry"] == 0.0
    assert rep["jacobi"] > 1e-3, rep
    # the same check on a true gradient stays at round-off
    good = check_bracket_algebra(x, [(gens.M(0, 1), coord_fn("P", 0, 1), coord_fn("r", 0, 0))])
    assert good["jacobi"] < 1e-10, good


def test_M_names_an_index_pair_it_cannot_build():
    gens = GeneratorSet()
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        gens.M(0, 0)
    with pytest.raises(ValueError, match=r"\(4, 1\)"):
        gens.M(4, 1)
    with pytest.raises(ValueError, match=r"\(-1, 2\)"):
        gens.M(-1, 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_a_stack_of_states_gives_each_state_its_single_state_bits(n):
    rng = np.random.default_rng(300 + n)
    gens = GeneratorSet()
    b = np.zeros((4, 4))
    b[0, 3], b[3, 0] = 0.5, -0.5
    b[1, 2], b[2, 1] = -0.9, 0.9

    def ev(y):
        return np.sum(y.r[..., 3] * y.P[..., 2] ** 2, axis=-1)

    fd = PhaseFunction(ev, lambda y: _fd_gradient(ev, y, FD_STEP))
    fns = [*gens.p_hat, *gens.M_pairs.values(), gens.M(2, 0), gens.translation([0.4, -0.2, 0.7, 0.1]),
           boost_generator(b), coord_fn("P", n - 1, 1), fd]
    xs = CanonicalState(rng.normal(0.0, 2.0, (3, 2, n, 4)), rng.normal(0.0, 1.5, (3, 2, n, 4)))
    got = bracket_matrix(fns[:12], fns[5:], xs)
    assert got.shape == (3, 2, 12, len(fns) - 5)
    singles = [CanonicalState(xs.r[k], xs.P[k]) for k in np.ndindex(3, 2)]
    for k, x in zip(np.ndindex(3, 2), singles):
        assert got[k].tobytes() == bracket_matrix(fns[:12], fns[5:], x).tobytes()

    reps = [lorentz_condition_residuals(x, gens) for x in singles]
    assert lorentz_condition_residuals(xs, gens) == {k: max(r[k] for r in reps) for k in reps[0]}

    calls = []

    def counted(f):
        def grad(y):
            calls.append(f)
            return f.gradient(y)

        return PhaseFunction(f.evaluator, grad)

    wrapped = [counted(f) for f in fns]
    assert bracket_matrix(wrapped, wrapped, xs).tobytes() == bracket_matrix(fns, fns, xs).tobytes()
    assert len(calls) == len(fns)


@pytest.mark.parametrize("seed_value", [None, 143, 246, 286, 325, 332, 371])
def test_check_pb_rows_match_a_per_state_reference(tmp_path, seed_value):
    cfg = harness.load_config(os.path.join(CONFIG_DIR, "check_pb.yaml"))
    if seed_value is not None:
        cfg = replace(cfg, seed=seed_value)
    got = harness.cmd_check_pb(replace(cfg, output_dir=str(tmp_path)))["rows"]

    rng = np.random.default_rng(cfg.seed)
    n = max(2, len(cfg.particles))
    coords = [coord_fn(blk, i, mu) for blk in "rP" for i in range(n) for mu in range(4)]
    fund = 0.0
    for _ in range(20):
        x = harness._random_canonical_state(rng, n)
        for a, ca in enumerate(coords):
            for b_, cb in enumerate(coords):
                want = 1.0 if b_ - a == 4 * n else -1.0 if a - b_ == 4 * n else 0.0
                fund = max(fund, abs(poisson_bracket(ca, cb, x) - want))
    gens = GeneratorSet()
    reps = [lorentz_condition_residuals(harness._random_canonical_state(rng, n), gens)
            for _ in range(100)]
    triples = [(gens.p_hat[0], gens.M(0, 1), gens.M(1, 2)),
               (gens.M(0, 1), gens.M(0, 2), gens.p_hat[2]),
               (gens.p_hat[1], gens.p_hat[2], gens.M(2, 3))]
    algs = [scalar_bracket_algebra(harness._random_canonical_state(rng, n), triples)
            for _ in range(5)]
    want = [("fundamental_pb", fund, 1e-14, fund < 1e-14)]
    want += [(f"lorentz_condition_{k}", max(r[k] for r in reps), 1e-11,
              max(r[k] for r in reps) < 1e-11) for k in ("pp", "Mp", "MM")]
    want += [(f"bracket_{k}", max(r[k] for r in algs), 1e-10, max(r[k] for r in algs) < 1e-10)
             for k in ("antisymmetry", "linearity", "leibniz", "jacobi")]
    assert got == want


def test_a_stacked_draw_takes_the_normals_of_single_draws():
    one, many = np.random.default_rng(2024), np.random.default_rng(2024)
    xs = harness._random_canonical_state(many, 3, 100)
    singles = [harness._random_canonical_state(one, 3) for _ in range(100)]
    assert xs.r.shape == xs.P.shape == (100, 3, 4)
    assert xs.r.tobytes() == np.array([x.r for x in singles]).tobytes()
    assert xs.P.tobytes() == np.array([x.P for x in singles]).tobytes()
    assert many.bit_generator.state == one.bit_generator.state


def test_generated_increments_match_group_tangents():
    rng = np.random.default_rng(31)
    x = random_state(rng, 2)
    gens = GeneratorSet()

    a_cov = np.array([0.4, -0.2, 0.7, 0.1])
    Ft = gens.translation(a_cov)
    d = -raise_index(a_cov)
    for i in range(2):
        for mu in range(4):
            assert abs(poisson_bracket(coord_fn("r", i, mu), Ft, x) - d[mu]) < 1e-13
            assert abs(poisson_bracket(coord_fn("P", i, mu), Ft, x)) < 1e-13

    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 0.6, -0.6
    b[2, 3], b[3, 2] = -0.2, 0.2
    Fb = boost_generator(b)
    omega = -(b @ ETA)
    for i in range(2):
        want_r = omega @ x.r[i]
        want_P = -(omega.T @ x.P[i])
        for mu in range(4):
            assert abs(poisson_bracket(coord_fn("r", i, mu), Fb, x)
                       - want_r[mu]) < 1e-12
            assert abs(poisson_bracket(coord_fn("P", i, mu), Fb, x)
                       - want_P[mu]) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2 ** 31 - 1))
def test_lorentz_conditions_hypothesis(n, seed):
    x = random_state(np.random.default_rng(seed), n)
    rep = lorentz_condition_residuals(x)
    assert max(rep.values()) < 1e-11


# -- momenta and Hamiltonians -------------------------------------------------


def test_effective_momentum_roundtrip():
    spec = ParticleSpec(m0=1.3, q=0.8, sigma=0.5, label="p")
    u = np.array([1.25, 0.75, 0.0, 0.0])
    A = np.array([0.3, -0.1, 0.2, 0.0])
    P = effective_momentum(u, spec, A, c=2.0)
    expect = spec.m0 * 2.0 * lower(u) + (spec.q / 2.0) * A
    assert np.allclose(P, expect, atol=1e-15)
    with pytest.raises(ConstraintViolation):
        effective_momentum(np.array([1.0, 0.5, 0.0, 0.0]), spec, A)


def test_free_hamiltonian_values():
    spec = ParticleSpec(m0=2.0, q=0.0, sigma=1.0, label="n")
    h = inertial_history(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -20.0, 1.0, 40)
    ctx = FrozenHistoryContext([h], ExternalFieldModel.none(), t_ref=0.0)
    x = CanonicalState(np.array([[0.0, 0.0, 0.0, 0.0]]),
                       np.array([[2.0, 0.0, 0.0, 0.0]]))
    assert effective_hamiltonian(x, 0, ctx) == pytest.approx(1.0, abs=1e-15)
    on_shell = state_from_histories([h], 0.0, ctx)
    assert effective_hamiltonian(on_shell, 0, ctx) == pytest.approx(
        spec.m0 * 1.0 / 2.0, abs=1e-13)


def test_frozen_context_pins_its_histories():
    h1 = inertial_history(ParticleSpec(1.0, 0.6, 0.4, "a"), [-1.0, 0, 0],
                          [0.1, 0, 0], -30.0, 1.0, 64)
    h2 = inertial_history(ParticleSpec(1.0, -0.5, 0.3, "b"), [1.0, 0, 0],
                          [0, 0.2, 0], -30.0, 1.0, 64)
    ctx = FrozenHistoryContext([h1, h2], ExternalFieldModel.none(), t_ref=1.0)
    events = [np.array([1.0, -0.9, 0.0, 0.0]), np.array([1.0 + 1e-4, 1.0, 0.2, 0.0])]
    before = [ctx.a_eff_cov(i, r).tobytes() for i, r in enumerate(events)]
    tables = [h.table for h in ctx._histories]
    # nodes appended to a history after capture, inside the snapshot's
    # continuation segment, stay invisible to the context
    for h in (h1, h2):
        last = h.samples[-1]
        h.append(type(last)(t=last.t + 1e-4, s=last.s + 1e-4, r=last.r + [1e-4, 0.5, 0, 0],
                            u=np.array([1.0, 0, 0, 0]), a=np.array([0, 3.0, 0, 0])))
    assert [ctx.a_eff_cov(i, r).tobytes() for i, r in enumerate(events)] == before
    for h, table in zip(ctx._histories, tables):
        assert np.array_equal(h.table, table) and len(h) == 65


def test_static_pair_potential_closed_form():
    d = 2.0
    s1, s2 = 0.4, 0.7
    q1, q2 = 1.0, -0.6
    h1, h2 = copy_histories([
        inertial_history(ParticleSpec(1.0, q1, s1, "a"), [-d / 2, 0, 0], [0, 0, 0], -30.0, 1.0, 64),
        inertial_history(ParticleSpec(1.0, q2, s2, "b"), [+d / 2, 0, 0], [0, 0, 0], -30.0, 1.0, 64)])
    ctx = FrozenHistoryContext([h1, h2], ExternalFieldModel.none(), t_ref=0.0)
    r_obs = np.array([0.0, -d / 2, 0.0, 0.0])
    A = ctx.a_eff_cov(0, r_obs)
    want0 = (2.0 * q1 / s1
             + q2 / math.sqrt(d * d + s1 * s1)
             + q2 / math.sqrt(d * d + s2 * s2))
    assert A[0] == pytest.approx(want0, rel=1e-10)
    assert np.max(np.abs(A[1:])) < 1e-12

    on_shell = state_from_histories([h1, h2], 0.0, ctx)
    for i, spec in enumerate((h1.spec, h2.spec)):
        assert effective_hamiltonian(on_shell, i, ctx) == pytest.approx(
            spec.m0 / 2.0, abs=1e-12)
    assert system_hamiltonian(on_shell, ctx) == pytest.approx(
        (h1.spec.m0 + h2.spec.m0) / 2.0, abs=1e-12)


def test_equal_radius_pair_solves_one_root_per_pair(monkeypatch):
    hs = copy_histories(wiggling_pair(0.7, -0.5),
                        [ParticleSpec(1.0, 0.7, 0.5, "a"), ParticleSpec(1.5, -0.5, 0.5, "b")])
    ext = ExternalFieldModel.uniform(E=(0.1, 0.0, -0.2), B=(0.0, 0.3, 0.0))
    events = np.array([h.state_at_time(0.3).r for h in hs]) + [0.0, 0.05, -0.02, 0.01]
    # the sum as the two-cone rule states it, each term from its own
    # single-root solve: the doubled self term plus the companion's sigma_i
    # and sigma_j terms, which share one root and so enter as one doubled
    # term, added to zero and then to the external potential
    want = []
    for i, e in enumerate(events):
        terms = 0.0 + 2.0 * lower(line_potential(hs[i], e, hs[i].spec.sigma))
        terms = terms + 2.0 * lower(line_potential(hs[1 - i], e, hs[i].spec.sigma))
        want.append(ext.potential(e) + terms)
    roots = []

    def solve(histories, src, events, *args, **kwargs):
        roots.append(len(np.reshape(events, (-1, 4))))
        return real_solve(histories, src, events, *args, **kwargs)

    real_solve = ret._solve
    monkeypatch.setattr(ret, "_solve", solve)
    got = effective_potentials(hs, ext, range(2), events)
    # one batch: each self root and one root per ordered pair
    assert roots == [4]
    assert np.array_equal(got, np.array(want))


def test_external_potential_enters_a_eff():
    spec = ParticleSpec(1.0, 0.5, 0.3, "e")
    h = inertial_history(spec, [0.0, 0.0, 0.0], [0, 0, 0], -10.0, 1.0, 32)
    ext = ExternalFieldModel.uniform(E=(0.2, 0.0, 0.0))
    ctx_iso = FrozenHistoryContext([h], ExternalFieldModel.none(), t_ref=0.0)
    ctx_ext = FrozenHistoryContext([h], ext, t_ref=0.0)
    r = np.array([0.0, 0.7, -0.1, 0.4])
    diff = ctx_ext.a_eff_cov(0, r) - ctx_iso.a_eff_cov(0, r)
    assert np.allclose(diff, ext.potential(r), atol=1e-14)


CLOSED_FORM_EXTERNALS = [ExternalFieldModel.none(),
                         ExternalFieldModel.uniform(E=(0.1, 0.0, -0.2), B=(0.0, 0.3, 0.05))]


def _three_charge_context(ext):
    h3 = inertial_history(ParticleSpec(1.2, 0.6, 0.5, "c"), [0.3, 2.0, -0.4],
                          [0.1, -0.2, 0.05], -40.0, 1.0, 400)
    hs = copy_histories([*wiggling_pair(1.0, -0.8), h3])
    return hs, FrozenHistoryContext(hs, ext, 0.4)


@pytest.mark.parametrize("ext", CLOSED_FORM_EXTERNALS, ids=["none", "uniform"])
def test_potential_gradients_match_central_differences(ext):
    # dA_nu/dr^mu of every observer, events off the worldlines, against a
    # central difference of effective_potentials; A keeps its bits
    hs, ctx = _three_charge_context(ext)
    events = state_from_histories(hs, 0.4, ctx).r + np.array([0.0, 0.05, -0.1, 0.02])
    A, dA = _potentials_and_gradients(ctx._histories, ext, range(3), events)
    assert np.array_equal(A, effective_potentials(ctx._histories, ext, range(3), events))
    h = 1e-5
    fd = np.zeros_like(dA)
    for mu in range(4):
        step = h * np.eye(4)[mu]
        fd[:, mu] = (effective_potentials(ctx._histories, ext, range(3), events + step)
                     - effective_potentials(ctx._histories, ext, range(3), events - step)) / (2 * h)
    # measured: 8e-10 of max |dA|
    assert np.max(np.abs(dA - fd)) <= 1e-8 * np.max(np.abs(dA))


@pytest.mark.parametrize("ext", CLOSED_FORM_EXTERNALS, ids=["none", "uniform"])
def test_the_hamiltonian_gradient_matches_central_differences(ext):
    hs, ctx = _three_charge_context(ext)
    x = state_from_histories(hs, 0.4, ctx)
    H = hamiltonian_phase_function(ctx)
    # measured: at most 2e-9 of each block's largest entry
    for got, want in zip(H.gradient_at(x), _fd_gradient(H.evaluator, x, FD_STEP)):
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_the_hamiltonian_gradient_refuses_a_user_analytic_field():
    ext = ExternalFieldModel.analytic(lambda r: np.zeros((4, 4)), lambda r: np.zeros(4))
    hs, ctx = _three_charge_context(ext)
    x = state_from_histories(hs, 0.4, ctx)
    H = hamiltonian_phase_function(ctx)
    assert math.isfinite(H.value(x))
    with pytest.raises(ValueError, match="user-analytic"):
        H.gradient_at(x)


# -- instant form --------------------------------------------------------------


def test_instant_form_context_mismatch():
    spec = ParticleSpec(1.0, 0.5, 0.3, "e")
    h = inertial_history(spec, [0.0, 0.0, 0.0], [0, 0, 0], -10.0, 1.0, 32)
    ext = ExternalFieldModel.uniform(E=(0.1, 0.0, 0.0))
    xp = ConstrainedState(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ContextMismatch):
        instant_form_constrained(xp, FrozenHistoryContext([h], ext, 0.0))
    ctx = FrozenHistoryContext([h], ExternalFieldModel.none(), 0.0)
    with pytest.raises(ContextMismatch):
        instant_form_constrained(ConstrainedState(np.zeros((2, 3)),
                                                  np.zeros((2, 3))), ctx)


def test_instant_form_increments_context_mismatch():
    # increments and the constrained generators share one evaluation and
    # its checks: an external field, or more particles than histories
    h1, h2 = wiggling_pair(1.0, -0.8)
    ext = ExternalFieldModel.uniform(E=(0.1, 0.0, 0.0))
    xp = constrained_from_histories([h1, h2], FrozenHistoryContext([h1, h2], ext, 0.0))
    with pytest.raises(ContextMismatch, match="isolated case"):
        instant_form_increments(xp, FrozenHistoryContext([h1, h2], ext, 0.0), 1e-3)
    ctx = FrozenHistoryContext([h1], ExternalFieldModel.none(), 0.0)
    with pytest.raises(ContextMismatch, match="2 particles but context has 1"):
        instant_form_increments(xp, ctx, 1e-3)


def test_instant_form_solves_one_root_batch_per_evaluation(monkeypatch):
    # the N events share one batch whose values have the bits of each
    # one-observer evaluation, and the closed-form derivatives agree with
    # central differences of those evaluations
    h1, h2 = wiggling_pair(1.0, -0.8)
    ctx = FrozenHistoryContext([h1, h2], ExternalFieldModel.none(), t_ref=0.0)
    xp = constrained_from_histories([h1, h2], ctx)
    batches = []

    def solve(histories, src, events, *args, **kwargs):
        batches.append(len(np.reshape(events, (-1, 4))))
        return real_solve(histories, src, events, *args, **kwargs)

    real_solve = ret._solve
    monkeypatch.setattr(ret, "_solve", solve)
    rep = instant_form_constrained(xp, ctx)
    dr, dP = instant_form_increments(xp, ctx, 1e-3)
    # 2 observer events, 3 roots each (self and the two cones of the pair)
    assert batches == [6, 6]

    def p0_term(i, x3):
        spec = ctx.specs[i]
        A = ctx.a_eff_cov(i, np.concatenate(([ctx.c * ctx.t_ref], x3)))
        pi3 = xp.P[i] - (spec.q / ctx.c) * A[1:]
        root = math.sqrt(spec.m0 ** 2 * ctx.c ** 2 + float(pi3 @ pi3))
        return root + (spec.q / ctx.c) * A[0], -ctx.c * 1e-3 * pi3 / root

    d = np.zeros((2, 3))
    for i in range(2):
        assert np.array_equal(dr[i], p0_term(i, xp.x[i])[1])
        for l in range(3):
            h = FD_STEP * (1.0 + abs(xp.x[i, l]))
            xp_p, xp_m = xp.x[i].copy(), xp.x[i].copy()
            xp_p[l] += h
            xp_m[l] -= h
            d[i, l] = (p0_term(i, xp_p)[0] - p0_term(i, xp_m)[0]) / (2.0 * h)
    # measured: 1.7e-9 and 2.2e-9 of the largest derivative
    assert np.max(np.abs(dP - ctx.c * 1e-3 * d)) <= 1e-8 * np.max(np.abs(ctx.c * 1e-3 * d))
    assert np.max(np.abs(rep["comm_p0_pl"] - d.sum(axis=0))) <= 1e-8 * np.max(np.abs(d))
    assert rep["p0"] == p0_term(0, xp.x[0])[0] + p0_term(1, xp.x[1])[0]


def test_state_from_histories_matches_observer_by_observer_momenta():
    # one gather and one all-observer potentials batch give every particle
    # the bits of its own one-observer evaluation
    h3 = inertial_history(ParticleSpec(1.2, 0.6, 0.5, "c"), [0.3, 2.0, -0.4],
                          [0.1, -0.2, 0.05], -40.0, 1.0, 400)
    hs = copy_histories([*wiggling_pair(1.0, -0.8), h3])
    ctx = FrozenHistoryContext(hs, ExternalFieldModel.uniform(E=(0.1, 0.0, -0.2),
                                                              B=(0.0, 0.3, 0.0)), 0.4)
    x = state_from_histories(hs, 0.4, ctx)
    for i, h in enumerate(hs):
        smp = h.state_at_time(0.4)
        want = effective_momentum(smp.u, h.spec, ctx.a_eff_cov(i, smp.r), h.c)
        assert np.array_equal(x.r[i], smp.r)
        assert np.array_equal(x.P[i], want)


def constrained_from_histories(histories, ctx):
    xs, Ps = [], []
    for i, h in enumerate(histories):
        smp = h.state_at_time(ctx.t_ref)
        A = ctx.a_eff_cov(i, smp.r)
        P = effective_momentum(smp.u, h.spec, A, h.c)
        xs.append(smp.r[1:])
        Ps.append(P[1:])
    return ConstrainedState(np.array(xs), np.array(Ps))


def test_instant_form_certificate_interacting_vs_neutral():
    h1, h2 = wiggling_pair(1.0, -0.8)
    ctx = FrozenHistoryContext([h1, h2], ExternalFieldModel.none(), t_ref=0.0)
    xp = constrained_from_histories([h1, h2], ctx)
    rep = instant_form_constrained(xp, ctx)
    assert np.max(np.abs(rep["comm_p0_pl"])) > 1e-8
    assert np.allclose(rep["p_l"], xp.P.sum(axis=0), atol=1e-15)
    assert np.all(np.isfinite(rep["N_l0"]))
    assert rep["p0"] > 0.0

    g1, g2 = wiggling_pair(0.0, 0.0)
    ctx0 = FrozenHistoryContext([g1, g2], ExternalFieldModel.none(), t_ref=0.0)
    xp0 = constrained_from_histories([g1, g2], ctx0)
    rep0 = instant_form_constrained(xp0, ctx0)
    assert np.max(np.abs(rep0["comm_p0_pl"])) < 1e-12
    want = sum(math.sqrt(h.spec.m0 ** 2 + float(xp0.P[i] @ xp0.P[i]))
               for i, h in enumerate((g1, g2)))
    assert rep0["p0"] == pytest.approx(want, rel=1e-14)


def test_instant_form_increments_match_difference_equations():
    h1, h2 = wiggling_pair(1.0, -0.8)
    hists = [h1, h2]
    ctx = FrozenHistoryContext(hists, ExternalFieldModel.none(), t_ref=0.0)
    xp = constrained_from_histories(hists, ctx)
    dt = 1e-3
    dr, dP = instant_form_increments(xp, ctx, dt)

    for i, h in enumerate(hists):
        smp = h.state_at_time(0.0)
        v = h.c * smp.u[1:] / smp.u[0]
        assert np.allclose(dr[i], dt * v, atol=1e-12 * (1 + np.max(np.abs(v))))

        q, c = h.spec.q, h.c

        def coupling(x3):
            r4 = np.concatenate(([c * ctx.t_ref], x3))
            A = ctx.a_eff_cov(i, r4)
            return (q / c) * (A[0] * c + float(A[1:] @ v))

        for l in range(3):
            hstep = 1e-6 * (1.0 + abs(xp.x[i, l]))
            xp_p = xp.x[i].copy()
            xp_m = xp.x[i].copy()
            xp_p[l] += hstep
            xp_m[l] -= hstep
            want = dt * (coupling(xp_p) - coupling(xp_m)) / (2.0 * hstep) / c
            assert dP[i, l] == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def _momenta_at(hists, t):
    """The canonical state at t and its frozen context at t, P built from
    the context as acceptance check 08 builds it."""
    ctx = FrozenHistoryContext(hists, ExternalFieldModel.none(), t)
    return state_from_histories(hists, t, ctx), ctx


RING3_ANGLES = 2.0 * np.pi * np.arange(3) / 3.0
FLOW_SYSTEMS = [
    # acceptance's interacting pair
    ([ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.5, -0.4, 0.7, "b")],
     [[-1.5, 0, 0], [1.5, 0.3, 0]], (0.3, 0.6, 0.76, 0.9, 1.1)),
    # three charges at rest on a ring of radius 2; t = 0.6 is left out: its
    # +-0.02 window straddles t0 + sigma_b/c = 0.6, a breaking point of the
    # propagated prehistory junction (measured 1.0e-3, falling 1.8x)
    ([ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.3, -0.4, 0.6, "b"),
      ParticleSpec(1.6, 0.3, 0.7, "c")],
     np.column_stack([2.0 * np.cos(RING3_ANGLES), 2.0 * np.sin(RING3_ANGLES), 0.1 * np.arange(3)]),
     (0.3, 0.76, 0.9, 1.1)),
]


@pytest.mark.parametrize("dt", [0.02, 0.01])
def test_the_integrated_flow_is_the_hamiltonian_flow(dt):
    # each system stepped in exact mode: along the trajectory dP_l/dt is
    # c d p0/dx^l of the frozen coupling at each instant, which
    # instant_form_increments gives per unit time. Times 0.9 and 1.1 lie
    # past t0 + sigma/c of every radius (at most 0.8)
    for specs, x0, times in FLOW_SYSTEMS:
        st = dynamics.seed(specs, x0, np.zeros((len(specs), 3)), dt=dt, coverage_factor=1.2)
        _assert_hamiltonian_flow(dynamics.run(st, 1.2).histories, times)


def _assert_hamiltonian_flow(hists, times):
    for t in times:
        x, ctx = _momenta_at(hists, t)
        want = instant_form_increments(ConstrainedState(x.r[:, 1:], x.P[:, 1:]), ctx, 1.0)[1]
        err = {}
        for d in (0.02, 0.01):
            central = (_momenta_at(hists, t + d)[0].P - _momenta_at(hists, t - d)[0].P) / (2 * d)
            err[d] = central[:, 1:] - want
        richardson = (4.0 * err[0.01] - err[0.02]) / 3.0
        # measured: at most 2.2e-9 (pair) and 2.9e-9 (ring) of |dP/dt|, and
        # a fall of 4.0
        assert np.max(np.abs(richardson)) <= 1e-8 * np.max(np.abs(want))
        assert np.max(np.abs(err[0.02])) >= 3.5 * np.max(np.abs(err[0.01]))


# -- non-local brackets ----------------------------------------------------------


def test_nonlocal_translation_invariance_of_hamiltonian():
    h1, h2 = wiggling_pair(1.0, -0.8, t_end=2.0)
    hists = [h1, h2]
    ctx = FrozenHistoryContext(hists, ExternalFieldModel.none(), t_ref=0.0)
    x = state_from_histories(hists, 0.0, ctx)

    def xi(state, histories):
        c2 = FrozenHistoryContext(histories, ExternalFieldModel.none(),
                                  t_ref=state.r[0, 0] / histories[0].c)
        return system_hamiltonian(state, c2)

    base = abs(xi(x, hists))
    for d4 in ([0.0, 1.0, 0.3, -0.2], [1.0, 0.0, 0.0, 0.0],
               [0.5, -0.4, 0.0, 0.8]):
        val = nonlocal_bracket(xi, TranslationVariation(d4), x, hists,
                               alpha=1e-3)
        assert abs(val) < 1e-9 * (1.0 + base)


def test_nonlocal_agrees_with_local_bracket_on_state_functions():
    h1, h2 = wiggling_pair(1.0, -0.8, t_end=2.0)
    hists = [h1, h2]
    ctx = FrozenHistoryContext(hists, ExternalFieldModel.none(), t_ref=0.0)
    x = state_from_histories(hists, 0.0, ctx)
    gens = GeneratorSet()

    a_cov = np.array([0.2, -0.5, 0.1, 0.4])
    M01 = gens.M_pairs[(0, 1)]
    got = nonlocal_bracket(lambda s, h: M01.value(s),
                           TranslationVariation(-raise_index(a_cov)), x, hists)
    want = poisson_bracket(M01, gens.translation(a_cov), x)
    assert got == pytest.approx(want, abs=1e-8 * (1 + abs(want)))

    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 0.4, -0.4
    p0 = gens.p_hat[0]
    got = nonlocal_bracket(lambda s, h: p0.value(s),
                           LorentzVariation.from_boost_parameter(b), x, hists)
    want = poisson_bracket(p0, boost_generator(b), x)
    assert got == pytest.approx(want, abs=1e-8 * (1 + abs(want)))


def test_nonlocal_noise_detection():
    h1, h2 = wiggling_pair(0.0, 0.0)
    hists = [h1, h2]
    x = state_from_histories(
        hists, 0.0, FrozenHistoryContext(hists, ExternalFieldModel.none(), 0.0))
    r_base = float(x.r[0, 1])

    def cusp(state, histories):
        d = float(state.r[0, 1]) - r_base
        return math.copysign(abs(d) ** (1.0 / 3.0), d)

    with pytest.raises(NumericalNoise):
        nonlocal_bracket(cusp, TranslationVariation([0.0, 1.0, 0.0, 0.0]),
                         x, hists, alpha=1e-3)


def test_lorentz_variation_exactness():
    h1, _ = wiggling_pair(1.0, -0.8, t_end=2.0)
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 1.0, -1.0
    var = LorentzVariation.from_boost_parameter(b)
    x = CanonicalState(np.array([[0.5, 1.0, 0.0, 0.0]]),
                       np.array([[1.0, 0.2, 0.0, 0.0]]))
    alpha = 0.3093362496096202  # artanh(0.3)
    xs, hs = var.apply(x, [h1], alpha)
    for smp in hs[0].samples[::97]:
        assert abs(dot(smp.u, smp.u) - 1.0) < 1e-12
        assert abs(smp.r[0] - smp.t * h1.c) < 1e-12
    xb, hb = var.apply(xs, hs, -alpha)
    assert np.allclose(xb.r, x.r, atol=1e-12)
    assert np.allclose(xb.P, x.P, atol=1e-12)
    back = hb[0]
    for k in (0, 400, 1100):
        a0 = h1.samples[k]
        b0 = back.samples[k]
        assert np.allclose(b0.r, a0.r, atol=1e-10)
        assert np.allclose(b0.u, a0.u, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_fundamental_brackets_hypothesis(seed):
    rng = np.random.default_rng(seed)
    x = random_state(rng, 2)
    i, j = rng.integers(0, 2), rng.integers(0, 2)
    mu, nu = rng.integers(0, 4), rng.integers(0, 4)
    want = 1.0 if (i == j and mu == nu) else 0.0
    got = poisson_bracket(coord_fn("r", i, mu), coord_fn("P", j, nu), x)
    assert abs(got - want) < 1e-14
