import numpy as np
import pytest

from retnbody import fields as fl
from retnbody import minkowski as mk
from retnbody import retardation as ret
from retnbody import worldline as wl


def static_history(x3, sigma=1.0, q=1.0, t0=-30.0, t1=2.0, n=16, c=1.0):
    spec = wl.ParticleSpec(m0=1.0, q=q, sigma=sigma, label="s")
    return wl.inertial_history(spec, np.asarray(x3, dtype=float),
                               np.zeros(3), t0, t1, n, c=c)


def hyperbolic_history(b=5.0, sigma=0.8, q=1.3, t0=-12.0, t1=3.0, n=1501):
    """Gently accelerated profile x(t) = sqrt(b^2 + t^2) - b."""
    spec = wl.ParticleSpec(m0=1.0, q=q, sigma=sigma, label="h")

    def x_fn(t):
        return np.array([np.sqrt(b * b + t * t) - b, 0.0, 0.0])

    def v_fn(t):
        return np.array([t / np.sqrt(b * b + t * t), 0.0, 0.0])

    def acc_fn(t):
        return np.array([b * b / (b * b + t * t) ** 1.5, 0.0, 0.0])

    return wl.history_from_kinematics(spec, np.linspace(t0, t1, n),
                                      x_fn, v_fn, acc_fn)


def present(hs, t):
    """Every history's state at time t, the now total_faraday takes."""
    return wl.gather(hs, np.arange(len(hs)), np.full(len(hs), t))


def fd_self_oracle(h, t, sigma, eps=2e-5):
    """Finite difference of the bracketed s'-derivative, independent of
    the analytic chain-rule expansion used in production."""
    obs = h.state_at_time(t)
    root = ret.self_delay(h, t, sigma)
    t_ret = t - root.t_ret

    def bracket(tp):
        src = h.state_at_time(tp)
        rt = obs.r - src.r
        u_l = mk.lower(src.u)
        rt_l = mk.lower(rt)
        N = np.outer(u_l, rt_l) - np.outer(rt_l, u_l)
        return N / mk.dot(rt, src.u)

    src = h.state_at_time(t_ret)
    dBds = (src.u[0] / h.c) * (bracket(t_ret + eps) - bracket(t_ret - eps)) / (2 * eps)
    D0 = mk.dot(obs.r - src.r, src.u)
    return -(2.0 * h.spec.q / abs(D0)) * dBds


class TestSelfFaraday:
    def test_inertial_zero_including_junction(self):
        spec = wl.ParticleSpec(1.0, 1.5, 0.7)
        h = wl.inertial_history(spec, np.zeros(3), np.array([0.4, 0.1, 0.0]),
                                0.0, 3.0, 31)
        # 0.05 is close enough to t_first that the root lands in prehistory
        for t in (0.05, 0.8, 2.3, 3.0):
            F = fl.self_faraday(h, t)
            assert np.max(np.abs(F.matrix)) <= 1e-13

    def test_zero_charge(self):
        h = hyperbolic_history(q=0.0, n=401)
        F = fl.self_faraday(h, 1.0)
        assert np.max(np.abs(F.matrix)) == 0.0

    def test_matches_fd_oracle_on_accelerated_profile(self):
        h = hyperbolic_history()
        for t in (0.0, 1.0, 2.5):
            F = fl.self_faraday(h, t)
            F_fd = fd_self_oracle(h, t, h.spec.sigma)
            scale = np.max(np.abs(F_fd))
            assert scale > 0.0
            assert np.max(np.abs(F.matrix - F_fd)) < 1e-6 * scale

    def test_antisymmetry_exact(self):
        h = hyperbolic_history(n=601)
        F = fl.self_faraday(h, 1.7).matrix
        assert np.array_equal(F, -F.T)

    def test_degenerate_jacobian_guard(self, monkeypatch):
        h = static_history([0.0, 0.0, 0.0], sigma=0.5)
        monkeypatch.setattr(fl, "JAC_TOL", 1e10)
        with pytest.raises(ret.DegenerateJacobian):
            fl.self_faraday(h, 0.5)


SPACINGS = (0.1, 0.05, 0.025, 0.0125)


UNIFORM_ACCELERATION = pytest.mark.parametrize("alpha, q, sigma, c, spacings", [
    (0.8, 0.3, 0.5, 1.0, SPACINGS), (0.8, 0.3, 0.5, 2.0, SPACINGS[1:]),
    (1.6, 0.3, 0.5, 2.0, SPACINGS[1:]), (0.5, 0.2, 0.8, 1.0, SPACINGS[1:])],
    ids=["c1", "c2", "c2_alpha1.6", "c1_sigma0.8"])


def uniform_acceleration_history(alpha, q, sigma, c, spacing, t):
    """Hyperbolic motion of proper acceleration alpha from rest at t = 0,
    sampled at the given node spacing on [-1, t]."""
    def gamma(tn):
        return np.sqrt(1.0 + (alpha * tn / c) ** 2)

    return wl.history_from_kinematics(
        wl.ParticleSpec(1.0, q, sigma, "hyp"),
        np.linspace(-1.0, t, int(round((t + 1.0) / spacing)) + 1),
        lambda tn: np.array([(c * c / alpha) * (gamma(tn) - 1.0), 0.0, 0.0]),
        lambda tn: np.array([alpha * tn / gamma(tn), 0.0, 0.0]),
        lambda tn: np.array([alpha / gamma(tn) ** 3, 0.0, 0.0]), c=c)


@UNIFORM_ACCELERATION
def test_uniform_acceleration_self_force_converges_to_the_closed_form(alpha, q, sigma, c,
                                                                      spacings):
    """Self-force on hyperbolic motion of proper acceleration alpha.

    Take c = 1 first, and the observer at proper time 0, at rest at the
    origin, so u = (1, 0, 0, 0) and a = alpha (0, 1, 0, 0); the source point
    at proper time s' < 0 is r' = (sinh(alpha s'), cosh(alpha s') - 1, 0, 0)
    / alpha with u' = (cosh(alpha s'), sinh(alpha s'), 0, 0). With Rt = -r',
    Rt.Rt = (4 / alpha^2) sinh^2(delta / 2), delta = -alpha s', so the
    shifted cone Rt.Rt = sigma^2 puts the root at

        sinh(delta / 2) = alpha sigma / 2.

    In covariant components N_01 = u'_0 Rt_1 - u'_1 Rt_0 = (1 - cosh) / alpha
    and D = Rt.u' = -sinh / alpha (arguments alpha s'), so
    N_01 / D = tanh(alpha s' / 2), whose s'-derivative is
    (alpha / 2) sech^2(delta / 2). The kernel with weight k = 2 q and
    |D| = sinh(delta) / alpha gives

        F_01 = -(2 q alpha / sinh delta) (alpha / 2) sech^2(delta / 2)
             = -(q alpha / sigma) cosh^-3(delta / 2),

    the only nonzero component up to antisymmetry. The force
    f_mu = q F_mu nu u^nu has f_1 = -q F_01 and a_1 = -alpha, and both sides
    are four-vectors, so at every proper time

        f_mu = -(q^2 / sigma) a_mu (1 + (alpha sigma / 2)^2)^(-3/2),

    which is -m_em a_mu as sigma -> 0 (the Schott term vanishes on
    hyperbolic motion). With c kept, the worldline is
    x(t) = (c^2 / alpha) (sqrt(1 + (alpha t / c)^2) - 1), its a = du/ds =
    (alpha / c^2) (sinh, cosh, 0, 0) of the rapidity asinh(alpha t / c),
    and the force (q / c) F u is

        f_mu = -(q^2 / (c sigma)) a_mu (1 + (alpha sigma / 2 c^2)^2)^(-3/2).

    The sampled worldline converges to it as its nodes are refined.
    """
    t = 0.5
    phi = np.arcsinh(alpha * t / c)
    a = (alpha / c**2) * np.array([np.sinh(phi), np.cosh(phi), 0.0, 0.0])
    want = (-(q * q / (c * sigma)) * mk.lower(a)
            * (1.0 + (alpha * sigma / (2.0 * c * c)) ** 2) ** -1.5)
    errors = []
    for spacing in spacings:
        h = uniform_acceleration_history(alpha, q, sigma, c, spacing, t)
        single = (q / c) * (fl.self_faraday(h, t).matrix @ h.state_at_time(t).u)
        batch = fl.total_faraday([h], present([h], t), fl.ExternalFieldModel.none())[0][0]
        errors.append(max(np.max(np.abs(f - want)) for f in (single, batch)))
    assert errors[0] < 1e-6 * np.max(np.abs(want))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 2.0), orders


@UNIFORM_ACCELERATION
def test_boosted_uniform_acceleration_self_field_converges_to_the_boosted_closed_form(
        alpha, q, sigma, c, spacings):
    """The history of the test above under a boost lam (transformed).

    Before the boost the self-field at the event of time t has one
    component up to antisymmetry: F_01 = -(q alpha / (c^2 sigma))
    (1 + (alpha sigma / 2 c^2)^2)^(-3/2), the force above divided by q/c
    in the comoving frame, where u = (1, 0, 0, 0), and the same in the
    lab frame, since a boost along x leaves F_01 as it is. F is
    covariant, so at the boosted event the field is lam^-T F lam^-1,
    magnetic components included for a boost off the x axis. The
    boosted nodes are the images of the same nodes, so the error falls
    at the same order.
    """
    t = 0.5
    F = np.zeros((4, 4))
    F[0, 1] = -(q * alpha / (c * c * sigma)) * (1.0 + (alpha * sigma / (2.0 * c * c)) ** 2) ** -1.5
    F[1, 0] = -F[0, 1]
    beta = np.array([0.3, -0.4, 0.2])
    lam_inv = mk.Boost(-beta).matrix()  # Boost(-beta) inverts Boost(beta)
    want = lam_inv.T @ F @ lam_inv
    errors = []
    for spacing in spacings:
        h = uniform_acceleration_history(alpha, q, sigma, c, spacing, t)
        boosted = h.transformed(mk.Boost(beta).matrix(), 0.0)
        errors.append(np.max(np.abs(fl.self_faraday(boosted, boosted.t_latest).matrix - want)))
    # at the coarsest spacing (0.1) the boosted error reads up to ten times
    # the unboosted one: Hermite dense output is cubic in the boosted time
    assert errors[0] < 1e-5 * np.max(np.abs(want))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 2.0), orders


def _hyperbola_state(alpha, q, sigma, c, dt, mode=fl.SelfForceMode.EXACT):
    """A charge of rest mass 1 seeded on the hyperbola of proper
    acceleration alpha (its prehistory on [-1, 0] at spacing dt), in the
    uniform E along x that keeps it there in the given self-force mode:
    E = (alpha / q) (1 + (q^2 / (c^2 sigma)) kappa), kappa = (1 + (alpha
    sigma / 2 c^2)^2)^(-3/2) in exact mode and 1 in asymptotic mode."""
    from retnbody.dynamics import seed

    exact = mode is fl.SelfForceMode.EXACT
    kappa = (1.0 + (alpha * sigma / (2.0 * c * c)) ** 2) ** -1.5 if exact else 1.0
    E = (alpha / q) * (1.0 + (q * q / (c * c * sigma)) * kappa)
    h = uniform_acceleration_history(alpha, q, sigma, c, dt, 0.0)
    return seed(prehistories=[h], dt=dt, c=c, mode=mode,
                external=fl.ExternalFieldModel.uniform(E=(E, 0.0, 0.0)))


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("alpha,q,sigma", [(0.8, 0.3, 0.5), (0.5, 0.4, 0.8)])
def test_hyperbolic_motion_in_a_uniform_field_is_integrated_to_the_closed_form(
        alpha, q, sigma, c):
    """The exact-mode equations of motion, stepped, against a closed form
    once the roots read the integrated history.

    Take hyperbolic motion of proper acceleration alpha along x from rest
    at t = 0: x*(t) = (c^2 / alpha) (sqrt(1 + (alpha t / c)^2) - 1) and
    u^1 = alpha t / c. The test of the self-force above gives, at every
    proper time, the covariant self-force f_self = -(q^2 / (c sigma)) kappa a
    with kappa = (1 + (alpha sigma / 2 c^2)^2)^(-3/2). A uniform E along x
    adds (q / c) F u, and in the instantaneous rest frame, where
    u = (1, 0, 0, 0) and a = (alpha / c^2) (0, 1, 0, 0), the equation of
    motion m0 c a^mu = f^mu reads along x

        m0 c alpha / c^2 = q E / c - (q^2 / (c sigma)) kappa alpha / c^2,

    both sides the x component of a four-vector that is the same
    multiple of a at every proper time, since F u and a are. So the
    hyperbola solves the equations exactly when

        E = (alpha / q) (m0 + (q^2 / (c^2 sigma)) kappa).

    The prehistory is the hyperbola itself, sampled at the step size on
    [-1, 0], so there is no junction. The run goes to t = 2, past the self
    delay of about sigma / c, so from then on every root reads nodes the
    integrator wrote. Measured, max |x - x*| at dt = 0.01 and the observed
    order between dt = 0.02 and 0.01: (alpha, q, sigma) = (0.8, 0.3, 0.5)
    1.23e-10 and 3.99 at c = 1, 2.17e-10 and 3.99 at c = 2; (0.5, 0.4,
    0.8) 2.86e-11 and 3.92 at c = 1, 3.43e-11 and 3.99 at c = 2.
    """
    from retnbody.dynamics import run

    errors = []
    for dt in (0.02, 0.01):
        st = _hyperbola_state(alpha, q, sigma, c, dt)
        run(st, 2.0)
        tab = st.histories[0].table
        t = tab[tab[:, 0] > 0.0, 0]
        assert st.t_now == pytest.approx(2.0) and len(t) == round(2.0 / dt)
        x_err = np.max(np.abs(tab[tab[:, 0] > 0.0, 3]
                              - (c * c / alpha) * (np.sqrt(1.0 + (alpha * t / c) ** 2) - 1.0)))
        u_err = np.max(np.abs(tab[tab[:, 0] > 0.0, 7] - alpha * t / c))
        errors.append(x_err)
    assert x_err < 1e-9 and u_err < 1e-9, (x_err, u_err)
    assert np.log2(errors[0] / errors[1]) >= 3.5, errors


@pytest.mark.xfail(raises=wl.ConstraintViolation, strict=True,
                   reason="asymptotic mode leaves the mass shell on a smooth hyperbola")
def test_hyperbolic_motion_in_asymptotic_mode_stays_on_the_mass_shell():
    """Asymptotic mode on the hyperbola above at c = 1 and dt = 0.01.

    Its self-force -m_em c a - (q^2 / 3c) [u'' - u (u.u'')] has no
    radiation term on hyperbolic motion, where u'' is a multiple of u, so
    the hyperbola solves it in the field of kappa = 1. The run should
    reach t = 2 within the hard tolerance on |u.u - 1|; today it raises
    ConstraintViolation at its first step, |u.u - 1| = 1.175e-03.
    """
    from retnbody.dynamics import run

    st = _hyperbola_state(0.8, 0.3, 0.5, 1.0, 0.01, fl.SelfForceMode.ASYMPTOTIC)
    run(st, 2.0)
    assert st.t_now == pytest.approx(2.0)


class TestBinaryFaraday:
    def test_zero_source_charge(self):
        h = static_history([2.0, 0.0, 0.0], q=0.0)
        F = fl.binary_faraday(h, np.array([0.0, 0, 0, 0]), 0.3, 0.4)
        assert np.max(np.abs(F.matrix)) == 0.0

    def test_equal_radii_doubles_single_root_bitwise(self):
        h = static_history([2.0, 0.0, 0.0], q=1.3)
        obs = np.array([0.0, 0, 0, 0])
        F2 = fl.binary_faraday(h, obs, 0.5, 0.5)
        single = fl.binary_faraday(h, obs, 0.5, 0.5 + 0.0).matrix / 2.0
        F_manual = fl._binary_term(h, obs.astype(float), 0.5)
        assert np.array_equal(F2.matrix, 2.0 * F_manual)

    def test_static_closed_form(self):
        d, q = 2.0, 1.7
        si, sj = 0.8, 0.5
        h = static_history([d, 0.0, 0.0], q=q, sigma=sj)
        F = fl.binary_faraday(h, np.array([0.0, 0, 0, 0]), si, sj)
        expected = q * d * ((d * d + si * si) ** -1.5 + (d * d + sj * sj) ** -1.5)
        E = F.electric
        assert np.linalg.norm(E) == pytest.approx(expected, rel=1e-12)
        # field at the observer points away from a like-sign source at +x
        assert E[0] < 0.0
        assert abs(E[1]) < 1e-14 and abs(E[2]) < 1e-14

    def test_charge_scaling_is_linear(self):
        obs = np.array([0.0, 0, 0, 0])
        h1 = static_history([1.5, 0.7, -0.3], q=1.1)
        h2 = static_history([1.5, 0.7, -0.3], q=2.2)
        F1 = fl.binary_faraday(h1, obs, 0.4, 0.6).matrix
        F2 = fl.binary_faraday(h2, obs, 0.4, 0.6).matrix
        assert np.array_equal(F2, 2.0 * F1)

    def test_static_direction_is_radial(self):
        sep = np.array([1.2, -0.8, 0.5])
        h = static_history(sep, q=1.0)
        F = fl.binary_faraday(h, np.array([0.0, 0, 0, 0]), 0.3, 0.7)
        E = F.electric
        cross = np.cross(E, sep)
        assert np.max(np.abs(cross)) < 1e-10 * np.linalg.norm(E) * np.linalg.norm(sep)
        # magnetic block vanishes for a static source
        assert np.max(np.abs(F.matrix[1:, 1:])) < 1e-14


class TestPointLimit:
    def test_static_coulomb_like_constant(self):
        d, q = 3.0, 2.0
        h = static_history([d, 0.0, 0.0], q=q)
        F = fl.binary_faraday(h, np.array([0.0, 0, 0, 0]), 0.0, 0.0)
        assert np.linalg.norm(F.electric) == pytest.approx(2.0 * q / d**2, rel=1e-12)

    def test_zero_charge(self):
        h = static_history([3.0, 0.0, 0.0], q=0.0)
        F = fl.binary_faraday(h, np.array([0.0, 0, 0, 0]), 0.0, 0.0)
        assert np.max(np.abs(F.matrix)) == 0.0

    def test_small_sigma_binary_approaches_point_limit(self):
        d = 2.0
        h = static_history([d, 0.0, 0.0], q=1.4)
        obs = np.array([0.0, 0, 0, 0])
        sig = 1e-6 * d
        F_sig = fl.binary_faraday(h, obs, sig, sig).matrix
        F_pt = fl.binary_faraday(h, obs, 0.0, 0.0).matrix
        assert np.max(np.abs(F_sig - F_pt)) < 1e-4 * np.max(np.abs(F_pt))


class TestAsymptoticSelfForce:
    def test_inertial_zero(self):
        spec = wl.ParticleSpec(1.0, 1.0, 0.5)
        h = wl.inertial_history(spec, np.zeros(3), np.array([0.3, 0, 0]),
                                -5.0, 3.0, 41)
        g = fl.asymptotic_self_force(h, 2.0)
        assert np.max(np.abs(g)) < 1e-12

    def test_em_mass_coefficient_on_hyperbolic_profile(self):
        # for hyperbolic motion uddot is parallel to u, so the projected
        # term vanishes and g = -m_em c a exactly
        h = hyperbolic_history(b=4.0, sigma=2.0, q=1.0, n=3001)
        t = 1.0
        root = ret.self_delay(h, t, 2.0)
        src = h.state_at_time(t - root.t_ret)
        g = fl.asymptotic_self_force(h, t, 2.0)
        m_em = h.spec.q**2 / (h.c**2 * h.spec.sigma)
        assert m_em == 0.5
        expected = -m_em * h.c * mk.lower(src.a)
        assert np.max(np.abs(g - expected)) < 2e-4 * np.max(np.abs(expected))

    def test_projected_term_orthogonal_to_u(self):
        h = hyperbolic_history(b=3.0, sigma=0.6, q=1.2, n=2001)
        t = 1.5
        root = ret.self_delay(h, t, 0.6)
        src = h.state_at_time(t - root.t_ret)
        g = fl.asymptotic_self_force(h, t, 0.6)
        m_em = h.spec.q**2 / (h.c**2 * h.spec.sigma)
        g_prime = g + m_em * h.c * mk.lower(src.a)
        # g'_mu u^mu, covariant against contravariant
        assert abs(float(g_prime @ src.u)) < 1e-10 * (1.0 + np.max(np.abs(g_prime)))


def single_term_force(hs, t, ext=fl.ExternalFieldModel.none(), mode=fl.SelfForceMode.EXACT):
    """The single-term oracle of every particle's force, (q/c) (sum of the
    field tensors) @ u + g, each tensor and g from its own one-root
    solves, and g (zero in exact mode, where the self-field is a tensor)."""
    exact = mode == fl.SelfForceMode.EXACT
    f, gs = [], []
    for i, h in enumerate(hs):
        smp = h.state_at_time(t)
        F = ext.faraday(smp.r) + (fl.self_faraday(h, t).matrix if exact else 0.0)
        for j, h_j in enumerate(hs):
            if j != i:
                sigmas = (h.spec.sigma, h_j.spec.sigma) if exact else (0.0, 0.0)
                F = F + fl.binary_faraday(h_j, smp.r, *sigmas).matrix
        gs.append(np.zeros(4) if exact else fl.asymptotic_self_force(h, t))
        f.append((h.spec.q / h.c) * (fl.FaradayTensor(F).matrix @ smp.u) + gs[-1])
    return np.array(f), np.array(gs)


class TestTotalFaraday:
    def test_single_inertial_no_external_is_zero(self, total_force):
        spec = wl.ParticleSpec(1.0, 1.0, 0.4)
        h = wl.inertial_history(spec, np.zeros(3), np.array([0.2, 0, 0]),
                                -10.0, 2.0, 25)
        f, (plan, roots), bound = total_force([h], present([h], 1.0),
                                              fl.ExternalFieldModel.none())
        assert f.shape == (1, 4) and plan.sign.tolist() == [-1.0] and roots.t_ret.shape == (1,)
        assert np.max(np.abs(f)) <= 1e-13
        assert np.all(np.abs(f - single_term_force([h], 1.0)[0]) <= bound)

    def test_external_only(self, total_force):
        # beside a neutral companion, an inertial charge's self kernel
        # cancels to rounding: its force is the external one, within bound
        ext = fl.ExternalFieldModel.uniform(E=(0.1, -0.2, 0.3), B=(0.0, 0.5, 0.0))
        hs = wl.copy_histories([
            wl.inertial_history(wl.ParticleSpec(1.0, q, 0.4), np.zeros(3), v, -5.0, 2.0, 15)
            for q, v in ((0.0, np.zeros(3)), (0.7, np.array([0.3, -0.1, 0.2])))])
        f, _, bound = total_force(hs, present(hs, 1.0), ext)
        assert np.array_equal(f[0], np.zeros(4))
        u = hs[1].state_at_time(1.0).u
        assert np.all(np.abs(f[1] - 0.7 * (ext.tensor @ u)) <= bound[1])

    def test_two_static_particles_superpose(self, total_force):
        d = 2.5
        ha, hb = wl.copy_histories([static_history([0.0, 0.0, 0.0], q=1.0, sigma=0.3),
                                    static_history([d, 0.0, 0.0], q=2.0, sigma=0.6)])
        f, _, bound = total_force([ha, hb], present([ha, hb], 0.5),
                                     fl.ExternalFieldModel.none())
        expected = 2.0 * d * ((d * d + 0.09) ** -1.5 + (d * d + 0.36) ** -1.5)
        assert np.linalg.norm(f[0, 1:]) == pytest.approx(expected, rel=1e-11)
        assert np.all(np.abs(f - single_term_force([ha, hb], 0.5)[0]) <= bound)

    def test_asymptotic_mode_returns_force_and_point_binaries(self, total_force):
        d = 2.0
        ha, hb = wl.copy_histories([static_history([0.0, 0.0, 0.0], q=1.0, sigma=0.3),
                                    static_history([d, 0.0, 0.0], q=1.5, sigma=0.6)])
        want, g = single_term_force([ha, hb], 0.5, mode=fl.SelfForceMode.ASYMPTOTIC)
        f, _, bound = total_force([ha, hb], present([ha, hb], 0.5),
                                     fl.ExternalFieldModel.none(),
                                     fl.SelfForceMode.ASYMPTOTIC, g=g)
        assert f.shape == (2, 4) and np.max(np.abs(g)) < 1e-12
        assert np.linalg.norm(f[0, 1:]) == pytest.approx(2.0 * 1.5 / d**2, rel=1e-11)
        assert np.all(np.abs(f - want) <= bound)


def ring_histories(n=6):
    """Six charges of alternating sign on wobbling orbits about a ring of
    radius 3, distinct radii except particles 1 and 4 (an equal pair), in
    one store."""
    hs = []
    for k in range(n):
        ang = 2.0 * np.pi * k / n
        c0 = 3.0 * np.array([np.cos(ang), np.sin(ang), 0.0])
        amp = 0.05 * np.array([1.0 + 0.2 * k, 0.5, 0.3 * (k % 3)])
        om = 1.3 + 0.1 * k

        def x_fn(t, c0=c0, amp=amp, om=om, ph=k):
            return c0 + amp * np.sin(om * t + ph)

        def v_fn(t, amp=amp, om=om, ph=k):
            return amp * om * np.cos(om * t + ph)

        def acc_fn(t, amp=amp, om=om, ph=k):
            return -amp * om * om * np.sin(om * t + ph)

        sigma = 0.55 if k in (1, 4) else 0.4 + 0.07 * k
        spec = wl.ParticleSpec(1.0 + 0.1 * k, (0.3 + 0.05 * k) * (-1) ** k, sigma, f"p{k}")
        hs.append(wl.history_from_kinematics(spec, np.linspace(-15.0, 1.0, 801),
                                             x_fn, v_fn, acc_fn))
    return wl.copy_histories(hs)


class TestBatchedTotalFaraday:
    t = 0.7

    def test_exact_matches_the_sum_of_single_terms(self, total_force):
        hs = ring_histories()
        ext = fl.ExternalFieldModel.uniform(E=(0.01, 0.0, -0.02), B=(0.0, 0.03, 0.0))
        f, _, bound = total_force(hs, present(hs, self.t), ext)
        assert np.all(np.abs(f - single_term_force(hs, self.t, ext)[0]) <= bound)

    def test_asymptotic_matches_the_sum_of_single_terms(self, total_force):
        hs = ring_histories()
        want, g = single_term_force(hs, self.t, mode=fl.SelfForceMode.ASYMPTOTIC)
        f, _, bound = total_force(hs, present(hs, self.t), fl.ExternalFieldModel.none(),
                                     fl.SelfForceMode.ASYMPTOTIC, g=g)
        assert np.all(np.abs(f - want) <= bound)

    def test_asymptotic_self_force_is_one_call_for_every_particle(self, monkeypatch):
        hs = ring_histories()
        calls = []

        def counted(roots, rows, t, q):
            calls.append(asymptotic_g(roots, rows, t, q))
            return calls[-1]

        asymptotic_g = fl._asymptotic_g
        monkeypatch.setattr(fl, "_asymptotic_g", counted)
        fl.total_faraday(hs, present(hs, self.t), fl.ExternalFieldModel.none(),
                         fl.SelfForceMode.ASYMPTOTIC)
        [g] = calls
        assert len(g) == len(hs) and np.count_nonzero(g)
        # each particle's g has the bits of its own one-root evaluation
        for i, h in enumerate(hs):
            assert np.array_equal(g[i], fl.asymptotic_self_force(h, self.t))

    def test_one_grazing_root_raises_from_the_batch(self, monkeypatch):
        hs = ring_histories()
        ratios = []

        def kernel_ratios(roots, k, u_sign):
            src = roots.source
            rt = u_sign[:, None] * (src.r - roots.events)
            ratios.append([abs(mk.dot(x, u)) / np.sqrt(abs(mk.dot(x, x)))
                           for x, u in zip(rt, src.u)])
            return kernel(roots, k, u_sign)

        kernel = fl._kernel
        monkeypatch.setattr(fl, "_kernel", kernel_ratios)
        fl.total_faraday(hs, present(hs, self.t), fl.ExternalFieldModel.none())
        lowest, second = np.sort(ratios[0])[:2]
        # a floor between the two smallest |Rt.u| / |Rt| trips exactly one root
        monkeypatch.setattr(fl, "_kernel", kernel)
        monkeypatch.setattr(fl, "JAC_TOL", 0.5 * (lowest + second))
        with pytest.raises(ret.DegenerateJacobian, match="in the field kernel") as err:
            fl.total_faraday(hs, present(hs, self.t), fl.ExternalFieldModel.none())
        assert err.value.particle in {h.spec.label for h in hs}


def test_the_antisymmetric_part_of_each_root_potential_gradient_is_its_kernel_tensor():
    # F = dA root by root: G - G^T is the kernel tensor of the same root
    # and weight, for the self cones, both shell cones of every pair and
    # the equal-radius pair's one root
    hs = ring_histories()
    n = len(hs)
    plan = ret._root_plan(tuple(h.spec for h in hs), tuple(range(n)))
    now = present(hs, 0.7)
    roots = ret._plan_roots(hs, plan, now.r, now)
    k = np.array([h.spec.q for h in hs])[plan.src] * plan.w
    G = fl._potential_gradients(roots, k)
    T = fl._tensor(roots, k, np.full(len(k), -1.0))
    assert G.shape == (len(k), 4, 4) and np.count_nonzero(T)
    scale = np.max(np.abs(G), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(G - G.swapaxes(1, 2) - T) <= 1e-15 * scale)


class TestExternalFieldModel:
    def test_uniform_potential_gauge(self):
        ext = fl.ExternalFieldModel.uniform(E=(0.2, 0.0, -0.1), B=(0.3, 0.1, 0.0))
        r = np.array([1.0, 0.5, -2.0, 0.7])
        A = ext.potential(r)
        assert np.allclose(A, -0.5 * ext.tensor @ r)

    def test_uniform_force_is_lorentz_like(self):
        E = np.array([0.2, -0.1, 0.4])
        B = np.array([0.0, 0.3, -0.2])
        ext = fl.ExternalFieldModel.uniform(E=E, B=B)
        v = np.array([0.3, 0.1, -0.2])
        g = 1.0 / np.sqrt(1.0 - v @ v)
        u = np.concatenate(([g], g * v))
        w = ext.tensor @ u
        expected_spatial = g * (E + np.cross(v, B))
        assert np.allclose(mk.raise_index(w)[1:], expected_spatial, atol=1e-14)

    def test_none_is_zero(self):
        ext = fl.ExternalFieldModel.none()
        assert np.array_equal(ext.faraday(np.zeros(4)), np.zeros((4, 4)))
        assert np.array_equal(ext.potential(np.ones(4)), np.zeros(4))

    def test_potential_of_a_block_stacks_the_points(self):
        rs = np.random.default_rng(2).normal(size=(7, 4))
        for ext in (fl.ExternalFieldModel.none(),
                    fl.ExternalFieldModel.uniform(E=(0.2, 0.0, -0.1),
                                                  B=(0.3, 0.1, 0.0)),
                    fl.ExternalFieldModel.analytic(
                        lambda r: np.zeros((4, 4)),
                        lambda r: np.array([r[1] * r[2], 0.0, r[0], -r[3]]))):
            block = ext.potential(rs)
            assert block.shape == (7, 4)
            assert np.allclose(block, [ext.potential(r) for r in rs],
                               rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("bad, message", [
        (lambda r: [0.0, np.inf, 0.0, 0.0] if r[0] > 0.5 else np.zeros(4),
         "four-potential components must be finite"),
        (lambda r: np.zeros(3), r"got shape \(3,\)"),
        (lambda r: np.zeros((4, 1)), r"got shape \(4, 1\)"),
        (lambda r: 0.0, r"got shape \(\)")])
    def test_a_user_potential_must_be_a_finite_four_vector(self, bad, message):
        # one check over the block: a single event and a block raise alike
        ext = fl.ExternalFieldModel.analytic(lambda r: np.zeros((4, 4)), bad)
        rs = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        for r in (rs, rs[-1]):
            with pytest.raises(ValueError, match=message):
                ext.potential(r)

    def test_faraday_u_is_each_rows_tensor_times_its_velocity(self):
        # every variant, none included, rounds each row like F(r) @ u
        rng = np.random.default_rng(3)
        rs, us = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        for ext in (fl.ExternalFieldModel.none(),
                    fl.ExternalFieldModel.uniform(E=(0.2, 0.0, -0.1),
                                                  B=(0.3, 0.1, 0.0)),
                    fl.ExternalFieldModel.analytic(
                        lambda r: np.outer(r, r[::-1]) - np.outer(r[::-1], r),
                        lambda r: np.zeros(4))):
            want = np.array([ext.faraday(r) @ u for r, u in zip(rs, us)])
            assert ext.faraday_u(rs, us).tobytes() == want.tobytes()

    def test_analytic_variant_requires_callables(self):
        with pytest.raises(ValueError):
            fl.ExternalFieldModel(variant="user-analytic")
        with pytest.raises(ValueError):
            fl.ExternalFieldModel(variant="nope")
