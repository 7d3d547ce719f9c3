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
        F = fl.binary_faraday_pointlimit(h, np.array([0.0, 0, 0, 0]))
        assert np.linalg.norm(F.electric) == pytest.approx(2.0 * q / d**2, rel=1e-12)

    def test_zero_charge(self):
        h = static_history([3.0, 0.0, 0.0], q=0.0)
        F = fl.binary_faraday_pointlimit(h, np.array([0.0, 0, 0, 0]))
        assert np.max(np.abs(F.matrix)) == 0.0

    def test_small_sigma_binary_approaches_point_limit(self):
        d = 2.0
        h = static_history([d, 0.0, 0.0], q=1.4)
        obs = np.array([0.0, 0, 0, 0])
        sig = 1e-6 * d
        F_sig = fl.binary_faraday(h, obs, sig, sig).matrix
        F_pt = fl.binary_faraday_pointlimit(h, obs).matrix
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
        m_em = h.spec.em_mass(h.c)
        assert m_em == 0.5
        expected = -m_em * h.c * mk.lower(src.a)
        assert np.max(np.abs(g - expected)) < 2e-4 * np.max(np.abs(expected))

    def test_projected_term_orthogonal_to_u(self):
        h = hyperbolic_history(b=3.0, sigma=0.6, q=1.2, n=2001)
        t = 1.5
        root = ret.self_delay(h, t, 0.6)
        src = h.state_at_time(t - root.t_ret)
        g = fl.asymptotic_self_force(h, t, 0.6)
        m_em = h.spec.em_mass(h.c)
        g_prime = g + m_em * h.c * mk.lower(src.a)
        # g'_mu u^mu, covariant against contravariant
        assert abs(float(g_prime @ src.u)) < 1e-10 * (1.0 + np.max(np.abs(g_prime)))


class TestTotalFaraday:
    def test_single_inertial_no_external_is_zero(self):
        spec = wl.ParticleSpec(1.0, 1.0, 0.4)
        h = wl.inertial_history(spec, np.zeros(3), np.array([0.2, 0, 0]),
                                -10.0, 2.0, 25)
        F, g = fl.total_faraday([h], [0], 1.0, fl.ExternalFieldModel.none())[0]
        assert np.max(np.abs(F.matrix)) <= 1e-13
        assert g is None

    def test_external_only(self):
        ext = fl.ExternalFieldModel.uniform(E=(0.1, -0.2, 0.3), B=(0.0, 0.5, 0.0))
        spec = wl.ParticleSpec(1.0, 0.0, 0.4)
        h = wl.inertial_history(spec, np.zeros(3), np.zeros(3), -5.0, 2.0, 15)
        F, g = fl.total_faraday([h], [0], 1.0, ext)[0]
        assert np.array_equal(F.matrix, ext.tensor)

    def test_two_static_particles_superpose(self):
        d = 2.5
        ha = static_history([0.0, 0.0, 0.0], q=1.0, sigma=0.3)
        hb = static_history([d, 0.0, 0.0], q=2.0, sigma=0.6)
        F, _ = fl.total_faraday([ha, hb], [0], 0.5, fl.ExternalFieldModel.none())[0]
        expected = 2.0 * d * ((d * d + 0.09) ** -1.5 + (d * d + 0.36) ** -1.5)
        assert np.linalg.norm(F.electric) == pytest.approx(expected, rel=1e-11)

    def test_asymptotic_mode_returns_force_and_point_binaries(self):
        d = 2.0
        ha = static_history([0.0, 0.0, 0.0], q=1.0, sigma=0.3)
        hb = static_history([d, 0.0, 0.0], q=1.5, sigma=0.6)
        F, g = fl.total_faraday([ha, hb], [0], 0.5, fl.ExternalFieldModel.none(),
                                fl.SelfForceMode.ASYMPTOTIC)[0]
        assert g is not None and np.max(np.abs(g)) < 1e-12
        assert np.linalg.norm(F.electric) == pytest.approx(2.0 * 1.5 / d**2,
                                                           rel=1e-11)


def ring_histories(n=6):
    """Six charges of alternating sign on wobbling orbits about a ring of
    radius 3, distinct radii except particles 1 and 4 (an equal pair)."""
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
    return hs


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


class TestBatchedTotalFaraday:
    t = 0.7

    def test_exact_matches_the_sum_of_single_terms(self):
        hs = ring_histories()
        ext = fl.ExternalFieldModel.uniform(E=(0.01, 0.0, -0.02), B=(0.0, 0.03, 0.0))
        got = fl.total_faraday(hs, range(6), self.t, ext)
        for i, (F, g) in enumerate(got):
            r_i = hs[i].state_at_time(self.t).r
            want = ext.faraday(r_i) + fl.self_faraday(hs[i], self.t).matrix
            for j, h_j in enumerate(hs):
                if j != i:
                    want = want + fl.binary_faraday(h_j, r_i, hs[i].spec.sigma,
                                                    h_j.spec.sigma).matrix
            assert g is None
            assert _close(F.matrix, fl.FaradayTensor(want).matrix)
        # an observer subset gets the same tensors
        sub = fl.total_faraday(hs, [4, 1], self.t, ext)
        assert np.array_equal(sub[0][0].matrix, got[4][0].matrix)
        assert np.array_equal(sub[1][0].matrix, got[1][0].matrix)

    def test_asymptotic_matches_the_sum_of_single_terms(self):
        hs = ring_histories()
        got = fl.total_faraday(hs, range(6), self.t, fl.ExternalFieldModel.none(),
                               fl.SelfForceMode.ASYMPTOTIC)
        for i, (F, g) in enumerate(got):
            r_i = hs[i].state_at_time(self.t).r
            want = np.zeros((4, 4))
            for j, h_j in enumerate(hs):
                if j != i:
                    want = want + fl.binary_faraday_pointlimit(h_j, r_i).matrix
            assert _close(F.matrix, fl.FaradayTensor(want).matrix)
            assert _close(g, fl.asymptotic_self_force(hs[i], self.t))

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
        fl.total_faraday(hs, range(6), self.t, fl.ExternalFieldModel.none())
        lowest, second = np.sort(ratios[0])[:2]
        # a floor between the two smallest |Rt.u| / |Rt| trips exactly one root
        monkeypatch.setattr(fl, "_kernel", kernel)
        monkeypatch.setattr(fl, "JAC_TOL", 0.5 * (lowest + second))
        with pytest.raises(ret.DegenerateJacobian, match="in the field kernel") as err:
            fl.total_faraday(hs, range(6), self.t, fl.ExternalFieldModel.none())
        assert err.value.particle in {h.spec.label for h in hs}


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
        u = mk.four_velocity(v)
        w = mk.contract_force(ext.tensor, u)
        g = u[0]
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

    def test_analytic_variant_requires_callables(self):
        with pytest.raises(ValueError):
            fl.ExternalFieldModel(variant="user-analytic")
        with pytest.raises(ValueError):
            fl.ExternalFieldModel(variant="nope")
