"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one `ACCEPTANCE nn name: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`), so the gate reads as a checklist.
All scenarios are desk scale; the whole file runs in well under ten minutes.
"""

import math

import numpy as np

from retnbody import fields as fl
from retnbody import minkowski as mk
from retnbody import retardation as ret
from retnbody import worldline as wl
from retnbody.canonical import (
    ConstrainedState,
    FrozenHistoryContext,
    GeneratorSet,
    TranslationVariation,
    check_bracket_algebra,
    effective_momentum,
    hamiltonian_phase_function,
    instant_form_constrained,
    instant_form_increments,
    lorentz_condition_residuals,
    nonlocal_bracket,
    poisson_bracket,
    state_from_histories,
    system_hamiltonian,
)
from retnbody.dynamics import copy_state, flow_non_bijectivity_check, run, seed
from retnbody.harness import (
    OracleConfig,
    _coordinate_function,
    _random_canonical_state,
    action_oracle,
    extremality_ratio,
)
from retnbody.worldline import (
    ParticleSpec,
    WorldlineHistory,
    history_from_kinematics,
    inertial_history,
)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -- shared scenario builders -------------------------------------------------


def _hyperbolic(b=4.0, sigma=1.6, q=1.3, n=3001):
    spec = ParticleSpec(m0=1.0, q=q, sigma=sigma, label="h")

    def x_fn(t):
        return np.array([math.sqrt(b * b + t * t) - b, 0.0, 0.0])

    def v_fn(t):
        return np.array([t / math.sqrt(b * b + t * t), 0.0, 0.0])

    def a_fn(t):
        return np.array([b * b / (b * b + t * t) ** 1.5, 0.0, 0.0])

    return history_from_kinematics(spec, np.linspace(-12.0, 3.0, n),
                                   x_fn, v_fn, a_fn)


def _wiggling_pair(q1, q2, t_end=1.5):
    specs = [ParticleSpec(1.0, q1, 0.4, "a"), ParticleSpec(1.5, q2, 0.6, "b")]

    def make(spec, x_off, amp, om, ph):
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
        return history_from_kinematics(spec, nodes, x_fn, v_fn, a_fn)

    return [make(specs[0], -1.1, 0.25, 0.6, 0.4),
            make(specs[1], 1.1, 0.20, 0.5, 1.3)]


def _interacting_pair_state(dt=0.02, coverage=1.2):
    specs = [ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.5, -0.4, 0.7, "b")]
    return seed(specs, [[-1.5, 0, 0], [1.5, 0.3, 0]],
                [[0, 0, 0], [0, 0, 0]], dt=dt, coverage_factor=coverage)


# -- the gate -------------------------------------------------------------------


def test_01_free_motion_exactness():
    spec = ParticleSpec(1.0, 0.0, 1.0, "free")
    v3 = np.array([0.2, 0.1, 0.05])
    st = seed([spec], [[0.3, -0.2, 0.1]], [v3], dt=1e-3)
    run(st, 1.0)
    h = st.histories[0]
    end = h.state_at_time(st.t_now)
    pos_err = float(np.max(np.abs(
        end.r[1:] - (np.array([0.3, -0.2, 0.1]) + v3 * st.t_now))))
    shell = max(abs(mk.dot(s.u, s.u) - 1.0) for s in h.samples if s.t >= 0.0)
    _report(1, "free-motion exactness",
            pos_err < 1e-12 and shell < 1e-13,
            f"pos_err={pos_err:.2e} shell={shell:.2e}")


def test_02_delay_root_closed_forms():
    sg, d = 0.8, 2.5
    stat = inertial_history(ParticleSpec(1.0, 1.0, sg, "s"),
                            np.zeros(3), np.zeros(3), -20.0, 2.0, 31)
    e_self = abs(ret.self_delay(stat, 1.0, sg).t_ret - sg)

    src = inertial_history(ParticleSpec(1.0, 1.0, sg, "p"),
                           np.array([d, 0.0, 0.0]), np.zeros(3),
                           -20.0, 2.0, 31)
    obs = np.array([1.0, 0.0, 0.0, 0.0])
    e_pair = abs(ret.pair_delay(src, obs, sg).t_ret
                 - math.sqrt(d * d + sg * sg))

    beta = 0.6
    gam = 1.0 / math.sqrt(1.0 - beta * beta)
    mov = inertial_history(ParticleSpec(1.0, 1.0, sg, "m"),
                           np.zeros(3), np.array([beta, 0.0, 0.0]),
                           -20.0, 2.0, 31)
    e_mov = abs(ret.self_delay(mov, 1.0, sg).t_ret - gam * sg)

    _report(2, "delay-root closed forms",
            e_self < 1e-12 and e_pair < 1e-12 and e_mov < 1e-11,
            f"self={e_self:.2e} pair={e_pair:.2e} moving={e_mov:.2e}")


def test_03_inertial_self_force_null():
    spec = ParticleSpec(1.0, 0.9, 0.8, "i")
    st = seed([spec], [[0.0, 0.0, 0.0]], [[0.25, -0.1, 0.0]], dt=0.02)
    run(st, 1.5)
    h = st.histories[0]
    # scan a window that straddles the prehistory junction of the
    # retarded root (root crosses t=0 near t = gamma*sigma/c)
    worst = 0.0
    for t in np.linspace(0.05, 1.45, 57):
        F = fl.self_faraday(h, float(t))
        worst = max(worst, float(np.max(np.abs(F.matrix))))
    _report(3, "inertial self-force null", worst <= 1e-13,
            f"max|F_self|={worst:.2e}")


def test_04_self_force_first_order_in_radius():
    h = _hyperbolic()
    times = [0.5, 1.0, 1.5]
    q, c = h.spec.q, h.c

    def exact_force(t, sg):
        smp = h.state_at_time(t)
        F = fl.self_faraday(h, t, sg)
        return (q / c) * (F.matrix @ smp.u)

    # the raw four-vector difference keeps a radius-independent piece
    # q^2 (a.a) u(s') that reconciles orthogonality to u(s') with
    # orthogonality to u(s); the first-order claim is relative to the
    # leading 1/sigma force scale, so the gap is normalized by it
    def relative_gap(sg):
        worst, scale = 0.0, 0.0
        for t in times:
            ex = exact_force(t, sg)
            asy = fl.asymptotic_self_force(h, t, sg)
            worst = max(worst, float(np.max(np.abs(ex - asy))))
            scale = max(scale, float(np.max(np.abs(ex))))
        return worst / scale

    sigmas = [1.6, 0.8, 0.4, 0.2, 0.1]
    gaps = [relative_gap(s) for s in sigmas]
    ratios = [gaps[k] / gaps[k + 1] for k in range(len(gaps) - 1)]
    ratios_ok = all(1.7 < r < 2.3 for r in ratios)

    # leading 1/sigma coefficient of the exact force against the
    # electromagnetic mass q^2/(c^2 sigma)
    t_fit = 1.0
    a1 = h.state_at_time(t_fit).a[1]
    fit_sigmas = np.array([0.4, 0.2, 0.1, 0.05])
    comp = np.array([exact_force(t_fit, s)[1] for s in fit_sigmas])
    slope = np.polyfit(1.0 / fit_sigmas, comp, 1)[0]
    m_fit_err = abs(slope / (q * q * a1 / c) - 1.0)

    _report(4, "self-force first order in radius",
            ratios_ok and m_fit_err < 0.02,
            f"ratios={[round(r, 2) for r in ratios]} m_em_fit_err={m_fit_err:.3f}")


def test_05_static_binary_force():
    q, si, sj = 1.7, 0.8, 0.5
    origin = np.array([0.0, 0.0, 0.0, 0.0])

    def field_at_origin(sep3, d_i, d_j, qq=q):
        h = inertial_history(ParticleSpec(1.0, qq, d_j, "src"),
                             np.asarray(sep3, dtype=float), np.zeros(3),
                             -200.0, 2.0, 16)
        return fl.binary_faraday(h, origin, d_i, d_j)

    sep = np.array([1.2, -0.8, 0.5])
    E = field_at_origin(sep, si, sj).electric
    radial = float(np.max(np.abs(np.cross(E, sep)))) / (
        np.linalg.norm(E) * np.linalg.norm(sep))

    d = 2.0
    E_ax = field_at_origin([d, 0, 0], si, sj).electric
    want = q * d * ((d * d + si * si) ** -1.5 + (d * d + sj * sj) ** -1.5)
    mag_err = abs(np.linalg.norm(E_ax) / want - 1.0)

    s_small = 0.05
    dists = np.array([5.0, 10.0, 20.0, 40.0])
    mags = [np.linalg.norm(field_at_origin([dd, 0, 0], s_small, s_small)
                           .electric) for dd in dists]
    slope = np.polyfit(np.log(dists), np.log(mags), 1)[0]

    F_eq = field_at_origin([d, 0, 0], si, si).matrix
    single = fl._binary_term(
        inertial_history(ParticleSpec(1.0, q, si, "src"),
                         np.array([d, 0.0, 0.0]), np.zeros(3),
                         -200.0, 2.0, 16), origin, si)
    doubled = bool(np.array_equal(F_eq, 2.0 * single))

    _report(5, "static binary force",
            radial < 1e-10 and mag_err < 1e-8
            and abs(slope + 2.0) < 0.01 and doubled,
            f"radial={radial:.1e} mag_err={mag_err:.1e} "
            f"slope={slope:.4f} equal-radii-2x={doubled}")


def test_06_action_gradient_oracle():
    st = _interacting_pair_state()
    run(st, 1.2)
    ext = extremality_ratio(st.histories, OracleConfig(width=0.08, nodes=48),
                            0.3, st.t_now, rng=np.random.default_rng(3))

    specs = [ParticleSpec(1.0, 0.5, 0.8, "a"), ParticleSpec(1.4, -0.4, 0.7, "b")]

    def bent(spec, x0, amp, om, ph):
        def x_fn(t):
            return np.array([x0 + amp * math.sin(om * t + ph),
                             0.1 * amp * math.cos(0.7 * om * t), 0.0])

        def v_fn(t):
            return np.array([amp * om * math.cos(om * t + ph),
                             -0.07 * amp * om * math.sin(0.7 * om * t), 0.0])

        def a_fn(t):
            return np.array([-amp * om * om * math.sin(om * t + ph),
                             -0.049 * amp * om * om * math.cos(0.7 * om * t),
                             0.0])

        return history_from_kinematics(spec, np.linspace(-9.0, 1.2, 2400),
                                       x_fn, v_fn, a_fn)

    hists = wl.copy_histories([bent(specs[0], -1.4, 0.25, 0.9, 0.3),
                               bent(specs[1], 1.4, 0.2, 0.7, 1.1)])
    coarse = action_oracle(hists, OracleConfig(width=0.08, nodes=80),
                           0.25, 1.1)
    fine = action_oracle(hists, OracleConfig(width=0.04, nodes=160),
                         0.25, 1.1)

    _report(6, "action-gradient oracle",
            ext["ratio"] <= 0.1 and coarse.rel_mismatch < 0.03
            and fine.rel_mismatch < coarse.rel_mismatch,
            f"extremality={ext['ratio']:.3f} force_agree={coarse.rel_mismatch:.4f} "
            f"refined={fine.rel_mismatch:.5f}")


def test_07_bracket_layer_identities():
    rng = np.random.default_rng(2026)
    fund = 0.0
    for _ in range(20):
        x = _random_canonical_state(rng, 2)
        for i in range(2):
            for mu in range(4):
                for nu in range(4):
                    v = poisson_bracket(_coordinate_function("r", i, mu),
                                        _coordinate_function("P", i, nu), x)
                    fund = max(fund, abs(v - (1.0 if mu == nu else 0.0)))

    gens = GeneratorSet()
    lor = 0.0
    for _ in range(100):
        rep = lorentz_condition_residuals(_random_canonical_state(rng, 2), gens)
        lor = max(lor, rep["pp"], rep["Mp"], rep["MM"])

    triples = [(gens.p_hat[0], gens.M(0, 1), gens.M(1, 2)),
               (gens.M(0, 1), gens.M(0, 2), gens.p_hat[2]),
               (gens.p_hat[1], gens.p_hat[2], gens.M(2, 3))]
    jac = 0.0
    for _ in range(5):
        rep = check_bracket_algebra(_random_canonical_state(rng, 2), triples)
        jac = max(jac, rep["jacobi"])

    _report(7, "bracket-layer identities",
            fund < 1e-14 and lor < 1e-11 and jac < 1e-10,
            f"fundamental={fund:.1e} lorentz={lor:.1e} jacobi={jac:.1e}")


def test_08_non_commutation_certificate():
    st = _interacting_pair_state()
    run(st, 1.0)
    hists = st.histories
    ctx = FrozenHistoryContext(hists, fl.ExternalFieldModel.none(), st.t_now)
    xs, Ps = [], []
    for i, h in enumerate(hists):
        smp = h.state_at_time(st.t_now)
        A = ctx.a_eff_cov(i, smp.r)
        P = effective_momentum(smp.u, h.spec, A, h.c)
        xs.append(smp.r[1:])
        Ps.append(P[1:])
    xp = ConstrainedState(np.array(xs), np.array(Ps))
    comm = float(np.max(np.abs(instant_form_constrained(xp, ctx)["comm_p0_pl"])))

    neutral = [h.copy(ParticleSpec(h.spec.m0, 0.0, h.spec.sigma, h.spec.label))
               for h in hists]
    ctx0 = FrozenHistoryContext(neutral, fl.ExternalFieldModel.none(), st.t_now)
    comm0 = float(np.max(np.abs(instant_form_constrained(xp, ctx0)["comm_p0_pl"])))

    dt = 1e-3
    dr, dP = instant_form_increments(xp, ctx, dt)
    inc_err = 0.0
    for i, h in enumerate(hists):
        smp = h.state_at_time(st.t_now)
        v = h.c * smp.u[1:] / smp.u[0]
        inc_err = max(inc_err, float(np.max(np.abs(dr[i] - dt * v))))

        q, c = h.spec.q, h.c

        def coupling(x3, i=i, v=v, q=q, c=c):
            r4 = np.concatenate(([c * ctx.t_ref], x3))
            A = ctx.a_eff_cov(i, r4)
            return (q / c) * (A[0] * c + float(A[1:] @ v))

        for ll in range(3):
            step = 1e-6 * (1.0 + abs(xp.x[i, ll]))
            xp_p, xp_m = xp.x[i].copy(), xp.x[i].copy()
            xp_p[ll] += step
            xp_m[ll] -= step
            want = dt * (coupling(xp_p) - coupling(xp_m)) / (2.0 * step) / c
            inc_err = max(inc_err, abs(dP[i, ll] - want) / (1.0 + abs(want)))

    _report(8, "non-commutation certificate",
            comm > 1e-8 and comm0 < 1e-12 and inc_err < 1e-6,
            f"comm={comm:.2e} neutral={comm0:.2e} increments={inc_err:.2e}")


def test_09_nonlocal_vs_local_brackets():
    hists = wl.copy_histories(_wiggling_pair(1.0, -0.8))
    c = hists[0].c
    ctx = FrozenHistoryContext(hists, fl.ExternalFieldModel.none(), t_ref=0.0)
    x = state_from_histories(hists, 0.0, ctx)

    def delta_argument(state, histories):
        r_obs = state.r[0]
        root = ret.pair_delay(histories[1], r_obs, histories[1].spec.sigma)
        d4 = r_obs - root.source_event.r
        return mk.dot(d4, d4)

    base_sc = abs(delta_argument(x, hists))
    inv = max(abs(nonlocal_bracket(delta_argument, TranslationVariation(d4), x,
                                   hists, alpha=1e-3))
              for d4 in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [0.5, -0.4, 0.3, 0.8]))
    inv_ok = inv < 1e-9 * (1.0 + base_sc)

    def h_n(state, histories):
        c2 = FrozenHistoryContext(histories, fl.ExternalFieldModel.none(),
                                  t_ref=state.r[0, 0] / c)
        return system_hamiltonian(state, c2)

    base_h = abs(h_n(x, hists))
    nl = max(abs(nonlocal_bracket(h_n, TranslationVariation(d4), x, hists,
                                  alpha=1e-3))
             for d4 in ([0.0, 1.0, 0.3, -0.2], [1.0, 0.0, 0.0, 0.0]))
    nl_ok = nl < 1e-8 * (1.0 + base_h)

    gens = GeneratorSet()
    local = abs(poisson_bracket(hamiltonian_phase_function(ctx),
                                gens.translation(np.array([0.0, 1.0, 0.0, 0.0])),
                                x))

    _report(9, "nonlocal vs local brackets",
            inv_ok and nl_ok and local > 1e-6,
            f"delta_inv={inv:.1e} nl_HN={nl:.1e} local_HN={local:.1e}")


def _truncated(h, t_cut):
    tab = h.table
    out = WorldlineHistory(h.spec, c=h.c)
    out.extend(tab[tab[:, 0] < t_cut - 1e-9])
    out.append(h.state_at_time(t_cut))
    return out


def test_10_boost_covariance():
    dt = 0.01
    st = _interacting_pair_state(dt=dt, coverage=2.0)
    run(st, 2.2)
    fine = _interacting_pair_state(dt=dt / 2, coverage=2.0)
    run(fine, 2.2)

    tol = 0.0
    for t in np.linspace(0.05, 1.7, 34):
        for hc, hf in zip(st.histories, fine.histories):
            tol = max(tol, float(np.max(np.abs(
                hc.state_at_time(float(t)).r - hf.state_at_time(float(t)).r))))

    beta = 0.3
    lam = mk.Boost(np.array([beta, 0.0, 0.0])).matrix()
    lam_inv = mk.Boost(np.array([-beta, 0.0, 0.0])).matrix()
    t0p = 0.55
    pre = [_truncated(h.transformed(lam, 0), t0p) for h in st.histories]
    stp = seed(prehistories=pre, t0=t0p, dt=dt)
    run(stp, 1.05)

    mismatch = 0.0
    for tp in np.linspace(0.6, 1.04, 23):
        for hp, hs in zip(stp.histories, st.histories):
            back = lam_inv @ hp.state_at_time(float(tp)).r
            mismatch = max(mismatch, float(np.max(np.abs(
                back - hs.state_at_time(float(back[0] / hs.c)).r))))

    _report(10, "boost covariance", mismatch < 10.0 * tol,
            f"mismatch={mismatch:.2e} tol={tol:.2e}")


def _curved_prehistory(spec, x0, span):
    A, w = 0.4, 1.2

    def x_fn(t):
        return np.array([x0[0] + A * (math.cos(w * t) - 1.0), x0[1], x0[2]])

    def v_fn(t):
        return np.array([-A * w * math.sin(w * t), 0.0, 0.0])

    def a_fn(t):
        return np.array([-A * w * w * math.cos(w * t), 0.0, 0.0])

    return history_from_kinematics(spec, np.linspace(-span, 0.0, 160),
                                   x_fn, v_fn, a_fn)


def test_11_flow_non_bijectivity():
    d, sigma, q = 2.5, 0.6, 0.5
    specs = [ParticleSpec(1.0, q, sigma, "a"), ParticleSpec(1.0, -q, sigma, "b")]
    pos = [np.array([-d / 2, 0.0, 0.0]), np.array([d / 2, 0.0, 0.0])]
    st_a = seed(specs, pos, [[0, 0, 0], [0, 0, 0]], dt=0.05,
                renormalize_u=True)
    pre_b = [_curved_prehistory(specs[0], pos[0], 6.0),
             inertial_history(specs[1], pos[1], [0, 0, 0], -6.0, 0.0, 160)]
    st_b = seed(prehistories=pre_b, dt=0.05, renormalize_u=True)
    window = ret.max_delay(st_a.histories, 0.0)
    rep = flow_non_bijectivity_check(st_a, st_b, min(1.5, window))

    st_c = seed(specs, pos, [[0, 0, 0], [0, 0, 0]], dt=0.05)
    st_d = seed(specs, pos, [[0, 0, 0], [0, 0, 0]], dt=0.05)
    rep0 = flow_non_bijectivity_check(st_c, st_d, 0.5)

    _report(11, "flow non-bijectivity",
            rep["passes"] and rep["initial_agreement"] < 1e-14
            and rep0["max_divergence"] == 0.0,
            f"divergence={rep['max_divergence']:.2e} "
            f"tol={rep['tolerance']:.2e} identical={rep0['max_divergence']:.1e}")


def test_12_rk4_order():
    def final_state(dt):
        specs = [ParticleSpec(1.0, 0.5, 0.6, "a"), ParticleSpec(1.0, -0.5, 0.6, "b")]
        st = seed(specs, [[-1.0, 0, 0], [1.0, 0, 0]], [[0, 0, 0], [0, 0, 0]],
                  dt=dt)
        run(st, 0.4)
        return np.concatenate([
            np.concatenate([h.state_at_time(st.t_now).r[1:],
                            h.state_at_time(st.t_now).u])
            for h in st.histories])

    ref = final_state(0.05 / 8)
    e1 = float(np.max(np.abs(final_state(0.05) - ref)))
    e2 = float(np.max(np.abs(final_state(0.025) - ref)))
    ratio = e1 / e2
    _report(12, "rk4 order", 12.0 < ratio < 20.0, f"error_ratio={ratio:.1f}")
