import gc
import math
import weakref

import numpy as np
import pytest

from retnbody.dynamics import (
    InsufficientPrehistory,
    SystemState,
    copy_state,
    demo_globally_isolated,
    demo_locally_isolated,
    flow_non_bijectivity_check,
    run,
    seed,
    step,
)
from retnbody import canonical as cn
from retnbody import dynamics as dyn
from retnbody import fields as fl
from retnbody import retardation as ret
from retnbody import worldline as wl
from retnbody.fields import ExternalFieldModel, SelfForceMode, total_faraday
from retnbody.minkowski import dot, raise_index
from retnbody.retardation import max_delay
from retnbody.worldline import (
    ConstraintViolation,
    ParticleSpec,
    history_from_kinematics,
    inertial_history,
)


def static_pair(d=2.0, q1=0.5, q2=-0.3, s1=0.5, s2=0.5, m0=1.0, dt=0.02):
    specs = [ParticleSpec(m0, q1, s1, "one"), ParticleSpec(m0, q2, s2, "two")]
    return seed(specs, [[-d / 2, 0, 0], [d / 2, 0, 0]],
                [[0, 0, 0], [0, 0, 0]], dt=dt)


# -- seeding -------------------------------------------------------------------


def test_seed_coverage_single_static():
    st = seed([ParticleSpec(1.0, 1.0, 1.0, "a")], [[0, 0, 0]], [[0, 0, 0]])
    h = st.histories[0]
    assert st.t_now - h.t_first >= 1.0
    for t in (-0.3, -0.7, h.t_first - 5.0):
        smp = h.state_at_time(t)
        assert np.array_equal(smp.a, np.zeros(4))
        assert np.array_equal(smp.u, np.array([1.0, 0.0, 0.0, 0.0]))


def test_seed_coverage_static_pair():
    specs = [ParticleSpec(1.0, 1.0, 4.0, "a"), ParticleSpec(1.0, 1.0, 4.0, "b")]
    st = seed(specs, [[0, 0, 0], [3.0, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    for h in st.histories:
        assert st.t_now - h.t_first >= 5.0


def test_seed_rejects_short_prehistory():
    specs = [ParticleSpec(1.0, 1.0, 4.0, "a"), ParticleSpec(1.0, 1.0, 4.0, "b")]
    pre = [inertial_history(specs[0], [-2.0 * 0, 0, 0], [0, 0, 0], -2.0, 0.0, 8),
           inertial_history(specs[1], [3.0, 0, 0], [0, 0, 0], -2.0, 0.0, 8)]
    with pytest.raises(InsufficientPrehistory) as err:
        seed(prehistories=pre)
    assert err.value.required > 2.0
    bad_end = [inertial_history(specs[0], [0, 0, 0], [0, 0, 0], -8.0, -1.0, 8),
               inertial_history(specs[1], [3, 0, 0], [0, 0, 0], -8.0, -1.0, 8)]
    with pytest.raises(ValueError):
        seed(prehistories=bad_end)


def test_seed_accepts_covering_prehistory():
    spec = ParticleSpec(1.0, 0.5, 1.0, "a")
    pre = [inertial_history(spec, [0, 0, 0], [0, 0, 0], -4.0, 0.0, 32)]
    st = seed(prehistories=pre)
    assert st.n == 1
    assert st.t_now == 0.0


def receding_prehistories(span):
    """Inertial prehistories over span of two sigma = 0.5 charges at
    x = -+1.5 receding at 0.5 c."""
    specs = [ParticleSpec(1.0, 0.5, 0.5, "left"), ParticleSpec(1.0, 0.5, 0.5, "right")]
    return [inertial_history(spec, [x - v * span, 0, 0], [v, 0, 0], -span, 0.0, 32)
            for spec, x, v in zip(specs, (-1.5, 1.5), (-0.5, 0.5))]


def test_seed_accepts_prehistory_reaching_the_refined_depth():
    # the root search starts at sqrt(d^2 + sigma^2)/c = 3.04, before
    # t_first = -2.5, but the deepest root (2.04) lies inside the history
    pre = receding_prehistories(2.5)
    st = seed(prehistories=pre)
    assert all(a is b for a, b in zip(st.histories, pre))
    assert max_delay(pre, 0.0) == pytest.approx(2.0415, abs=1e-4)


def test_seed_requires_coverage_of_the_refined_depth():
    pre = receding_prehistories(1.5)
    with pytest.raises(InsufficientPrehistory) as err:
        seed(prehistories=pre, coverage_factor=1.2)
    assert err.value.required == 1.2 * max_delay(pre, 0.0)
    assert err.value.required == pytest.approx(2.4497, abs=1e-4)


# -- stepping ------------------------------------------------------------------


def test_empty_prehistory_is_refused_as_a_query_beyond_present():
    spec = ParticleSpec(1.0, 0.5, 0.5, "empty")
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        seed(prehistories=[wl.WorldlineHistory(spec)])
    full = inertial_history(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], -5.0, 0.0, 11)
    empty = wl.WorldlineHistory(spec)
    wl.share_store([full, empty])
    row = np.hstack([0.1, 0.1, 0.1, np.zeros(3), [1.0, 0.0, 0.0, 0.0], np.zeros(4)])
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        with wl.staged([full, empty], [row, row]):
            pass
    assert len(full) == 11
    with pytest.raises(wl.QueryBeyondPresent, match="no samples"):
        cn.FrozenHistoryContext([full, empty], ExternalFieldModel.none(), 0.0)


def test_writes_to_histories_in_several_stores_are_refused():
    # b's history seeded into a second system moves to that system's store
    specs = [ParticleSpec(1.0, 0.1, 0.5, "a"), ParticleSpec(1.0, 0.1, 0.5, "b")]
    st = seed(specs, [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]] * 2, dt=0.05)
    seed(prehistories=[st.histories[1]], dt=0.05)
    hs = st.histories
    before = [h.table for h in hs]
    rows = np.array([h.table[-1] for h in hs])
    rows[:, :3] += 0.05
    with pytest.raises(ValueError, match="must share one store"):
        with wl.staged(hs, rows):
            pass
    with pytest.raises(ValueError, match="must share one store"):
        wl.commit(hs, rows)
    with pytest.raises(ValueError, match="must share one store"):
        step(st)
    assert st.t_now == 0.0 and len(st.diagnostics) == 0
    for h, tab in zip(hs, before):
        assert np.array_equal(h.table, tab)


def test_free_motion_single_step():
    spec = ParticleSpec(1.0, 0.0, 0.5, "free")
    v = np.array([0.6, 0.0, 0.0])
    st = seed([spec], [[0, 0, 0]], [v], dt=0.05)
    u_before = st.histories[0].state_at_time(0.0).u.copy()
    step(st)
    smp = st.histories[0].state_at_time(st.t_now)
    assert np.max(np.abs(smp.u - u_before)) < 1e-14
    assert np.max(np.abs(smp.r[1:] - v * st.t_now)) < 1e-14
    assert smp.r[0] == st.c * st.t_now


def test_free_motion_long_run():
    spec = ParticleSpec(1.0, 0.0, 0.5, "free")
    v = np.array([0.3, -0.2, 0.1])
    st = seed([spec], [[1.0, 0.5, -0.2]], [v], dt=0.01)
    run(st, 10.0)
    assert len(st.diagnostics) == 1000
    smp = st.histories[0].state_at_time(st.t_now)
    want = np.array([1.0, 0.5, -0.2]) + v * st.t_now
    assert np.max(np.abs(smp.r[1:] - want)) < 1e-12
    assert abs(dot(smp.u, smp.u) - 1.0) < 1e-13


def test_magnetic_orbit_speed_and_constraint():
    spec = ParticleSpec(1.0, 1.0, 0.5, "orb")
    B = 0.5
    v0 = 0.3
    st = seed([spec], [[0, 0, 0]], [[v0, 0, 0]], dt=0.01,
              external=ExternalFieldModel.uniform(B=(0.0, 0.0, B)),
              include_self=False, include_binary=False)
    run(st, 10.0)
    assert len(st.diagnostics) == 1000
    h = st.histories[0]
    t_chk = st.t_now
    u_end = h.state_at_time(t_chk).u
    g0 = 1.0 / math.sqrt(1.0 - v0 * v0)
    speed0 = g0 * v0
    assert abs(np.linalg.norm(u_end[1:]) - speed0) < 1e-10
    assert abs(u_end[0] - g0) < 1e-10
    drift = max(np.max(r.constraint_err) for r in st.diagnostics.records)
    assert drift < 1e-9
    # gyration oracle: x(t) = R sin(w t), y(t) = R (cos(w t) - 1)
    w = B * spec.q / (g0 * spec.m0)
    R = v0 / w
    want = np.array([R * math.sin(w * t_chk), R * (math.cos(w * t_chk) - 1.0), 0.0])
    assert np.max(np.abs(h.state_at_time(t_chk).r[1:] - want)) < 1e-6


def test_static_pair_initial_force_matches_closed_form():
    d, q1, q2, s1, s2, m0 = 2.0, 1.0, -0.6, 0.5, 0.7, 1.3
    specs = [ParticleSpec(m0, q1, s1, "one"), ParticleSpec(m0, q2, s2, "two")]
    st = seed(specs, [[-d / 2, 0, 0], [d / 2, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    mag = d * ((d * d + s1 * s1) ** -1.5 + (d * d + s2 * s2) ** -1.5)
    for i, sgn in ((0, -1.0), (1, 1.0)):
        h = st.histories[i]
        smp = h.state_at_time(0.0)
        F, g, _ = total_faraday(st.histories, [i], 0.0, st.external)
        assert g is None
        dudt = raise_index((h.spec.q / st.c) * (F[0] @ smp.u)) / (smp.u[0] * m0)
        want_x = q1 * q2 * sgn * mag / m0
        assert dudt[1] == pytest.approx(want_x, rel=1e-8)
        assert abs(dudt[0]) < 1e-12
        assert abs(dudt[2]) < 1e-12 and abs(dudt[3]) < 1e-12


def test_rk4_order():
    def final_state(dt):
        st = static_pair(d=2.0, q1=0.5, q2=-0.5, s1=0.6, s2=0.6, dt=dt)
        run(st, 0.4)
        out = []
        for h in st.histories:
            smp = h.state_at_time(st.t_now)
            out.append(np.concatenate([smp.r[1:], smp.u]))
        return np.concatenate(out)

    ref = final_state(0.05 / 8)
    e1 = np.max(np.abs(final_state(0.05) - ref))
    e2 = np.max(np.abs(final_state(0.025) - ref))
    assert 12.0 < e1 / e2 < 20.0


def test_line_element_consistency():
    st = static_pair(d=3.0, q1=0.2, q2=-0.2, s1=1.0, s2=1.0, m0=2.0, dt=0.02)
    run(st, 0.8)
    for h in st.histories:
        smps = h.samples
        k0 = next(k for k, s in enumerate(smps) if s.t >= 0.0)
        for k in range(k0, len(smps) - 1):
            a, b = smps[k], smps[k + 1]
            dr = b.r - a.r
            chord = math.sqrt(dot(dr, dr))
            ds = b.s - a.s
            assert ds == pytest.approx(chord, rel=1e-8)


def test_determinism_bit_identical_csv(tmp_path):
    outs = []
    for tag in ("x", "y"):
        st = static_pair(dt=0.05)
        d = tmp_path / tag
        run(st, 0.25, trajectory_dir=str(d), diagnostics_path=str(d / "diag.csv"))
        outs.append(d)
    for name in ("trajectory_one.csv", "trajectory_two.csv", "diag.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name


def test_diagnostics_rows_and_header():
    st = static_pair(dt=0.05)
    run(st, 0.25)
    assert len(st.diagnostics) == 5
    hdr = st.diagnostics.header(["one", "two"])
    rec = st.diagnostics.records[0]
    flat = ([rec.step, rec.t] + list(rec.constraint_err)
            + list(rec.h_eff) + list(rec.p_hat) + list(rec.m_hat)
            + list(rec.self_delays) + list(rec.pair_delays))
    assert len(hdr) == len(flat)
    assert rec.self_delays[0] > 0.0
    assert rec.wall_time >= 0.0


def test_partial_output_preserved_on_failure(tmp_path):
    spec = ParticleSpec(0.05, 5.0, 0.4, "hot")
    st = seed([spec], [[0, 0, 0]], [[0, 0, 0]], dt=0.5,
              external=ExternalFieldModel.uniform(E=(50.0, 0.0, 0.0)),
              include_self=False, include_binary=False)
    with pytest.raises(ConstraintViolation):
        run(st, 5.0, trajectory_dir=str(tmp_path),
            diagnostics_path=str(tmp_path / "diag.csv"))
    assert (tmp_path / "trajectory_hot.csv").exists()
    assert (tmp_path / "diag.csv").exists()


def test_exact_vs_asymptotic_divergence_shrinks_with_sigma():
    def divergence(sigma):
        finals = []
        for mode in (SelfForceMode.EXACT, SelfForceMode.ASYMPTOTIC):
            specs = [ParticleSpec(2.0, 0.3, sigma, "a"),
                     ParticleSpec(2.0, 0.3, sigma, "b")]
            st = seed(specs, [[-1.5, 0, 0], [1.5, 0, 0]],
                      [[0, 0, 0], [0, 0, 0]], dt=0.02, mode=mode)
            run(st, 0.6)
            finals.append(np.concatenate(
                [h.state_at_time(st.t_now).r[1:] for h in st.histories]))
        return float(np.max(np.abs(finals[0] - finals[1])))

    d_big = divergence(1.0)
    d_small = divergence(0.5)
    assert d_small < d_big
    assert d_big < 1e-2


# -- demos ----------------------------------------------------------------------


def test_demo_locally_isolated_pulse():
    rep = demo_locally_isolated(t_switch=1.5, t_end=3.0, dt=0.05)
    assert rep["post_switch_max_self_force"] > 1e-12
    f1, f2 = rep["force_pair"]
    assert np.array_equal(4.0 * f1, f2)
    assert rep["q_doubling_ratio"] == 4.0


def test_post_switch_self_force_is_the_per_record_solve_bit_for_bit():
    rep = demo_locally_isolated(t_switch=1.5, t_end=3.0, dt=0.05)
    st = rep["state"]
    h, spec = st.histories[0], st.histories[0].spec
    forces = [float(np.linalg.norm((spec.q / st.c) * (fl.self_faraday(h, r.t).matrix
                                                      @ h.state_at_time(r.t).u)))
              for r in st.diagnostics.records if r.t > 1.5 + 2 * 0.05]
    assert len(forces) > 20
    assert rep["post_switch_max_self_force"] == max(forces)
    # no record after the switch: no force
    assert demo_locally_isolated(t_switch=1.5, t_end=1.5, dt=0.05)[
        "post_switch_max_self_force"] == 0.0


def test_demo_locally_isolated_no_pulse_control():
    rep = demo_locally_isolated(e_amp=0.0, t_switch=1.5, t_end=3.0, dt=0.05)
    assert rep["post_switch_max_self_force"] < 1e-12


def test_demo_globally_isolated():
    rep = demo_globally_isolated(d=3.0, q=0.5, sigma=0.8, t_end=1.0, dt=0.05)
    assert rep["mirror_residual"] < 1e-9
    assert rep["p_hat_drift"].shape == (4,)
    assert np.all(np.isfinite(rep["comm_p0_pl"]))


def test_demo_globally_isolated_neutral():
    rep = demo_globally_isolated(d=3.0, q=0.0, sigma=0.8, t_end=1.0, dt=0.05)
    assert rep["mirror_residual"] < 1e-14
    assert np.max(np.abs(rep["p_hat_drift"])) < 1e-14
    assert np.max(np.abs(rep["comm_p0_pl"])) < 1e-12


# -- flow non-bijectivity ---------------------------------------------------------


def curved_prehistory(spec, x0, span, c=1.0):
    A, w = 0.4, 1.2

    def x_fn(t):
        return np.array([x0[0] + A * (math.cos(w * t) - 1.0), x0[1], x0[2]])

    def v_fn(t):
        return np.array([-A * w * math.sin(w * t), 0.0, 0.0])

    def a_fn(t):
        return np.array([-A * w * w * math.cos(w * t), 0.0, 0.0])

    nodes = np.linspace(-span, 0.0, 160)
    return history_from_kinematics(spec, nodes, x_fn, v_fn, a_fn, c=c)


def test_flow_non_bijectivity_inertial_vs_curved():
    # the curved prehistory hands over a discontinuous acceleration at
    # t=0, so the run keeps u on shell by renormalization
    d, sigma, q = 2.5, 0.6, 0.5
    specs = [ParticleSpec(1.0, q, sigma, "a"), ParticleSpec(1.0, -q, sigma, "b")]
    pos = [np.array([-d / 2, 0.0, 0.0]), np.array([d / 2, 0.0, 0.0])]
    st_a = seed(specs, pos, [[0, 0, 0], [0, 0, 0]], dt=0.05,
                renormalize_u=True)
    pre_b = [curved_prehistory(specs[0], pos[0], 6.0),
             inertial_history(specs[1], pos[1], [0, 0, 0], -6.0, 0.0, 160)]
    st_b = seed(prehistories=pre_b, dt=0.05, renormalize_u=True)
    rep = flow_non_bijectivity_check(st_a, st_b, 1.5)
    assert rep["initial_agreement"] < 1e-14
    assert rep["passes"]
    assert rep["max_divergence"] > 10.0 * rep["tolerance"]


def test_flow_identical_prehistories_zero_divergence():
    st_a = static_pair(dt=0.05)
    st_b = static_pair(dt=0.05)
    rep = flow_non_bijectivity_check(st_a, st_b, 0.5)
    assert rep["max_divergence"] == 0.0
    assert not rep["passes"]


def test_flow_neutral_zero_divergence():
    d, sigma = 2.5, 0.6
    specs = [ParticleSpec(1.0, 0.0, sigma, "a"), ParticleSpec(1.0, 0.0, sigma, "b")]
    pos = [np.array([-d / 2, 0.0, 0.0]), np.array([d / 2, 0.0, 0.0])]
    st_a = seed(specs, pos, [[0, 0, 0], [0, 0, 0]], dt=0.05)
    pre_b = [curved_prehistory(specs[0], pos[0], 6.0),
             inertial_history(specs[1], pos[1], [0, 0, 0], -6.0, 0.0, 160)]
    st_b = seed(prehistories=pre_b, dt=0.05)
    rep = flow_non_bijectivity_check(st_a, st_b, 0.5)
    assert rep["max_divergence"] == 0.0


def test_copy_state_independent():
    st = static_pair(dt=0.05)
    dup = copy_state(st)
    step(st)
    assert dup.t_now == 0.0
    assert dup.histories[0].t_latest == 0.0
    assert st.histories[0].t_latest > 0.0


def test_seed_puts_the_system_in_one_store():
    pre = inertial_history(ParticleSpec(1.0, 0.3, 0.5, "a"), [-1.0, 0, 0], [0.1, 0, 0],
                           -6.0, 0.0, 40)
    st = seed([None, ParticleSpec(1.0, -0.3, 0.6, "b")], [None, [1.0, 0, 0]],
              [None, [0, 0, 0]], prehistories=[pre, None], dt=0.05)
    assert st.histories[0] is pre
    assert len({id(h._bank) for h in st.histories}) == 1
    assert [ref() for ref in st.histories[0]._bank._members] == st.histories


def test_a_prehistory_seeded_twice_is_read_from_where_it_lives():
    pre = inertial_history(ParticleSpec(1.0, 0.3, 0.5, "a"), [-1.0, 0, 0], [0.1, 0, 0],
                           -6.0, 0.0, 40)
    args = ([ParticleSpec(1.0, -0.3, 0.6, "b"), None], [[1.0, 0, 0], None], [[0, 0, 0], None])
    first = seed(*args, prehistories=[None, pre], dt=0.05)
    second = seed(*args, prehistories=[None, pre], dt=0.05)  # moves pre out of first's store
    step(second)
    t = pre.t_latest
    got = wl.gather(first.histories, [0, 1], [0.0, t])
    assert got.t[1] == t and np.array_equal(got.r[1], pre.state_at_time(t).r)


def test_a_dropped_store_is_freed_without_the_garbage_collector():
    # a history holds its store and the store only weak references to its
    # histories, so no cycle keeps a dropped system's nodes alive
    gc.disable()
    try:
        st = static_pair(dt=0.05)
        step(st)
        stores = [weakref.ref(st.histories[0]._bank),
                  weakref.ref(copy_state(st).histories[0]._bank)]
        del st
        assert [ref() for ref in stores] == [None, None]
    finally:
        gc.enable()


def test_copy_state_histories_stay_independent_after_further_steps():
    st = static_pair(dt=0.05)
    step(st)
    dup = copy_state(st)
    assert len({id(h._bank) for h in dup.histories} | {id(st.histories[0]._bank)}) == 2
    tables = [h.table for h in st.histories]
    step(dup)
    step(dup)
    assert [np.array_equal(h.table, tab) for h, tab in zip(st.histories, tables)] == [True] * 2
    step(st)
    # the original's next step is the copy's first one, bit for bit
    for h, g in zip(st.histories, dup.histories):
        assert len(g) == len(h) + 1
        assert np.array_equal(g.table[:len(h)], h.table)


# -- batched force evaluations ---------------------------------------------------


def ring6(dt=0.02):
    """Six charges of alternating sign on a ring, all radii distinct."""
    rng = np.random.default_rng(0)
    specs, xs, vs = [], [], []
    for k in range(6):
        ang = 2.0 * math.pi * k / 6
        xs.append(3.0 * np.array([math.cos(ang), math.sin(ang), 0.0])
                  + rng.normal(0.0, 0.05, 3))
        vs.append(rng.normal(0.0, 0.02, 3))
        specs.append(ParticleSpec(1.0 + 0.15 * k, (0.35 + 0.03 * k) * (-1) ** k,
                                  0.5 + 0.06 * k, f"p{k}"))
    return seed(specs, xs, vs, dt=dt)


def test_force_evaluation_call_budget(monkeypatch):
    # counted, not timed: a force evaluation is a few array passes
    st = ring6()
    counts = {"gather": 0, "state_at_time": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    gather = counted("gather", wl.gather)
    for mod in (wl, ret, fl, dyn):
        monkeypatch.setattr(mod, "gather", gather)
    monkeypatch.setattr(wl.WorldlineHistory, "state_at_time",
                        counted("state_at_time", wl.WorldlineHistory.state_at_time))
    per_eval = []

    def deriv(*args, **kwargs):
        before = dict(counts)
        out = real_deriv(*args, **kwargs)
        per_eval.append({k: counts[k] - before[k] for k in counts})
        return out

    real_deriv = dyn._deriv
    monkeypatch.setattr(dyn, "_deriv", deriv)
    batches, diagnose = count_batches(monkeypatch)
    steps = []
    for _ in range(3):
        before = len(batches)
        step(st)
        steps.append(batches[before:])
    # five evaluations in the first step, four after it: each step's last
    # is the next one's first
    assert len(per_eval) == 13
    assert max(e["gather"] for e in per_eval) <= 4
    assert max(e["state_at_time"] for e in per_eval) <= 2 * st.n
    # one root batch per evaluation and none in the diagnostics, each
    # with N self roots and both cones of every ordered pair: N (2N - 1)
    assert [len(b) for b in steps] == [5, 4, 4]
    assert all(len(b[1]) == 66 for b in batches)
    assert diagnose == [0, 0, 0]


def test_each_force_evaluation_calls_the_public_total_faraday(monkeypatch):
    # the step's one force entry point is fields.total_faraday, so a
    # wrapper around it sees every evaluation
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    real = dyn.total_faraday
    monkeypatch.setattr(dyn, "total_faraday", counted)

    def per_step(st):
        out = []
        for _ in range(3):
            before = len(calls)
            step(st)
            out.append(len(calls) - before)
        return out

    # the final stage's evaluation is the next step's first
    assert per_step(ring6()) == [5, 4, 4]
    # a radius below 2 c dt: four stages, then the step-end batch solved
    # afresh, which is the next step's first
    small = seed([ParticleSpec(1.0, 0.1, 0.03, "small")], [[0, 0, 0]], [[0.1, 0, 0]],
                 dt=0.02)
    assert per_step(small) == [6, 5, 5]
    assert set(calls[:13]) == {6} and set(calls[13:]) == {1}


DIAGNOSE = dyn._diagnose
# node table columns t, a0, a1, a2, a3
T_A = [0, 10, 11, 12, 13]


def count_batches(monkeypatch):
    """Record every solve_delays batch as (histories, src, obs, sigma,
    last), last holding each history's latest node at call time as one
    row (t, a0, a1, a2, a3), and the number of batches solved inside each
    _diagnose call."""
    batches, diagnose = [], []

    def solve(histories, src, events, sigma, obs=-1, **kwargs):
        m = len(np.reshape(events, (-1, 4)))
        last = np.array([h.table[-1, T_A] for h in histories])
        batches.append((tuple(histories), *(np.broadcast_to(x, m).tolist()
                                            for x in (src, obs, sigma)), last))
        return real_solve(histories, src, events, sigma, obs, **kwargs)

    def counted_diagnose(*args):
        before = len(batches)
        out = real_diagnose(*args)
        diagnose.append(len(batches) - before)
        return out

    real_solve, real_diagnose = ret.solve_delays, dyn._diagnose
    monkeypatch.setattr(ret, "solve_delays", solve)
    monkeypatch.setattr(dyn, "_diagnose", counted_diagnose)
    return batches, diagnose


def record_staged(monkeypatch):
    """Record the (N, 14) rows of every staged block of the step."""
    rows = []

    def staged(histories, block):
        rows.append(np.array(block))
        return real(histories, block)

    real = dyn.staged
    monkeypatch.setattr(dyn, "staged", staged)
    return rows


def committed_last(st):
    """Each history's latest committed node as (t, a0, a1, a2, a3)."""
    return np.array([h.table[-1, T_A] for h in st.histories])


def fresh_record(st):
    """The step record at t_now from roots solved afresh on the committed
    histories: effective_potentials and one single-root solve per delay."""
    hs, n = st.histories, st.n
    now = wl.gather(hs, np.arange(n), np.full(n, st.t_now))
    A = cn.effective_potentials(hs, st.external, range(n), now.r)
    tau = [[ret.self_delay(h, st.t_now).t_ret]
           + [ret.pair_delay(hj, now.r[i], h.spec.sigma).t_ret
              for j, hj in enumerate(hs) if j != i] for i, h in enumerate(hs)]
    return DIAGNOSE(st, now, (A, np.array(tau)), 0.0)


@pytest.mark.parametrize("mode, sigmas", [(SelfForceMode.EXACT, (0.03, 0.035, 0.032)),
                                          (SelfForceMode.ASYMPTOTIC, (0.5, 0.6, 0.55))])
def test_step_end_batch_without_reuse_serves_the_diagnostics(monkeypatch, mode, sigmas):
    # exact radii below 2 c dt, or asymptotic mode: no evaluation is
    # reused, and the step-end batch is solved on the committed histories
    specs = [ParticleSpec(1.0, 0.1, sigmas[0], "a"), ParticleSpec(1.0, 0.0, sigmas[1], "n"),
             ParticleSpec(1.2, -0.12, sigmas[2], "b")]
    st = seed(specs, [[-0.5, 0, 0], [0, 0.4, 0], [0.5, 0, 0]],
              [[0, 0.1, 0], [0.1, 0, 0], [0, -0.1, 0]], dt=0.02, mode=mode,
              external=ExternalFieldModel.uniform(E=(0.2, 0.0, 0.1)))
    batches, diagnose = count_batches(monkeypatch)
    staged_rows = record_staged(monkeypatch)
    steps = []
    for _ in range(4):
        before = len(batches)
        step(st)
        steps.append(batches[before:])
        # the final stage reads the staged node at t_now, the step-end
        # batch the committed one, which differs from it in a only
        final, end = steps[-1][-2:]
        assert np.array_equal(final[4], staged_rows[-1][:, T_A])
        assert np.array_equal(end[4], committed_last(st))
        assert np.all(final[4][:, 0] == st.t_now)
        assert not np.array_equal(final[4], end[4])
        assert st.last_eval[0][0] == st.t_now
        got, want = st.diagnostics.records[-1], fresh_record(st)
        for name in ("t", "constraint_err", "h_eff", "p_hat", "m_hat",
                     "self_delays", "pair_delays"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert [len(b) for b in steps] == [6, 5, 5, 5]
    assert diagnose == [0, 0, 0, 0]
    assert len(staged_rows) == 16


def test_failed_stage_leaves_no_staged_node(monkeypatch, tmp_path):
    st = static_pair()
    step(st)
    tables = [h.table for h in st.histories]
    staged_lens = []

    def failing(histories, *args, **kwargs):
        # the reused step-end batch serves the first evaluation, so the
        # first call is the second stage, inside a staged block
        staged_lens.append([len(h) for h in histories])
        raise RuntimeError("stage failure")

    monkeypatch.setattr(dyn, "total_faraday", failing)
    with pytest.raises(RuntimeError, match="stage failure"):
        run(st, st.t_now + 3 * st.dt, trajectory_dir=tmp_path)
    assert staged_lens == [[len(t) + 1 for t in tables]]
    for h, table in zip(st.histories, tables):
        assert len(h) == len(table) and h.t_latest == table[-1, 0]
        assert np.array_equal(h.table, table)
        header, lines = wl.read_table(tmp_path / f"trajectory_{h.spec.label}.csv")
        exported = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        assert header == wl.CSV_HEADER and np.array_equal(exported, table)


def test_diagnostics_export_writes_each_number_as_repr_of_its_float(tmp_path):
    st = static_pair()
    run(st, st.t_now + 3 * st.dt)
    labels = [h.spec.label for h in st.histories]
    path = tmp_path / "diagnostics.csv"
    st.diagnostics.export_csv(path, labels, comment="c")
    # the reference: one cell at a time, repr(float(v)), the step number too
    rows = [[r.step, r.t, *r.constraint_err, *r.h_eff, *r.p_hat, *r.m_hat,
             *r.self_delays, *r.pair_delays] for r in st.diagnostics.records]
    want = ["# c", ",".join(st.diagnostics.header(labels))]
    want += [",".join(repr(float(v)) for v in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "".join(ln + "\n" for ln in want)
    assert [ln.split(",", 1)[0] for ln in want[2:]] == ["1.0", "2.0", "3.0"]
    dyn.Diagnostics().export_csv(path, labels)
    assert path.read_text(encoding="utf-8") == ",".join(dyn.Diagnostics().header(labels)) + "\n"


def test_neutral_companion_roots_are_not_solved_in_the_force(monkeypatch):
    specs = [ParticleSpec(1.0, 0.5, 0.6, "a"), ParticleSpec(1.0, 0.0, 0.7, "n"),
             ParticleSpec(1.2, -0.4, 0.5, "b")]
    st = seed(specs, [[-1.5, 0, 0], [0, 1.2, 0], [1.5, 0, 0]],
              [[0, 0.05, 0], [0.1, 0, 0], [0, -0.05, 0]], dt=0.02)
    batches, _ = count_batches(monkeypatch)
    for _ in range(2):
        before = len(batches)
        step(st)
        *stages, end = batches[before:]
        assert all(1 not in src for _, src, _, _, _ in stages)
        # the step-end batch solves the neutral source's sigma_i cone once
        # per observer, for the diagnostics only
        _, src, obs, sigma, _ = end
        assert sorted((o, s) for j, o, s in zip(src, obs, sigma) if j == 1) == [
            (0, 0.6), (1, 0.7), (2, 0.5)]
    # the diagnostics still report the neutral particle's delays
    rec = st.diagnostics.records[-1]
    assert np.all(rec.self_delays > 0.0) and np.all(rec.pair_delays > 0.0)


def test_reused_final_evaluation_is_the_next_first_bit_for_bit(monkeypatch):
    # radii just above 2 c dt: after three steps every root lands on the
    # curved, integrated part of the histories
    def pair():
        specs = [ParticleSpec(1.0, 0.1, 0.05, "a"), ParticleSpec(1.2, -0.1, 0.06, "b")]
        return seed(specs, [[-0.3, 0, 0], [0.3, 0.1, 0]], [[0, 0.1, 0], [0.05, 0, 0]],
                    dt=0.02, external=ExternalFieldModel.uniform(E=(0.3, 0.0, 0.1)))

    reused, fresh = pair(), pair()
    for _ in range(12):
        step(reused)
        assert reused.last_eval is not None
        fresh.last_eval = None
        step(fresh)
    assert reused.histories[0].t_first < 0.0 < reused.t_now - 0.06
    for a, b in zip(reused.histories, fresh.histories):
        assert np.array_equal(a.table, b.table)
    # a radius below 2 c dt lets a root iterate into the last step: the
    # step-end batch is solved afresh on the committed histories, not
    # taken from the final stage's staged nodes, and is the next step's
    # first
    def small():
        spec = ParticleSpec(1.0, 0.1, 0.03, "small")
        return seed([spec], [[0, 0, 0]], [[0.1, 0, 0]], dt=0.02,
                    external=ExternalFieldModel.uniform(E=(0.3, 0.0, 0.1)))

    reused, fresh = small(), small()
    batches, _ = count_batches(monkeypatch)
    staged_rows = record_staged(monkeypatch)
    for _ in range(6):
        before = len(batches)
        step(reused)
        final, end = batches[before:][-2:]
        assert np.array_equal(final[4], staged_rows[-1][:, T_A])
        assert np.array_equal(end[4], committed_last(reused))
        assert not np.array_equal(final[4], end[4])
        assert final[0] == end[0] == tuple(reused.histories)
        fresh.last_eval = None
        step(fresh)
    assert np.array_equal(reused.histories[0].table, fresh.histories[0].table)
